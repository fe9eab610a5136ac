"""Architecture assembly, parameter counting, whole-model gradients."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veclstm import models
from veclstm.errors import ConfigError, OutOfRange, ShapeMismatch
from veclstm.models import (
    HYBRID,
    LSTM_BASELINE,
    MIN_REPEAT_SHARE,
    VECLSTM,
    ForwardCache,
    ModelSpec,
    build_hybrid,
    build_lstm_stack,
    build_veclstm,
    distinct_rows,
    init_model_params,
    model_backward,
    model_forward,
    normalize_batch,
    ParamArena,
    param_blocks,
    param_count,
    trained_entries,
    trained_runs,
)
from veclstm.models import _backward_rows, _forward_rows
from veclstm import trainer
from veclstm.neuralnet import LstmParams, lstm_backward, softmax, softmax_cross_entropy
from veclstm.trainer import (
    AdamState, TrainConfig, adam_step, compute_params, predict, run_epochs,
)

from _oracles import (
    add_at_logit_sum,
    central_difference_grads,
    copying_lstm_backward,
    copying_lstm_sequence,
    first_occurrence_rows,
    per_layer_init_model_params,
    per_row_model_gradients,
    reduce_max_softmax,
    relative_error,
    sliced_predict,
)


class TestBuilders:
    def test_baseline_parameter_count_single_feature(self):
        assert param_count(build_lstm_stack(1)) == 71_357

    def test_layer_widths(self):
        spec = build_lstm_stack(1)
        widths = [layer["units"] for layer in spec.layer_summary()]
        assert widths == [100, 50, 7]

    def test_three_feature_count(self):
        # 4*100*(3+100) + 400, then 4*50*150 + 200, then 50*7 + 7
        assert param_count(build_lstm_stack(3)) == 41_600 + 30_200 + 357 == 72_157

    def test_veclstm_identical_to_baseline(self):
        base = build_lstm_stack(1)
        vec = build_veclstm(1)
        assert vec.architecture == VECLSTM
        assert base.architecture == LSTM_BASELINE
        assert vec.layer_summary() == base.layer_summary()
        assert param_count(vec) == param_count(base) == 71_357

    def test_veclstm_same_seed_same_init(self):
        a = init_model_params(build_lstm_stack(1), seed=9)
        b = init_model_params(build_veclstm(1), seed=9)
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_hybrid_branch_widths(self):
        spec = build_hybrid()
        flat = next(l for l in spec.layer_summary() if l["kind"] == "flatten")
        assert flat["width"] == (10 - 3 + 1) * 64 == 512
        assert spec.layer_summary()[-1]["units"] == 7
        # concatenated width drives the fusion weight shape
        params = init_model_params(spec, seed=0)
        assert params["fusion.w"].shape == (64, 50 + 512)

    def test_param_count_equals_block_enumeration(self):
        for spec in (build_lstm_stack(1), build_veclstm(2), build_hybrid()):
            params = init_model_params(spec, seed=3)
            assert param_count(spec) == sum(p.size for p in params.values())

    @pytest.mark.parametrize("build", [
        build_lstm_stack, build_veclstm, build_hybrid,
        lambda n: ModelSpec(architecture=VECLSTM, n_features=n),
    ], ids=["lstm", "veclstm", "hybrid", "spec"])
    def test_no_features_rejected(self, build):
        with pytest.raises(ConfigError, match="n_features"):
            build(0)

    @pytest.mark.parametrize("seed", [0, 3, 1001])
    @pytest.mark.parametrize("build", [
        lambda: build_lstm_stack(1),
        lambda: build_veclstm(1),
        lambda: build_hybrid(1),
        lambda: build_hybrid(3, timesteps=4, grid_size=6, conv_kernel=2, pool_size=2),
        lambda: build_lstm_stack(2, timesteps=3),
    ], ids=["lstm", "veclstm", "hybrid", "reduced_hybrid", "f2_t3"])
    def test_init_matches_per_layer_oracle(self, build, seed):
        spec = build()
        params = init_model_params(spec, seed)
        expected = per_layer_init_model_params(spec, seed)
        assert list(params) == list(expected)
        for key, array in expected.items():
            assert params[key].dtype == array.dtype, key
            assert np.array_equal(params[key], array), key

    @pytest.mark.parametrize("build, field", [
        (lambda: build_hybrid(1, pool_size=0), "pool_size"),
        (lambda: build_hybrid(1, conv_kernel=11), "conv_kernel"),
        (lambda: build_hybrid(1, conv_kernel=3, pool_size=9), "pool_size"),
        (lambda: build_hybrid(1, conv_filters=0), "conv_filters"),
        (lambda: build_hybrid(1, fusion_units=0), "fusion_units"),
        (lambda: build_lstm_stack(1, timesteps=0), "timesteps"),
        (lambda: build_lstm_stack(1, lstm_units=(100, 0)), "lstm_units"),
        (lambda: build_lstm_stack(1, n_classes=1), "n_classes"),
        (lambda: build_veclstm(1, grid_size=0), "grid_size"),
    ], ids=["pool_zero", "kernel_wider_than_grid", "pool_wider_than_conv",
            "no_filters", "no_fusion_units", "no_timesteps", "no_lstm2_units",
            "one_class", "no_grid"])
    def test_bad_size_rejected(self, build, field):
        # pool_size 0 used to raise ZeroDivisionError from param_count, and
        # kernel 11 built a conv branch of zero width.
        with pytest.raises(ConfigError, match=field):
            build()

    def test_grid_limits_bind_the_hybrid_only(self):
        assert param_count(build_lstm_stack(1, grid_size=2)) == 71_357
        assert build_hybrid(1, grid_size=3, conv_kernel=3, pool_size=1).grid_features == 64

    def test_spec_json(self):
        doc = json.loads(build_hybrid(seed=5).to_json())
        assert doc["architecture"] == "HYBRID"
        assert doc["seed"] == 5
        assert doc["input"]["grid"] == [10, 10]


class TestForward:
    def test_zero_params_uniform_probs(self):
        spec = build_lstm_stack(1)
        params = {k: np.zeros_like(v)
                  for k, v in init_model_params(spec, seed=0).items()}
        probs = model_forward(spec, params, np.zeros((4, 1, 1)))
        assert np.allclose(probs, 1 / 7)

    def test_rows_sum_to_one(self):
        spec = build_hybrid()
        params = init_model_params(spec, seed=1)
        rng = np.random.default_rng(2)
        batch = (rng.normal(size=(5, 1, 1)), rng.normal(size=(5, 10, 10)))
        probs = model_forward(spec, params, batch)
        assert probs.shape == (5, 7)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_batch_permutation_equivariance(self):
        spec = build_lstm_stack(2)
        params = init_model_params(spec, seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 1, 2))
        perm = rng.permutation(6)
        probs = model_forward(spec, params, x)
        assert np.allclose(model_forward(spec, params, x[perm]), probs[perm],
                           atol=1e-12)

    def test_zeroed_cnn_branch_reduces_to_lstm_branch(self):
        spec = ModelSpec(architecture=HYBRID, n_features=1, lstm_units=(6, 4),
                         grid_size=5, conv_filters=3, fusion_units=5)
        params = init_model_params(spec, seed=6)
        params["conv.kernels"] = np.zeros_like(params["conv.kernels"])
        params["conv.biases"] = np.zeros_like(params["conv.biases"])
        rng = np.random.default_rng(7)
        meta = rng.normal(size=(3, 1, 1))
        grids_a = rng.normal(size=(3, 5, 5))
        grids_b = rng.normal(size=(3, 5, 5))
        # with the conv branch dead, the grids cannot influence the output
        probs_a = model_forward(spec, params, (meta, grids_a))
        probs_b = model_forward(spec, params, (meta, grids_b))
        assert np.array_equal(probs_a, probs_b)

        # and the fusion layer sees exactly [lstm_out; zeros]
        from veclstm.models import _lstm_view
        from veclstm.neuralnet import dense_forward, lstm_sequence, DenseParams, softmax
        h1, _ = lstm_sequence(meta, _lstm_view(params, "lstm1"), True)
        h2, _ = lstm_sequence(h1, _lstm_view(params, "lstm2"), False)
        fused = params["fusion.w"][:, :4] @ h2.T + params["fusion.b"][:, None]
        head_in = np.maximum(fused.T, 0.0)
        logits = dense_forward(head_in, DenseParams(params["head.w"], params["head.b"]))
        assert np.allclose(probs_a, softmax(logits), atol=1e-12)


class TestOutputActivationFlag:
    def test_relu_emission_changes_outputs(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 1, 2))
        tanh_spec = ModelSpec(architecture=LSTM_BASELINE, n_features=2,
                              lstm_units=(5, 4))
        relu_spec = ModelSpec(architecture=LSTM_BASELINE, n_features=2,
                              lstm_units=(5, 4), lstm_output_activation="relu")
        params = init_model_params(tanh_spec, seed=32)
        a = model_forward(tanh_spec, params, x)
        b = model_forward(relu_spec, params, x)
        assert not np.allclose(a, b)

    def test_flag_recorded_in_spec_json(self):
        spec = build_veclstm(1, lstm_output_activation="relu")
        doc = json.loads(spec.to_json())
        assert doc["layers"][0]["output_activation"] == "relu"

    def test_unknown_activation_is_rejected(self):
        # It used to run as tanh and be written to model_spec.json as given.
        with pytest.raises(ConfigError, match="'sigmoid'"):
            build_lstm_stack(1, lstm_output_activation="sigmoid")


class TestBackward:
    @pytest.mark.parametrize(
        "case", ["lstm", "hybrid", "hybrid_relu", "lstm_repeated", "hybrid_repeated",
                 "hybrid_cells"])
    def test_whole_model_gradient_check(self, case):
        if case.startswith("lstm"):
            spec = ModelSpec(architecture=LSTM_BASELINE, n_features=2,
                             lstm_units=(4, 3))
        else:
            spec = ModelSpec(
                architecture=HYBRID, n_features=2, lstm_units=(4, 3),
                grid_size=6, conv_filters=2, conv_kernel=3, fusion_units=5,
                lstm_output_activation="relu" if case == "hybrid_relu" else "tanh",
            )
        rng = np.random.default_rng(11)
        params = init_model_params(spec, seed=12)
        meta = rng.normal(size=(3, 1, 2))
        grids = rng.normal(size=(3, 6, 6))
        labels = [1, 4, 6]
        if case == "hybrid_cells":
            grids = np.array([5, 20, 33])  # flat cell indices r * 6 + c
            # With the zero initial bias, every conv output whose window
            # misses the cell sits on the ReLU kink, where a central
            # difference is not the derivative.
            params["conv.biases"] = rng.normal(size=params["conv.biases"].shape)
        repeated = case.endswith("repeated") or case == "hybrid_cells"
        if repeated:
            # repeated rows carry different labels, so their gradients differ
            rows = [0, 1, 0, 2, 0, 1]
            meta, grids, labels = meta[rows], grids[rows], [1, 4, 2, 6, 5, 4]
        if spec.architecture == HYBRID:
            batch = (meta, grids)
        else:
            batch = meta
        targets = np.zeros((len(labels), 7))
        targets[np.arange(len(labels)), labels] = 1.0

        def loss():
            probs, cache = model_forward(spec, params, batch, with_cache=True)
            return softmax_cross_entropy(cache.logits, targets)[1]

        _, cache = model_forward(spec, params, batch, with_cache=True)
        assert ("inverse" in cache.internals) == repeated
        _, _, d_logits = softmax_cross_entropy(cache.logits, targets)
        grads = model_backward(spec, params, cache, d_logits)

        assert set(grads) == set(params)
        numeric = central_difference_grads(loss, params)
        for key in params:
            assert relative_error(grads[key], numeric[key]) < 1e-4, key


def _trained_masks(spec, params):
    """Per block, the entries trained_entries selects, as a boolean mask."""
    masks = {key: np.zeros(p.shape, dtype=bool) for key, p in params.items()}
    for key, index in trained_entries(spec).items():
        masks[key][index] = True
    return masks


class TestTrainedEntries:
    """Training updates exactly the entries that can get a gradient."""

    @staticmethod
    def batch(arch, n, seed):
        rng = np.random.default_rng(seed)
        meta = rng.normal(size=(n, 1, 1))
        if arch == "hybrid":
            return build_hybrid(1), (meta, _one_hot_grids(rng.integers(0, 100, n), 10))
        return build_veclstm(1), meta

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_one_step_gradient_is_zero_outside_the_trained_entries(self, arch):
        spec, batch = self.batch(arch, n=40, seed=6)
        params = compute_params(init_model_params(spec, seed=2))
        _, cache = model_forward(spec, params, batch, with_cache=True)
        targets = np.eye(7)[np.arange(40) % 7]
        _, _, d_logits = softmax_cross_entropy(cache.logits, targets)
        grads = model_backward(spec, params, cache, d_logits)
        masks = _trained_masks(spec, params)
        for key, grad in grads.items():
            assert np.all(grad[~masks[key]] == 0.0), key
        # per LSTM layer: the recurrent columns of all four gates, and
        # the input columns and bias of the forget gate
        untrained = sum(4 * h * h + h * n_in + h for h, n_in in ((100, 1), (50, 100)))
        assert sum(int((~mask).sum()) for mask in masks.values()) == untrained == 55_250

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_flat_state_holds_each_trained_entry_once(self, arch):
        spec, _ = self.batch(arch, n=1, seed=0)
        params = init_model_params(spec, seed=2)
        masks = _trained_masks(spec, params)
        state = AdamState(spec, params)
        # one run per LSTM layer, the first one led by the other blocks
        runs = trained_runs(spec)
        assert len(runs) == 2
        assert sum(run.stop - run.start for run in runs) == sum(
            int(mask.sum()) for mask in masks.values())
        for run in runs:
            state.p[run] = 10.0 + np.arange(run.start, run.stop)  # unlike any initial value
        written = np.concatenate([state.master[key][mask] for key, mask in masks.items()])
        assert np.array_equal(np.sort(written),
                              np.concatenate([state.p[run] for run in runs]))
        for key, mask in masks.items():
            assert np.array_equal(state.master[key][~mask], params[key][~mask]), key

    def test_longer_sequences_train_every_entry(self):
        spec = ModelSpec(architecture=VECLSTM, timesteps=2, lstm_units=(4, 3))
        params = init_model_params(spec, seed=3)
        assert all(mask.all() for mask in _trained_masks(spec, params).values())
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 2, 1))
        y = rng.integers(0, 7, 32)
        master, _, _, _ = run_epochs(spec, params, lambda idx: x[idx], y,
                                     TrainConfig(epochs=1, batch_size=16, seed=0))
        assert np.all(master["lstm1.w_f"] != params["lstm1.w_f"])


def _small_hybrid():
    return ModelSpec(architecture=HYBRID, n_features=1, lstm_units=(4, 3),
                     grid_size=6, conv_filters=2, conv_kernel=3, fusion_units=5)


def _one_hot_grids(cells, grid_size):
    grids = np.zeros((len(cells), grid_size, grid_size))
    grids[np.arange(len(cells)), cells // grid_size, cells % grid_size] = 1.0
    return grids


def _max_relative(got, want):
    """Largest difference relative to the largest entry of want."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestDeduplication:
    """Rows that repeat run once; results match running every row alone."""

    def batch(self, case):
        rng = np.random.default_rng(21)
        if case.startswith("hybrid"):
            spec = _small_hybrid()
            cells = rng.choice([3, 17, 30], size=40)
            # each cell carries its own scalar, as cell_density does
            meta = np.array([0.2, -1.1, 0.7])[np.searchsorted([3, 17, 30], cells)]
            if case == "hybrid":
                cells = _one_hot_grids(cells, spec.grid_size)
            batch = (meta.reshape(-1, 1, 1), cells)
        else:
            timesteps = int(case[-1])
            spec = ModelSpec(architecture=VECLSTM, timesteps=timesteps, lstm_units=(4, 3))
            values = rng.normal(size=(4, timesteps, 1))
            batch = values[rng.integers(0, 4, size=40)]
        return spec, batch

    @pytest.mark.parametrize("case", ["hybrid", "hybrid_cells", "veclstm_t1", "veclstm_t3"])
    def test_matches_per_row_oracle(self, case):
        spec, batch = self.batch(case)
        params = init_model_params(spec, seed=5)
        rng = np.random.default_rng(22)
        targets = np.zeros((40, 7))
        targets[np.arange(40), rng.integers(0, 7, size=40)] = 1.0

        probs, cache = model_forward(spec, params, batch, with_cache=True)
        distinct = cache.internals["head_in"].shape[0]
        assert distinct <= 4 and probs.shape == cache.logits.shape == (40, 7)
        _, _, d_logits = softmax_cross_entropy(cache.logits, targets)
        grads = model_backward(spec, params, cache, d_logits)

        ref_probs, ref_grads = per_row_model_gradients(
            model_forward, model_backward, spec, params, batch, d_logits)
        assert _max_relative(probs, ref_probs) < 1e-12
        assert set(grads) == set(ref_grads) == set(params)
        for key in params:
            assert _max_relative(grads[key], ref_grads[key]) < 1e-12, key

    @pytest.mark.parametrize("batch_size", [3, 4096])
    def test_predict_gives_equal_rows_equal_probabilities(self, monkeypatch, batch_size):
        # At full width, a row's BLAS rounding depends on where it sits in
        # a batch; each distinct row must still be computed only once.
        _, (meta, small_grids) = self.batch("hybrid")
        spec = build_hybrid(1)
        cells = np.argmax(small_grids.reshape(len(meta), -1), axis=1)
        batch = (meta, _one_hot_grids(cells, spec.grid_size))
        params = init_model_params(spec, seed=5)
        # predict runs the model on the float32 copy of the parameters.
        reference = model_forward(spec, compute_params(params), batch)
        monkeypatch.setattr(models, "FORWARD_SLICE_ROWS", batch_size)
        probs = predict(spec, params, batch)
        first, inverse = distinct_rows(*normalize_batch(spec, batch))
        assert np.array_equal(probs, probs[first][inverse])
        assert _max_relative(probs, reference) < 1e-12

    def test_batch_without_enough_repeats_takes_plain_path(self):
        spec = _small_hybrid()
        params = init_model_params(spec, seed=5)
        rng = np.random.default_rng(23)
        meta = rng.normal(size=(40, 1, 1))
        grids = rng.normal(size=(40, 6, 6))
        assert distinct_rows(meta, grids) is None
        # one repeat in 40 rows is below MIN_REPEAT_SHARE
        assert 1 / 40 < MIN_REPEAT_SHARE
        meta[1], grids[1] = meta[0], grids[0]
        assert distinct_rows(meta, grids) is None

        first, cache = model_forward(spec, params, (meta, grids), with_cache=True)
        assert first is cache.logits
        assert "inverse" not in cache.internals
        logits, internals = _forward_rows(spec, params, meta, grids)
        assert np.array_equal(cache.logits, logits)
        assert np.array_equal(softmax(cache.logits), softmax(logits))
        d_logits = rng.normal(size=(40, 7))
        grads = model_backward(spec, params, cache, d_logits)
        plain = _backward_rows(spec, params, internals, d_logits)
        for key in params:
            assert np.array_equal(grads[key], plain[key]), key

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_first_occurrence_oracle(self, data):
        # Few distinct values and few prototype rows, so that batches fall
        # on both sides of MIN_REPEAT_SHARE.
        n = data.draw(st.integers(1, 60), label="n")
        timesteps = data.draw(st.sampled_from([1, 3]), label="timesteps")
        grid_kind = data.draw(st.sampled_from(["none", "cells", "heatmap"]), label="grid")
        values = st.sampled_from([0.0, -0.0, np.nan, 1.0, -2.5])

        def rows(width):
            protos = data.draw(st.lists(st.lists(values, min_size=width, max_size=width),
                                        min_size=1, max_size=6))
            picks = data.draw(st.lists(st.integers(0, len(protos) - 1), min_size=n, max_size=n))
            return np.array(protos)[picks]

        meta = rows(timesteps).reshape(n, timesteps, 1)
        if grid_kind == "cells":
            grid = np.array(data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
        else:
            grid = None if grid_kind == "none" else rows(9).reshape(n, 3, 3)

        found = distinct_rows(meta, grid)
        want_first, want_inverse = first_occurrence_rows(
            *(p for p in (meta, grid) if p is not None))
        repeats = n - want_first.size
        if repeats == 0 or repeats < MIN_REPEAT_SHARE * n:
            assert found is None
        else:
            first, inverse = found
            assert np.all(np.diff(first) > 0)
            assert np.array_equal(first, want_first)
            assert np.array_equal(inverse, want_inverse)
        if grid_kind == "cells":
            as_grids = distinct_rows(meta, _one_hot_grids(grid, 3))
            assert (found is None) == (as_grids is None)
            if found is not None:
                assert all(np.array_equal(a, b) for a, b in zip(found, as_grids))

    def test_negative_zero_is_a_distinct_row(self):
        meta = np.array([0.0, -0.0, 0.0, -0.0]).reshape(4, 1, 1)
        first, inverse = distinct_rows(meta, None)
        assert first.size == 2
        assert np.array_equal(np.signbit(meta[first][inverse]), np.signbit(meta))

    def test_logit_gradient_must_cover_every_row(self):
        spec, batch = self.batch("veclstm_t1")
        params = init_model_params(spec, seed=5)
        _, cache = model_forward(spec, params, batch, with_cache=True)
        with pytest.raises(ShapeMismatch):
            model_backward(spec, params, cache, np.zeros((4, 7)))


class TestLogitGradientSum:
    """model_backward sums a merged batch's repeated rows with one
    np.bincount, bit for bit as the np.add.at scatter did."""

    @pytest.mark.parametrize("n, distinct", [(512, 73), (37, 9), (1, 1), (60, 60)],
                             ids=["512_onto_73", "37_onto_9", "one_row", "all_distinct"])
    def test_matches_add_at(self, monkeypatch, n, distinct):
        summed = []
        monkeypatch.setattr(models, "_backward_rows",
                            lambda spec, params, iv, grad_logits: summed.append(grad_logits))
        rng = np.random.default_rng(n)
        for _ in range(50):
            # every distinct row occurs, in random order and multiplicity
            inverse = rng.permutation(np.concatenate(
                (np.arange(distinct), rng.integers(0, distinct, n - distinct))))
            grad = rng.normal(size=(n, 7)) * 10.0 ** rng.uniform(-8, 2, size=(n, 7))
            cache = ForwardCache(np.zeros((n, 7)),
                                 {"inverse": inverse, "head_in": np.zeros((distinct, 3))})
            model_backward(None, None, cache, grad)
            assert np.array_equal(summed.pop(), add_at_logit_sum(inverse, grad, distinct))

    @pytest.mark.parametrize("n", [512, 37])
    @pytest.mark.parametrize("grid", ["cells", "heatmap"])
    def test_hybrid_gradients_match_add_at(self, grid, n):
        spec = build_hybrid(1)
        params = compute_params(init_model_params(spec, seed=61))
        rng = np.random.default_rng(62)
        pick = rng.integers(0, 8, n)
        cells = rng.integers(0, 100, 8)[pick]
        batch = (rng.normal(size=(8, 1, 1))[pick],
                 cells if grid == "cells" else _one_hot_grids(cells, 10))
        d_logits = rng.normal(size=(n, 7)) / n
        _, cache = model_forward(spec, params, batch, with_cache=True)
        grads = model_backward(spec, params, cache, d_logits)
        # a second, equal cache: the backward may write to the one it reads
        _, cache = model_forward(spec, params, batch, with_cache=True)
        iv = cache.internals
        want = _backward_rows(spec, params, iv, add_at_logit_sum(
            iv["inverse"], d_logits, iv["head_in"].shape[0]))
        assert set(grads) == set(want) == set(params)
        for key in params:
            assert np.array_equal(grads[key], want[key]), key


def _split(kind, n, repeat_share, seed):
    """(spec, x) of n random rows, the last round(repeat_share * n) of
    which repeat earlier rows byte for byte."""
    rng = np.random.default_rng(seed)
    n_repeats = round(repeat_share * n)
    source = np.arange(n)
    source[n - n_repeats:] = rng.integers(0, max(n - n_repeats, 1), n_repeats)
    meta = rng.normal(size=(n, 1, 1))[source]
    if kind == "lstm":
        return build_lstm_stack(1), meta
    if kind == "veclstm":
        return build_veclstm(1), meta
    if kind == "hybrid_cells":
        return build_hybrid(1), (meta, rng.integers(0, 100, n)[source])
    return build_hybrid(1), (meta, rng.random((n, 10, 10))[source])


class TestWholeSplitForward:
    """model_forward alone groups and slices the rows predict gives it."""

    @pytest.mark.parametrize("repeat_share", [0.02, 0.5])
    @pytest.mark.parametrize("n", [0, 37, 512, 513, 1500])
    @pytest.mark.parametrize("kind", ["veclstm", "hybrid_cells", "hybrid_heatmaps"])
    def test_predict_matches_the_sliced_oracle(self, kind, n, repeat_share):
        assert 0.02 < MIN_REPEAT_SHARE < 0.5
        spec, x = _split(kind, n, repeat_share, seed=n)
        params = init_model_params(spec, seed=9)
        probs = predict(spec, params, x)
        assert probs.dtype == np.float64 and probs.shape == (n, 7)
        assert np.array_equal(probs, sliced_predict(spec, params, x))

    @pytest.mark.parametrize("kind", ["lstm", "veclstm", "hybrid_cells", "hybrid_heatmaps"])
    def test_zero_rows_give_zero_probability_rows(self, kind):
        spec, x = _split(kind, 0, 0.0, seed=0)
        params = init_model_params(spec, seed=9)
        work = compute_params(params)
        logits, cache = model_forward(spec, work, x, with_cache=True)
        assert logits is cache.logits
        probs = softmax(cache.logits)
        for out in (probs, cache.logits, model_forward(spec, work, x), predict(spec, params, x)):
            assert out.shape == (0, 7)
        assert probs.dtype == model_forward(spec, work, x).dtype == np.float64

    @pytest.mark.parametrize("kind", ["veclstm", "hybrid_cells"])
    def test_predict_keeps_one_slice_alive_at_a_time(self, kind):
        # A whole split costs little more memory than one slice: only each
        # slice's probabilities outlive it, not its layer internals.
        spec, x = _split(kind, 20_000, 0.0, seed=1)
        params = init_model_params(spec, seed=9)
        work = compute_params(params)
        one_slice = x[:512] if kind == "veclstm" else (x[0][:512], x[1][:512])

        def peak_bytes(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        slice_peak = peak_bytes(lambda: model_forward(spec, work, one_slice))
        split_peak = peak_bytes(lambda: predict(spec, params, x))
        assert split_peak < 3 * slice_peak, (split_peak, slice_peak)


class TestCellIndexInput:
    """A hybrid cell index r * G + c runs as the one-hot grid of its cell."""

    @staticmethod
    def batch(n, seed):
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, 100, n)
        # a few feature values per cell, so that rows repeat as in training
        meta = rng.normal(size=(100, 3))[cells, rng.integers(0, 3, n)].reshape(n, 1, 1)
        return meta, cells

    def test_rows_group_as_their_one_hot_grids(self):
        meta, cells = self.batch(512, seed=41)
        expected = distinct_rows(meta, _one_hot_grids(cells, 10))
        first, inverse = distinct_rows(meta, cells)
        assert first.size < 512
        assert np.array_equal(first, expected[0])
        assert np.array_equal(inverse, expected[1])

    @pytest.mark.parametrize("dedup", [True, False])
    def test_bit_identical_to_one_hot_grids(self, monkeypatch, dedup):
        if not dedup:
            monkeypatch.setattr(models, "MIN_REPEAT_SHARE", 2.0)
        spec = build_hybrid(1)
        params = compute_params(init_model_params(spec, seed=42))
        meta, cells = self.batch(512, seed=43)
        targets = np.eye(7)[np.random.default_rng(44).integers(0, 7, 512)]
        results = []
        for grid in (cells, _one_hot_grids(cells, spec.grid_size)):
            probs, cache = model_forward(spec, params, (meta, grid), with_cache=True)
            assert ("inverse" in cache.internals) == dedup
            _, _, d_logits = softmax_cross_entropy(cache.logits, targets)
            results.append((probs, model_backward(spec, params, cache, d_logits)))
        (probs, grads), (want_probs, want_grads) = results
        assert np.array_equal(probs, want_probs)
        for key in params:
            assert np.array_equal(grads[key], want_grads[key]), key

    @pytest.mark.parametrize("cells,error", [
        (np.array([3, -1, 4]), OutOfRange),
        (np.array([3, 100, 4]), OutOfRange),
        (np.array([3.0, 1.0, 4.0]), ShapeMismatch),
        (np.array([[3], [1], [4]]), ShapeMismatch),
    ], ids=["negative", "too_large", "float", "two_dimensional"])
    def test_bad_index_is_rejected(self, cells, error):
        spec = build_hybrid(1)
        params = init_model_params(spec, seed=45)
        with pytest.raises(error):
            model_forward(spec, params, (np.zeros((3, 1, 1)), cells))


class TestCopyFreeStep:
    """The LSTM layers hand activations and gradients over batch-last,
    without a copy, and the float32 step is bit-identical to the kernels
    that copied them (tests/_oracles.py)."""

    SPECS = {
        "veclstm": lambda: build_veclstm(1),
        "lstm_t3": lambda: ModelSpec(architecture=LSTM_BASELINE, n_features=2, timesteps=3),
        "hybrid_cells": lambda: build_hybrid(1),
        "relu_t3": lambda: ModelSpec(architecture=LSTM_BASELINE, n_features=2, timesteps=3,
                                     lstm_output_activation="relu"),
    }

    @staticmethod
    def batch(spec, n, seed):
        rng = np.random.default_rng(seed)
        meta = rng.normal(size=(n, spec.timesteps, spec.n_features))
        if spec.has_grid_branch:
            return (meta, rng.integers(0, spec.grid_size ** 2, n))
        return meta

    def step(self, spec, params, batch, seed):
        probs, cache = model_forward(spec, params, batch, with_cache=True)
        d_logits = np.random.default_rng(seed).normal(size=probs.shape) / len(probs)
        return probs, cache, model_backward(spec, params, cache, d_logits)

    @pytest.mark.parametrize("n", [512, 37])
    @pytest.mark.parametrize("case", SPECS)
    def test_bit_identical_to_copying_kernels(self, monkeypatch, case, n):
        spec = self.SPECS[case]()
        params = compute_params(init_model_params(spec, seed=51))
        batch = self.batch(spec, n, seed=52)
        probs, _, grads = self.step(spec, params, batch, seed=53)
        monkeypatch.setattr(models, "lstm_sequence", copying_lstm_sequence)
        monkeypatch.setattr(models, "lstm_backward", copying_lstm_backward)
        monkeypatch.setattr(models, "softmax", reduce_max_softmax)
        want_probs, _, want_grads = self.step(spec, params, batch, seed=53)
        assert np.array_equal(probs, want_probs)
        assert set(grads) == set(want_grads) == set(params)
        for key in params:
            assert grads[key].dtype == np.float32, key
            assert np.array_equal(grads[key], want_grads[key]), key

    @pytest.mark.parametrize("case", ["veclstm", "lstm_t3"])
    def test_lstm_handoff_copies_nothing(self, monkeypatch, case):
        spec = self.SPECS[case]()
        params = compute_params(init_model_params(spec, seed=54))
        upstream = []

        def recording_backward(cache, params, grad_out, **kwargs):
            grads, dx = lstm_backward(cache, params, grad_out, **kwargs)
            upstream.append((grad_out, dx))
            return grads, dx

        monkeypatch.setattr(models, "lstm_backward", recording_backward)
        _, cache, _ = self.step(spec, params, self.batch(spec, 64, seed=55), seed=56)
        iv = cache.internals
        # lstm2 reads lstm1's batch-last hidden states as its input
        assert np.shares_memory(iv["cache2"].x, iv["cache1"].h)
        # lstm1's upstream gradient is lstm2's input gradient, and it is
        # batch-last contiguous, so lstm1's backward does not copy it
        (_, d_e1), (d_h1, dx1) = upstream
        assert np.shares_memory(d_h1, d_e1)
        assert d_h1.transpose(1, 2, 0).flags.c_contiguous
        assert dx1 is None


class TestParamArena:
    """Training's parameter sets are views into one flat buffer each: the
    LSTM gates stack as views, and gradients are written in place."""

    SPECS = {
        "veclstm": lambda: build_veclstm(1),
        "hybrid": lambda: build_hybrid(1),
        "lstm_t2": lambda: ModelSpec(architecture=LSTM_BASELINE, n_features=2, timesteps=2,
                                     lstm_units=(5, 4)),
    }

    @staticmethod
    def batch(spec, n, seed):
        rng = np.random.default_rng(seed)
        meta = rng.normal(size=(n, spec.timesteps, spec.n_features))
        if spec.has_grid_branch:
            return meta, rng.integers(0, spec.grid_size ** 2, n)
        return meta

    @staticmethod
    def backward(spec, params, batch, seed):
        _, cache = model_forward(spec, params, batch, with_cache=True)
        d_logits = np.random.default_rng(seed).normal(size=cache.logits.shape) / len(cache.logits)
        return model_backward(spec, params, cache, d_logits)

    @pytest.mark.parametrize("case", SPECS)
    def test_every_block_is_a_view_of_its_arena(self, case):
        spec = self.SPECS[case]()
        params = init_model_params(spec, seed=3)
        state = AdamState(spec, params)
        for arena, dtype in ((state.master, np.float64), (state.work, np.float32),
                             (state.grad, np.float32)):
            assert list(arena) == list(param_blocks(spec))
            assert arena.flat.dtype == dtype and arena.flat.size == param_count(spec)
            for key, block in arena.items():
                assert block.dtype == dtype, key
                assert np.shares_memory(block, arena.flat), key
        assert state.work.grad is state.grad and state.master.grad is None
        for key, value in params.items():
            assert np.array_equal(state.master[key], value), key
            assert np.array_equal(state.work[key], value.astype(np.float32)), key
        assert not state.grad.flat.any()

    @pytest.mark.parametrize("case, t_len", [("veclstm", 1), ("hybrid", 1), ("lstm_t2", 2)])
    def test_stacked_gates_are_views(self, case, t_len):
        spec = self.SPECS[case]()
        arena = ParamArena(spec, np.float32, compute_params(init_model_params(spec, seed=4)))
        for prefix, layer in arena.lstm.items():
            fields = {name: getattr(layer, name) for name in
                      ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g")}
            assert all(fields[name] is arena[f"{prefix}.{name}"] for name in fields)
            w, b = layer.stacked(t_len)
            want_w, want_b = LstmParams(**{k: v.copy() for k, v in fields.items()}).stacked(t_len)
            assert w.base is not None and np.shares_memory(w, arena.flat), prefix
            assert b.base is not None and np.shares_memory(b, arena.flat), prefix
            assert np.array_equal(w, want_w) and np.array_equal(b, want_b), prefix

    def test_init_through_the_arena_matches_the_per_layer_oracle(self):
        for spec in (build_veclstm(1), build_hybrid(1), self.SPECS["lstm_t2"]()):
            master = AdamState(spec, init_model_params(spec, seed=7)).master
            expected = per_layer_init_model_params(spec, seed=7)
            assert list(master) == list(expected)
            for key, array in expected.items():
                assert np.array_equal(master[key], array), key

    @pytest.mark.parametrize("case", SPECS)
    def test_runs_hold_exactly_the_trained_entries(self, case):
        spec = self.SPECS[case]()
        mask = ParamArena(spec, bool)
        for run in trained_runs(spec):
            mask.flat[run] = True
        want = _trained_masks(spec, init_model_params(spec, seed=0))
        for key, block in mask.items():
            assert np.array_equal(block, want[key]), key

    @pytest.mark.parametrize("case", ["veclstm", "hybrid"])
    def test_backward_returns_the_same_arrays_step_after_step(self, case):
        spec = self.SPECS[case]()
        state = AdamState(spec, init_model_params(spec, seed=5))
        first = self.backward(spec, state.work, self.batch(spec, 64, seed=6), seed=7)
        assert all(first[key] is state.grad[key] for key in first)
        second = self.backward(spec, state.work, self.batch(spec, 37, seed=8), seed=9)
        assert all(second[key] is first[key] for key in first)

    @pytest.mark.parametrize("case", ["veclstm", "hybrid"])
    def test_untrained_gradients_stay_zero(self, monkeypatch, case):
        spec = self.SPECS[case]()
        states = []

        def keep(grads, state, config):
            states.append(state)
            return adam_step(grads, state, config)

        monkeypatch.setattr(trainer, "adam_step", keep)
        x = self.batch(spec, 200, seed=10)
        rows = (lambda idx: (x[0][idx], x[1][idx])) if spec.has_grid_branch else (lambda idx: x[idx])
        run_epochs(spec, init_model_params(spec, seed=11), rows, np.arange(200) % 7,
                   TrainConfig(epochs=4, batch_size=40, seed=0))
        assert len(states) == 20 and all(state is states[0] for state in states)
        grad = states[0].grad
        masks = _trained_masks(spec, grad)
        for key, block in grad.items():
            assert np.all(block[~masks[key]] == 0.0), key
        assert all(np.any(grad.flat[run] != 0.0) for run in trained_runs(spec))

    @pytest.mark.parametrize("case", ["veclstm", "hybrid", "lstm_t2"])
    def test_two_live_caches_back_propagate_like_fresh_buffers(self, case):
        spec = self.SPECS[case]()
        state = AdamState(spec, init_model_params(spec, seed=12))
        unlinked = ParamArena(spec, np.float32, state.work)
        batches = [self.batch(spec, n, seed) for n, seed in ((64, 13), (37, 14))]
        caches = [model_forward(spec, state.work, batch, with_cache=True)[1] for batch in batches]
        for batch, cache, seed in zip(batches[::-1], caches[::-1], (15, 16)):
            d_logits = np.random.default_rng(seed).normal(size=cache.logits.shape)
            grads = model_backward(spec, state.work, cache, d_logits)
            _, fresh_cache = model_forward(spec, unlinked, batch, with_cache=True)
            fresh = model_backward(spec, unlinked, fresh_cache, d_logits)
            for key in fresh:
                assert not np.shares_memory(fresh[key], state.grad.flat), key
                assert np.array_equal(grads[key], fresh[key]), key
