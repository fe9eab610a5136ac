"""Architecture assembly, parameter counting, whole-model gradients."""

import json

import numpy as np
import pytest

from veclstm import models
from veclstm.errors import ShapeMismatch
from veclstm.models import (
    HYBRID,
    LSTM_BASELINE,
    MIN_REPEAT_SHARE,
    VECLSTM,
    ModelSpec,
    build_hybrid,
    build_lstm_stack,
    build_veclstm,
    distinct_rows,
    init_model_params,
    model_backward,
    model_forward,
    normalize_batch,
    param_count,
)
from veclstm.models import _backward_rows, _forward_rows, _row_keys
from veclstm.neuralnet import softmax, softmax_cross_entropy
from veclstm.trainer import predict

from _oracles import central_difference_grads, per_row_model_gradients, relative_error


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


class TestBackward:
    @pytest.mark.parametrize(
        "case", ["lstm", "hybrid", "hybrid_relu", "lstm_repeated", "hybrid_repeated"])
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
        if case.endswith("repeated"):
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
        assert ("inverse" in cache.internals) == case.endswith("repeated")
        _, _, d_logits = softmax_cross_entropy(cache.logits, targets)
        grads = model_backward(spec, params, cache, d_logits)

        assert set(grads) == set(params)
        numeric = central_difference_grads(loss, params)
        for key in params:
            assert relative_error(grads[key], numeric[key]) < 1e-4, key


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
        if case == "hybrid":
            spec = _small_hybrid()
            cells = rng.choice([3, 17, 30], size=40)
            # each cell carries its own scalar, as cell_density does
            meta = np.array([0.2, -1.1, 0.7])[np.searchsorted([3, 17, 30], cells)]
            batch = (meta.reshape(-1, 1, 1), _one_hot_grids(cells, spec.grid_size))
        else:
            timesteps = int(case[-1])
            spec = ModelSpec(architecture=VECLSTM, timesteps=timesteps, lstm_units=(4, 3))
            values = rng.normal(size=(4, timesteps, 1))
            batch = values[rng.integers(0, 4, size=40)]
        return spec, batch

    @pytest.mark.parametrize("case", ["hybrid", "veclstm_t1", "veclstm_t3"])
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
    def test_predict_gives_equal_rows_equal_probabilities(self, batch_size):
        # At full width, a row's BLAS rounding depends on where it sits in
        # a batch; each distinct row must still be computed only once.
        _, (meta, small_grids) = self.batch("hybrid")
        spec = build_hybrid(1)
        cells = np.argmax(small_grids.reshape(len(meta), -1), axis=1)
        batch = (meta, _one_hot_grids(cells, spec.grid_size))
        params = init_model_params(spec, seed=5)
        probs = predict(spec, params, batch, batch_size=batch_size)
        first, inverse = distinct_rows(*normalize_batch(spec, batch))
        assert np.array_equal(probs, probs[first][inverse])
        assert _max_relative(probs, model_forward(spec, params, batch)) < 1e-12

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

        probs, cache = model_forward(spec, params, (meta, grids), with_cache=True)
        assert "inverse" not in cache.internals
        logits, internals = _forward_rows(spec, params, meta, grids)
        assert np.array_equal(cache.logits, logits)
        assert np.array_equal(probs, softmax(logits))
        d_logits = rng.normal(size=(40, 7))
        grads = model_backward(spec, params, cache, d_logits)
        plain = _backward_rows(spec, params, internals, d_logits)
        for key in params:
            assert np.array_equal(grads[key], plain[key]), key

    def test_key_collision_falls_back_to_row_bytes(self, monkeypatch):
        rng = np.random.default_rng(24)
        meta = rng.normal(size=(3, 1, 1))[[0, 1, 0, 2, 1, 0]]
        grids = rng.normal(size=(3, 6, 6))[[0, 1, 0, 2, 1, 0]]
        expected = distinct_rows(meta, grids)
        monkeypatch.setattr(models, "_row_keys", lambda words, column: np.zeros(len(words), np.uint64))
        first, inverse = distinct_rows(meta, grids)
        assert np.array_equal(meta[first][inverse], meta)
        assert np.array_equal(grids[first][inverse], grids)
        assert first.size == expected[0].size == 3

    def test_chunked_hashing_matches_one_chunk(self, monkeypatch):
        _, (meta, grids) = self.batch("hybrid")
        expected = distinct_rows(meta, grids)
        monkeypatch.setattr(models, "_CHUNK_ROWS", 7)
        first, inverse = distinct_rows(meta, grids)
        assert np.array_equal(first, expected[0])
        assert np.array_equal(inverse, expected[1])

    def test_structured_rows_get_distinct_keys(self):
        # a key collision is only slower, but common inputs must not need it
        grids = _one_hot_grids(np.arange(100), 10).reshape(100, -1)
        pairs = np.stack(np.meshgrid(np.arange(100.0), np.arange(100.0)), -1).reshape(-1, 2)
        for rows in (grids, pairs, np.concatenate([grids, grids[:, :1] / 8], axis=1)):
            keys = _row_keys(np.ascontiguousarray(rows).view(np.uint64), 0)
            assert np.unique(keys).size == len(rows)

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
