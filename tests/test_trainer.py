"""Trainer tests: splitting, scaling, balancing, Adam, the loop, benchmark."""

import math
import re

import numpy as np
import pytest

from veclstm.errors import (
    EmptyClassSet,
    EmptyInput,
    OutOfRange,
    ShapeMismatch,
    TooFewSamples,
)
from veclstm import models, trainer
from veclstm.neuralnet import loss
from veclstm.models import (
    ParamArena,
    build_hybrid,
    build_lstm_stack,
    build_veclstm,
    init_model_params,
    trained_entries,
    trained_runs,
)
from veclstm.neuralnet import LstmSequenceCache, softmax
from veclstm.trainer import (
    AdamState,
    StandardScaler,
    TrainConfig,
    TrainData,
    adam_step,
    benchmark_pipelines,
    compute_params,
    encode_labels,
    evaluate_loss,
    predict,
    random_oversample,
    run_epochs,
    train_model,
    train_test_split,
)

from veclstm.vectorizer import VectorizationConfig

from _oracles import (
    adam_scalar_recurrence,
    as_sorted_multiset,
    onehot_cross_entropy,
    per_block_adam_step,
    self_fitting_vectorize_metadata,
)


class TestSplit:
    def test_sizes(self):
        x = np.arange(10).reshape(-1, 1)
        y = np.arange(10)
        (xtr, ytr), (xte, yte) = train_test_split(x, y, 0.2, seed=0)
        assert len(ytr) == 8 and len(yte) == 2

    def test_seed_determinism(self):
        x = np.arange(20).reshape(-1, 1)
        y = np.arange(20)
        a = train_test_split(x, y, 0.3, seed=5)
        b = train_test_split(x, y, 0.3, seed=5)
        assert np.array_equal(a[0][1], b[0][1])
        assert np.array_equal(a[1][1], b[1][1])

    def test_union_is_original_multiset(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(37, 4))
        y = rng.integers(0, 7, 37)
        (xtr, ytr), (xte, yte) = train_test_split(x, y, 0.25, seed=1)
        assert as_sorted_multiset(np.vstack([xtr, xte])) == as_sorted_multiset(x)
        assert sorted(np.concatenate([ytr, yte]).tolist()) == sorted(y.tolist())
        assert len(ytr) + len(yte) == 37

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            train_test_split(np.zeros((1, 1)), np.zeros(1), 0.5, seed=0)


class TestScaler:
    def test_two_point_feature(self):
        scaler = StandardScaler.fit(np.array([[1.0], [3.0]]))
        assert np.array_equal(scaler.transform(np.array([[1.0], [3.0]])),
                              [[-1.0], [1.0]])

    def test_constant_feature_maps_to_zero(self):
        scaler = StandardScaler.fit(np.full((5, 1), 4.2))
        assert np.array_equal(scaler.transform(np.full((3, 1), 4.2)),
                              np.zeros((3, 1)))

    def test_moments_after_scaling(self):
        rng = np.random.default_rng(8)
        x = rng.normal(3.0, 2.5, size=(400, 3))
        scaled = StandardScaler.fit(x).transform(x)
        assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(scaled.var(axis=0) - 1.0) < 1e-9)

    def test_scalar_path_matches_matrix_path(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 1))
        scaler = StandardScaler.fit(x)
        for v in (-1.0, 0.0, 2.5):
            assert scaler.transform_value(v) == scaler.transform(np.array([[v]]))[0, 0]

    def test_known_moments_transform_like_a_fit(self):
        # Moments given as plain floats, as a saved model would load them.
        rng = np.random.default_rng(10)
        x = rng.normal(3.0, 2.5, size=(60, 3))
        x[:, 2] = 4.2  # a constant feature
        fitted = StandardScaler.fit(x)
        known = StandardScaler(x.mean(axis=0).tolist(), x.std(axis=0).tolist())
        probe = np.vstack([rng.normal(3.0, 2.5, size=(20, 3)), x])
        assert np.array_equal(known.transform(probe), fitted.transform(probe))
        for feature in range(3):
            for v in (-1.0, 0.0, 4.2, 7.5):
                assert known.transform_value(v, feature) == fitted.transform_value(v, feature)


class TestOneHot:
    """encode_labels checks class codes and builds no one-hot."""

    def test_endpoints(self):
        codes = encode_labels(np.array([0, 6]))
        assert codes.dtype == np.int64 and np.array_equal(codes, [0, 6])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            encode_labels(np.array([7]))
        with pytest.raises(OutOfRange):
            encode_labels(np.array([-1]))

    @pytest.mark.parametrize("labels", [
        np.array([0.5, 6.9]), np.array([0.0, 6.0]), [True, False],
        np.array([0, 6], dtype=object), np.array(["0", "6"]),
    ], ids=["fractional", "integral_float", "bool", "object", "str"])
    def test_non_integer_dtype_names_it(self, labels):
        dtype = str(np.asarray(labels).dtype)
        with pytest.raises(OutOfRange, match=re.escape(f"got dtype {dtype}")):
            encode_labels(labels)

    def test_batch_encoding(self):
        codes = np.array([0, 6, 3])
        assert encode_labels(codes) is codes
        with pytest.raises(ShapeMismatch, match=r"\(N,\) class codes, got shape \(3, 7\)"):
            encode_labels(np.eye(7)[codes])


class TestOversample:
    def test_deficit_filled(self):
        x = np.arange(4).reshape(-1, 1).astype(float)
        y = np.array([0, 0, 0, 1])
        x2, y2 = random_oversample(x, y, seed=0)
        assert (y2 == 0).sum() == (y2 == 1).sum() == 3

    def test_balanced_input_unchanged(self):
        x = np.arange(4).reshape(-1, 1).astype(float)
        y = np.array([0, 1, 0, 1])
        x2, y2 = random_oversample(x, y, seed=0)
        assert np.array_equal(x2, x) and np.array_equal(y2, y)

    def test_duplicates_are_copies_of_originals(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 3))
        y = np.concatenate([np.zeros(20, int), np.ones(7, int), np.full(3, 2)])
        x2, y2 = random_oversample(x, y, seed=4)
        counts = np.bincount(y2)
        assert np.all(counts == 20)
        # originals retained, in order
        assert np.array_equal(x2[:30], x)
        # membership: every duplicate equals some original of its class
        originals = {cls: as_sorted_multiset(x[y == cls]) for cls in (0, 1, 2)}
        for row, cls in zip(x2[30:], y2[30:]):
            key = tuple(row.tolist())
            assert key in originals[cls]

    def test_empty(self):
        with pytest.raises(EmptyClassSet):
            random_oversample(np.zeros((0, 1)), np.zeros(0, int), seed=0)


class TestAdam:
    @pytest.fixture
    def run(self, monkeypatch):
        """The master weights after one adam_step per gradient dict, with
        the work copy (so the gradients) in float64. The single block "w"
        stands for lstm2.b_i of a spec that has as many units there; every
        other block gets zero gradients."""
        monkeypatch.setattr(trainer, "compute_params",
                            lambda params: {k: p.astype(np.float64) for k, p in params.items()})

        def run(params, grads, config=TrainConfig()):
            spec = build_veclstm(1, lstm_units=(1, params["w"].size))
            state = AdamState(spec, {**init_model_params(spec, seed=0),
                                     "lstm2.b_i": params["w"]})
            for g in grads:
                state.grad["lstm2.b_i"][...] = g["w"]
                adam_step(dict(state.grad), state, config)
            return {"w": state.master["lstm2.b_i"]}
        return run

    def test_zero_gradient_keeps_params(self, run):
        params = {"w": np.array([1.0, -2.0])}
        new = run(params, [{"w": np.zeros(2)}])
        assert np.array_equal(new["w"], params["w"])

    def test_first_step_magnitude_is_learning_rate(self, run):
        config = TrainConfig()
        new = run({"w": np.array([0.0])}, [{"w": np.array([3.7])}], config)
        delta = abs(new["w"][0])
        assert abs(delta - config.learning_rate) < config.learning_rate * 1e-6
        assert new["w"][0] < 0  # moved against the gradient sign

    def test_five_steps_match_scalar_recurrence(self, run):
        rng = np.random.default_rng(15)
        grads = rng.normal(size=5).tolist()
        config = TrainConfig()
        new = run({"w": np.array([0.25])}, [{"w": np.array([g])} for g in grads], config)
        expected = adam_scalar_recurrence(
            grads, config.learning_rate, config.beta1, config.beta2,
            config.epsilon, theta0=0.25)
        assert new["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_no_nan_for_finite_inputs(self, run):
        new = run({"w": np.array([1e300, -1e-300])}, [{"w": np.array([1e3, -1e3])}])
        assert np.all(np.isfinite(new["w"]))

    @pytest.mark.parametrize("build", [build_veclstm, build_hybrid], ids=["veclstm", "hybrid"])
    def test_matches_per_block_oracle_bit_for_bit(self, build):
        spec = build(1)
        params = init_model_params(spec, seed=4)
        trained = trained_entries(spec)
        config = TrainConfig()
        state = AdamState(spec, params)
        oracle = dict(params)
        m = {key: np.zeros_like(p) for key, p in params.items()}
        v = {key: np.zeros_like(p) for key, p in params.items()}
        rng = np.random.default_rng(8)
        for t in range(1, 21):
            grads = {key: np.zeros(p.shape, dtype=np.float32) for key, p in params.items()}
            for key, index in trained.items():
                part = grads[key][index]
                # magnitudes over six decades, and some exact zeros
                part[...] = (rng.normal(size=part.shape) * 10.0 ** rng.uniform(-5, 1, part.shape)
                             * (rng.random(part.shape) > 0.1))
            for key, grad in grads.items():
                state.grad[key][...] = grad
            adam_step(dict(state.grad), state, config)
            oracle = per_block_adam_step(oracle, grads, m, v, t, config.learning_rate,
                                         config.beta1, config.beta2, config.epsilon)

        assert all(np.array_equal(state.master[key], oracle[key]) for key in params)
        work = compute_params(oracle)
        assert all(np.array_equal(state.work[key], work[key]) for key in params)
        for flat, blocks in ((state.m, m), (state.v, v)):
            arena = ParamArena(spec, np.float64, blocks)
            assert np.array_equal(flat, np.concatenate(
                [arena.flat[run] for run in trained_runs(spec)]))

    def test_misshapen_untrained_block_is_rejected(self):
        spec = build_veclstm(1)
        params = init_model_params(spec, seed=4)
        assert "lstm1.w_f" not in trained_entries(spec)
        state = AdamState(spec, params)
        for wrong in (state.grad["lstm1.w_f"][:, :-1], state.grad["lstm1.w_f"].copy()):
            grads = dict(state.grad)
            grads["lstm1.w_f"] = wrong
            with pytest.raises(ShapeMismatch, match="lstm1.w_f"):
                adam_step(grads, state, TrainConfig())
        assert state.t == 0


def separable_features(n=300, seed=7):
    rng = np.random.default_rng(seed)
    centers = np.array([[-2.0, -2.0], [0.0, 2.0], [2.0, 0.0]])
    labels = rng.integers(0, 3, n)
    x = centers[labels] + rng.normal(0, 0.3, size=(n, 2))
    return x.reshape(n, 1, 2), labels


class TestTrainModel:
    def test_separable_set_reaches_95_pct(self):
        x, labels = separable_features()
        data = TrainData(x_train=x, y_train=encode_labels(labels))
        config = TrainConfig(epochs=20, batch_size=32, learning_rate=0.01, seed=3)
        _, report = train_model(build_lstm_stack(2), data, config)
        assert report.epoch_accuracies[-1] >= 0.95
        assert report.epoch_losses[-1] < report.initial_loss

    def test_seed_determinism_bit_identical(self):
        x, labels = separable_features(n=120, seed=1)
        data = TrainData(x_train=x, y_train=encode_labels(labels))
        config = TrainConfig(epochs=3, batch_size=32, seed=11)
        params_a, report_a = train_model(build_lstm_stack(2), data, config)
        params_b, report_b = train_model(build_lstm_stack(2), data, config)
        assert all(np.array_equal(params_a[k], params_b[k]) for k in params_a)
        assert report_a.epoch_losses == report_b.epoch_losses

    def test_initial_loss_near_ln7_on_balanced_seven_classes(self):
        rng = np.random.default_rng(2)
        n = 700
        labels = np.repeat(np.arange(7), 100)
        x = rng.normal(size=(n, 1, 1))
        data = TrainData(x_train=x, y_train=encode_labels(labels))
        config = TrainConfig(epochs=1, seed=5)
        _, report = train_model(build_lstm_stack(1), data, config)
        assert abs(report.initial_loss - math.log(7)) < 0.1

    def test_validation_accuracy_reported(self):
        x, labels = separable_features(n=200, seed=9)
        data = TrainData(x_train=x[:150], y_train=encode_labels(labels[:150]),
                         x_val=x[150:], y_val=encode_labels(labels[150:]))
        config = TrainConfig(epochs=10, batch_size=32, learning_rate=0.01, seed=4)
        _, report = train_model(build_lstm_stack(2), data, config)
        assert report.val_accuracy is not None
        assert report.val_accuracy >= 0.9

    def test_numeric_errors_carry_epoch_batch_context(self):
        from veclstm.errors import VecLstmError

        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        y = encode_labels(np.array([0, 1, 2, 3] * 8))
        calls = {"n": 0}

        def features(idx):
            calls["n"] += 1
            out = np.zeros((idx.size, 1, 1))
            if calls["n"] == 2:
                out[0, 0, 0] = np.nan
            return out

        with pytest.raises(VecLstmError, match="epoch 0, batch 1"):
            run_epochs(spec, params, features, y,
                       TrainConfig(epochs=1, batch_size=16, seed=0))

    def test_non_finite_error_names_its_lstm_block(self):
        from veclstm.errors import NonFiniteError

        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        params["lstm2.w_g"][0, 0] = np.inf
        y = encode_labels(np.array([0, 1, 2, 3] * 4))
        with pytest.raises(NonFiniteError, match="lstm2: non-finite") as exc, \
                np.errstate(invalid="ignore"):
            run_epochs(spec, params, lambda idx: np.zeros((idx.size, 1, 1)), y,
                       TrainConfig(epochs=1, batch_size=16, seed=0))
        assert "lstm1" not in str(exc.value)

    def test_evaluate_loss_rejects_a_label_count_that_does_not_match(self):
        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        x = np.zeros((6, 1, 1))
        for y in (np.eye(7)[[2]], np.eye(7)[np.arange(8) % 7]):
            with pytest.raises(ShapeMismatch, match=f"6 samples but {len(y)} labels"):
                evaluate_loss(spec, params, x, y)

    def test_evaluate_loss_is_the_cross_entropy_of_predict(self, monkeypatch):
        # It scores predict's probabilities, and never calls the training
        # step's softmax_cross_entropy.
        def unused(*args):
            raise AssertionError("evaluate_loss called softmax_cross_entropy")

        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        x = np.random.default_rng(1).normal(size=(20, 1, 1))
        y = encode_labels(np.arange(20) % 7)
        monkeypatch.setattr(trainer, "softmax_cross_entropy", unused)
        probs = predict(spec, params, x)
        assert evaluate_loss(spec, params, x, y)[0] == loss.cross_entropy(probs, y)

    @pytest.mark.parametrize("labels, error", [
        (np.eye(7)[np.arange(6)], ShapeMismatch),
        (np.arange(6)[:, None], ShapeMismatch),
        (np.array([0, 1, 2, 3, 4, 7]), OutOfRange),
        (np.array([0, 1, 2, -1, 4, 5]), OutOfRange),
        # labels of a dtype that is not an integer kind, never truncated
        (np.array([0.5, 1.0, 2.0, 3.0, 4.0, 6.9]), OutOfRange),
        (np.array([True, False, True, False, True, False]), OutOfRange),
        (np.array([0, 1, 2, 3, 4, 5], dtype=object), OutOfRange),
        (np.array(["0", "1", "2", "3", "4", "5"]), OutOfRange),
    ])
    def test_labels_must_be_class_codes(self, labels, error):
        # A one-hot array raises instead of being read as codes.
        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        x = np.zeros((6, 1, 1))
        with pytest.raises(error):
            run_epochs(spec, params, lambda idx: x[idx], labels, TrainConfig(epochs=1, seed=0))
        with pytest.raises(error):
            evaluate_loss(spec, params, x, labels)

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    @pytest.mark.parametrize("repeats", [False, True])
    @pytest.mark.parametrize("n", [1, 700])  # 700: more than one 512-row slice
    @pytest.mark.parametrize("head_scale", [1.0, 1e5])
    def test_evaluate_loss_matches_the_one_hot_oracle(self, arch, repeats, n, head_scale):
        rng = np.random.default_rng(12)
        pool = 9 if repeats else n
        rows = rng.integers(0, pool, n) if repeats else np.arange(n)
        meta = rng.normal(size=(pool, 1, 1))[rows]
        cells = rng.integers(0, 100, pool)[rows]
        spec = build_veclstm(1) if arch == "veclstm" else build_hybrid(1)
        x = meta if arch == "veclstm" else (meta, cells)
        codes = rng.integers(0, 7, n)
        params = init_model_params(spec, seed=13)
        params["head.w"] *= head_scale  # 1e5: probabilities of exactly 0 and 1
        probs, targets = predict(spec, params, x), np.eye(7)[codes]
        want = (onehot_cross_entropy(probs, targets),
                float((probs.argmax(axis=1) == targets.argmax(axis=1)).mean()))
        assert evaluate_loss(spec, params, x, codes) == want
        if head_scale > 1.0 and n > 1:
            p_true = probs[np.arange(n), codes]
            assert (p_true == 0.0).any() and (p_true == 1.0).any()

    def test_run_epochs_rejects_more_labels_than_samples(self):
        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        x = np.zeros((6, 1, 1))
        y = encode_labels(np.arange(8) % 7)
        with pytest.raises(ShapeMismatch, match="8 labels.*size 6"):
            run_epochs(spec, params, lambda idx: x[idx], y, TrainConfig(epochs=1, seed=0))
        with pytest.raises(ShapeMismatch, match="6 samples but 8 labels"):
            train_model(spec, TrainData(x_train=x, y_train=y), TrainConfig(epochs=1, seed=0))

    def test_run_epochs_rejects_zero_labels(self):
        spec = build_lstm_stack(1)
        params = init_model_params(spec, seed=0)
        x = np.zeros((6, 1, 1))
        # np.array([]) is float64: no labels, not labels of a float dtype
        for labels in (encode_labels(np.arange(0)), np.array([])):
            with pytest.raises(EmptyInput, match="no labels"):
                run_epochs(spec, params, lambda idx: x[idx], labels,
                           TrainConfig(epochs=1, seed=0))

    def test_one_softmax_per_step(self, monkeypatch):
        # The training forward ends at the logits; the loss takes the one
        # softmax of each step, whose probabilities also score the batch.
        calls = []

        def counted(logits):
            calls.append(len(logits))
            return softmax(logits)

        monkeypatch.setattr(models, "softmax", counted)
        monkeypatch.setattr(loss, "softmax", counted)
        spec = build_veclstm(1, lstm_units=(4, 3))
        params = init_model_params(spec, seed=0)
        x = np.random.default_rng(0).normal(size=(64, 1, 1))
        run_epochs(spec, params, lambda idx: x[idx], encode_labels(np.arange(64) % 7),
                   TrainConfig(epochs=1, batch_size=24, seed=0))
        assert calls == [24, 24, 16]

    def test_report_schema(self):
        x, labels = separable_features(n=60, seed=5)
        data = TrainData(x_train=x, y_train=encode_labels(labels))
        config = TrainConfig(epochs=2, seed=0)
        _, report = train_model(build_lstm_stack(2), data, config)
        doc = report.to_dict()
        assert len(doc["epoch_losses"]) == 2
        assert doc["train_seconds"] >= 0


def _float_arrays(cache):
    """Every floating-point array of a model forward cache, by name."""
    out = {"logits": cache.logits}
    for name, value in cache.internals.items():
        if isinstance(value, LstmSequenceCache):
            for field in ("x", "gates", "c", "tanh_c", "h"):
                out[f"{name}.{field}"] = getattr(value, field)
        elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
            out[name] = value
    return out


class TestPrecision:
    """Float64 master weights and Adam state, float32 forward and backward."""

    @staticmethod
    def batch(arch, n, seed):
        """(spec, x, rows -> model input) for n random samples."""
        rng = np.random.default_rng(seed)
        meta = rng.normal(size=(n, 1, 1))
        if arch == "hybrid":
            grids = np.zeros((n, 100))
            grids[np.arange(n), rng.integers(0, 100, n)] = 1.0
            grids = grids.reshape(n, 10, 10)
            return build_hybrid(1), (meta, grids), lambda idx: (meta[idx], grids[idx])
        return build_veclstm(1), meta, lambda idx: meta[idx]

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_one_step_dtypes(self, monkeypatch, arch):
        spec, _, rows = self.batch(arch, n=64, seed=0)
        calls = {"model_forward": [], "model_backward": [], "adam_step": []}
        for name in calls:
            def keep(*args, _name=name, _fn=getattr(trainer, name), **kwargs):
                out = _fn(*args, **kwargs)
                calls[_name].append((args, out))
                return out
            monkeypatch.setattr(trainer, name, keep)
        params = init_model_params(spec, seed=1)
        arrays_before = dict(params)
        bytes_before = {key: p.tobytes() for key, p in params.items()}
        config = TrainConfig(epochs=2, batch_size=24, seed=0)
        master, _, _, _ = run_epochs(spec, params, rows, encode_labels(np.arange(64) % 7),
                                     config)

        # one update per batch, through the module attribute
        assert len(calls["adam_step"]) == config.epochs * math.ceil(64 / config.batch_size)
        # one work dict, read by every forward and backward pass
        work = calls["model_forward"][0][0][1]
        model_calls = calls["model_forward"] + calls["model_backward"]
        assert len(model_calls) == 2 * len(calls["adam_step"])
        assert all(args[1] is work for args, _ in model_calls)
        # the caller's arrays are neither replaced nor written to
        assert all(params[key] is arrays_before[key] for key in arrays_before)
        assert {key: p.tobytes() for key, p in params.items()} == bytes_before

        assert {k: p.dtype for k, p in work.items() if p.dtype != np.float32} == {}
        logits, cache = calls["model_forward"][0][1]
        assert logits is cache.logits
        arrays = _float_arrays(cache)
        assert {"logits", "cache1.gates", "cache2.h", "head_in"} <= set(arrays)
        assert {k: a.dtype for k, a in arrays.items() if a.dtype != np.float32} == {}
        assert softmax(cache.logits).dtype == np.float64

        grads, state, _ = calls["adam_step"][-1][0]
        assert state.work is work
        assert grads.keys() == params.keys()
        assert {k: g.dtype for k, g in grads.items() if g.dtype != np.float32} == {}
        assert state.p.dtype == state.m.dtype == state.v.dtype == np.float64
        assert master.keys() == params.keys()
        assert {k: (a.dtype, a.shape) for k, a in master.items()} == \
            {k: (np.dtype(np.float64), p.shape) for k, p in params.items()}

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_predict_returns_float64_rows_summing_to_one(self, monkeypatch, arch):
        spec, x, _ = self.batch(arch, n=300, seed=2)
        monkeypatch.setattr(models, "FORWARD_SLICE_ROWS", 128)
        probs = predict(spec, init_model_params(spec, seed=3), x)
        assert probs.dtype == np.float64 and probs.shape == (300, 7)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid", "hybrid_cells"])
    def test_zero_rows_give_an_empty_prediction(self, arch):
        spec, x, _ = self.batch(arch.split("_")[0], n=4, seed=4)
        if arch == "hybrid_cells":
            x = (x[0], np.arange(4))
        empty = trainer._take(x, np.arange(0))
        params = init_model_params(spec, seed=3)
        probs = predict(spec, params, empty)
        assert probs.dtype == np.float64 and probs.shape == (0, 7)
        with pytest.raises(EmptyInput):
            evaluate_loss(spec, params, empty, np.zeros((0, 7)))


class TestBenchmark:
    def make_columns(self, n=600, seed=21):
        rng = np.random.default_rng(seed)
        lat = rng.uniform(39.0, 40.0, n)
        lon = rng.uniform(116.0, 117.0, n)
        alt = rng.uniform(0.0, 100.0, n)
        labels = rng.integers(0, 7, n)
        return lat, lon, alt, labels

    def test_report_schema_and_reduction_formula(self):
        lat, lon, alt, labels = self.make_columns()
        config = TrainConfig(epochs=2, batch_size=128, seed=6)
        report = benchmark_pipelines(lat, lon, alt, labels, config)
        assert report.t_novec >= 0 and report.t_vec >= 0 and report.t_vectorization >= 0
        assert report.reduction_pct == pytest.approx(
            100.0 * (report.t_novec - report.t_vec) / report.t_novec, abs=1e-9)

    def test_fits_the_stats_and_bins_once(self, monkeypatch):
        # One fit_stats and one sample_cell_grids pass feed both sides.
        calls = []
        for name in ("fit_stats", "sample_cell_grids"):
            def counted(*args, real=getattr(trainer, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(trainer, name, counted)
        lat, lon, alt, labels = self.make_columns(n=200, seed=24)
        benchmark_pipelines(lat, lon, alt, labels, TrainConfig(epochs=1, batch_size=64, seed=1))
        assert calls == ["fit_stats", "sample_cell_grids"]

    @pytest.mark.parametrize("value_mode", ["count", "density"])
    def test_pipelines_learn_the_same_thing(self, value_mode):
        # same seed, same math: both pipelines see the scaled
        # vectorize_metadata bit for bit, so they end bit-identical
        lat, lon, alt, labels = self.make_columns(n=400, seed=22)
        lat[::37] = np.nan
        lon[5::41] = np.nan
        rows = np.random.default_rng(23).choice(400, size=500)  # repeats, as oversampled
        config = TrainConfig(epochs=2, batch_size=128, seed=7)
        vec_config = VectorizationConfig(value_mode=value_mode)
        report = benchmark_pipelines(lat, lon, alt, labels, config, vec_config, rows)
        assert report.n_samples == rows.size
        assert report.final_loss_novec == report.final_loss_vec
        assert report.params_novec.keys() == report.params_vec.keys()
        for key, block in report.params_novec.items():
            assert np.array_equal(block, report.params_vec[key]), key
        raw = self_fitting_vectorize_metadata(lat, lon, alt, vec_config).reshape(-1, 1)
        scaled = StandardScaler.fit(raw[rows]).transform(raw)
        assert np.array_equal(report.features.reshape(-1, 1), scaled)
