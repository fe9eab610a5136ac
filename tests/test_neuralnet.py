"""Layer-level tests: forward contracts and gradient checks.

Every backward pass is checked against central finite differences
(h = 1e-5) within 1e-4 relative error, 1e-6 for the linear ops.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veclstm.errors import (
    InputTooShort,
    NonFiniteError,
    SchemaMismatch,
    ShapeMismatch,
)
from veclstm.neuralnet import (
    Conv1dParams,
    DenseParams,
    LstmParams,
    check_finite,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    glorot_uniform,
    load_checkpoint,
    lstm_sequence,
    maxpool1d_backward,
    maxpool1d_forward,
    save_checkpoint,
    cross_entropy,
    sigmoid_inplace,
    softmax,
    softmax_cross_entropy,
)
from veclstm.neuralnet.cnn import _columns

from _oracles import (
    central_difference_grads,
    einsum_conv1d,
    einsum_conv1d_backward,
    reduce_max_softmax,
    relative_error,
    sliding_window_columns,
)


class TestActivations:
    def test_fixed_points(self):
        assert sigmoid_inplace(np.array([0.0]))[0] == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            check_finite(np.array([np.nan]))

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid_inplace(np.array([-1e4, 1e4]))
        assert out[0] == 0.0 and out[1] == 1.0


class TestDense:
    def test_identity_and_bias(self):
        params = DenseParams(w=np.eye(3), b=np.zeros(3))
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(dense_forward(x, params), x)
        params = DenseParams(w=np.zeros((2, 3)), b=np.array([5.0, -1.0]))
        assert np.array_equal(dense_forward(x, params), params.b[np.newaxis])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        params = DenseParams(w=rng.normal(size=(3, 4)), b=rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        direction = rng.normal(size=(5, 3))

        def loss():
            return float((dense_forward(x, params) * direction).sum())

        dw, db, dx = dense_backward(x, params, direction)
        numeric = central_difference_grads(
            loss, {"w": params.w, "b": params.b, "x": x})
        assert relative_error(dw, numeric["w"]) < 1e-6
        assert relative_error(db, numeric["b"]) < 1e-6
        assert relative_error(dx, numeric["x"]) < 1e-6

    def test_shape_mismatch(self):
        params = DenseParams(w=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ShapeMismatch):
            dense_forward(np.zeros(4), params)


class TestSoftmaxCrossEntropy:
    def test_equal_logits_seven_classes(self):
        target = np.zeros((1, 7))
        target[0, 2] = 1.0
        probs, loss, grad = softmax_cross_entropy(np.zeros((1, 7)), target)
        assert np.allclose(probs, 1 / 7)
        assert loss == pytest.approx(math.log(7), abs=1e-12)

    def test_analytic_two_class(self):
        probs, _, _ = softmax_cross_entropy(
            np.array([[math.log(2), 0.0]]), np.array([[1.0, 0.0]]))
        assert np.allclose(probs, [[2 / 3, 1 / 3]])

    def test_gradient_is_probs_minus_target(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 7))
        target = np.zeros((1, 7))
        target[0, 4] = 1.0
        probs, _, grad = softmax_cross_entropy(logits, target)
        assert np.array_equal(grad, probs - target)

        def loss():
            return softmax_cross_entropy(logits, target)[1]

        numeric = central_difference_grads(loss, {"logits": logits})
        assert relative_error(grad, numeric["logits"]) < 1e-6

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 7))
        targets = np.zeros((4, 7))
        targets[np.arange(4), [0, 3, 6, 3]] = 1.0

        def loss():
            return softmax_cross_entropy(logits, targets)[1]

        _, _, grad = softmax_cross_entropy(logits, targets)
        numeric = central_difference_grads(loss, {"logits": logits})
        assert relative_error(grad, numeric["logits"]) < 1e-6

    def test_loss_is_the_cross_entropy_of_its_probabilities(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(scale=3.0, size=(37, 7))
        logits[0, 0] = 800.0  # a true class whose probability underflows to 0
        targets = np.eye(7)[rng.integers(0, 7, 37)]
        targets[0] = np.eye(7)[1]
        probs, loss, _ = softmax_cross_entropy(logits, targets)
        assert probs[0, 1] == 0.0
        assert loss == cross_entropy(probs, targets)

    def test_cross_entropy_clips_inside_the_log_and_rejects_nan(self):
        target = np.eye(2)[[0]]
        assert cross_entropy(np.array([[0.0, 1.0]]), target) == -math.log(1e-300)
        with pytest.raises(NonFiniteError):
            cross_entropy(np.array([[np.nan, 1.0]]), target)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_softmax_sums_to_one(self, logits):
        probs = softmax(np.array(logits))
        assert np.all(probs > 0)
        assert abs(probs.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("shape", [(7,), (1,), (5, 1), (0, 7), (512, 7), (37, 7), (2, 3, 4)])
    def test_bit_identical_to_the_max_reduction(self, shape):
        rng = np.random.default_rng(8)
        logits = rng.normal(scale=3.0, size=shape)
        # ties between 0.0 and -0.0, some of them a row's max
        logits.reshape(-1)[::3] = 0.0
        logits.reshape(-1)[1::5] = -0.0
        for x in (logits, logits.astype(np.float32)):
            assert np.array_equal(softmax(x), reduce_max_softmax(x))


class TestConv1d:
    def test_identity_tap(self):
        params = Conv1dParams(
            kernels=np.array([[[0.0, 1.0, 0.0]]]), biases=np.zeros(1))
        x = np.arange(1.0, 7.0).reshape(1, 6, 1)
        out = conv1d_forward(x, params)
        assert np.array_equal(out[0, :, 0], x[0, 1:5, 0])

    def test_difference_kernel(self):
        # windows of [1..5] against [1, 0, -1]: each yields -2
        params = Conv1dParams(
            kernels=np.array([[[1.0, 0.0, -1.0]]]), biases=np.zeros(1))
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 5, 1)
        out = conv1d_forward(x, params)
        assert np.array_equal(out[0, :, 0], [-2.0, -2.0, -2.0])

    def test_too_short(self):
        params = Conv1dParams(kernels=np.zeros((1, 1, 3)), biases=np.zeros(1))
        with pytest.raises(InputTooShort):
            conv1d_forward(np.zeros((1, 2, 1)), params)

    def test_gemm_matches_einsum_oracle(self):
        # the hybrid model's grid branch: (N, 10, 10) input, k = 3, K = 64
        rng = np.random.default_rng(12)
        params = Conv1dParams(kernels=rng.normal(size=(64, 10, 3)),
                              biases=rng.normal(size=64))
        x = rng.normal(size=(16, 10, 10))
        out = conv1d_forward(x, params)
        ref = einsum_conv1d(x, params.kernels, params.biases)
        assert out.shape == ref.shape == (16, 8, 64)
        assert relative_error(out, ref) < 1e-12

        direction = rng.normal(size=out.shape)
        grads = conv1d_backward(x, params, direction)
        ref_grads = einsum_conv1d_backward(x, params.kernels, direction)
        for got, want in zip(grads, ref_grads):
            assert got.shape == want.shape
            assert relative_error(got, want) < 1e-12

        # the parameter-only call gives the same parameter gradients
        dk, db, dx = conv1d_backward(x, params, direction, input_grad=False)
        assert dx is None
        assert np.array_equal(dk, grads[0]) and np.array_equal(db, grads[1])

    @pytest.mark.parametrize("n", [0, 37, 76, 512])
    def test_columns_match_sliding_window_oracle(self, n):
        # the hybrid grid branch: one-hot cell grids and random heatmaps
        rng = np.random.default_rng(n)
        one_hot = np.zeros((n, 100), dtype=np.float32)
        one_hot[np.arange(n), rng.integers(0, 100, n)] = 1.0
        heatmaps = rng.random((n, 10, 10))
        for x in (one_hot.reshape(n, 10, 10), heatmaps):
            for width in (1, 3, 10):
                got = _columns(x, width)
                assert got.dtype == x.dtype
                assert np.array_equal(got, sliding_window_columns(x, width))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        params = Conv1dParams(kernels=rng.normal(size=(3, 2, 3)),
                              biases=rng.normal(size=3))
        x = rng.normal(size=(2, 8, 2))
        direction = rng.normal(size=(2, 6, 3))

        def loss():
            return float((conv1d_forward(x, params) * direction).sum())

        dk, db, dx = conv1d_backward(x, params, direction)
        numeric = central_difference_grads(
            loss, {"k": params.kernels, "b": params.biases, "x": x})
        assert relative_error(dk, numeric["k"]) < 1e-4
        assert relative_error(db, numeric["b"]) < 1e-4
        assert relative_error(dx, numeric["x"]) < 1e-4


class TestMaxPool:
    def test_pool_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 5, 3))
        out, _ = maxpool1d_forward(x, 1)
        assert np.array_equal(out, x)

    def test_pool_one_backward_passes_gradient_through(self):
        x = np.random.default_rng(1).normal(size=(2, 5, 3))
        _, argmax = maxpool1d_forward(x, 1)
        direction = np.random.default_rng(2).normal(size=x.shape)
        expected = direction.copy()
        dx = maxpool1d_backward(x.shape, 1, argmax, direction)
        assert dx is direction
        assert np.array_equal(dx, expected)

    def test_simple_windows(self):
        x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
        out, _ = maxpool1d_forward(x, 2)
        assert np.array_equal(out[0, :, 0], [3.0, 5.0])

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6, 2))  # continuous draws: no ties
        direction = rng.normal(size=(2, 3, 2))

        def loss():
            out, _ = maxpool1d_forward(x, 2)
            return float((out * direction).sum())

        _, argmax = maxpool1d_forward(x, 2)
        dx = maxpool1d_backward(x.shape, 2, argmax, direction)
        numeric = central_difference_grads(loss, {"x": x})
        assert relative_error(dx, numeric["x"]) < 1e-4

    def test_tie_goes_to_first_index(self):
        x = np.array([2.0, 2.0]).reshape(1, 2, 1)
        _, argmax = maxpool1d_forward(x, 2)
        assert argmax[0, 0, 0] == 0


def _single_sample_calls():
    """Each kernel called on one sample without its batch axis."""
    rng = np.random.default_rng(13)
    dense = DenseParams(rng.normal(size=(2, 3)), np.zeros(2))
    conv = Conv1dParams(rng.normal(size=(2, 4, 3)), np.zeros(2))
    lstm = LstmParams(*(rng.normal(size=(4, 3 + 4)) for _ in range(4)),
                      *(np.zeros(4) for _ in range(4)))
    return {
        "dense_forward": lambda: dense_forward(np.ones(3), dense),
        "dense_backward": lambda: dense_backward(np.ones(3), dense, np.ones(2)),
        "conv1d_forward": lambda: conv1d_forward(np.ones((8, 4)), conv),
        "conv1d_backward": lambda: conv1d_backward(np.ones((8, 4)), conv, np.ones((6, 2))),
        "lstm_sequence": lambda: lstm_sequence(np.ones((5, 3)), lstm),
        "softmax_cross_entropy": lambda: softmax_cross_entropy(np.zeros(7), np.eye(7)[0]),
    }


@pytest.mark.parametrize("kernel", sorted(_single_sample_calls()))
def test_kernels_take_batches_only(kernel):
    with pytest.raises(ShapeMismatch):
        _single_sample_calls()[kernel]()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layers_compute_in_their_parameter_dtype(dtype):
    # float64 inputs and gradients are cast to the parameters' dtype;
    # pooling keeps the dtype it is given.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 8, 4))
    dense = DenseParams(rng.normal(size=(5, 4)).astype(dtype), np.zeros(5, dtype))
    y = dense_forward(x[:, 0], dense)
    assert y.dtype == dtype
    assert all(a.dtype == dtype for a in dense_backward(x[:, 0], dense, np.ones(y.shape)))
    conv = Conv1dParams(rng.normal(size=(2, 4, 3)).astype(dtype), np.zeros(2, dtype))
    y = conv1d_forward(x, conv)
    assert y.dtype == dtype
    assert all(a.dtype == dtype for a in conv1d_backward(x, conv, np.ones(y.shape)))
    pooled, argmax = maxpool1d_forward(y, 2)
    assert pooled.dtype == dtype
    assert maxpool1d_backward(y.shape, 2, argmax, pooled).dtype == dtype


class TestInit:
    def test_seed_determinism_and_bounds(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = glorot_uniform(rng1, (100, 101), 101, 100)
        b = glorot_uniform(rng2, (100, 101), 101, 100)
        assert np.array_equal(a, b)
        bound = math.sqrt(6.0 / (100 + 101))
        assert a.min() > -bound and a.max() < bound


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        blocks = {
            "lstm1.w_i": rng.normal(size=(4, 6)).astype(np.float32).astype(np.float64),
            "head.b": rng.normal(size=3).astype(np.float32).astype(np.float64),
        }
        path = tmp_path / "model.vlnn"
        save_checkpoint(path, blocks)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(blocks)
        for key in blocks:
            assert np.array_equal(loaded[key], blocks[key])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "model.vlnn"
        save_checkpoint(path, {"x": np.zeros((2, 3))})
        raw = path.read_bytes()
        assert raw[:4] == b"VLNN"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:8], "little") == 1  # name length
        assert raw[8:9] == b"x"
        assert raw[9] == 2  # rank
        assert int.from_bytes(raw[10:14], "little") == 2
        assert int.from_bytes(raw[14:18], "little") == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.vlnn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(SchemaMismatch):
            load_checkpoint(path)
