"""LSTM sequence and BPTT tests against scalar and finite-difference oracles."""

import numpy as np
import pytest

from veclstm.errors import ShapeMismatch, StaleCacheError
from veclstm.neuralnet import LstmParams, lstm_backward, lstm_sequence

from _oracles import (
    central_difference_grads,
    per_gate_lstm,
    per_gate_lstm_backward,
    relative_error,
    scalar_lstm_cell,
)

GATES = ("i", "f", "o", "g")
PARAM_KEYS = ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g")


def random_params(rng, n_in, hidden) -> LstmParams:
    return LstmParams(
        **{f"w_{g}": rng.normal(scale=0.5, size=(hidden, n_in + hidden)) for g in GATES},
        **{f"b_{g}": rng.normal(scale=0.5, size=hidden) for g in GATES},
    )


def zero_params(n_in, hidden) -> LstmParams:
    return LstmParams(
        **{f"w_{g}": np.zeros((hidden, n_in + hidden)) for g in GATES},
        **{f"b_{g}": np.zeros(hidden) for g in GATES},
    )


class TestCellForward:
    """One cell step, seen through lstm_sequence from its zero state."""

    def test_all_zero_parameters(self):
        # At T = 1 the cache holds i, o and g only: f multiplies the zero
        # state and is not computed. At T = 2 every step holds all four.
        params = zero_params(2, 3)
        out, cache = lstm_sequence(np.array([[[1.0, -1.0]]]), params)
        assert cache.gates.shape == (1, 9, 1)
        i, o, g = (cache.gates[0, k * 3:(k + 1) * 3] for k in range(3))
        assert np.allclose(i, 0.5)
        assert np.allclose(o, 0.5)
        assert np.array_equal(g, np.zeros((3, 1)))
        assert np.array_equal(cache.c[0], np.zeros((3, 1)))
        assert np.array_equal(out, np.zeros((1, 3)))

        out, cache = lstm_sequence(np.array([[[1.0, -1.0], [0.5, 2.0]]]), params)
        assert cache.gates.shape == (2, 12, 1)
        for t in range(2):
            i, f, o, g = (cache.gates[t, k * 3:(k + 1) * 3] for k in range(4))
            assert np.allclose(i, 0.5)
            assert np.allclose(f, 0.5)
            assert np.allclose(o, 0.5)
            assert np.array_equal(g, np.zeros((3, 1)))
            assert np.array_equal(cache.c[t], np.zeros((3, 1)))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_matches_scalar_oracle(self):
        # The second step starts from the first step's nonzero state.
        rng = np.random.default_rng(17)
        params = random_params(rng, 1, 2)
        seq = rng.normal(size=(1, 2, 1))
        out, cache = lstm_sequence(seq, params, return_sequences=True)
        w = {g: getattr(params, f"w_{g}").tolist() for g in GATES}
        b = {g: getattr(params, f"b_{g}").tolist() for g in GATES}
        h, c = [0.0, 0.0], [0.0, 0.0]
        for t in range(2):
            h, c = scalar_lstm_cell(seq[0, t].tolist(), h, c, w, b)
            assert np.allclose(out[0, t], h, atol=1e-12, rtol=0)
            assert np.allclose(cache.c[t, :, 0], c, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        params = zero_params(2, 3)
        with pytest.raises(ShapeMismatch):
            lstm_sequence(np.zeros((1, 1, 5)), params)


class TestSequence:
    def test_single_step_modes_agree(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 3, 4)
        seq = rng.normal(size=(2, 1, 3))
        all_h, _ = lstm_sequence(seq, params, return_sequences=True)
        last_h, _ = lstm_sequence(seq, params, return_sequences=False)
        assert all_h.shape == (2, 1, 4)
        assert last_h.shape == (2, 4)
        assert np.array_equal(all_h[:, 0, :], last_h)

    def test_zero_params_all_outputs_zero(self):
        params = zero_params(2, 3)
        seq = np.random.default_rng(0).normal(size=(4, 5, 2))
        out, _ = lstm_sequence(seq, params, return_sequences=True)
        assert np.array_equal(out, np.zeros((4, 5, 3)))

    def test_three_steps_match_chained_oracle(self):
        rng = np.random.default_rng(23)
        params = random_params(rng, 2, 3)
        seq = rng.normal(size=(1, 3, 2))
        out, _ = lstm_sequence(seq, params, return_sequences=True)

        w = {g: getattr(params, f"w_{g}").tolist() for g in GATES}
        b = {g: getattr(params, f"b_{g}").tolist() for g in GATES}
        h = [0.0, 0.0, 0.0]
        c = [0.0, 0.0, 0.0]
        for t in range(3):
            h, c = scalar_lstm_cell(seq[0, t].tolist(), h, c, w, b)
            assert np.allclose(out[0, t], h, atol=1e-12, rtol=0)


class TestStackedGatesMatchPerGateOracle:
    """The stacked-gate kernels against one product per gate and step."""

    @pytest.mark.parametrize("t_len", [1, 4])
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_forward_and_backward(self, t_len, return_sequences):
        rng = np.random.default_rng(31 + t_len)
        params = random_params(rng, 3, 5)
        seq = rng.normal(size=(6, t_len, 3))
        w = {g: getattr(params, f"w_{g}") for g in GATES}
        b = {g: getattr(params, f"b_{g}") for g in GATES}

        out, cache = lstm_sequence(seq, params, return_sequences=return_sequences)
        ref_out, ref_steps = per_gate_lstm(seq, w, b, return_sequences)
        assert out.shape == ref_out.shape
        assert relative_error(out, ref_out) < 1e-12

        direction = rng.normal(size=out.shape)
        grads, dx = lstm_backward(cache, params, direction)
        ref_grads, ref_dx = per_gate_lstm_backward(ref_steps, w, direction,
                                                   return_sequences)
        for key in PARAM_KEYS:
            assert grads[key].shape == getattr(params, key).shape, key
            assert relative_error(grads[key], ref_grads[key]) < 1e-12, key
        assert dx.shape == seq.shape
        assert relative_error(dx, ref_dx) < 1e-12


class TestOneStepPath:
    """T = 1 from the zero state: only the i, o, g input columns are used."""

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_matches_per_gate_oracle_with_zero_f_and_recurrent_grads(
            self, return_sequences):
        rng = np.random.default_rng(41)
        n_in, hidden = 3, 5
        params = random_params(rng, n_in, hidden)
        seq = rng.normal(size=(7, 1, n_in))
        w = {g: getattr(params, f"w_{g}") for g in GATES}
        b = {g: getattr(params, f"b_{g}") for g in GATES}

        out, cache = lstm_sequence(seq, params, return_sequences=return_sequences)
        assert cache.gates.shape == (1, 3 * hidden, 7)
        ref_out, ref_steps = per_gate_lstm(seq, w, b, return_sequences)
        assert out.dtype == np.float64
        assert relative_error(out, ref_out) < 1e-12

        direction = rng.normal(size=out.shape)
        grads, dx = lstm_backward(cache, params, direction)
        ref_grads, ref_dx = per_gate_lstm_backward(ref_steps, w, direction,
                                                   return_sequences)
        for key in PARAM_KEYS:
            assert grads[key].dtype == np.float64, key
            assert relative_error(grads[key], ref_grads[key]) < 1e-12, key
        assert relative_error(dx, ref_dx) < 1e-12
        assert np.array_equal(grads["w_f"], np.zeros((hidden, n_in + hidden)))
        assert np.array_equal(grads["b_f"], np.zeros(hidden))
        for gate in GATES:
            assert np.array_equal(grads[f"w_{gate}"][:, n_in:], np.zeros((hidden, hidden)))

    def test_float32_parameters_compute_in_float32(self):
        rng = np.random.default_rng(42)
        params = random_params(rng, 2, 4)
        params32 = LstmParams(**{k: getattr(params, k).astype(np.float32)
                                 for k in PARAM_KEYS})
        seq = rng.normal(size=(3, 1, 2))  # float64 input, cast by the kernel
        out, cache = lstm_sequence(seq, params32, return_sequences=True)
        grads, dx = lstm_backward(cache, params32, np.ones((3, 1, 4)))
        assert out.dtype == dx.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())
        ref, _ = lstm_sequence(seq, params, return_sequences=True)
        assert relative_error(out, ref) < 1e-6


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 2, 3)
        seq = rng.normal(size=(2, 4, 2))
        _, cache = lstm_sequence(seq, params, return_sequences=True)
        grads, dx = lstm_backward(cache, params, np.zeros((2, 4, 3)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())
        assert np.array_equal(dx, np.zeros_like(seq))

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_bptt_matches_finite_differences(self, return_sequences):
        # the seeded H=4, F=3, T=5 instance
        rng = np.random.default_rng(77)
        params = random_params(rng, 3, 4)
        seq = rng.normal(size=(2, 5, 3))
        out, _ = lstm_sequence(seq, params, return_sequences=return_sequences)
        direction = rng.normal(size=out.shape)

        def loss():
            result, _ = lstm_sequence(seq, params, return_sequences=return_sequences)
            return float((result * direction).sum())

        _, cache = lstm_sequence(seq, params, return_sequences=return_sequences)
        grads, dx = lstm_backward(cache, params, direction)

        arrays = {key: getattr(params, key) for key in PARAM_KEYS}
        arrays["inputs"] = seq
        numeric = central_difference_grads(loss, arrays)
        for key in PARAM_KEYS:
            assert relative_error(grads[key], numeric[key]) < 1e-4, key
        assert relative_error(dx, numeric["inputs"]) < 1e-4

    def test_cache_is_single_use(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 2, 3)
        _, cache = lstm_sequence(rng.normal(size=(1, 2, 2)), params, True)
        lstm_backward(cache, params, np.zeros((1, 2, 3)))
        with pytest.raises(StaleCacheError):
            lstm_backward(cache, params, np.zeros((1, 2, 3)))
