"""Metrics tests against tally-loop, formula, and pair-counting oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veclstm.errors import (
    ConfigError,
    DegenerateClass,
    EmptyInput,
    LengthMismatch,
    NonFiniteError,
    OutOfRange,
)
from veclstm.metrics import (
    _binary_roc,
    accuracy,
    confusion,
    evaluate_classifier,
    micro_average_roc,
    regression_metrics,
    roc_auc,
    weighted_f1,
)

from _oracles import (
    argsort_binary_roc,
    formula_weighted_f1,
    pair_counting_auc,
    tally_confusion,
)


def random_case(seed, n=200, n_classes=7):
    rng = np.random.default_rng(seed)
    true = rng.integers(0, n_classes, size=n)
    logits = rng.normal(size=(n, n_classes)) + 1.5 * np.eye(n_classes)[true]
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, true


class TestAccuracy:
    def test_extremes(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
        assert accuracy(np.array([1, 2, 3]), np.array([0, 0, 0])) == 0.0

    def test_matches_count_loop(self):
        rng = np.random.default_rng(19)
        pred = rng.integers(0, 7, 200)
        true = rng.integers(0, 7, 200)
        expected = sum(1 for p, t in zip(pred, true) if p == t) / 200
        assert accuracy(pred, true) == expected

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(EmptyInput):
            accuracy(np.array([]), np.array([]))


class TestConfusion:
    def test_perfect_diagonal(self):
        true = np.array([0, 0, 1, 2, 2, 2])
        matrix = confusion(true, true, 3)
        assert np.array_equal(matrix, np.diag([2, 1, 3]))

    def test_single_sample(self):
        matrix = confusion(np.array([5]), np.array([2]))
        assert matrix[2, 5] == 1
        assert matrix.sum() == 1

    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(21)
        pred = rng.integers(0, 7, 300)
        true = rng.integers(0, 7, 300)
        assert np.array_equal(confusion(pred, true),
                              tally_confusion(pred, true, 7))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            confusion(np.array([7]), np.array([0]))

    def test_total_preserved(self):
        probs, true = random_case(1)
        matrix = confusion(probs.argmax(axis=1), true)
        assert matrix.sum() == len(true)


class TestWeightedF1:
    def test_perfect(self):
        assert weighted_f1(np.diag([5, 3, 2])) == 1.0

    def test_all_wrong_into_absent_class(self):
        matrix = np.zeros((3, 3), dtype=int)
        matrix[0, 1] = 10  # every class-0 sample predicted as the absent class 1
        assert weighted_f1(matrix) == 0.0

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(29)
        matrix = rng.integers(0, 30, size=(3, 3))
        assert weighted_f1(matrix) == pytest.approx(
            formula_weighted_f1(matrix), abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            weighted_f1(np.zeros((3, 3)))


class TestRegressionMetrics:
    def test_identical(self):
        assert regression_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == \
            (0.0, 0.0, 0.0)

    def test_analytic_case(self):
        rmse, mae, mse = regression_metrics(np.array([0.0, 2.0]),
                                            np.array([0.0, 0.0]))
        assert mse == 2.0
        assert rmse == pytest.approx(math.sqrt(2), abs=1e-12)
        assert mae == 1.0

    def test_consistency(self):
        rng = np.random.default_rng(33)
        pred, true = rng.normal(size=50), rng.normal(size=50)
        rmse, mae, mse = regression_metrics(pred, true)
        assert mse == pytest.approx(rmse * rmse, abs=1e-12)
        assert mae <= rmse


class TestRocAuc:
    def test_perfect_separation(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        true = np.array([0, 0, 1, 1])
        assert roc_auc(probs, true, 0).auc == 1.0

    def test_perfectly_inverted(self):
        probs = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.8, 0.2]])
        true = np.array([0, 0, 1, 1])
        assert roc_auc(probs, true, 0).auc == 0.0

    def test_matches_pair_counting_oracle(self):
        probs, true = random_case(41, n=100)
        for cls in range(7):
            curve = roc_auc(probs, true, cls)
            expected = pair_counting_auc(probs[:, cls].tolist(),
                                         (true == cls).tolist())
            assert curve.auc == pytest.approx(expected, abs=1e-9)

    def test_ties_get_half_credit(self):
        probs = np.array([[0.5, 0.5]] * 4)
        true = np.array([0, 0, 1, 1])
        assert roc_auc(probs, true, 0).auc == pytest.approx(0.5, abs=1e-12)

    def test_curve_shape(self):
        probs, true = random_case(43, n=60)
        curve = roc_auc(probs, true, 2)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_monotone_transform_invariance(self):
        probs, true = random_case(47, n=100)
        base = roc_auc(probs, true, 1).auc
        cubed = roc_auc(probs ** 3, true, 1).auc
        assert cubed == pytest.approx(base, abs=1e-9)

    def test_degenerate_class(self):
        probs = np.array([[0.6, 0.4], [0.7, 0.3]])
        with pytest.raises(DegenerateClass):
            roc_auc(probs, np.array([0, 0]), 1)


class TestMicroAverage:
    def test_perfect_one_hot(self):
        true = np.array([0, 1, 2])
        probs = np.eye(3)[true]
        assert micro_average_roc(probs, true).auc == 1.0

    def test_uniform_scores_give_half(self):
        probs = np.full((10, 5), 0.2)
        true = np.arange(10) % 5
        assert micro_average_roc(probs, true).auc == pytest.approx(0.5, abs=1e-12)

    def test_matches_flattened_pair_oracle(self):
        probs, true = random_case(53, n=60, n_classes=4)
        curve = micro_average_roc(probs, true)
        onehot = np.zeros_like(probs, dtype=bool)
        onehot[np.arange(60), true] = True
        expected = pair_counting_auc(probs.reshape(-1).tolist(),
                                     onehot.reshape(-1).tolist())
        assert curve.auc == pytest.approx(expected, abs=1e-9)


class TestBundle:
    def test_cross_metric_consistency(self):
        probs, true = random_case(61)
        bundle = evaluate_classifier(probs, true)
        matrix = np.array(bundle.confusion)
        assert bundle.accuracy == np.trace(matrix) / matrix.sum()
        assert matrix.sum() == len(true)
        assert 0.0 <= bundle.weighted_f1 <= 1.0
        assert all(a is None or 0.0 <= a <= 1.0 for a in bundle.per_class_auc)

    def test_absent_class_reports_none(self):
        probs, true = random_case(67, n=50, n_classes=7)
        true = np.where(true == 6, 0, true)  # class 6 never occurs
        bundle = evaluate_classifier(probs, true)
        assert bundle.per_class_auc[6] is None

    def test_probability_regression_basis(self):
        probs, true = random_case(71, n=40)
        bundle = evaluate_classifier(probs, true, regression_basis="probabilities")
        assert bundle.regression_basis == "probabilities"
        onehot = np.zeros_like(probs)
        onehot[np.arange(40), true] = 1.0
        rmse, mae, mse = regression_metrics(probs.reshape(-1), onehot.reshape(-1))
        assert bundle.rmse == rmse

    def test_serializable(self):
        import json
        probs, true = random_case(73, n=30)
        doc = json.dumps(evaluate_classifier(probs, true).to_dict())
        assert "accuracy" in doc

    def test_roc_curve_csv(self):
        probs, true = random_case(79, n=40)
        lines = roc_auc(probs, true, 0).to_csv().splitlines()
        assert lines[0] == "fpr,tpr"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert (float(first[0]), float(first[1])) == (0.0, 0.0)
        assert (float(last[0]), float(last[1])) == (1.0, 1.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# signed zeros, the smallest and largest subnormals, the smallest normal
SIGNED_ZEROS_AND_SUBNORMALS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                               -2.225073858507201e-308, 2.2250738585072014e-308, 1.0]


@st.composite
def scored_labels(draw):
    """(scores, positive) with at least one positive and one negative.

    Scores are all distinct, drawn from a few values (as predict returns
    for deduplicated rows), one constant, or signed zeros and subnormals;
    the labels are random or hold a single positive or a single negative.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    family = draw(st.sampled_from(["distinct", "tied", "constant", "zeros"]))
    if family == "distinct":
        scores = rng.permutation(np.unique(np.concatenate(
            [draw(st.lists(FINITE, min_size=1, max_size=20)), rng.random(n)])))
    else:
        pool = {"tied": st.lists(FINITE, min_size=2, max_size=6),
                "constant": st.lists(FINITE, min_size=1, max_size=1),
                "zeros": st.lists(st.sampled_from(SIGNED_ZEROS_AND_SUBNORMALS),
                                  min_size=1, max_size=8)}[family]
        scores = rng.choice(np.array(draw(pool)), size=n)
    labels = draw(st.sampled_from(["random", "one_positive", "one_negative"]))
    if labels == "random":
        positive = rng.random(scores.size) < draw(st.floats(0.0, 1.0))
        positive[:2] = [True, False]
        rng.shuffle(positive)
    else:
        positive = np.zeros(scores.size, dtype=bool)
        positive[rng.integers(scores.size)] = True
        if labels == "one_negative":
            positive = ~positive
    return scores, positive


def assert_same_curve(got, want):
    assert np.array_equal(got.fpr, want.fpr)
    assert np.array_equal(got.tpr, want.tpr)
    assert got.auc == want.auc


class TestSortedRocMatchesArgsortOracle:
    """The sort-and-search ROC is bit-identical to the stable-argsort sweep."""

    @settings(max_examples=300, deadline=None)
    @given(scored_labels())
    def test_binary_roc(self, case):
        scores, positive = case
        with np.errstate(over="ignore"):  # the oracle's np.diff of extremes
            want = argsort_binary_roc(scores, positive)
        assert_same_curve(_binary_roc(scores, positive), want)

    @pytest.mark.parametrize("decimals", [None, 2])
    def test_evaluate_classifier_curves(self, decimals):
        probs, true = random_case(83, n=600)
        if decimals is not None:
            probs = np.round(probs, decimals)  # many tied scores
        bundle = evaluate_classifier(probs, true)
        assert len(bundle.roc_curves) == 8
        for cls in range(7):
            want = argsort_binary_roc(probs[:, cls], true == cls)
            assert_same_curve(bundle.roc_curves[cls], want)
            assert bundle.per_class_auc[cls] == want.auc
        onehot = (true[:, None] == np.arange(7)).reshape(-1)
        want = argsort_binary_roc(probs.reshape(-1), onehot)
        assert_same_curve(bundle.roc_curves["micro"], want)
        assert bundle.micro_auc == want.auc


class TestRocInputErrors:
    @pytest.mark.parametrize("bad_label", [-1, 3])
    def test_labels_outside_the_classes(self, bad_label):
        probs = np.full((4, 3), 1 / 3)
        true = np.array([0, 1, bad_label, 0])
        with pytest.raises(OutOfRange):
            micro_average_roc(probs, true)
        with pytest.raises(OutOfRange):
            roc_auc(probs, true, 0)
        with pytest.raises(OutOfRange):
            evaluate_classifier(probs, true, 3)

    def test_non_finite_scores(self):
        true = np.array([0, 1, 0])
        with pytest.raises(NonFiniteError):
            roc_auc(np.array([[np.nan, 0.5], [0.2, 0.8], [0.9, 0.1]]), true, 0)
        with pytest.raises(NonFiniteError):
            roc_auc(np.array([[np.inf, 0.5], [np.inf, 0.8], [0.9, 0.1]]), true, 0)
        with pytest.raises(NonFiniteError):
            micro_average_roc(np.array([[0.5, 0.5], [0.2, -np.inf], [0.9, 0.1]]), true)

    def test_non_finite_row_in_bundle(self):
        probs, true = random_case(89, n=30)
        probs[4] = np.nan
        with pytest.raises(NonFiniteError):
            evaluate_classifier(probs, true)

    def test_bundle_needs_one_score_row_per_label(self):
        with pytest.raises(LengthMismatch):
            evaluate_classifier(np.array([0.2, 0.8]), np.array([0, 1]), 2)
        probs, true = random_case(97, n=10)
        with pytest.raises(LengthMismatch):
            evaluate_classifier(probs, true[:9])
        with pytest.raises(LengthMismatch):
            micro_average_roc(probs, true.reshape(10, 1))

    def test_bundle_needs_one_score_column_per_class(self):
        # Three columns used to fail as "class 3 outside [0, 3)", and
        # eight, with class 7 predicted, as "labels outside [0, 7)".
        true = np.array([0, 1, 2, 0])
        with pytest.raises(LengthMismatch, match="3 probability columns for 7 classes"):
            evaluate_classifier(np.full((4, 3), 1 / 3), true)
        probs = np.zeros((4, 8))
        probs[:, 7] = 1.0
        with pytest.raises(LengthMismatch, match="8 probability columns for 7 classes"):
            evaluate_classifier(probs, true)

    def test_unknown_regression_basis(self):
        with pytest.raises(ConfigError, match="'x'"):
            evaluate_classifier(np.full((4, 3), 1 / 3), np.array([0, 1, 2, 0]),
                                regression_basis="x")
