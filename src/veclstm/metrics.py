"""Classification and regression metrics.

Everything here is computed from first principles (no sklearn) so the
test suite can verify each against an independent brute-force oracle:
accuracy, confusion matrix, weighted F1, RMSE/MAE/MSE, one-vs-rest ROC
curves with trapezoidal AUC, and the micro-average ROC over all
(sample, class) decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateClass, EmptyInput, LengthMismatch, OutOfRange

N_CLASSES = 7
REGRESSION_BASES = ("class_codes", "probabilities")


def accuracy(pred: np.ndarray, true: np.ndarray) -> float:
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise LengthMismatch(f"{pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise EmptyInput("no samples to score")
    return float(np.mean(pred == true))


def confusion(pred: np.ndarray, true: np.ndarray, n_classes: int = N_CLASSES) -> np.ndarray:
    """Counts[true][pred], an (C, C) int64 matrix."""
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if pred.shape != true.shape:
        raise LengthMismatch(f"{pred.shape} vs {true.shape}")
    if pred.size and (pred.min() < 0 or pred.max() >= n_classes
                      or true.min() < 0 or true.max() >= n_classes):
        raise OutOfRange(f"labels outside [0, {n_classes})")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (true, pred), 1)
    return matrix


def weighted_f1(matrix: np.ndarray) -> float:
    """Support-weighted mean of per-class F1.

    Precision is diag/colsum and recall diag/rowsum, each 0 when the
    denominator is 0; F1 is 0 when P + R = 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    total = matrix.sum()
    if total == 0:
        raise EmptyInput("empty confusion matrix")
    diag = np.diag(matrix)
    colsum = matrix.sum(axis=0)
    rowsum = matrix.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(colsum > 0, diag / colsum, 0.0)
        recall = np.where(rowsum > 0, diag / rowsum, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    support = rowsum / total
    return float((f1 * support).sum())


def regression_metrics(pred: np.ndarray, true: np.ndarray) -> tuple[float, float, float]:
    """(rmse, mae, mse) between two real-valued vectors.

    In classification reports these are applied to predicted vs true
    class codes treated as reals (an explicit, recorded choice; a
    probability basis is available via MetricsBundle).
    """
    pred = np.asarray(pred, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if pred.shape != true.shape:
        raise LengthMismatch(f"{pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise EmptyInput("no samples to score")
    diff = pred - true
    mse = float(np.mean(diff * diff))
    mae = float(np.mean(np.abs(diff)))
    return float(np.sqrt(mse)), mae, mse


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def to_csv(self) -> str:
        lines = ["fpr,tpr"]
        lines += [f"{repr(float(f))},{repr(float(t))}"
                  for f, t in zip(self.fpr, self.tpr)]
        return "\n".join(lines)


def _binary_roc(scores: np.ndarray, positive: np.ndarray) -> RocCurve:
    """ROC by sweeping thresholds over the distinct scores, descending.

    Tied scores advance TP and FP together, producing the diagonal
    segment whose trapezoidal area gives ties half credit.
    """
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass(f"{n_pos} positives, {n_neg} negatives")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order].astype(np.float64)

    tp_cum = np.cumsum(sorted_pos)
    fp_cum = np.cumsum(1.0 - sorted_pos)
    # Keep only the last index of each tied-score group.
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [scores.size - 1]])

    tpr = np.concatenate([[0.0], tp_cum[boundaries] / n_pos])
    fpr = np.concatenate([[0.0], fp_cum[boundaries] / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def roc_auc(scores: np.ndarray, true: np.ndarray, cls: int) -> RocCurve:
    """One-vs-rest ROC for class cls using its probability column."""
    scores = np.asarray(scores, dtype=np.float64)
    true = np.asarray(true, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != true.shape[0]:
        raise LengthMismatch("scores must be (N, C) aligned with true labels")
    if not 0 <= cls < scores.shape[1]:
        raise OutOfRange(f"class {cls} outside [0, {scores.shape[1]})")
    return _binary_roc(scores[:, cls], true == cls)


def micro_average_roc(scores: np.ndarray, true: np.ndarray) -> RocCurve:
    """ROC over all (sample, class) pairs pooled into one binary problem."""
    scores = np.asarray(scores, dtype=np.float64)
    true = np.asarray(true, dtype=np.int64)
    if scores.size == 0:
        raise EmptyInput("no scores")
    if scores.ndim != 2 or scores.shape[0] != true.shape[0]:
        raise LengthMismatch("scores must be (N, C) aligned with true labels")
    n, c = scores.shape
    onehot = np.zeros((n, c), dtype=bool)
    onehot[np.arange(n), true] = True
    return _binary_roc(scores.reshape(-1), onehot.reshape(-1))


@dataclass
class MetricsBundle:
    accuracy: float
    weighted_f1: float
    confusion: list[list[int]]
    rmse: float
    mae: float
    mse: float
    per_class_auc: list[float | None]
    micro_auc: float
    regression_basis: str = "class_codes"
    roc_curves: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "weighted_f1": self.weighted_f1,
            "confusion": self.confusion,
            "rmse": self.rmse,
            "mae": self.mae,
            "mse": self.mse,
            "per_class_auc": self.per_class_auc,
            "micro_auc": self.micro_auc,
            "regression_basis": self.regression_basis,
        }


def evaluate_classifier(
    probs: np.ndarray,
    true: np.ndarray,
    n_classes: int = N_CLASSES,
    regression_basis: str = "class_codes",
) -> MetricsBundle:
    """Full bundle from predicted probabilities and true labels.

    Classes absent from the truth (or predicted for every sample) have
    no defined ROC and report None for their AUC.
    """
    probs = np.asarray(probs, dtype=np.float64)
    true = np.asarray(true, dtype=np.int64)
    pred = probs.argmax(axis=1)
    matrix = confusion(pred, true, n_classes)

    if regression_basis == "class_codes":
        rmse, mae, mse = regression_metrics(pred.astype(np.float64),
                                            true.astype(np.float64))
    elif regression_basis == "probabilities":
        onehot = np.zeros_like(probs)
        onehot[np.arange(true.size), true] = 1.0
        rmse, mae, mse = regression_metrics(probs.reshape(-1), onehot.reshape(-1))
    else:
        raise ValueError(f"unknown regression basis {regression_basis!r}")

    per_class: list[float | None] = []
    curves: dict = {}
    for cls in range(n_classes):
        try:
            curve = roc_auc(probs, true, cls)
        except DegenerateClass:
            per_class.append(None)
            continue
        per_class.append(curve.auc)
        curves[cls] = curve
    micro = micro_average_roc(probs, true)
    curves["micro"] = micro

    return MetricsBundle(
        accuracy=accuracy(pred, true),
        weighted_f1=weighted_f1(matrix),
        confusion=matrix.tolist(),
        rmse=rmse,
        mae=mae,
        mse=mse,
        per_class_auc=per_class,
        micro_auc=micro.auc,
        regression_basis=regression_basis,
        roc_curves=curves,
    )
