"""Exact AUC (the Wilcoxon-Mann-Whitney statistic, counted from per-class
sorts), thresholded accuracy, and a small demonstration of how AUC reacts to
rank changes that leave accuracy untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _positives
from .errors import ValidationError

__all__ = ["AucResult", "auc_score", "accuracy", "auc_sensitivity_demo", "SensitivityReport"]


@dataclass(frozen=True)
class AucResult:
    auc: float
    n_pos: int
    n_neg: int
    tie_mass: float  # fraction of positive-negative pairs with equal scores


def _as_scored(scores, labels):
    """Checked ``(scores, labels, positive mask, positive count)``."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValidationError(f"scores {s.shape} and labels {y.shape} differ in length")
    return (s, y, *_positives(y))


def auc_score(scores, labels, tie_policy: str = "half") -> AucResult:
    """AUC in O(n log n) from a sort of each class's scores.

    ``half`` scores tied pairs 0.5 (the standard WMW statistic); ``geq``
    scores them 1, i.e. the literal probability that a positive ranks at
    least as high as a negative. Any NaN score makes the AUC NaN.
    """
    if tie_policy not in ("half", "geq"):
        raise ValidationError(f"tie_policy must be 'half' or 'geq', got {tie_policy!r}")
    s, _, pos, _ = _as_scored(scores, labels)
    return _auc(s, pos, ~pos, tie_policy)


def _class_split(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive and the negative row indices of checked +1/-1 labels: the
    class split that training's evaluation builds once per run for ``_auc``."""
    pos = labels == 1
    return np.flatnonzero(pos), np.flatnonzero(~pos)


def _auc(s: np.ndarray, pos, neg, tie_policy: str = "half") -> AucResult:
    """``auc_score`` of checked float64 scores ``s`` with the class split
    ``(pos, neg)``, two boolean masks or two index arrays: only the gathers,
    the sorts and the counts."""
    # NaNs sort last, and searchsorted orders them the same way, so NaNs of
    # both classes form one tied group above every number
    neg_sorted, pos_sorted = s[neg], s[pos]
    n_pos, n_neg = pos_sorted.size, neg_sorted.size
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs at least one sample of each class")
    neg_sorted.sort()
    pos_sorted.sort()
    below = np.searchsorted(neg_sorted, pos_sorted, side="left")
    has_nan = bool(np.isnan(neg_sorted[-1]) or np.isnan(pos_sorted[-1]))

    # exact integer pair counts; the AUC is one rounding of their ratio. A
    # positive ties a negative only if it equals the negative at its left
    # insertion point, so the right-side count is needed only then (or for
    # NaNs, which compare unequal but tie)
    n_wins = below.sum()
    wins = float(n_wins)
    if has_nan or (neg_sorted[np.minimum(below, n_neg - 1)] == pos_sorted).any():
        tie_pairs = float(np.searchsorted(neg_sorted, pos_sorted, side="right").sum() - n_wins)
    else:
        tie_pairs = 0.0
    tie_mass = tie_pairs / (n_pos * n_neg)
    if has_nan:
        auc = float("nan")
    else:
        numerator = wins + (0.5 if tie_policy == "half" else 1.0) * tie_pairs
        auc = numerator / (n_pos * n_neg)
    return AucResult(auc=auc, n_pos=n_pos, n_neg=n_neg, tie_mass=tie_mass)


def accuracy(scores, labels, threshold: float = 0.5) -> float:
    """Fraction of samples on the label's side of the threshold (ties count
    positive). A NaN threshold, which no score reaches, is rejected; an
    infinite one calls every sample negative (+inf) or positive (-inf)."""
    if np.isnan(threshold):
        raise ValidationError("accuracy threshold must not be NaN")
    s, y, _, _ = _as_scored(scores, labels)
    if s.size == 0:
        raise ValidationError("accuracy of an empty sample set is undefined")
    predicted = np.where(s >= threshold, 1, -1)
    return float(np.mean(predicted == y))


# --- sensitivity demonstration ---------------------------------------------
#
# A 25-sample instance with 3 positives. The published table elides 12 of the
# low-scoring negative rows, so the hidden rows are pinned here (all strictly
# below 0.40); the derived AUC values are reported instead of the table's
# rounded ones. Accuracy at threshold 0.5 stays 0.92 in every variant while
# the AUC strictly decreases.

_VISIBLE_NEG = [0.6, 0.6, 0.47, 0.47, 0.45, 0.43, 0.42]
_HIDDEN_NEG = [round(0.12 + 0.02 * i, 2) for i in range(14)]  # 0.12 .. 0.38
_LOWEST_NEG = [0.1]


def _base_instance():
    pos = [0.9, 0.8, 0.7]
    neg = _VISIBLE_NEG + _HIDDEN_NEG + _LOWEST_NEG
    scores = np.array(pos + neg)
    labels = np.array([1] * len(pos) + [-1] * len(neg))
    return scores, labels


# The rank-drop variants as {index: new score} edits of the base instance.
_RANK_DROPS = {
    # demote one positive below seven negatives; one former 0.6 negative
    # drops below threshold so the error count is unchanged
    "one_drop": {1: 0.41, 4: 0.49},
    # demote two positives; both 0.6 negatives drop below threshold
    "two_drop": {1: 0.41, 2: 0.40, 3: 0.49, 4: 0.48},
}


@dataclass(frozen=True)
class SensitivityReport:
    names: tuple[str, ...]
    scores: tuple[np.ndarray, ...]
    labels: np.ndarray
    accuracies: tuple[float, ...]
    aucs: tuple[float, ...]

    def as_text(self) -> str:
        lines = [f"{'case':<10} {'accuracy':>9} {'auc':>8}"]
        for name, acc, auc in zip(self.names, self.accuracies, self.aucs):
            lines.append(f"{name:<10} {acc:>9.4f} {auc:>8.4f}")
        return "\n".join(lines)

    def as_csv(self) -> str:
        rows = ["case,accuracy,auc"]
        rows.extend(
            f"{name},{acc!r},{auc!r}"
            for name, acc, auc in zip(self.names, self.accuracies, self.aucs)
        )
        return "\n".join(rows) + "\n"


def auc_sensitivity_demo() -> SensitivityReport:
    """Three instances: ranks of positives degrade, accuracy never moves."""
    base_scores, labels = _base_instance()
    cases = [base_scores]
    for edits in _RANK_DROPS.values():
        scores = base_scores.copy()
        scores[list(edits)] = list(edits.values())
        cases.append(scores)
    accs = tuple(accuracy(s, labels, threshold=0.5) for s in cases)
    aucs = tuple(auc_score(s, labels).auc for s in cases)
    return SensitivityReport(
        names=("base", *_RANK_DROPS),
        scores=tuple(cases),
        labels=labels,
        accuracies=accs,
        aucs=aucs,
    )
