"""Synthetic data generation, imbalance construction, easy/noisy injection,
and CSV persistence.

A Dataset stores features as an (n, d) float64 matrix and labels as an int
vector of +1/-1. ``y_true`` records the pre-flip label for injected-noise
samples and is 0 everywhere else ("no ground-truth annotation").
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, read_text

__all__ = [
    "Dataset",
    "GaussianToySpec",
    "gen_gaussian_toy",
    "make_imbalanced",
    "inject_noise",
    "inject_easy",
    "load_csv",
    "save_csv",
    "dataset_hash",
]


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    y_true: np.ndarray = field(default=None)  # 0 where no annotation exists

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).ravel()
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ValidationError(f"X shape {self.X.shape} does not match {self.y.size} labels")
        if not np.all(np.isfinite(self.X)):
            raise ValidationError("features must be finite")
        _positives(self.y)
        if self.y_true is None:
            self.y_true = np.zeros(self.y.size, dtype=np.int64)
        else:
            self.y_true = np.asarray(self.y_true, dtype=np.int64).ravel()
            if self.y_true.size != self.y.size:
                raise ValidationError("y_true length does not match labels")
            if self.y_true.size and not np.all(np.isin(self.y_true, (-1, 0, 1))):
                raise ValidationError("y_true entries must be +1, -1 or 0 (absent)")

    def __len__(self) -> int:
        return self.y.size

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_pos(self) -> int:
        return int((self.y > 0).sum())

    @property
    def n_neg(self) -> int:
        return int((self.y < 0).sum())

    @property
    def p(self) -> float:
        return self.n_pos / len(self)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx].copy(), self.y[idx].copy(), self.y_true[idx].copy())

    def has_true_labels(self) -> bool:
        return bool(np.any(self.y_true != 0))


def _positives(y: np.ndarray) -> tuple[np.ndarray, int]:
    """The positive mask and count of ``y``, whose labels must be +1 or -1."""
    pos = y == 1
    n_pos = int(np.count_nonzero(pos))
    if n_pos + np.count_nonzero(y == -1) != y.size:
        raise ValidationError("labels must be +1 or -1")
    return pos, n_pos


def _check_both_classes(n_pos: int, n_neg: int, what) -> None:
    """The one both-classes rule: AUC and its surrogates need a positive-negative pair."""
    if n_pos < 1 or n_neg < 1:
        raise ValidationError(f"{what}: needs both classes, got {n_pos} positive, {n_neg} negative")


def concat(parts: list[Dataset]) -> Dataset:
    parts = [d for d in parts if len(d)]
    return Dataset(
        np.concatenate([d.X for d in parts]),
        np.concatenate([d.y for d in parts]),
        np.concatenate([d.y_true for d in parts]),
    )


@dataclass(frozen=True)
class GaussianToySpec:
    """Two isotropic Gaussian blobs; cov_scale is the per-coordinate std."""

    mean_pos: tuple[float, float] = (1.5, 1.5)
    mean_neg: tuple[float, float] = (-1.5, -1.5)
    cov_scale: float = 1.0
    n_pos: int = 500
    n_neg: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_both_classes(self.n_pos, self.n_neg, "Gaussian toy draw")
        if not 0 < self.cov_scale < math.inf:
            raise ValidationError(f"cov_scale must be finite and > 0, got {self.cov_scale}")
        for name in ("mean_pos", "mean_neg"):
            mean = getattr(self, name)
            if np.shape(mean) != (2,) or not np.isfinite(mean).all():
                raise ValidationError(f"{name} must be two finite numbers, got {mean}")


def gen_gaussian_toy(spec: GaussianToySpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    xp = np.asarray(spec.mean_pos) + spec.cov_scale * rng.standard_normal((spec.n_pos, 2))
    xn = np.asarray(spec.mean_neg) + spec.cov_scale * rng.standard_normal((spec.n_neg, 2))
    X = np.concatenate([xp, xn])
    y = np.concatenate([np.ones(spec.n_pos, dtype=np.int64), -np.ones(spec.n_neg, dtype=np.int64)])
    order = rng.permutation(len(y))
    return Dataset(X[order], y[order])


def imbalanced_keep_count(n_pos: int, n_neg: int, imratio: float) -> int:
    """The positives make_imbalanced keeps: the count k in [1, n_pos] whose
    fraction k / (k + n_neg) is closest to imratio, for both classes present and
    0 < imratio <= the prior."""
    _check_both_classes(n_pos, n_neg, "imbalancing")
    p = n_pos / (n_pos + n_neg)
    if not 0 < imratio <= p:
        raise ValidationError(f"imratio must be in (0, {p:.6g}] for n_pos = {n_pos}, "
                              f"n_neg = {n_neg}, got {imratio}")
    k_real = imratio * n_neg / (1.0 - imratio)
    candidates = {max(1, int(np.floor(k_real))), max(1, int(np.ceil(k_real)))}
    candidates = {min(k, n_pos) for k in candidates}
    return min(candidates, key=lambda k: abs(k / (k + n_neg) - imratio))


def make_imbalanced(data: Dataset, imratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Randomly drop positives until the positive fraction is closest to imratio.

    Returns (imbalanced dataset, removed positives); the removed set feeds the
    easy/noisy injection protocols. Negatives are never touched.
    """
    keep_k = imbalanced_keep_count(data.n_pos, data.n_neg, imratio)
    pos_idx = np.flatnonzero(data.y > 0)
    rng = np.random.default_rng(seed)
    kept_pos = rng.permutation(pos_idx)[:keep_k]
    keep_mask = data.y < 0
    keep_mask[kept_pos] = True
    removed = data.subset(np.flatnonzero(~keep_mask))
    kept = data.subset(np.flatnonzero(keep_mask))
    return kept, removed


def inject_noise(data: Dataset, removed_pos: Dataset, rate: float, seed: int) -> Dataset:
    """Flip floor(rate * n_neg) negatives to +1 and re-add floor(rate * removed)
    of the removed positives labeled -1, recording true labels for both."""
    if not 0.0 < rate < 1.0:
        raise ValidationError(f"noise rate must be in (0,1), got {rate}")
    if len(removed_pos) == 0:
        raise ValidationError("noise injection needs a non-empty removed-positive pool")
    if np.any(removed_pos.y < 0):
        raise ValidationError("removed pool must contain only positives")
    rng = np.random.default_rng(seed)

    n_flip_neg = int(rate * data.n_neg)
    n_flip_pos = int(rate * len(removed_pos))
    if n_flip_neg == 0 and n_flip_pos == 0:
        return data.subset(np.arange(len(data)))

    y = data.y.copy()
    y_true = data.y_true.copy()
    neg_idx = np.flatnonzero(data.y < 0)
    flip = rng.permutation(neg_idx)[:n_flip_neg]
    y[flip] = 1
    y_true[flip] = -1
    base = Dataset(data.X.copy(), y, y_true)

    pick = rng.permutation(len(removed_pos))[:n_flip_pos]
    flipped_pos = Dataset(
        removed_pos.X[pick].copy(),
        -np.ones(n_flip_pos, dtype=np.int64),
        np.ones(n_flip_pos, dtype=np.int64),
    )
    merged = concat([base, flipped_pos])
    order = rng.permutation(len(merged))
    return merged.subset(order)


def _easy_count(top_frac: float, n_removed: int) -> int:
    """How many of ``n_removed`` removed positives inject_easy re-adds."""
    return int(top_frac * n_removed)


def inject_easy(data: Dataset, removed_pos: Dataset, scores_of_removed, top_frac: float
                ) -> tuple[Dataset, Dataset]:
    """Re-add the highest-scoring fraction of the removed positives, labeled +1.

    Returns (dataset with them added, removed positives not re-added, in their
    original order), as make_imbalanced returns (kept, removed).
    """
    if not 0.0 < top_frac <= 1.0:
        raise ValidationError(f"top_frac must be in (0,1], got {top_frac}")
    scores = np.asarray(scores_of_removed, dtype=np.float64).ravel()
    if scores.size != len(removed_pos):
        raise ValidationError(
            f"{scores.size} scores for {len(removed_pos)} removed positives"
        )
    k = _easy_count(top_frac, len(removed_pos))
    order = np.argsort(-scores, kind="stable")
    added = Dataset(
        removed_pos.X[order[:k]].copy(),
        np.ones(k, dtype=np.int64),
        np.zeros(k, dtype=np.int64),
    )
    return concat([data, added]), removed_pos.subset(np.sort(order[k:]))


# --- CSV persistence --------------------------------------------------------
#
# Header: f0,...,f{d-1},label[,true_label]. The true_label column is written
# only when at least one sample carries a noise annotation; blank cells mean
# "no annotation". Floats use repr, which round-trips doubles exactly.


def save_csv(data: Dataset, path) -> None:
    with_truth = data.has_true_labels()
    cols = [f"f{i}" for i in range(data.dim)] + ["label"]
    if with_truth:
        cols.append("true_label")
    lines = [",".join(cols)]
    for x, y, yt in zip(data.X.tolist(), data.y.tolist(), data.y_true.tolist()):
        cells = [*map(repr, x), str(y)]
        if with_truth:
            cells.append(str(yt) if yt else "")
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> Dataset:
    lines = read_text(path, "ascii").splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split(",")
    with_truth = header and header[-1] == "true_label"
    feat_cols = header[:-2] if with_truth else header[:-1]
    label_col = len(feat_cols)
    if not feat_cols or (header[label_col] != "label") or any(
        h != f"f{i}" for i, h in enumerate(feat_cols)
    ):
        raise ValidationError(f"{path}: bad header {lines[0]!r}")
    d = len(feat_cols)
    n_cols = d + 1 + (1 if with_truth else 0)

    X, y, y_true = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValidationError(f"{path}:{lineno}: expected {n_cols} columns, got {len(cells)}")
        try:
            X.append([float(c) for c in cells[:d]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparseable feature value") from exc
        if cells[d] not in ("1", "-1"):
            raise ValidationError(f"{path}:{lineno}: label must be 1 or -1, got {cells[d]!r}")
        y.append(int(cells[d]))
        if with_truth:
            cell = cells[d + 1]
            if cell not in ("", "1", "-1"):
                raise ValidationError(
                    f"{path}:{lineno}: true_label must be 1, -1 or empty, got {cell!r}"
                )
            y_true.append(int(cell) if cell else 0)
        else:
            y_true.append(0)
    if not y:
        raise ValidationError(f"{path}: no data rows")
    X = np.array(X)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        lineno = [i for i, line in enumerate(lines[1:], start=2) if line][np.argmin(finite)]
        raise ValidationError(f"{path}:{lineno}: features must be finite")
    return Dataset(X, np.array(y), np.array(y_true))


def dataset_hash(data: Dataset) -> str:
    """Stable content hash used to assert that paired runs saw identical data."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.X).tobytes())
    h.update(np.ascontiguousarray(data.y).tobytes())
    h.update(np.ascontiguousarray(data.y_true).tobytes())
    return h.hexdigest()[:16]
