"""Surrogate objectives for AUC maximization and their gradients.

Pairwise square loss (the exact O(N+ N-) oracle), its decomposition into
variance terms plus a mean-gap term, the margin variant with a squared hinge
on the gap, the per-sample min-max form used for stochastic training, and the
two pointwise baselines (logistic cross-entropy and focal loss).

Conventions: labels are +1/-1; scores are raw model outputs; ``p`` is the
positive-class prior of the full training set, fixed once per run. Gradients
with respect to scores are returned as per-sample coefficients sized so that
feeding them to ``models.backward_vjp`` yields the gradient of the *batch
mean* objective.

The public functions validate their inputs. Each has an unchecked core
(``_minmax_grads``, ``_bsn``/``_bsn_vjp`` with the norm from ``_bsn_norm``,
``_cross_entropy``, ``_focal``) that the training loop calls on batches of a
checked ``Dataset``. The min-max core takes the batch's columns of the
label table from ``_minmax_weights``, which training builds once per run,
and a, b and alpha as numpy scalars, and builds no per-batch object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _check_both_classes
from .errors import ValidationError
from .metrics import _as_scored

__all__ = [
    "AuxVars",
    "SurrogateSpec",
    "MinMaxGrads",
    "pairwise_square_loss",
    "square_loss_decomposition",
    "margin_loss_value",
    "optimal_aux",
    "minmax_value",
    "minmax_grads",
    "batch_score_normalize",
    "bsn_vjp",
    "cross_entropy_loss_and_coeffs",
    "focal_loss_and_coeffs",
]

BSN_EPS = 1e-12
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)

AUC_KINDS = ("auc_square", "auc_margin")
ALL_KINDS = AUC_KINDS + ("cross_entropy", "focal")


@dataclass
class AuxVars:
    """Auxiliary min-max variables: class-mean surrogates a, b and dual alpha."""

    a: float = 0.0
    b: float = 0.0
    alpha: float = 0.0


@dataclass(frozen=True)
class SurrogateSpec:
    """Which objective governs training and its hyperparameters.

    ``bsn`` L2-normalizes the scores of each mini-batch before the loss, and
    training differentiates through the normalization (its full Jacobian).
    """

    kind: str
    p: float
    m: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    bsn: bool = False

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown surrogate kind {self.kind!r}")
        if not 0.0 < self.p < 1.0:
            raise ValidationError(f"class prior p must be in (0,1), got {self.p}")
        if not math.isfinite(self.m):
            raise ValidationError(f"margin m must be finite, got {self.m}")
        if self.kind == "auc_margin" and not self.m > 0:
            raise ValidationError(f"margin m must be > 0, got {self.m}")
        if self.kind == "focal":
            _check_focal(self.focal_alpha, self.focal_gamma)

    @property
    def effective_margin(self) -> float:
        # the square min-max objective is the margin form with m pinned to 1
        return 1.0 if self.kind == "auc_square" else self.m


@dataclass
class MinMaxGrads:
    """Gradient bundle of the batch-mean min-max objective.

    ``g_coeffs[i]`` is d(value)/d(score_i); feed it to backward_vjp.
    """

    g_coeffs: np.ndarray = field(repr=False)
    g_a: float = 0.0
    g_b: float = 0.0
    g_alpha: float = 0.0
    value: float = 0.0


def _split_by_class(scores_pos, scores_neg):
    sp = np.asarray(scores_pos, dtype=np.float64).ravel()
    sn = np.asarray(scores_neg, dtype=np.float64).ravel()
    _check_both_classes(sp.size, sn.size, "AUC loss")
    return sp, sn


def _check_batch(scores, labels):
    s, y, _, _ = _as_scored(scores, labels)
    if s.size == 0:
        raise ValidationError("empty batch")
    return s, y.astype(np.float64)


def pairwise_square_loss(scores_pos, scores_neg) -> float:
    """Mean over all positive-negative pairs of (1 - s+ + s-)^2, computed exactly."""
    sp, sn = _split_by_class(scores_pos, scores_neg)
    diffs = 1.0 - sp[:, None] + sn[None, :]
    return float(np.mean(diffs * diffs))


def square_loss_decomposition(scores_pos, scores_neg) -> tuple[float, float, float]:
    """Split the pairwise square loss into (A1, A2, A3).

    A1/A2 are the within-class score variances, A3 = (1 - mean+ + mean-)^2.
    A1 + A2 + A3 equals pairwise_square_loss exactly.
    """
    sp, sn = _split_by_class(scores_pos, scores_neg)
    a_bar = sp.mean()
    b_bar = sn.mean()
    a1 = float(np.mean((sp - a_bar) ** 2))
    a2 = float(np.mean((sn - b_bar) ** 2))
    a3 = float((1.0 - a_bar + b_bar) ** 2)
    return a1, a2, a3


def margin_loss_value(scores_pos, scores_neg, m: float) -> float:
    """A1 + A2 + (m - mean+ + mean-)_+^2 : squared hinge on the class-mean gap."""
    SurrogateSpec("auc_margin", p=0.5, m=m)     # the margin rule
    sp, sn = _split_by_class(scores_pos, scores_neg)
    a1, a2, _ = square_loss_decomposition(sp, sn)
    hinge = max(0.0, m - sp.mean() + sn.mean())
    return a1 + a2 + hinge * hinge


def optimal_aux(scores_pos, scores_neg, loss: str = "auc_square", m: float = 1.0) -> AuxVars:
    """Closed-form (a, b, alpha) given the scores.

    a and b are the class means; alpha is 1 + b - a for the square loss and
    max(0, m + b - a) for the margin loss.
    """
    sp, sn = _split_by_class(scores_pos, scores_neg)
    a = float(sp.mean())
    b = float(sn.mean())
    if loss == "auc_square":
        alpha = 1.0 + b - a
    elif loss == "auc_margin":
        SurrogateSpec(loss, p=0.5, m=m)     # the margin rule
        alpha = max(0.0, m + b - a)
    else:
        raise ValidationError(f"loss must be 'auc_square' or 'auc_margin', got {loss!r}")
    return AuxVars(a=a, b=b, alpha=alpha)


def _check_focal(alpha_hat, gamma_hat) -> None:
    if not 0.0 < alpha_hat < 1.0:
        raise ValidationError(f"focal alpha must be in (0,1), got {alpha_hat}")
    if not 0 <= gamma_hat < math.inf:
        raise ValidationError(f"focal gamma must be finite and >= 0, got {gamma_hat}")


def _check_auc_batch(scores, labels, spec: SurrogateSpec, caller: str):
    if spec.kind not in AUC_KINDS:
        raise ValidationError(f"{caller} needs an AUC surrogate, got {spec.kind!r}")
    return _check_batch(scores, labels)


def _minmax_weights(y, p: float) -> np.ndarray:
    """The per-sample label table of the min-max objective, built once per run.

    Rows: (1-p) pos, p neg, 2(1-p) pos, 2p neg, -2(1-p) pos, -2p neg, with
    pos = (y > 0) and neg = ~pos as 0/1. The core multiplies by a batch's
    columns instead of masking by class, so inf * 0 stays NaN and a masked
    negative term stays -0.0: the bits are those of the per-class formula
    ``(c * x) * mask``, except where ``c * x`` overflows for a finite x of the
    masked class (|x| above DBL_MAX / 2), which gives 0 here and NaN there.
    """
    pos = y > 0
    neg = ~pos
    return np.array([(1 - p) * pos, p * neg, 2 * (1 - p) * pos, 2 * p * neg,
                     -2 * (1 - p) * pos, -2 * p * neg])


def _minmax_terms(s, w, a, b, alpha, spec: SurrogateSpec):
    """The shared terms of the min-max objective on a batch with label table ``w``.

    ``a``, ``b`` and ``alpha`` are numpy float64 scalars, so that a diverging
    run overflows to inf instead of raising. Returns (s - a, s - b, sums),
    where ``sums`` holds the batch sums of the value, of the per-sample g_a
    and g_b, and of the alpha factor's ``inner``, which the caller doubles:
    short of overflow, doubling is exact, so ``2 * sum(inner)`` is
    ``sum(2 * inner)`` bit for bit.
    """
    p, m = spec.p, spec.effective_margin
    w_pos, w_neg, _, _, w_a, w_b = w
    d_a = s - a
    d_b = s - b
    terms = np.empty((4, s.size))
    per, g_a, g_b, inner = terms
    np.subtract(p * (1 - p) * m + s * w_neg, s * w_pos, out=inner)
    np.add(d_a**2 * w_pos + d_b**2 * w_neg - p * (1 - p) * alpha**2, 2 * alpha * inner, out=per)
    np.multiply(d_a, w_a, out=g_a)
    np.multiply(d_b, w_b, out=g_b)
    return d_a, d_b, np.add.reduce(terms, axis=1).tolist()


def _aux_scalars(aux: AuxVars):
    return np.float64(aux.a), np.float64(aux.b), np.float64(aux.alpha)


def minmax_value(scores, labels, aux: AuxVars, spec: SurrogateSpec) -> float:
    """Batch mean of the decomposable per-sample min-max objective."""
    s, y = _check_auc_batch(scores, labels, spec, "minmax_value")
    return _minmax_terms(s, _minmax_weights(y, spec.p), *_aux_scalars(aux), spec)[-1][0] / s.size


def minmax_grads(scores, labels, aux: AuxVars, spec: SurrogateSpec) -> MinMaxGrads:
    """Exact gradients of minmax_value w.r.t. scores, a, b and alpha."""
    s, y = _check_auc_batch(scores, labels, spec, "minmax_grads")
    g_ab = np.empty(2)
    value, g_coeffs, g_alpha = _minmax_grads(s, _minmax_weights(y, spec.p), *_aux_scalars(aux),
                                             spec, g_ab)
    g_a, g_b = g_ab.tolist()
    return MinMaxGrads(g_coeffs=g_coeffs, g_a=g_a, g_b=g_b, g_alpha=float(g_alpha), value=value)


def _minmax_grads(s, w, a, b, alpha, spec: SurrogateSpec, g_ab):
    """``minmax_grads``' core on ``_minmax_terms``' arguments: returns the
    batch value, the score coefficients and g_alpha, and writes g_a and g_b
    into ``g_ab`` (the last two slots of PESG's gradient buffer)."""
    d_a, d_b, (value, g_a, g_b, inner) = _minmax_terms(s, w, a, b, alpha, spec)
    p, n = spec.p, s.size
    g_ab[0] = g_a / n
    g_ab[1] = g_b / n
    # d_a and d_b are spent: the coefficients take their place
    np.subtract(d_a, alpha, out=d_a)
    d_a *= w[2]
    np.add(d_b, alpha, out=d_b)
    d_b *= w[3]
    d_a += d_b
    d_a /= n
    return value / n, d_a, 2 * inner / n - 2 * p * (1 - p) * alpha


def batch_score_normalize(scores) -> np.ndarray:
    """L2-normalize a mini-batch of scores; batches with norm < 1e-12 pass through."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValidationError("cannot normalize an empty batch")
    return _bsn(s, _bsn_norm(s))


def _bsn_norm(s) -> float:
    return math.sqrt(s @ s)


def _bsn(s, norm: float) -> np.ndarray:
    return s.copy() if norm < BSN_EPS else s / norm


def bsn_vjp(scores, upstream) -> np.ndarray:
    """Apply the Jacobian of batch_score_normalize (transposed) to upstream.

    J = I/||s|| - s s^T / ||s||^3, symmetric, so the VJP equals the JVP.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    u = np.asarray(upstream, dtype=np.float64).ravel()
    if s.shape != u.shape:
        raise ValidationError(f"scores {s.shape} and upstream {u.shape} differ in length")
    return _bsn_vjp(s, u, _bsn_norm(s))


def _bsn_vjp(s, u, norm: float) -> np.ndarray:
    # norm**2 on the Python float is C pow, which can differ from norm * norm
    return u.copy() if norm < BSN_EPS else (u - s * (s @ u) / norm**2) / norm


def cross_entropy_loss_and_coeffs(scores, labels) -> tuple[float, np.ndarray]:
    """Mean logistic loss log(1 + exp(-y h)) and its per-score gradient."""
    return _cross_entropy(*_check_batch(scores, labels))


def _expit(x) -> np.ndarray:
    """1 / (1 + exp(-x)) on a 1-D array with libm's exp, one call per element:
    on glibc, scipy's expit bit for bit, which numpy's SIMD exp is not."""
    neg = (-x).tolist()
    try:
        e = np.fromiter(map(math.exp, neg), np.float64, len(neg))
    except OverflowError:   # above log(DBL_MAX), where libm's exp is inf; NaN stays NaN
        e = np.array([math.inf if t > _LOG_DBL_MAX else math.exp(t) for t in neg])
    return 1.0 / (1.0 + e)


def _cross_entropy(s, y) -> tuple[float, np.ndarray]:
    n = s.size
    neg_y = -y
    margin = neg_y * s
    value = float(np.logaddexp(0.0, margin).sum() / n)
    return value, neg_y * _expit(margin) / n


def focal_loss_and_coeffs(scores, labels, alpha_hat: float, gamma_hat: float) -> tuple[float, np.ndarray]:
    """Mean alpha-balanced focal loss -a (1 - p_t)^g log(p_t) with p_t = sigmoid(y h)."""
    _check_focal(alpha_hat, gamma_hat)
    s, y = _check_batch(scores, labels)
    return _focal(s, y, alpha_hat, gamma_hat)


def _focal(s, y, alpha_hat: float, gamma_hat: float) -> tuple[float, np.ndarray]:
    n = s.size
    t = y * s
    one_minus_pt = _expit(-t)
    pt = _expit(t)
    log_pt = -np.logaddexp(0.0, -t)
    value = float((alpha_hat * one_minus_pt**gamma_hat * (-log_pt)).sum() / n)
    # d/dh of the per-sample loss; the gamma term vanishes identically at gamma=0
    per = alpha_hat * y * (
        gamma_hat * pt * one_minus_pt**gamma_hat * log_pt - one_minus_pt ** (gamma_hat + 1.0)
    )
    return value, per / n
