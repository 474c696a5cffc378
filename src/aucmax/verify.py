"""Independent oracles and desk-checkable walkthroughs.

Everything here deliberately avoids the production code paths it checks:
finite differences instead of hand-written gradients, O(n^2) pair counting
instead of rank sums, grid search around the closed-form saddle instead of
the training-time update rules, and the published 1-D walkthrough arithmetic
reproduced with its merged step constant.

``run_oracle_suite`` executes every check and backs the ``verify`` CLI
subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .losses import (
    AuxVars,
    SurrogateSpec,
    batch_score_normalize,
    bsn_vjp,
    cross_entropy_loss_and_coeffs,
    focal_loss_and_coeffs,
    margin_loss_value,
    minmax_grads,
    minmax_value,
    optimal_aux,
    pairwise_square_loss,
    square_loss_decomposition,
)
from .metrics import _base_instance, accuracy, auc_score

__all__ = [
    "finite_diff",
    "WalkthroughCase",
    "WalkthroughResult",
    "run_walkthrough",
    "brute_force_minmax",
    "auc_pair_count",
    "CheckResult",
    "run_oracle_suite",
    "format_check_table",
]


def finite_diff(fn, point, step: float = 1e-5) -> np.ndarray:
    """Central differences with per-coordinate step = step * (1 + |theta_i|)."""
    theta = np.asarray(point, dtype=np.float64).copy()
    grad = np.empty(theta.size)
    for i in range(theta.size):
        h = step * (1.0 + abs(theta[i]))
        orig = theta[i]
        theta[i] = orig + h
        f_plus = fn(theta)
        theta[i] = orig - h
        f_minus = fn(theta)
        theta[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValidationError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


# --- published 1-D walkthroughs ---------------------------------------------


@dataclass(frozen=True)
class WalkthroughCase:
    """One step of the 1-D linear-model analysis.

    The update folds all positive constants and the step size into
    ``merged_step``, so only the sign of the score-side factor matters.
    ``assume_margin_violated`` evaluates the margin dual on its
    gap-within-margin branch (alpha = m + b - a) without clipping, the regime
    the noisy-data analysis argues in.
    """

    loss: str  # "square" | "margin"
    w: float
    x: float
    y_observed: int
    a: float
    b: float
    merged_step: float = 0.1
    m: float = 1.0
    y_true: int | None = None
    assume_margin_violated: bool = False

    def __post_init__(self):
        if self.loss not in ("square", "margin"):
            raise ValidationError(f"loss must be 'square' or 'margin', got {self.loss!r}")
        if not self.merged_step > 0:
            raise ValidationError("merged_step must be > 0")
        if self.y_observed not in (-1, 1):
            raise ValidationError("y_observed must be +1 or -1")


@dataclass(frozen=True)
class WalkthroughResult:
    factor: float       # B = h - a - alpha (y=+1) or C = h - b + alpha (y=-1)
    alpha: float
    w_next: float
    score_next: float
    direction: str      # toward_correct | toward_wrong | neutral


def run_walkthrough(case: WalkthroughCase) -> WalkthroughResult:
    h = case.w * case.x
    if case.loss == "square":
        alpha = 1.0 + case.b - case.a
    elif case.assume_margin_violated:
        alpha = case.m + case.b - case.a
    else:
        alpha = max(0.0, case.m + case.b - case.a)

    if case.y_observed == 1:
        factor = h - case.a - alpha
    else:
        factor = h - case.b + alpha

    w_next = case.w - case.merged_step * np.sign(factor) * case.x
    score_next = w_next * case.x

    ref = case.y_true if case.y_true is not None else case.y_observed
    moved = score_next - h
    if moved == 0.0:
        direction = "neutral"
    elif (moved > 0) == (ref == 1):
        direction = "toward_correct"
    else:
        direction = "toward_wrong"
    return WalkthroughResult(
        factor=float(factor),
        alpha=float(alpha),
        w_next=float(w_next),
        score_next=float(score_next),
        direction=direction,
    )


# --- brute-force saddle value ------------------------------------------------


def _alpha_max(s, y, a, b, spec: SurrogateSpec) -> float:
    """Maximize the batch-mean objective over alpha for fixed (a, b)."""
    p, m = spec.p, spec.effective_margin
    k = float(np.mean(p * (1 - p) * m + p * s * (y < 0) - (1 - p) * s * (y > 0)))
    alpha = k / (p * (1 - p))
    if spec.kind == "auc_margin":
        alpha = max(0.0, alpha)
    return alpha


def brute_force_minmax(scores, labels, spec: SurrogateSpec) -> float:
    """Saddle value of the batch-mean min-max objective.

    Evaluates at the closed-form optimum and certifies it by scanning an
    (a, b) grid around it: no perturbed point, alpha-maximized, may fall
    below the closed-form value.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValidationError("need both classes present")
    aux0 = optimal_aux(s[y > 0], s[y < 0], loss=spec.kind, m=spec.effective_margin)
    alpha0 = _alpha_max(s, y, aux0.a, aux0.b, spec)
    value0 = minmax_value(s, y, AuxVars(aux0.a, aux0.b, alpha0), spec)

    offsets = np.linspace(-0.5, 0.5, 7)
    for da in offsets:
        for db in offsets:
            a, b = aux0.a + da, aux0.b + db
            alpha = _alpha_max(s, y, a, b, spec)
            v = minmax_value(s, y, AuxVars(a, b, alpha), spec)
            if v < value0 - 1e-9 * (1.0 + abs(value0)):
                raise ValidationError(
                    f"closed-form point is not the (a,b) minimizer: {v} < {value0} at ({a},{b})"
                )
    return value0


def auc_pair_count(scores, labels, tie_policy: str = "half") -> float:
    """O(n^2) AUC by explicit pair enumeration; the oracle for auc_score."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    sp = s[y > 0]
    sn = s[y < 0]
    if sp.size == 0 or sn.size == 0:
        raise ValidationError("AUC needs at least one sample of each class")
    # compare, not subtract: inf - inf is NaN, and tied infinities are ties
    wins = float(np.sum(sp[:, None] > sn[None, :]))
    ties = float(np.sum(sp[:, None] == sn[None, :]))
    tie_credit = 0.5 if tie_policy == "half" else 1.0
    return (wins + tie_credit * ties) / (sp.size * sn.size)


# --- oracle suite -------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rel_err(got, want):
    return abs(got - want) / (1.0 + abs(want))


def _random_scored_batch(rng, max_per_class=50):
    n_pos = int(rng.integers(2, max_per_class + 1))
    n_neg = int(rng.integers(2, max_per_class + 1))
    sp = 2.0 * rng.standard_normal(n_pos)
    sn = 2.0 * rng.standard_normal(n_neg)
    scores = np.concatenate([sp, sn])
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return scores, labels


def _worst(deviations) -> float:
    """The largest of ``deviations`` (0.0 for none), or NaN if any is not
    finite, so that the check fails: ``max`` drops a NaN that comes second."""
    values = [0.0, *deviations]
    return max(values) if all(map(math.isfinite, values)) else math.nan


def _worst_deviation(rng, n_trials: int, trial) -> float:
    """``_worst`` of the deviations yielded by n_trials calls of ``trial(rng)``."""
    return _worst(d for _ in range(n_trials) for d in trial(rng))


def _first_failures(failures: list[str]) -> str:
    """The first three failures, then how many are left out."""
    left = len(failures) - 3
    return "; ".join(failures[:3]) + (f"; and {left} more" if left > 0 else "")


def _identity_check(seed: int, n_trials: int, tol: float, trial) -> tuple[bool, str]:
    worst = _worst_deviation(np.random.default_rng(seed), n_trials, trial)
    return worst <= tol, f"max rel deviation {worst:.2e} over {n_trials} trials (tol {tol:g})"


def _decomposition_trial(rng):
    scores, labels = _random_scored_batch(rng)
    sp, sn = scores[labels > 0], scores[labels < 0]
    total = pairwise_square_loss(sp, sn)
    a1, a2, a3 = square_loss_decomposition(sp, sn)
    yield _rel_err(a1 + a2 + a3, total)


def _closed_form_value(scores, labels, spec: SurrogateSpec) -> float:
    aux = optimal_aux(scores[labels > 0], scores[labels < 0], loss=spec.kind,
                      m=spec.effective_margin)
    return minmax_value(scores, labels, aux, spec)


def _saddle_trial(rng, max_per_class: int, m_high: float, saddle_value):
    """One random batch and margin: each min-max surrogate's saddle value, as
    ``saddle_value(scores, labels, spec)`` finds it, vs p(1-p) times its
    pairwise loss."""
    scores, labels = _random_scored_batch(rng, max_per_class)
    p = float(np.mean(labels > 0))
    m = float(rng.uniform(0.05, m_high))
    sp, sn = scores[labels > 0], scores[labels < 0]
    yield _rel_err(saddle_value(scores, labels, SurrogateSpec("auc_margin", p=p, m=m)),
                   p * (1 - p) * margin_loss_value(sp, sn, m))
    yield _rel_err(saddle_value(scores, labels, SurrogateSpec("auc_square", p=p)),
                   p * (1 - p) * pairwise_square_loss(sp, sn))


def _minmax_fd_trial(rng, spec: SurrogateSpec):
    """One random point: finite differences of the batch objective in
    (scores, a, b, alpha), optionally through BSN, vs the analytic bundle."""
    scores, labels = _random_scored_batch(rng, max_per_class=12)
    aux = AuxVars(*rng.standard_normal(3))
    n = scores.size

    def value_at(theta):
        s, rest = theta[:n], theta[n:]
        s_used = batch_score_normalize(s) if spec.bsn else s
        return minmax_value(s_used, labels, AuxVars(*rest), spec)

    theta0 = np.concatenate([scores, [aux.a, aux.b, aux.alpha]])
    fd = finite_diff(value_at, theta0)

    s_used = batch_score_normalize(scores) if spec.bsn else scores
    g = minmax_grads(s_used, labels, aux, spec)
    coeffs = bsn_vjp(scores, g.g_coeffs) if spec.bsn else g.g_coeffs
    analytic = np.concatenate([coeffs, [g.g_a, g.g_b, g.g_alpha]])
    yield float(np.max(_rel_err(analytic, fd)))


def _pointwise_fd_trial(rng, loss):
    """One random batch: finite differences of a pointwise loss,
    ``loss(scores, labels) -> (value, coeffs)``, vs its coefficients."""
    scores, labels = _random_scored_batch(rng, max_per_class=12)
    _, coeffs = loss(scores, labels)
    yield float(np.max(_rel_err(coeffs, finite_diff(lambda s: loss(s, labels)[0], scores))))


def check_decomposition() -> tuple[bool, str]:
    return _identity_check(0, 200, 1e-12, _decomposition_trial)


def check_minmax_equivalence() -> tuple[bool, str]:
    return _identity_check(1, 200, 1e-10, partial(_saddle_trial, max_per_class=50, m_high=1.5,
                                                  saddle_value=_closed_form_value))


def check_gradients() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    trials = [partial(_minmax_fd_trial, spec=SurrogateSpec(kind, p=0.3, m=0.7, bsn=bsn))
              for kind in ("auc_margin", "auc_square") for bsn in (False, True)]
    trials += [partial(_pointwise_fd_trial, loss=loss) for loss in (
        cross_entropy_loss_and_coeffs, lambda s, y: focal_loss_and_coeffs(s, y, 0.25, 2.0))]
    worst = _worst(_worst_deviation(rng, 50, trial) for trial in trials)
    return worst <= 1e-5, f"max rel error {worst:.2e} across min-max/BSN/CE/focal (tol 1e-05)"


# The published 1-D steps: (tag, case, the result fields it must reproduce,
# where "score" is score_next).
_WALKTHROUGHS = (
    # easy positive, square loss: factor 0.5, w 1 -> 0.9, score decays
    ("sq_pos", WalkthroughCase("square", w=1.0, x=1.0, y_observed=1, a=0.5, b=-0.5),
     {"factor": 0.5, "w_next": 0.9, "score": 0.9, "direction": "toward_wrong"}),
    # easy negative, square loss: factor -0.5, score rises
    ("sq_neg", WalkthroughCase("square", w=1.0, x=-1.0, y_observed=-1, a=0.5, b=-0.5),
     {"factor": -0.5, "w_next": 0.9, "score": -0.9, "direction": "toward_wrong"}),
    # margin, wide gap (alpha clips to 0): both factors pull toward the class mean
    *((f"m_easy[{x}]", WalkthroughCase("margin", w=1.0, x=x, y_observed=1, a=1.0, b=-0.5, m=1.0),
       {"factor": factor, "alpha": 0.0}) for x, factor in ((0.75, -0.25), (1.25, 0.25))),
    # margin, gap within m: misranked positive gets pushed up
    ("m_tight", WalkthroughCase("margin", w=1.0, x=0.25, y_observed=1, a=0.0, b=-0.5, m=1.0),
     {"factor": -0.25, "w_next": 1.025, "score": 0.25625, "direction": "toward_correct"}),
    # noisy true-positive observed as negative: square factor is exactly 1
    ("noisy_sq", WalkthroughCase("square", w=1.0, x=0.25, y_observed=-1, a=0.25, b=-0.5,
                                 y_true=1),
     {"factor": 1.0, "direction": "toward_wrong"}),
    # same sample under the margin loss: the wrong-direction factor equals m
    *((f"noisy_m[{m}]", WalkthroughCase("margin", w=1.0, x=0.25, y_observed=-1, a=0.25, b=-0.5,
                                        m=m, y_true=1, assume_margin_violated=True),
       {"factor": m, "direction": "toward_wrong"}) for m in (0.1, 0.5, 1.0)),
)


def check_walkthroughs() -> tuple[bool, str]:
    failures = []
    for tag, case, expected in _WALKTHROUGHS:
        r = run_walkthrough(case)
        for field, want in expected.items():
            got = getattr(r, "score_next" if field == "score" else field)
            if field == "direction":
                if got != want:
                    failures.append(f"{tag}.direction: {got}")
            elif abs(got - want) > 1e-12:
                failures.append(f"{tag}.{field}: got {got!r}, want {want!r}")
    return not failures, "; ".join(failures) or "all published step values reproduced"


def check_auc_ranksum() -> tuple[bool, str]:
    # the published 25-sample instance first: perfect ranking, two negatives over threshold
    scores, labels = _base_instance()
    failures = []
    if auc_score(scores, labels).auc != 1.0:
        failures.append("illustration AUC != 1.0")
    if abs(accuracy(scores, labels, 0.5) - 0.92) > 1e-12:
        failures.append("illustration accuracy != 0.92")

    rng = np.random.default_rng(3)
    for trial in range(200):
        scores, labels = _random_scored_batch(rng, max_per_class=30)
        if trial % 3 == 0:  # force ties
            scores = np.round(scores, 1)
        for policy in ("half", "geq"):
            fast = auc_score(scores, labels, tie_policy=policy).auc
            slow = auc_pair_count(scores, labels, tie_policy=policy)
            if abs(fast - slow) > 1e-12:
                failures.append(f"trial {trial} ({policy}): {fast} vs {slow}")
    return not failures, _first_failures(failures) or "rank-sum equals pair count"


def check_saddle_certificate() -> tuple[bool, str]:
    try:
        return _identity_check(4, 25, 1e-10, partial(_saddle_trial, max_per_class=20, m_high=1.2,
                                                     saddle_value=brute_force_minmax))
    except ValidationError as exc:
        return False, str(exc)


def check_bsn() -> tuple[bool, str]:
    failures = []
    if not np.array_equal(batch_score_normalize(np.zeros(4)), np.zeros(4)):
        failures.append("zero batch not passed through")
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.standard_normal(int(rng.integers(1, 40))) * 10 ** rng.uniform(-3, 3)
        out = batch_score_normalize(s)
        if abs(np.linalg.norm(out) - 1.0) > 1e-9:
            failures.append(f"norm {np.linalg.norm(out)}")
    return not failures, _first_failures(failures) or "unit norm everywhere"


def _timed(name: str, check) -> CheckResult:
    t0 = time.perf_counter()
    passed, detail = check()
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def run_oracle_suite() -> list[CheckResult]:
    return [_timed(name, check) for name, check in (
        ("decomposition_identity", check_decomposition),
        ("minmax_equivalence", check_minmax_equivalence),
        ("gradient_fidelity", check_gradients),
        ("walkthroughs", check_walkthroughs),
        ("auc_ranksum_vs_pairs", check_auc_ranksum),
        ("saddle_certificate", check_saddle_certificate),
        ("bsn_normalization", check_bsn),
    )]


def format_check_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
