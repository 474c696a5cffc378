import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from aucmax import verify
from aucmax.cli import main
from aucmax.errors import ValidationError
from aucmax.losses import SurrogateSpec, margin_loss_value, pairwise_square_loss
from aucmax.verify import (
    WalkthroughCase,
    WalkthroughResult,
    brute_force_minmax,
    finite_diff,
    run_oracle_suite,
    run_walkthrough,
)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        grad = finite_diff(lambda t: float(np.sum(t**2)), np.array([1.0, 2.0]), step=1e-6)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        grad = finite_diff(lambda t: 3.0, np.array([1.0, -1.0, 0.0]))
        assert np.all(grad == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            finite_diff(lambda t: float("nan"), np.array([1.0]))


class TestEasySquareWalkthrough:
    """1-D linear model, w=1, easy pair, a=0.5, b=-0.5 (alpha = 0)."""

    def test_positive_sample(self):
        r = run_walkthrough(WalkthroughCase("square", w=1.0, x=1.0, y_observed=1,
                                            a=0.5, b=-0.5, merged_step=0.1))
        assert r.factor == pytest.approx(0.5, abs=1e-12)
        assert r.w_next == pytest.approx(0.9, abs=1e-12)
        assert r.score_next == pytest.approx(0.9, abs=1e-12)
        assert r.direction == "toward_wrong"

    def test_negative_sample(self):
        r = run_walkthrough(WalkthroughCase("square", w=1.0, x=-1.0, y_observed=-1,
                                            a=0.5, b=-0.5, merged_step=0.1))
        assert r.factor == pytest.approx(-0.5, abs=1e-12)
        assert r.w_next == pytest.approx(0.9, abs=1e-12)
        assert r.score_next == pytest.approx(-0.9, abs=1e-12)
        assert r.direction == "toward_wrong"


class TestEasyMarginWalkthrough:
    def test_wide_gap_pulls_toward_class_mean(self):
        # alpha clips to 0; both well-classified positives get pulled to a=1
        for x, want in ((0.75, -0.25), (1.25, 0.25)):
            r = run_walkthrough(WalkthroughCase("margin", w=1.0, x=x, y_observed=1,
                                                a=1.0, b=-0.5, m=1.0))
            assert r.alpha == 0.0
            assert r.factor == pytest.approx(want, abs=1e-12)
            # the update moves the score strictly closer to a = 1
            assert abs(r.score_next - 1.0) < abs(x * 1.0 - 1.0)

    def test_tight_gap_pushes_misranked_positive_up(self):
        r = run_walkthrough(WalkthroughCase("margin", w=1.0, x=0.25, y_observed=1,
                                            a=0.0, b=-0.5, m=1.0, merged_step=0.1))
        assert r.alpha == pytest.approx(0.5, abs=1e-12)
        assert r.factor == pytest.approx(-0.25, abs=1e-12)
        assert r.w_next == pytest.approx(1.025, abs=1e-12)
        assert r.score_next == pytest.approx(0.25625, abs=1e-12)
        assert r.direction == "toward_correct"


class TestNoisyWalkthrough:
    def test_square_factor_is_one(self):
        r = run_walkthrough(WalkthroughCase("square", w=1.0, x=0.25, y_observed=-1,
                                            a=0.25, b=-0.5, y_true=1))
        assert r.factor == pytest.approx(1.0, abs=1e-12)
        assert r.direction == "toward_wrong"

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0])
    def test_margin_factor_equals_m(self, m):
        r = run_walkthrough(WalkthroughCase("margin", w=1.0, x=0.25, y_observed=-1,
                                            a=0.25, b=-0.5, m=m, y_true=1,
                                            assume_margin_violated=True))
        assert r.factor == pytest.approx(m, abs=1e-12)
        assert r.direction == "toward_wrong"

    def test_wrong_direction_magnitude_shrinks_with_m(self):
        factors = [
            run_walkthrough(WalkthroughCase("margin", w=1.0, x=0.25, y_observed=-1,
                                            a=0.25, b=-0.5, m=m, y_true=1,
                                            assume_margin_violated=True)).factor
            for m in (1.0, 0.5, 0.1, 0.01)
        ]
        assert factors == sorted(factors, reverse=True)
        assert factors[-1] < 0.05


@pytest.mark.parametrize("change, message", [
    (dict(loss="hinge"), "loss must be 'square' or 'margin', got 'hinge'"),
    (dict(merged_step=0.0), "merged_step must be > 0"),
    (dict(y_observed=0), "y_observed must be +1 or -1"),
], ids=["loss", "merged_step", "y_observed"])
def test_bad_walkthrough_case_rejected(change, message):
    case = dict(loss="square", w=1.0, x=1.0, y_observed=1, a=0.5, b=-0.5) | change
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        WalkthroughCase(**case)


def test_a_sample_at_zero_does_not_move():
    r = run_walkthrough(WalkthroughCase("square", w=1.0, x=0.0, y_observed=1, a=0.5, b=-0.5))
    assert (r.w_next, r.score_next, r.direction) == (1.0, 0.0, "neutral")


class TestBruteForceMinmax:
    def _batch(self, rng):
        n_pos = int(rng.integers(2, 15))
        n_neg = int(rng.integers(2, 15))
        scores = np.concatenate([rng.normal(0.5, 1, n_pos), rng.normal(-0.5, 1, n_neg)])
        labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
        return scores, labels

    def test_square_matches_scaled_pairwise(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            scores, labels = self._batch(rng)
            p = float(np.mean(labels > 0))
            got = brute_force_minmax(scores, labels, SurrogateSpec("auc_square", p=p))
            want = p * (1 - p) * pairwise_square_loss(scores[labels > 0], scores[labels < 0])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_margin_matches_scaled_margin_loss(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            scores, labels = self._batch(rng)
            p = float(np.mean(labels > 0))
            m = float(rng.uniform(0.05, 1.2))
            got = brute_force_minmax(scores, labels, SurrogateSpec("auc_margin", p=p, m=m))
            want = p * (1 - p) * margin_loss_value(scores[labels > 0], scores[labels < 0], m)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_closed_form_is_stationary(self):
        # gradient in (a, b, alpha) at the closed-form point is ~0, checked by
        # finite differences of the alpha-maximized objective over (a, b)
        from aucmax.losses import minmax_grads, optimal_aux

        rng = np.random.default_rng(23)
        scores, labels = self._batch(rng)
        p = float(np.mean(labels > 0))
        spec = SurrogateSpec("auc_margin", p=p, m=0.4)
        sp, sn = scores[labels > 0], scores[labels < 0]
        aux = optimal_aux(sp, sn, "auc_margin", m=0.4)
        g = minmax_grads(scores, labels, aux, spec)
        assert abs(g.g_a) < 1e-8 and abs(g.g_b) < 1e-8
        if aux.alpha > 0:
            assert abs(g.g_alpha) < 1e-8

    def test_a_wrong_closed_form_is_not_certified(self, monkeypatch):
        real = verify.optimal_aux
        monkeypatch.setattr(verify, "optimal_aux",
                            lambda *a, **k: replace(real(*a, **k), a=real(*a, **k).a + 0.3))
        scores, labels = self._batch(np.random.default_rng(24))
        with pytest.raises(ValidationError, match=r"^closed-form point is not the \(a,b\) min"):
            brute_force_minmax(scores, labels, SurrogateSpec("auc_square", p=0.5))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            brute_force_minmax([1.0, 2.0], [1, 1], SurrogateSpec("auc_square", p=0.5))


def test_oracle_suite_all_pass():
    results = run_oracle_suite()
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"oracle checks failed: {failing}"
    assert len(results) == 7


def _fills_zero_batches(real):
    def broken(scores):
        s = np.asarray(scores, dtype=np.float64)
        return real(s) if s.any() else np.ones_like(s)
    return broken


def _doubles_one_score_batches(real):
    def broken(scores):
        s = np.asarray(scores, dtype=np.float64)
        return real(s) * (2.0 if s.size == 1 else 1.0)
    return broken


def _nan_coeffs(real):
    def broken(*args):
        value, coeffs = real(*args)
        return value, np.full_like(coeffs, np.nan)
    return broken


def _uncertified(real):
    def broken(scores, labels, spec):
        raise ValidationError("closed-form point is not the (a,b) minimizer")
    return broken


# Each row breaks one function the suite calls, so that exactly one check
# fails, and gives the detail that check prints. Only the BSN check scores an
# all-zero or a one-score batch, and only the min-max check reads the closed
# form's alpha. The NaN rows fail closed: ``max(0.0, nan)`` is 0.0, so a fold
# with ``max`` would pass them.
_BROKEN = [
    ("decomposition_identity", "square_loss_decomposition",
     lambda real: lambda sp, sn: (*real(sp, sn)[:2], 2 * real(sp, sn)[2]),
     "max rel deviation 7.20e-01 over 200 trials (tol 1e-12)"),
    ("minmax_equivalence", "optimal_aux",
     lambda real: lambda *a, **k: replace(real(*a, **k), alpha=real(*a, **k).alpha + 0.5),
     "max rel deviation 1.14e-01 over 200 trials (tol 1e-10)"),
    ("gradient_fidelity", "focal_loss_and_coeffs",
     lambda real: lambda *a: (real(*a)[0], 1.01 * real(*a)[1]),
     "max rel error 3.80e-04 across min-max/BSN/CE/focal (tol 1e-05)"),
    ("walkthroughs", "run_walkthrough",
     lambda real: lambda case: WalkthroughResult(*(v + 1 for v in astuple(real(case))[:4]),
                                                 "neutral"),
     "sq_pos.factor: got 1.5, want 0.5; sq_pos.w_next: got 1.9, want 0.9; "
     "sq_pos.score: got 1.9, want 0.9; sq_pos.direction: neutral; "
     "sq_neg.factor: got 0.5, want -0.5; sq_neg.w_next: got 1.9, want 0.9; "
     "sq_neg.score: got 0.09999999999999998, want -0.9; sq_neg.direction: neutral; "
     "m_easy[0.75].factor: got 0.75, want -0.25; m_easy[0.75].alpha: got 1.0, want 0.0; "
     "m_easy[1.25].factor: got 1.25, want 0.25; m_easy[1.25].alpha: got 1.0, want 0.0; "
     "m_tight.factor: got 0.75, want -0.25; m_tight.w_next: got 2.025, want 1.025; "
     "m_tight.score: got 1.25625, want 0.25625; m_tight.direction: neutral; "
     "noisy_sq.factor: got 2.0, want 1.0; noisy_sq.direction: neutral; "
     "noisy_m[0.1].factor: got 1.1, want 0.1; noisy_m[0.1].direction: neutral; "
     "noisy_m[0.5].factor: got 1.5, want 0.5; noisy_m[0.5].direction: neutral; "
     "noisy_m[1.0].factor: got 2.0, want 1.0; noisy_m[1.0].direction: neutral"),
    ("auc_ranksum_vs_pairs", "auc_score",
     lambda real: lambda *a, **k: replace(real(*a, **k), auc=real(*a, **k).auc / 2),
     "illustration AUC != 1.0; trial 0 (half): 0.145 vs 0.29; trial 0 (geq): 0.155 vs 0.31; "
     "and 398 more"),
    ("auc_ranksum_vs_pairs", "accuracy",
     lambda real: lambda *a, **k: real(*a, **k) - 0.04,
     "illustration accuracy != 0.92"),
    ("saddle_certificate", "brute_force_minmax", _uncertified,
     "closed-form point is not the (a,b) minimizer"),
    ("bsn_normalization", "batch_score_normalize", _fills_zero_batches,
     "zero batch not passed through"),
    ("bsn_normalization", "batch_score_normalize", _doubles_one_score_batches,
     "norm 2.0; norm 2.0; norm 2.0"),
    ("decomposition_identity", "square_loss_decomposition",
     lambda real: lambda sp, sn: (np.nan, 0.0, 0.0),
     "max rel deviation nan over 200 trials (tol 1e-12)"),
    ("minmax_equivalence", "optimal_aux",
     lambda real: lambda *a, **k: replace(real(*a, **k), alpha=np.nan),
     "max rel deviation nan over 200 trials (tol 1e-10)"),
    ("gradient_fidelity", "focal_loss_and_coeffs", _nan_coeffs,
     "max rel error nan across min-max/BSN/CE/focal (tol 1e-05)"),
    ("saddle_certificate", "brute_force_minmax", lambda real: lambda *a: np.nan,
     "max rel deviation nan over 25 trials (tol 1e-10)"),
]


@pytest.mark.parametrize("check, target, breaks, detail", _BROKEN, ids=[
    "decomposition", "minmax", "gradients", "walkthroughs", "ranksum_auc", "ranksum_accuracy",
    "saddle", "bsn_zero_batch", "bsn_one_score", "decomposition_nan", "minmax_nan",
    "gradients_nan", "saddle_nan"])
def test_verify_reports_a_broken_check(monkeypatch, capsys, check, target, breaks, detail):
    monkeypatch.setattr(verify, target, breaks(getattr(verify, target)))
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failing = [ln for ln in lines if "  FAIL  " in ln]
    assert len(failing) == 1
    assert re.fullmatch(rf"{check} +FAIL  \[ *[0-9.]+s\]  {re.escape(detail)}", failing[0])
    assert lines[-1] == "6/7 checks passed"
