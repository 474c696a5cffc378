import numpy as np
import pytest

from aucmax.errors import ValidationError
from aucmax.losses import SurrogateSpec, margin_loss_value, pairwise_square_loss
from aucmax.verify import (
    WalkthroughCase,
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

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            brute_force_minmax([1.0, 2.0], [1, 1], SurrogateSpec("auc_square", p=0.5))


def test_oracle_suite_all_pass():
    results = run_oracle_suite()
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"oracle checks failed: {failing}"
    assert len(results) == 7
