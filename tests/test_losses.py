import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucmax.errors import ValidationError
from aucmax.losses import (
    AUC_KINDS,
    AuxVars,
    SurrogateSpec,
    _expit,
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
from aucmax.verify import finite_diff

score_arrays = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=25
)


class TestPairwiseSquare:
    def test_unit_margin_zero_loss(self):
        assert pairwise_square_loss([1.0], [0.0]) == 0.0

    def test_identical_scores_give_one(self):
        assert pairwise_square_loss([0.3], [0.3]) == pytest.approx(1.0, rel=1e-15)

    def test_hand_enumerated_four_pairs(self):
        # (0.2^2 + 0.3^2 + 0.3^2 + 0.4^2) / 4
        got = pairwise_square_loss([0.9, 0.8], [0.1, 0.2])
        assert got == pytest.approx(0.095, rel=1e-12)

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            pairwise_square_loss([], [0.0])
        with pytest.raises(ValidationError):
            pairwise_square_loss([1.0], [])


class TestDecomposition:
    def test_singleton_exact_margin(self):
        assert square_loss_decomposition([1.0], [0.0]) == (0.0, 0.0, 0.0)

    def test_identical_scores(self):
        a1, a2, a3 = square_loss_decomposition([0.7], [0.7])
        assert (a1, a2) == (0.0, 0.0)
        assert a3 == pytest.approx(1.0, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(pos=score_arrays, neg=score_arrays)
    def test_identity_property(self, pos, neg):
        total = pairwise_square_loss(pos, neg)
        a1, a2, a3 = square_loss_decomposition(pos, neg)
        assert abs(total - (a1 + a2 + a3)) <= 1e-12 * (1.0 + abs(total))

    def test_identity_random_seeds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos = rng.normal(size=rng.integers(1, 40))
            neg = rng.normal(size=rng.integers(1, 40))
            total = pairwise_square_loss(pos, neg)
            assert sum(square_loss_decomposition(pos, neg)) == pytest.approx(
                total, rel=1e-12, abs=1e-12
            )


class TestMarginLoss:
    def test_exact_hinge_boundary(self):
        assert margin_loss_value([1.0], [0.0], m=1.0) == 0.0

    def test_hinge_clips_when_gap_exceeds_margin(self):
        assert margin_loss_value([1.0], [0.0], m=0.5) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(pos=score_arrays, neg=score_arrays)
    def test_equals_square_loss_when_gap_below_one(self, pos, neg):
        a_bar = np.mean(pos)
        b_bar = np.mean(neg)
        if a_bar - b_bar <= 1.0:
            assert margin_loss_value(pos, neg, m=1.0) == pytest.approx(
                pairwise_square_loss(pos, neg), rel=1e-12, abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(pos=score_arrays, neg=score_arrays,
           m1=st.floats(0.01, 2.0), m2=st.floats(0.01, 2.0))
    def test_monotone_in_margin(self, pos, neg, m1, m2):
        lo, hi = sorted((m1, m2))
        assert margin_loss_value(pos, neg, lo) <= margin_loss_value(pos, neg, hi) + 1e-12

    def test_active_constraint_zeroes_hinge_part(self):
        # gap far beyond the margin: value reduces to the variance terms
        pos = [2.0, 2.2, 1.8]
        neg = [-1.0, -1.2]
        a1, a2, _ = square_loss_decomposition(pos, neg)
        assert margin_loss_value(pos, neg, m=0.5) == pytest.approx(a1 + a2, rel=1e-12)


class TestOptimalAux:
    def test_square_published_values(self):
        aux = optimal_aux([0.5], [-0.5], loss="auc_square")
        assert (aux.a, aux.b) == (0.5, -0.5)
        assert aux.alpha == pytest.approx(0.0, abs=1e-15)

    def test_margin_wide_gap_clips_to_zero(self):
        aux = optimal_aux([1.0], [-0.5], loss="auc_margin", m=1.0)
        assert aux.alpha == 0.0

    def test_margin_tight_gap(self):
        aux = optimal_aux([0.0], [-0.5], loss="auc_margin", m=1.0)
        assert aux.alpha == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("loss", ["square", "margin", "cross_entropy"])
    def test_only_the_auc_surrogate_kinds_accepted(self, loss):
        with pytest.raises(ValidationError):
            optimal_aux([0.0], [-0.5], loss=loss)


def _random_batch(rng, n_pos=None, n_neg=None):
    n_pos = n_pos or int(rng.integers(2, 20))
    n_neg = n_neg or int(rng.integers(2, 20))
    scores = np.concatenate([rng.normal(1, 1, n_pos), rng.normal(0, 1, n_neg)])
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return scores, labels


class TestMinMaxValue:
    def test_single_positive_at_a_with_zero_alpha(self):
        spec = SurrogateSpec("auc_margin", p=0.5, m=1.0)
        v = minmax_value([0.7], [1], AuxVars(a=0.7, b=0.0, alpha=0.0), spec)
        assert v == 0.0

    def test_margin_equals_scaled_margin_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, labels = _random_batch(rng)
            p = float(np.mean(labels > 0))
            m = float(rng.uniform(0.05, 1.5))
            sp, sn = scores[labels > 0], scores[labels < 0]
            aux = optimal_aux(sp, sn, "auc_margin", m=m)
            got = minmax_value(scores, labels, aux, SurrogateSpec("auc_margin", p=p, m=m))
            want = p * (1 - p) * margin_loss_value(sp, sn, m)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_square_equals_scaled_pairwise_loss(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores, labels = _random_batch(rng)
            p = float(np.mean(labels > 0))
            sp, sn = scores[labels > 0], scores[labels < 0]
            aux = optimal_aux(sp, sn, "auc_square")
            got = minmax_value(scores, labels, aux, SurrogateSpec("auc_square", p=p))
            want = p * (1 - p) * pairwise_square_loss(sp, sn)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_length_mismatch_rejected(self):
        spec = SurrogateSpec("auc_square", p=0.5)
        with pytest.raises(ValidationError):
            minmax_value([1.0, 2.0], [1], AuxVars(), spec)


class TestMinMaxGrads:
    def test_positive_at_a_plus_alpha_has_zero_coeff(self):
        spec = SurrogateSpec("auc_margin", p=0.3, m=1.0)
        g = minmax_grads([1.5, 0.0], [1, -1], AuxVars(a=1.0, b=0.0, alpha=0.5), spec)
        assert g.g_coeffs[0] == pytest.approx(0.0, abs=1e-15)

    def test_easy_positive_factor_is_positive(self):
        # square loss, h=1 positive, a=0.5, b=-0.5, alpha=0: factor h-a-alpha=0.5,
        # so descent lowers this already-high score
        spec = SurrogateSpec("auc_square", p=0.5)
        g = minmax_grads([1.0], [1], AuxVars(a=0.5, b=-0.5, alpha=0.0), spec)
        factor = g.g_coeffs[0] / (2 * (1 - spec.p) / 1)
        assert factor == pytest.approx(0.5, rel=1e-15)
        assert g.g_coeffs[0] > 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for kind in ("auc_square", "auc_margin"):
            spec = SurrogateSpec(kind, p=0.35, m=0.7)
            scores, labels = _random_batch(rng, 4, 6)
            aux = AuxVars(*rng.normal(size=3))
            n = scores.size

            def value(theta):
                return minmax_value(theta[:n], labels, AuxVars(*theta[n:]), spec)

            fd = finite_diff(value, np.concatenate([scores, [aux.a, aux.b, aux.alpha]]),
                             step=1e-6)
            g = minmax_grads(scores, labels, aux, spec)
            analytic = np.concatenate([g.g_coeffs, [g.g_a, g.g_b, g.g_alpha]])
            assert np.max(np.abs(analytic - fd) / (1 + np.abs(fd))) < 1e-6

    def test_value_equals_minmax_value_exactly(self):
        rng = np.random.default_rng(8)
        for kind in ("auc_square", "auc_margin"):
            spec = SurrogateSpec(kind, p=0.2, m=0.4)
            for _ in range(20):
                scores, labels = _random_batch(rng)
                aux = AuxVars(*rng.normal(size=3))
                g = minmax_grads(scores, labels, aux, spec)
                assert g.value == minmax_value(scores, labels, aux, spec)

    def test_sign_property_wide_gap_pulls_to_class_means(self):
        # when the gap exceeds the margin (alpha*=0), coefficients reduce to
        # pure pulls toward each class's mean score
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores, labels = _random_batch(rng)
            sp, sn = scores[labels > 0], scores[labels < 0]
            m = 0.1
            if m + sn.mean() - sp.mean() >= 0:
                continue
            p = float(np.mean(labels > 0))
            aux = optimal_aux(sp, sn, "auc_margin", m=m)
            assert aux.alpha == 0.0
            g = minmax_grads(scores, labels, aux, SurrogateSpec("auc_margin", p=p, m=m))
            n = scores.size
            pos = labels > 0
            want = (2 * (1 - p) * (scores - sp.mean()) * pos
                    + 2 * p * (scores - sn.mean()) * ~pos) / n
            assert np.allclose(g.g_coeffs, want, rtol=1e-12, atol=1e-15)


def _mask_formula(s, y, aux, spec):
    """The per-class mask formula that the label-table core replaced, verbatim:
    the oracle for its bits."""
    p, m = spec.p, spec.effective_margin
    pos = y > 0
    neg = ~pos
    a, b, alpha = np.float64(aux.a), np.float64(aux.b), np.float64(aux.alpha)
    d_a = s - a
    d_b = s - b
    inner = p * (1 - p) * m + p * s * neg - (1 - p) * s * pos
    per = (
        (1 - p) * d_a**2 * pos
        + p * d_b**2 * neg
        - p * (1 - p) * alpha**2
        + 2 * alpha * inner
    )
    value = float(per.sum() / per.size)
    n = d_a.size
    g_coeffs = (
        2 * (1 - p) * (d_a - alpha) * pos + 2 * p * (d_b + alpha) * neg
    ) / n
    g_a = float((-2 * (1 - p) * d_a * pos).sum() / n)
    g_b = float((-2 * p * d_b * neg).sum() / n)
    g_alpha = float((2 * inner).sum() / n - 2 * p * (1 - p) * alpha)
    return g_coeffs, g_a, g_b, g_alpha, value


def _bits(*values):
    flat = [np.ravel(np.asarray(v, dtype=np.float64)) for v in values]
    return np.concatenate(flat).view(np.int64)


@settings(max_examples=400, deadline=None)
@given(n=st.one_of(st.integers(1, 20), st.integers(1, 300)),
       classes=st.sampled_from(["both", "pos", "neg"]), kind=st.sampled_from(AUC_KINDS),
       scale=st.sampled_from([0.0, 1e-310, 1.0, 1e3, 1e160, 1e300]),
       aux_scale=st.sampled_from([0.0, 1.0, 1e155]), signed_zeros=st.booleans(),
       seed=st.integers(0, 2**16))
def test_label_table_core_is_bitwise_the_mask_formula(n, classes, kind, scale, aux_scale,
                                                      signed_zeros, seed):
    # scores from 1e160 up overflow (s - a)**2 to inf and inf * 0 to NaN, as
    # does an aux of 1e155; the bits must still agree, NaNs included. Scores
    # stay below DBL_MAX / 2, where the table departs (see _minmax_weights)
    rng = np.random.default_rng(seed)
    s = scale * rng.normal(size=n)
    if signed_zeros:
        s[rng.random(n) < 0.3] = 0.0
        s[rng.random(n) < 0.3] = -0.0
    y = {"pos": np.ones(n), "neg": -np.ones(n),
         "both": np.where(rng.random(n) < 0.4, 1.0, -1.0)}[classes]
    spec = SurrogateSpec(kind, p=rng.uniform(0.01, 0.99), m=rng.uniform(0.1, 2.0))
    aux = AuxVars(*(aux_scale * rng.normal(size=3)))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = _mask_formula(s, y, aux, spec)
        g = minmax_grads(s, y, aux, spec)
        value = minmax_value(s, y, aux, spec)
    assert np.array_equal(_bits(g.g_coeffs, g.g_a, g.g_b, g.g_alpha, g.value), _bits(*want))
    assert np.array_equal(_bits(value), _bits(want[-1]))


class TestBsn:
    def test_three_four_five(self):
        assert np.allclose(batch_score_normalize([3.0, 4.0]), [0.6, 0.8], rtol=1e-15)

    def test_unit_norm_unchanged(self):
        s = np.array([0.6, 0.8])
        assert np.allclose(batch_score_normalize(s), s, rtol=1e-12)

    def test_zero_batch_passes_through(self):
        assert np.array_equal(batch_score_normalize(np.zeros(3)), np.zeros(3))

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = rng.normal(size=rng.integers(1, 30)) * 10.0 ** rng.uniform(-5, 5)
            assert np.linalg.norm(batch_score_normalize(s)) == pytest.approx(1.0, rel=1e-12)

    def test_vjp_tangent_passes_radial_dies(self):
        assert np.allclose(bsn_vjp([1.0, 0.0], [0.0, 1.0]), [0.0, 1.0], atol=1e-15)
        assert np.allclose(bsn_vjp([1.0, 0.0], [1.0, 0.0]), [0.0, 0.0], atol=1e-15)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.normal(size=6)
            u = rng.normal(size=6)
            fd = finite_diff(lambda t: float(u @ batch_score_normalize(t)), s, step=1e-6)
            got = bsn_vjp(s, u)
            assert np.max(np.abs(got - fd) / (1 + np.abs(fd))) < 1e-6


@pytest.mark.parametrize("x", [
    *(np.random.default_rng(22).standard_normal(200_000) * scale
      for scale in (1e-3, 1e-1, 1.0, 10.0, 100.0, 700.0)),
    # no exp overflows here, so the batch takes the fast path
    [0.0, -0.0, np.inf, -np.inf, np.nan, 709.78, -709.78, 1e-320, -1e-320],
    # +-709.79 and beyond overflow exp, so the whole batch takes the fallback
    [0.0, -0.0, np.inf, -np.inf, np.nan, 709.78, -709.78, 709.79, -709.79,
     745.0, -745.0, 746.0, -746.0, 800.0, -800.0],
], ids=["1e-3", "1e-1", "1", "10", "100", "700", "edges", "overflow_edges"])
def test_expit_is_scipy_expit_bit_for_bit(x):
    # scipy.special.expit is the oracle for the libm sigmoid of the pointwise losses
    from scipy.special import expit

    x = np.asarray(x, dtype=np.float64)
    assert np.array_equal(_expit(x).view(np.int64), expit(x).view(np.int64))


class TestCrossEntropy:
    def test_symmetric_point(self):
        value, _ = cross_entropy_loss_and_coeffs([0.0], [1])
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_saturation(self):
        value, _ = cross_entropy_loss_and_coeffs([50.0], [1])
        assert value < 1e-20

    def test_stable_at_large_scores(self):
        value, coeffs = cross_entropy_loss_and_coeffs([1e3, -1e3], [1, -1])
        assert np.isfinite(value) and np.all(np.isfinite(coeffs))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        scores, labels = _random_batch(rng, 5, 5)
        _, coeffs = cross_entropy_loss_and_coeffs(scores, labels)
        fd = finite_diff(lambda s: cross_entropy_loss_and_coeffs(s, labels)[0], scores)
        assert np.max(np.abs(coeffs - fd) / (1 + np.abs(fd))) < 1e-6


class TestFocal:
    def test_reduces_to_cross_entropy_at_gamma_zero(self):
        rng = np.random.default_rng(11)
        scores, labels = _random_batch(rng, 4, 4)
        fv, fc = focal_loss_and_coeffs(scores, labels, alpha_hat=0.999999999, gamma_hat=0.0)
        cv, cc = cross_entropy_loss_and_coeffs(scores, labels)
        assert fv == pytest.approx(cv, rel=1e-8)
        assert np.allclose(fc, cc, rtol=1e-8)

    def test_hand_value_at_half(self):
        # p_t = 1/2: value = 0.25 * (1/2)^2 * log 2
        value, _ = focal_loss_and_coeffs([0.0], [1], alpha_hat=0.25, gamma_hat=2.0)
        assert value == pytest.approx(0.25 * 0.25 * math.log(2), rel=1e-12)
        assert value == pytest.approx(0.0433217, abs=5e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for gamma in (0.5, 1.0, 2.0, 5.0):
            scores, labels = _random_batch(rng, 5, 5)
            _, coeffs = focal_loss_and_coeffs(scores, labels, 0.25, gamma)
            fd = finite_diff(
                lambda s: focal_loss_and_coeffs(s, labels, 0.25, gamma)[0], scores)
            assert np.max(np.abs(coeffs - fd) / (1 + np.abs(fd))) < 1e-6

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            focal_loss_and_coeffs([0.0], [1], alpha_hat=1.5, gamma_hat=2.0)
        with pytest.raises(ValidationError):
            focal_loss_and_coeffs([0.0], [1], alpha_hat=0.5, gamma_hat=-1.0)


def test_surrogate_spec_validation():
    with pytest.raises(ValidationError):
        SurrogateSpec("auc_margin", p=0.0)
    with pytest.raises(ValidationError):
        SurrogateSpec("auc_margin", p=0.5, m=0.0)
    with pytest.raises(ValidationError):
        SurrogateSpec("hinge", p=0.5)
    with pytest.raises(ValidationError):
        SurrogateSpec("pairwise_square_oracle", p=0.5)
    assert SurrogateSpec("auc_square", p=0.5).effective_margin == 1.0
    assert SurrogateSpec("auc_margin", p=0.5, m=0.3).effective_margin == 0.3


_LOSS_CALLS = {
    "minmax_grads": lambda s, y: minmax_grads(s, y, AuxVars(), SurrogateSpec("auc_square", p=0.5)),
    "minmax_value": lambda s, y: minmax_value(s, y, AuxVars(), SurrogateSpec("auc_margin", p=0.5)),
    "cross_entropy": cross_entropy_loss_and_coeffs,
    "focal": lambda s, y: focal_loss_and_coeffs(s, y, 0.25, 2.0),
}


@pytest.mark.parametrize("bad", [0, 2, 0.5, float("nan")])
@pytest.mark.parametrize("name", sorted(_LOSS_CALLS))
def test_labels_other_than_plus_minus_one_rejected(name, bad):
    call = _LOSS_CALLS[name]
    call(np.array([0.3, -0.2, 0.1]), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValidationError, match="labels must be"):
        call(np.array([0.3, -0.2, 0.1]), np.array([1.0, -1.0, bad]))


_AUC_SPEC = SurrogateSpec("auc_square", p=0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: margin_loss_value([1.0, 2.0], [0.0], m=math.inf), "margin m must be finite, got inf"),
    (lambda: margin_loss_value([1.0, 2.0], [0.0], m=math.nan), "margin m must be finite, got nan"),
    (lambda: margin_loss_value([1.0, 2.0], [0.0], m=0.0), "margin m must be > 0, got 0.0"),
    (lambda: optimal_aux([1.0], [0.0], "auc_margin", m=math.nan),
     "margin m must be finite, got nan"),
    (lambda: optimal_aux([1.0], [0.0], "auc_margin", m=-1.0), "margin m must be > 0, got -1.0"),
    (lambda: pairwise_square_loss([1.0, 2.0], []),
     "AUC loss: needs both classes, got 2 positive, 0 negative"),
    (lambda: minmax_value([], [], AuxVars(), _AUC_SPEC), "empty batch"),
    (lambda: minmax_grads([0.1], [1], AuxVars(), SurrogateSpec("focal", p=0.5)),
     "minmax_grads needs an AUC surrogate, got 'focal'"),
    (lambda: batch_score_normalize([]), "cannot normalize an empty batch"),
    (lambda: bsn_vjp([1.0, 2.0], [1.0]), "scores (2,) and upstream (1,) differ in length"),
], ids=["margin_inf", "margin_nan", "margin_zero", "aux_margin_nan", "aux_margin_negative",
        "no_negatives", "empty_batch", "pointwise_spec", "empty_bsn", "bsn_vjp_lengths"])
def test_bad_input_rejected_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
