import hashlib
import importlib.util
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucmax.optimizer
from aucmax.data import Dataset, GaussianToySpec, gen_gaussian_toy, make_imbalanced
from aucmax.errors import NumericalError, ValidationError
from aucmax.experiments import prepare_data, records_to_csv, two_stage_protocol
from aucmax.losses import (
    AUC_KINDS,
    AuxVars,
    MinMaxGrads,
    SurrogateSpec,
    batch_score_normalize,
    bsn_vjp,
    cross_entropy_loss_and_coeffs,
    focal_loss_and_coeffs,
    _minmax_weights,
    minmax_grads,
    pairwise_square_loss,
)
from aucmax.models import (
    ModelSpec,
    backward_vjp,
    forward_batch,
    init_params,
    output_layer_slice,
)
from aucmax.optimizer import (
    MinMaxState,
    PesgConfig,
    SgdConfig,
    _pesg_rule,
    _pesg_update,
    _sgd_rule,
    from_scratch_pesg,
    on_epoch_end,
    pesg_step,
    pesg_train,
    sgd_train,
    two_stage_train,
)


def _grads(g_coeffs=(0.0,), g_a=0.0, g_b=0.0, g_alpha=0.0, value=0.0):
    return MinMaxGrads(np.asarray(g_coeffs, dtype=float), g_a, g_b, g_alpha, value)


class TestPesgStep:
    def test_zero_step_changes_only_counters(self):
        state = MinMaxState(params=np.array([1.0, 2.0]), aux=AuxVars(0.3, -0.2, 0.1), eta=0.0)
        pesg_step(state, np.array([5.0, -5.0]), _grads(g_a=3.0, g_b=3.0, g_alpha=3.0),
                  PesgConfig(eta0=1.0))
        assert np.array_equal(state.params, [1.0, 2.0])
        assert (state.aux.a, state.aux.b, state.aux.alpha) == (0.3, -0.2, 0.1)
        assert state.stage_count == 1

    def test_reduces_to_plain_sgda(self):
        eta = 0.05
        w0 = np.array([1.0, -1.0])
        aux0 = AuxVars(0.2, -0.3, 0.4)
        state = MinMaxState(params=w0.copy(), aux=aux0, eta=eta)
        cfg = PesgConfig(eta0=eta, gamma=0.0, weight_decay=0.0, project_alpha=False)
        gw = np.array([0.5, 0.25])
        pesg_step(state, gw, _grads(g_a=1.0, g_b=-2.0, g_alpha=3.0), cfg)
        assert np.allclose(state.params, w0 - eta * gw)
        assert state.aux.a == pytest.approx(0.2 - eta * 1.0)
        assert state.aux.b == pytest.approx(-0.3 + eta * 2.0)
        assert state.aux.alpha == pytest.approx(0.4 + eta * 3.0)

    def test_projection_holds_alpha_at_zero(self):
        state = MinMaxState(params=np.zeros(1), aux=AuxVars(alpha=0.0), eta=0.1)
        cfg = PesgConfig(eta0=0.1, project_alpha=True)
        pesg_step(state, np.zeros(1), _grads(g_alpha=-5.0), cfg)
        assert state.aux.alpha == 0.0

    def test_without_projection_alpha_goes_negative(self):
        state = MinMaxState(params=np.zeros(1), aux=AuxVars(alpha=0.0), eta=0.1)
        cfg = PesgConfig(eta0=0.1, project_alpha=False)
        pesg_step(state, np.zeros(1), _grads(g_alpha=-5.0), cfg)
        assert state.aux.alpha == pytest.approx(-0.5)

    def test_proximal_and_decay_terms(self):
        eta, gamma, lam = 0.1, 2.0, 0.5
        w0 = np.array([1.0])
        state = MinMaxState(params=w0, aux=AuxVars(), eta=eta)
        state.ref_params[:] = 0.5
        cfg = PesgConfig(eta0=eta, gamma=gamma, weight_decay=lam)
        pesg_step(state, np.array([0.2]), _grads(), cfg)
        want = 1.0 - eta * (0.2 + gamma * (1.0 - 0.5)) - lam * eta * 1.0
        assert state.params[0] == pytest.approx(want)

    def test_proximal_and_decay_terms_apply_to_aux(self):
        eta, gamma, lam = 0.1, 1.0, 0.3
        cfg = PesgConfig(eta0=eta, gamma=gamma, weight_decay=lam)
        state = MinMaxState(params=np.zeros(1), aux=AuxVars(a=1.0, b=-2.0), eta=eta)
        state.v_ref[-2:] = 0.0, 0.5
        pesg_step(state, np.zeros(1), _grads(g_a=0.5, g_b=-0.25), cfg)
        assert state.aux.a == pytest.approx(1.0 - eta * (0.5 + gamma * (1.0 - 0.0)) - lam * eta * 1.0)
        assert state.aux.b == pytest.approx(
            -2.0 - eta * (-0.25 + gamma * (-2.0 - 0.5)) - lam * eta * -2.0)

    def test_nonfinite_gradient_aborts(self):
        state = MinMaxState(params=np.zeros(1), aux=AuxVars(), eta=0.1)
        with pytest.raises(NumericalError):
            pesg_step(state, np.array([np.nan]), _grads(), PesgConfig())

    @pytest.mark.parametrize("public, g_alpha", [(True, -1e308), (False, np.nan)],
                             ids=["pesg_step--1e+308", "_pesg_update-nan"])
    def test_nonfinite_dual_step_aborts_before_projection(self, public, g_alpha):
        # eta * -1e308 overflows to -inf, and max(0.0, -inf) and max(0.0, nan) are both 0.0
        state = MinMaxState(params=np.zeros(1), aux=AuxVars(), eta=10.0)
        cfg = PesgConfig(eta0=10.0, project_alpha=True)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="updated aux"):
            if public:
                pesg_step(state, np.zeros(1), _grads(g_alpha=g_alpha), cfg)
            else:
                state.grad[:] = 0.0
                _pesg_update(state, g_alpha, cfg)


class TestEpochEnd:
    def test_no_decay_points_is_noop(self):
        state = MinMaxState(params=np.ones(2), aux=AuxVars(), eta=0.1)
        before = state.eta
        on_epoch_end(state, 5, PesgConfig(eta0=0.1, decay_epochs=()))
        assert state.eta == before

    def test_decay_factor_ten(self):
        cfg = PesgConfig(eta0=0.1, decay_epochs=(50, 75), decay_factor=10.0)
        state = MinMaxState(params=np.ones(1), aux=AuxVars(), eta=0.1)
        state.v_sum[:] = 1.0
        state.stage_count = 1
        on_epoch_end(state, 50, cfg)
        assert state.eta == 0.1 / 10.0
        assert np.array_equal(state.v_ref, [1.0, 1.0, 1.0])
        on_epoch_end(state, 75, cfg)
        assert state.eta == 0.1 / 10.0**2
        assert np.array_equal(state.v_ref, [1.0, 1.0, 1.0])    # an empty stage keeps it

    def test_vref_is_stage_average_of_constant(self):
        cfg = PesgConfig(eta0=0.1, decay_epochs=(3,))
        state = MinMaxState(params=np.array([2.0]), aux=AuxVars(a=1.0, b=-1.0), eta=0.1)
        for _ in range(7):
            state.v_sum += np.array([2.0, 1.0, -1.0])
            state.stage_count += 1
        on_epoch_end(state, 3, cfg)
        assert state.ref_params[0] == pytest.approx(2.0)
        assert state.v_ref[-2:] == pytest.approx([1.0, -1.0])
        assert state.stage_count == 0

    def test_empty_stage_keeps_old_reference(self):
        cfg = PesgConfig(eta0=0.1, decay_epochs=(1,))
        state = MinMaxState(params=np.array([3.0]), aux=AuxVars(), eta=0.1)
        old_ref = state.ref_params.copy()
        on_epoch_end(state, 1, cfg)
        assert np.array_equal(state.ref_params, old_ref)

    def test_decay_epochs_must_increase(self):
        with pytest.raises(ValidationError):
            PesgConfig(decay_epochs=(10, 10))
        with pytest.raises(ValidationError):
            PesgConfig(decay_epochs=(20, 10))

    @pytest.mark.parametrize("decay_epochs", [(0, 3), (-2,)])
    def test_decay_epochs_start_at_one(self, decay_epochs):
        # on_epoch_end sees epochs 1, 2, ...: a decay at 0 would never happen
        with pytest.raises(ValidationError, match="decay_epochs must be >= 1"):
            PesgConfig(decay_epochs=decay_epochs)


class _ThreeCopyPesg:
    """PESG with w, a and b kept as three parallel copies: each updated,
    summed into its stage sum and averaged into its reference on its own."""

    def __init__(self, params, aux, eta):
        self.w, self.a, self.b, self.alpha, self.eta = params.copy(), aux.a, aux.b, aux.alpha, eta
        self.ref_w, self.ref_a, self.ref_b = params.copy(), aux.a, aux.b
        self.sum_w, self.sum_a, self.sum_b = np.zeros_like(params), 0.0, 0.0
        self.stage_count = self.n_decays = 0

    def step(self, model_grad, grads, cfg):
        eta, w = self.eta, self.w
        w -= eta * (model_grad + cfg.gamma * (w - self.ref_w)) + cfg.weight_decay * eta * w
        a, b = np.float64(self.a), np.float64(self.b)
        a -= eta * (grads.g_a + cfg.gamma * (a - self.ref_a)) + cfg.weight_decay * eta * a
        b -= eta * (grads.g_b + cfg.gamma * (b - self.ref_b)) + cfg.weight_decay * eta * b
        alpha = np.float64(self.alpha) + eta * grads.g_alpha
        if cfg.project_alpha:
            alpha = max(0.0, alpha)
        self.a, self.b, self.alpha = float(a), float(b), float(alpha)
        self.sum_w += w
        self.sum_a += a
        self.sum_b += b
        self.stage_count += 1

    def epoch_end(self, epoch, cfg):
        if epoch not in cfg.decay_epochs:
            return
        self.n_decays += 1
        self.eta = cfg.eta0 / cfg.decay_factor**self.n_decays
        if self.stage_count > 0:
            self.ref_w = self.sum_w / self.stage_count
            self.ref_a = self.sum_a / self.stage_count
            self.ref_b = self.sum_b / self.stage_count
        self.sum_w, self.sum_a, self.sum_b = np.zeros_like(self.w), 0.0, 0.0
        self.stage_count = 0


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), gamma=st.floats(0.0, 3.0),
       weight_decay=st.sampled_from([0.0, 1e-4, 1e-2]), project=st.booleans(),
       decay_epochs=st.sets(st.integers(1, 6), max_size=3),
       steps=st.lists(st.integers(0, 5), min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_pesg_on_the_primal_vector_is_bitwise_three_copies(n, gamma, weight_decay, project,
                                                           decay_epochs, steps, seed):
    rng = np.random.default_rng(seed)
    cfg = PesgConfig(eta0=rng.uniform(0.01, 1.0), gamma=gamma, weight_decay=weight_decay,
                     decay_epochs=tuple(sorted(decay_epochs)), decay_factor=rng.uniform(1.5, 10),
                     project_alpha=project)
    params, aux = rng.normal(size=n), AuxVars(*rng.normal(size=3))
    state = MinMaxState(params=params, aux=aux, eta=cfg.eta0)
    mirror = _ThreeCopyPesg(params, aux, cfg.eta0)
    assert not np.shares_memory(state.params, params)     # the state trains a copy

    def same():
        got = _bits(state.params, state.aux.a, state.aux.b, state.aux.alpha, state.eta,
                    state.v_ref, state.v_sum, state.stage_count)
        want = _bits(mirror.w, mirror.a, mirror.b, mirror.alpha, mirror.eta, mirror.ref_w,
                     mirror.ref_a, mirror.ref_b, mirror.sum_w, mirror.sum_a, mirror.sum_b,
                     mirror.stage_count)
        return np.array_equal(got, want)

    for epoch, n_steps in enumerate(steps, start=1):
        for _ in range(n_steps):
            model_grad = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
            grads = _grads(g_a=rng.normal(), g_b=rng.normal(), g_alpha=rng.normal())
            pesg_step(state, model_grad, grads, cfg)
            mirror.step(model_grad, grads, cfg)
            assert same()
        on_epoch_end(state, epoch, cfg)
        mirror.epoch_end(epoch, cfg)
        assert same()


_FUSED_SPECS = [ModelSpec("linear", 3), ModelSpec("mlp", 3, 5, 1.0), ModelSpec("mlp", 2, 8, 0.3)]


def _bits(*values):
    return np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values]).view(np.int64)


def _fused_batch(spec, n, classes, seed, zero=None):
    """A batch as the loop sees it (int64 labels, one or both classes) and
    params, all equal to ``zero`` (+0.0 or -0.0) when it is given."""
    rng = np.random.default_rng(seed)
    X = 1.5 * rng.normal(size=(n, spec.d_in))
    y = {"pos": np.ones(n, dtype=np.int64), "neg": -np.ones(n, dtype=np.int64),
         "both": np.where(np.arange(n) % 3 == 0, 1, -1)[rng.permutation(n)]}[classes]
    params = init_params(spec, seed, 1.0)
    if zero is not None:
        params[:] = zero
    return rng, X, y, params


# gamma = 0 exactly is the canonical configs' value, which uniform(0, 2)
# never draws: the rule's step then skips the proximal term
@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(_FUSED_SPECS), n=st.integers(2, 40),
       classes=st.sampled_from(["both", "pos", "neg"]), kind=st.sampled_from(AUC_KINDS),
       bsn=st.booleans(), project=st.booleans(), zero_gamma=st.booleans(),
       weight_decay=st.sampled_from([0.0, 1e-3]), zero=st.sampled_from([None, 0.0, -0.0]),
       seed=st.integers(0, 2**16))
def test_fused_pesg_step_is_bitwise_the_public_chain(spec, n, classes, kind, bsn, project,
                                                     zero_gamma, weight_decay, zero, seed):
    rng, X, y, params = _fused_batch(spec, n, classes, seed, zero)
    surrogate = SurrogateSpec(kind, p=rng.uniform(0.05, 0.95), m=rng.uniform(0.1, 1.0), bsn=bsn)
    cfg = PesgConfig(eta0=0.1, gamma=0.0 if zero_gamma else rng.uniform(0, 2),
                     weight_decay=weight_decay, project_alpha=project)
    aux = AuxVars(*rng.normal(size=3))
    if zero is not None:
        aux = AuxVars(zero, zero, aux.alpha)
    ref = rng.normal(size=params.size)
    pub, fused = (MinMaxState(params=params, aux=aux, eta=rng.uniform(0.01, 0.5))
                  for _ in range(2))
    fused.eta = pub.eta
    for state in (pub, fused):
        state.v_ref[:] = np.append(ref, (0.2, -0.1))

    raw = forward_batch(spec, pub.params, X)
    scores = batch_score_normalize(raw) if bsn else raw
    g = minmax_grads(scores, y, pub.aux, surrogate)
    coeffs = bsn_vjp(raw, g.g_coeffs) if bsn else g.g_coeffs
    pesg_step(pub, backward_vjp(spec, pub.params, X, coeffs), g, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = _pesg_rule(spec, fused, surrogate, cfg)(X, _minmax_weights(y, surrogate.p))

    assert np.array_equal(
        _bits(fused.params, fused.aux.a, fused.aux.b, fused.aux.alpha, loss),
        _bits(pub.params, pub.aux.a, pub.aux.b, pub.aux.alpha, g.value))
    assert np.array_equal(_bits(fused.v_sum), _bits(pub.v_sum))


def test_fused_pesg_step_keeps_the_proximal_term_on_a_negative_zero_start(monkeypatch):
    # numpy's sums start from +0.0, so no VJP entry is -0.0; one that were
    # would meet gamma = 0's term 0 * (v - v_ref) = +0.0, and where v holds
    # -0.0 the update's bits depend on that term
    def negative_zero_vjp(spec, views, X, coeffs, hidden, out):
        out[:] = -0.0

    monkeypatch.setattr(aucmax.optimizer, "_backward_hidden", negative_zero_vjp)
    spec, X, y = ModelSpec("linear", 2), np.array([[1.0, 2.0], [-1.0, 0.5]]), np.array([1, -1])
    surrogate = SurrogateSpec("auc_margin", p=0.5, m=1.0)
    cfg = PesgConfig(eta0=0.1, gamma=0.0, weight_decay=0.0)
    pub, fused = (MinMaxState(params=np.array([-0.0, 1.0]), aux=AuxVars(), eta=0.1)
                  for _ in range(2))
    g = minmax_grads(forward_batch(spec, pub.params, X), y, pub.aux, surrogate)
    pesg_step(pub, np.array([-0.0, -0.0]), g, cfg)
    _pesg_rule(spec, fused, surrogate, cfg)(X, _minmax_weights(y, surrogate.p))
    assert np.signbit(pub.params[0])
    assert np.array_equal(_bits(fused.params), _bits(pub.params))


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(_FUSED_SPECS), n=st.integers(2, 40),
       classes=st.sampled_from(["both", "pos", "neg"]),
       kind=st.sampled_from(["cross_entropy", "focal"]),
       weight_decay=st.sampled_from([0.0, 1e-3]), zero=st.sampled_from([None, 0.0, -0.0]),
       seed=st.integers(0, 2**16))
def test_fused_sgd_step_is_bitwise_the_public_chain(spec, n, classes, kind, weight_decay, zero,
                                                    seed):
    rng, X, y, params = _fused_batch(spec, n, classes, seed, zero)
    surrogate = SurrogateSpec(kind, p=0.5, focal_alpha=rng.uniform(0.05, 0.95),
                              focal_gamma=float(rng.choice([0.0, 0.5, 2.0])))
    cfg = SgdConfig(lr=rng.uniform(0.01, 0.5), momentum=0.9, weight_decay=weight_decay)
    velocity = rng.normal(size=params.size)

    scores = forward_batch(spec, params, X)
    if kind == "cross_entropy":
        value, coeffs = cross_entropy_loss_and_coeffs(scores, y)
    else:
        value, coeffs = focal_loss_and_coeffs(scores, y, surrogate.focal_alpha,
                                              surrogate.focal_gamma)
    grad = backward_vjp(spec, params, X, coeffs) + cfg.weight_decay * params
    pub_velocity = cfg.momentum * velocity + grad
    pub_params = params - cfg.lr * pub_velocity
    with np.errstate(over="ignore", invalid="ignore"):
        loss = _sgd_rule(spec, params, velocity, surrogate, cfg)(X, y)

    assert np.array_equal(_bits(params, velocity, loss), _bits(pub_params, pub_velocity, value))


def _toy_sets(seed=1):
    base = gen_gaussian_toy(GaussianToySpec(n_pos=500, n_neg=900, seed=seed))
    train, _ = make_imbalanced(base, 0.10, seed=seed + 1)
    test = gen_gaussian_toy(GaussianToySpec(n_pos=1000, n_neg=9000, seed=seed + 2))
    return train, test


class TestPesgTrain:
    def test_zero_epochs(self):
        train, _ = _toy_sets()
        mspec = ModelSpec("linear", 2)
        params0 = init_params(mspec, 7, 0.1)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        params, aux, records = pesg_train(mspec, params0, train, spec, PesgConfig(),
                                          epochs=0, batch_size=64, seed=0)
        assert np.array_equal(params, params0)
        assert records == []

    def test_separable_toy_reaches_high_auc(self):
        train, test = _toy_sets()
        mspec = ModelSpec("linear", 2)
        params0 = init_params(mspec, 7, 0.1)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        cfg = PesgConfig(eta0=0.1, weight_decay=1e-4)
        _, _, records = pesg_train(mspec, params0, train, spec, cfg,
                                   epochs=30, batch_size=64, seed=11, test_data=test)
        assert records[-1].test_auc >= 0.99
        assert len(records) == 30

    def test_deterministic_bit_for_bit(self):
        train, test = _toy_sets(seed=5)
        mspec = ModelSpec("linear", 2)
        params0 = init_params(mspec, 3, 0.1)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5, bsn=True)
        cfg = PesgConfig(eta0=0.1, decay_epochs=(4,), decay_factor=3.0)
        runs = [
            pesg_train(mspec, params0, train, spec, cfg, 6, 32, seed=9, test_data=test)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][2] == runs[1][2]

    def test_alpha_nonnegative_every_iteration_when_projected(self):
        train, _ = _toy_sets(seed=9)
        mspec = ModelSpec("linear", 2)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        cfg = PesgConfig(eta0=0.2, project_alpha=True)
        state = MinMaxState(params=init_params(mspec, 1, 0.1), aux=AuxVars(), eta=0.2)
        rng = np.random.default_rng(0)
        for _ in range(300):
            idx = rng.permutation(len(train))[:32]
            scores = forward_batch(mspec, state.params, train.X[idx])
            g = minmax_grads(scores, train.y[idx], state.aux, spec)
            mg = backward_vjp(mspec, state.params, train.X[idx], g.g_coeffs)
            pesg_step(state, mg, g, cfg)
            assert state.aux.alpha >= 0.0

    def test_full_batch_square_monotonically_decreases_pairwise_loss(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(0.5, 1, (4, 2)), rng.normal(-0.5, 1, (4, 2))])
        y = np.array([1] * 4 + [-1] * 4)
        mspec = ModelSpec("linear", 2)
        spec = SurrogateSpec("auc_square", p=0.5)
        cfg = PesgConfig(eta0=1e-3, gamma=0.0, weight_decay=0.0, project_alpha=False)
        state = MinMaxState(params=rng.normal(scale=0.01, size=2), aux=AuxVars(), eta=1e-3)
        prev = np.inf
        for _ in range(200):
            s = forward_batch(mspec, state.params, X)
            g = minmax_grads(s, y, state.aux, spec)
            mg = backward_vjp(mspec, state.params, X, g.g_coeffs)
            pesg_step(state, mg, g, cfg)
            s2 = forward_batch(mspec, state.params, X)
            cur = pairwise_square_loss(s2[y > 0], s2[y < 0])
            assert cur <= prev + 1e-12
            prev = cur

    def test_vref_matches_independent_accumulator(self):
        train, _ = _toy_sets(seed=3)
        mspec = ModelSpec("linear", 2)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        cfg = PesgConfig(eta0=0.1, decay_epochs=(2,), decay_factor=2.0)
        state = MinMaxState(params=init_params(mspec, 2, 0.1), aux=AuxVars(), eta=0.1)
        rng = np.random.default_rng(4)
        mirror = []
        for epoch in (1, 2):
            for _ in range(5):
                idx = rng.permutation(len(train))[:16]
                scores = forward_batch(mspec, state.params, train.X[idx])
                g = minmax_grads(scores, train.y[idx], state.aux, spec)
                mg = backward_vjp(mspec, state.params, train.X[idx], g.g_coeffs)
                pesg_step(state, mg, g, cfg)
                mirror.append(state.params.copy())
            on_epoch_end(state, epoch, cfg)
        assert state.eta == 0.1 / 2.0
        assert np.allclose(state.ref_params, np.mean(mirror, axis=0), rtol=0, atol=1e-15)

    def test_single_class_dataset_rejected(self):
        from aucmax.data import Dataset
        bad = Dataset(np.zeros((4, 2)), np.ones(4, dtype=int))
        with pytest.raises(ValidationError):
            pesg_train(ModelSpec("linear", 2), np.zeros(2), bad,
                       SurrogateSpec("auc_margin", p=0.5, m=1.0), PesgConfig(), 1, 2, 0)

    def test_single_class_batches_are_processed(self):
        # batch size larger than the positive count guarantees all-negative
        # batches; training must proceed without error
        train, _ = _toy_sets(seed=7)
        mspec = ModelSpec("linear", 2)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        _, _, records = pesg_train(mspec, init_params(mspec, 0, 0.1), train, spec,
                                   PesgConfig(), epochs=2, batch_size=5, seed=0)
        assert len(records) == 2

    def test_divergence_aborts_with_context(self):
        train, _ = _toy_sets(seed=8)
        mspec = ModelSpec("linear", 2)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        cfg = PesgConfig(eta0=1e12, weight_decay=0.0)
        with pytest.raises(NumericalError, match="epoch"):
            pesg_train(mspec, init_params(mspec, 0, 0.1), train, spec, cfg,
                       epochs=50, batch_size=64, seed=0)

    def test_nonfinite_batch_loss_aborts(self):
        # scores near 1e160 overflow (s - a)**2 to inf, and the masked class's
        # inf * 0 makes the batch value NaN while the gradients stay finite
        data = gen_gaussian_toy(GaussianToySpec(n_pos=40, n_neg=40, seed=0))
        spec = SurrogateSpec("auc_square", p=data.p)
        with pytest.raises(NumericalError,
                           match=r"^epoch 1, iteration 0: non-finite batch loss"):
            pesg_train(ModelSpec("linear", 2), np.array([1e160, 1e160]), data, spec,
                       PesgConfig(), epochs=2, batch_size=32, seed=0)

    @pytest.mark.parametrize("bsn", [False, True])
    @pytest.mark.parametrize("mspec", [ModelSpec("linear", 2), ModelSpec("mlp", 2, 4, 1.0)],
                             ids=["linear", "mlp"])
    def test_nonfinite_scores_abort_with_context(self, mspec, bsn):
        train, _ = _toy_sets()
        params = init_params(mspec, 0, 0.1)
        params[0] = np.nan
        spec = SurrogateSpec("auc_margin", p=train.p, bsn=bsn)
        with pytest.raises(NumericalError,
                           match=r"^epoch 1, iteration 0: non-finite batch scores"):
            pesg_train(mspec, params, train, spec, PesgConfig(), epochs=1, batch_size=64, seed=0)


class TestSgdTrain:
    def test_zero_lr_keeps_params(self):
        train, _ = _toy_sets()
        mspec = ModelSpec("linear", 2)
        params0 = init_params(mspec, 1, 0.1)
        spec = SurrogateSpec("cross_entropy", p=train.p)
        cfg = SgdConfig(lr=0.0, momentum=0.9, weight_decay=0.0, epochs=2, batch_size=64)
        params, records = sgd_train(mspec, params0, train, spec, cfg, seed=0)
        assert np.array_equal(params, params0)
        assert len(records) == 2

    def test_single_plain_gradient_step(self):
        from aucmax.data import Dataset
        from aucmax.losses import cross_entropy_loss_and_coeffs

        data = Dataset(np.array([[2.0, -1.0], [-2.0, 1.0]]), np.array([1, -1]))
        mspec = ModelSpec("linear", 2)
        params0 = np.array([0.5, 0.5])
        cfg = SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.0, epochs=1, batch_size=2)
        params, _ = sgd_train(mspec, params0, data,
                              SurrogateSpec("cross_entropy", p=0.5), cfg, seed=0)
        scores = forward_batch(mspec, params0, data.X)
        _, coeffs = cross_entropy_loss_and_coeffs(scores, data.y)
        want = params0 - 0.1 * backward_vjp(mspec, params0, data.X, coeffs)
        assert np.allclose(params, want, rtol=0, atol=1e-15)

    def test_cross_entropy_reaches_high_auc(self):
        train, test = _toy_sets(seed=2)
        mspec = ModelSpec("linear", 2)
        cfg = SgdConfig(lr=0.1, momentum=0.9, weight_decay=1e-4, epochs=30, batch_size=64)
        _, records = sgd_train(mspec, init_params(mspec, 1, 0.1), train,
                               SurrogateSpec("cross_entropy", p=train.p), cfg,
                               seed=3, test_data=test)
        assert records[-1].test_auc >= 0.99

    def test_nonfinite_scores_abort_with_context(self):
        train, _ = _toy_sets()
        mspec = ModelSpec("linear", 2)
        with pytest.raises(NumericalError, match="epoch 1, iteration 0: non-finite batch scores"):
            sgd_train(mspec, np.array([np.nan, 0.0]), train,
                      SurrogateSpec("cross_entropy", p=train.p), SgdConfig(), seed=0)

    def test_divergence_aborts_with_context_and_no_warning(self):
        train, _ = _toy_sets()
        mspec = ModelSpec("linear", 2)
        cfg = SgdConfig(lr=1e300, epochs=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="epoch 1, iteration"):
                sgd_train(mspec, init_params(mspec, 1, 0.1), train,
                          SurrogateSpec("cross_entropy", p=train.p), cfg, seed=0)

    @pytest.mark.parametrize("kw", [dict(lr=-0.1), dict(lr=float("nan")), dict(momentum=-0.1),
                                    dict(momentum=1.0), dict(momentum=5.0),
                                    dict(weight_decay=-1e-4), dict(epochs=-1),
                                    dict(batch_size=1), dict(lr=float("inf")),
                                    dict(weight_decay=float("inf"))])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValidationError):
            SgdConfig(**kw)

    def test_wrong_surrogate_rejected(self):
        train, _ = _toy_sets()
        with pytest.raises(ValidationError):
            sgd_train(ModelSpec("linear", 2), np.zeros(2), train,
                      SurrogateSpec("auc_margin", p=0.5, m=1.0), SgdConfig(), 0)


def _pesg_run(kind="auc_margin", epochs=1, batch_size=2):
    data = Dataset(np.zeros((4, 2)), np.array([1, -1, 1, -1]))
    return pesg_train(ModelSpec("linear", 2), np.zeros(2), data, SurrogateSpec(kind, p=0.5),
                      PesgConfig(), epochs, batch_size, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: _pesg_run(epochs=-1), "epochs must be >= 0, got -1"),
    (lambda: _pesg_run(batch_size=1), "batch_size must be >= 2, got 1"),
    (lambda: _pesg_run(kind="cross_entropy"),
     "pesg_train needs an AUC surrogate, got 'cross_entropy'"),
    (lambda: on_epoch_end(MinMaxState(np.zeros(2), AuxVars(), 0.1), 0, PesgConfig()),
     "epoch must be >= 1, got 0"),
], ids=["negative_epochs", "batch_of_one", "pointwise_loss", "epoch_zero"])
def test_bad_input_rejected_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


_RUN_SET = Dataset(np.random.default_rng(0).normal(size=(40, 2)), np.tile([1, -1], 20))


def _trainer_run(trainer, params=np.zeros(2), data=_RUN_SET, test_data=_RUN_SET):
    """One epoch of ``trainer`` on a linear 2-D model, batches of 8."""
    spec = ModelSpec("linear", 2)
    if trainer == "pesg_train":
        pesg_train(spec, params, data, SurrogateSpec("auc_margin", p=0.5), PesgConfig(), 1, 8, 0,
                   test_data)
    else:
        sgd_train(spec, params, data, SurrogateSpec("cross_entropy", p=0.5),
                  SgdConfig(epochs=1, batch_size=8), 0, test_data)


@pytest.mark.parametrize("trainer", ["pesg_train", "sgd_train"])
@pytest.mark.parametrize("bad, message", [
    (dict(test_data=Dataset(np.zeros((4, 2)), np.ones(4, dtype=int))),
     "test set: needs both classes, got 4 positive, 0 negative"),
    (dict(test_data=Dataset(np.zeros((4, 3)), np.array([1, -1, 1, -1]))),
     "test set: 3 features, but the model takes 2"),
    (dict(data=Dataset(np.zeros((4, 3)), np.array([1, -1, 1, -1]))),
     "training set: 3 features, but the model takes 2"),
    (dict(params=np.zeros(3)), "expected 2 parameters for linear, got shape (3,)"),
], ids=["one_class_test_set", "test_set_width", "training_set_width", "params_length"])
def test_trainers_check_the_run_before_the_first_step(monkeypatch, trainer, bad, message):
    steps = []
    forward = aucmax.optimizer._forward_hidden
    monkeypatch.setattr(aucmax.optimizer, "_forward_hidden",
                        lambda *args: steps.append(1) or forward(*args))
    _trainer_run(trainer)
    assert len(steps) == 5      # the counter sees every step of a good run
    steps.clear()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _trainer_run(trainer, **bad)
    assert steps == []


# sha256 of records_to_csv of the two runs at seed 0 under two_stage_protocol(),
# with the provenance of the goldens in test_experiments.py. Criterion 10 gates
# only the 10-seed mean of their final AUCs.
GOLDEN_TWO_STAGE_SHA256 = {
    "two_stage": "a68b27563f0829e71f45b6dc4858821bd9e1afef3be4c99049d8fc78281feb24",
    "from_scratch": "4f115e9b64dcb0c3215258b17e6315bc1ebc35b51fb1715d0ee2414130ab06d4",
}


class TestTwoStage:
    def _mlp_setup(self, seed=0):
        train, test = _toy_sets(seed=seed)
        mspec = ModelSpec("mlp", 2, 6, 1.0)
        spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
        stage1 = SgdConfig(lr=0.1, momentum=0.9, weight_decay=1e-4, epochs=5, batch_size=64)
        return train, test, mspec, spec, stage1

    def test_zero_stage2_epochs_is_pretrain_plus_redraw(self):
        train, _, mspec, spec, stage1 = self._mlp_setup()
        params, aux, records = two_stage_train(mspec, train, stage1, spec, PesgConfig(),
                                               stage2_epochs=0, stage2_batch_size=64, seed=4)
        seeds = np.random.SeedSequence(4).generate_state(4)
        pre, _ = sgd_train(mspec, init_params(mspec, int(seeds[0]), 0.1), train,
                           SurrogateSpec("cross_entropy", p=train.p), stage1, int(seeds[1]))
        sl = output_layer_slice(mspec)
        want = pre.copy()
        want[sl] = init_params(mspec, int(seeds[2]), 0.1)[sl]
        assert np.array_equal(params, want)

    def test_hidden_layer_preserved_across_reinit(self):
        train, _, mspec, spec, stage1 = self._mlp_setup(seed=1)
        params, _, _ = two_stage_train(mspec, train, stage1, spec, PesgConfig(),
                                       stage2_epochs=0, stage2_batch_size=64, seed=5)
        seeds = np.random.SeedSequence(5).generate_state(4)
        pre, _ = sgd_train(mspec, init_params(mspec, int(seeds[0]), 0.1), train,
                           SurrogateSpec("cross_entropy", p=train.p), stage1, int(seeds[1]))
        sl = output_layer_slice(mspec)
        hidden = slice(0, sl.start)
        assert np.array_equal(params[hidden], pre[hidden])
        assert not np.array_equal(params[sl], pre[sl])

    def test_linear_model_rejected(self, monkeypatch):
        train, _, _, spec, stage1 = self._mlp_setup()
        monkeypatch.setattr(aucmax.optimizer, "sgd_train", lambda *a: pytest.fail("pretrained"))
        with pytest.raises(ValidationError,
                           match="^only the mlp model has a separate output layer$"):
            two_stage_train(ModelSpec("linear", 2), train, stage1, spec, PesgConfig(),
                            stage2_epochs=1, stage2_batch_size=64, seed=0)

    @staticmethod
    def _script_main(monkeypatch, *argv):
        """``scripts/run_two_stage.py``'s ``main`` run with the arguments ``argv``."""
        path = Path(__file__).parents[1] / "scripts" / "run_two_stage.py"
        module_spec = importlib.util.spec_from_file_location("run_two_stage", path)
        script = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), *argv])
        script.main()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_script_rejects_fewer_than_one_seed(self, monkeypatch, capsys, seeds):
        with pytest.raises(SystemExit) as exit_info:
            self._script_main(monkeypatch, "--seeds", seeds)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--seeds must be at least 1, got {seeds}" in err

    @staticmethod
    def _protocol_records():
        """The records of ``two_stage_train`` and of ``from_scratch_pesg`` at
        seed 0 under ``two_stage_protocol()``, called as the script calls them."""
        proto = two_stage_protocol()
        train, test = prepare_data(proto["data"], 0)
        spec = SurrogateSpec("auc_margin", p=train.p, m=proto["margin"])
        _, _, two = two_stage_train(proto["model"], train, proto["stage1"], spec, proto["pesg"],
                                    proto["epochs"], proto["batch_size"], 0, test_data=test)
        _, _, scratch = from_scratch_pesg(proto["model"], train, spec, proto["pesg"],
                                          proto["epochs"], proto["batch_size"], 0, test_data=test)
        return two, scratch

    def test_script_prints_the_library_numbers(self, monkeypatch, capsys):
        self._script_main(monkeypatch, "--seeds", "1")
        row = capsys.readouterr().out.splitlines()[1]
        two, scratch = self._protocol_records()
        assert row.split() == ["0", f"{two[-1].test_auc:.4f}", f"{scratch[-1].test_auc:.4f}"]

    def test_protocol_records_match_golden_hashes(self):
        got = {name: hashlib.sha256(records_to_csv(records).encode("ascii")).hexdigest()
               for name, records in zip(GOLDEN_TWO_STAGE_SHA256, self._protocol_records())}
        assert got == GOLDEN_TWO_STAGE_SHA256
