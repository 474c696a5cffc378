import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucmax.errors import ValidationError
from aucmax.models import (
    ModelSpec,
    _backward_hidden,
    _block_rows,
    _elu_in_place,
    _forward_hidden,
    _model_views,
    backward_vjp,
    forward,
    forward_batch,
    init_params,
    load_model,
    output_layer_slice,
    save_model,
)
from aucmax.verify import finite_diff


def test_param_counts():
    assert ModelSpec("linear", 2).n_params == 2
    assert ModelSpec("mlp", 2, 4, 1.0).n_params == 2 * 4 + 4 + 4 + 1 == 17
    assert ModelSpec("mlp", 3, 5, 0.5).n_params == 3 * 5 + 5 + 5 + 1


def test_bad_specs_rejected():
    with pytest.raises(ValidationError):
        ModelSpec("conv", 2)
    with pytest.raises(ValidationError):
        ModelSpec("linear", 0)
    with pytest.raises(ValidationError):
        ModelSpec("mlp", 2, 0)
    with pytest.raises(ValidationError):
        ModelSpec("mlp", 2, 3, elu_alpha=0.0)


def test_init_zero_scale_gives_zeros():
    params = init_params(ModelSpec("linear", 2), seed=7, scale=0.0)
    assert params.shape == (2,)
    assert np.all(params == 0.0)


def test_init_deterministic_and_bounded():
    spec = ModelSpec("mlp", 2, 4, 1.0)
    a = init_params(spec, seed=3, scale=0.1)
    b = init_params(spec, seed=3, scale=0.1)
    assert np.array_equal(a, b)
    assert len(a) == 17
    assert np.all(np.abs(a) <= 0.1)
    assert not np.array_equal(a, init_params(spec, seed=4, scale=0.1))


def test_linear_forward_is_dot_product():
    spec = ModelSpec("linear", 1)
    assert forward(spec, np.array([1.0]), np.array([1.0])) == 1.0
    spec2 = ModelSpec("linear", 3)
    w = np.array([1.0, -2.0, 0.5])
    x = np.array([2.0, 1.0, 4.0])
    assert forward(spec2, w, x) == pytest.approx(np.dot(w, x), rel=1e-15)


def test_mlp_zero_params_scores_zero():
    spec = ModelSpec("mlp", 3, 4, 1.0)
    params = np.zeros(spec.n_params)
    assert forward(spec, params, np.array([5.0, -2.0, 0.1])) == 0.0


def test_mlp_hand_evaluated_saturation():
    # W = [[1],[1]], b_h = 0, v = [1,1], b_out = 0; x = -10 drives both hidden
    # units deep into the ELU tail: score = 2 * (exp(-10) - 1)
    spec = ModelSpec("mlp", 1, 2, 1.0)
    params = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    got = forward(spec, params, np.array([-10.0]))
    want = 2.0 * (math.exp(-10.0) - 1.0)
    assert got == pytest.approx(want, rel=1e-14)
    assert got > -2.0  # hidden activations bounded below by -elu_alpha


def test_elu_continuity_at_zero():
    spec = ModelSpec("mlp", 1, 1, 1.0)
    # single unit, identity weights: score = ELU(x)
    params = np.array([1.0, 0.0, 1.0, 0.0])
    assert forward(spec, params, np.array([0.0])) == 0.0
    for eps in (1e-4, 1e-6, 1e-8):
        gap = abs(forward(spec, params, np.array([eps]))
                  - forward(spec, params, np.array([-eps])))
        assert gap <= 2.5 * eps


def test_forward_batch_matches_forward_and_preserves_order():
    spec = ModelSpec("mlp", 2, 3, 1.0)
    rng = np.random.default_rng(0)
    params = rng.normal(size=spec.n_params)
    X = rng.normal(size=(6, 2))
    scores = forward_batch(spec, params, X)
    assert scores.shape == (6,)
    for i in range(6):
        assert scores[i] == pytest.approx(forward(spec, params, X[i]), rel=1e-14)
    perm = rng.permutation(6)
    assert np.array_equal(forward_batch(spec, params, X[perm]), scores[perm])


def test_forward_batch_empty():
    spec = ModelSpec("linear", 2)
    assert forward_batch(spec, np.zeros(2), np.zeros((0, 2))).shape == (0,)
    assert np.array_equal(backward_vjp(spec, np.ones(2), np.zeros((0, 2)), np.zeros(0)),
                          np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(
    d_in=st.integers(1, 5),
    # 300: a layer too wide to block, scored in one pass at every batch size
    d_hidden=st.one_of(st.sampled_from([1, 17, 33, 64, 300]), st.integers(1, 64)),
    elu_alpha=st.sampled_from([1.0, 0.3, 2.5]),
    blocks=st.integers(0, 5),
    extra=st.sampled_from([-1, 0, 1, 3]),
    seed=st.integers(0, 2**16),
)
def test_blockwise_forward_batch_is_bitwise_one_pass(d_in, d_hidden, elu_alpha, blocks,
                                                    extra, seed):
    spec = ModelSpec("mlp", d_in, d_hidden, elu_alpha)
    rows = _block_rows(spec)
    assert rows * d_hidden <= 8192 < 2 * rows * d_hidden or (rows, d_hidden) == (0, 300)
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed, 2.0)
    X = 2.0 * rng.normal(size=(max(0, blocks * (rows or 64) + extra), d_in))
    W, b_h, v, b_out = _model_views(spec, params)
    Z = X @ W.T + b_h
    one_pass = np.where(Z > 0, Z, elu_alpha * np.expm1(np.minimum(Z, 0.0))) @ v + b_out
    got = forward_batch(spec, params, X)
    assert np.array_equal(got.view(np.int64), one_pass.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    d_in=st.integers(1, 5),
    d_hidden=st.one_of(st.sampled_from([1, 8, 128, 129, 300]), st.integers(1, 64)),
    elu_alpha=st.sampled_from([1.0, 0.3, 2.5]),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_training_forward_is_bitwise_the_eval_scorer(d_in, d_hidden, elu_alpha, frac, seed):
    # one ELU formula: the training pass and the eval scorer agree on every
    # batch that forward_batch scores in one pass (below two blocks, or any
    # size for a layer too wide to block)
    spec = ModelSpec("mlp", d_in, d_hidden, elu_alpha)
    rows = _block_rows(spec)
    n = 1 + int(frac * (2 * rows - 2 if rows else 300))
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed, 2.0)
    X = 2.0 * rng.normal(size=(n, d_in))
    X[rng.random(X.shape) < 0.1] = 0.0      # some pre-activations are exactly the bias
    trained = _forward_hidden(spec, _model_views(spec, params), X)[0]
    assert np.array_equal(trained.view(np.int64), forward_batch(spec, params, X).view(np.int64))


# both scored in one pass: a layer too wide to block, a batch under two blocks
@pytest.mark.parametrize("d_hidden, n", [(300, 2000), (8, 2047)])
def test_eval_scorer_keeps_no_backward_array(d_hidden, n):
    # at the peak, Z and the ELU's negative branch; not also min(Z, 0) for a VJP
    spec = ModelSpec("mlp", 3, d_hidden, 1.0)
    params = init_params(spec, 0, 1.0)
    X = np.random.default_rng(0).normal(size=(n, 3))
    forward_batch(spec, params, X)
    tracemalloc.start()
    try:
        forward_batch(spec, params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * d_hidden * 8


_SPECIAL_INPUTS = [-0.0, 0.0, 5e-324, -5e-324, -1e-300, 3e-320, 1.0, -1.0, 0.5, -2.0,
                   1e308, -1e308]
#                         W               b_h              v                b_out
_SPECIAL_PARAMS = np.array([1.0, -1.0, 2.0, 0.0, -0.0, -0.0, 0.5, -0.25, 1.0, -0.0])


@pytest.mark.parametrize("elu_alpha", [1.0, 0.3, 2.5, 1e-300])
@pytest.mark.parametrize("n", [12, 4103])     # one pass; two blocks of 2048 rows
def test_eval_scorer_on_signed_zeros_and_extremes(elu_alpha, n):
    # pre-activations of exactly +0 and -0, subnormals and infinities, and
    # (for the tiny alpha) alpha * expm1(Z) underflowing to -0
    spec = ModelSpec("mlp", 1, 3, elu_alpha)
    X = np.resize(np.array(_SPECIAL_INPUTS), n)[:, None]
    with np.errstate(over="ignore"):    # 2 * 1e308
        trained, (_, U) = _forward_hidden(spec, _model_views(spec, _SPECIAL_PARAMS), X)
        scored = forward_batch(spec, _SPECIAL_PARAMS, X)
        W, b_h, _, _ = _model_views(spec, _SPECIAL_PARAMS)
        # the eval ELU, with scalar and with tile operands, gives the training
        # activations bit for bit, signs of zero included
        for operands in ((b_h, 0.0, -0.0), (np.tile(b_h, (n, 1)), np.zeros((n, 3)),
                                            -np.zeros((n, 3)))):
            Z = X @ W.T
            _elu_in_place(Z, *operands, elu_alpha)
            assert np.array_equal(Z.view(np.int64), U.view(np.int64))
    assert np.array_equal(trained.view(np.int64), scored.view(np.int64))


def _masked_elu_pass(spec, params, X, coeffs):
    """The training step's forward and backward pass with the ELU branch as
    a mask, ``pos = Z > 0``: scores, activations and VJP."""
    W, b_h, v, b_out = _model_views(spec, params)
    Z = X @ W.T + b_h
    pos = Z > 0
    Z_neg = np.minimum(Z, 0.0)
    E = np.expm1(Z_neg)
    slope = np.exp(Z_neg)
    if spec.elu_alpha != 1.0:
        E *= spec.elu_alpha
        slope *= spec.elu_alpha
    U = np.where(pos, Z, E)
    G = coeffs[:, None] * np.where(pos, 1.0, slope) * v[None, :]
    grad = np.concatenate([(G.T @ X).reshape(-1), G.sum(axis=0), U.T @ coeffs, [coeffs.sum()]])
    return U @ v + b_out, U, grad


@settings(max_examples=150, deadline=None)
@given(elu_alpha=st.sampled_from([1.0, 0.3, 2.5, 1e-300]), special=st.booleans(),
       n=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_mask_free_elu_is_bitwise_the_masked_formulas(elu_alpha, special, n, seed):
    # the special batch holds every one of _SPECIAL_INPUTS, then random picks of them
    rng = np.random.default_rng(seed)
    if special:
        spec, params = ModelSpec("mlp", 1, 3, elu_alpha), _SPECIAL_PARAMS
        X = np.concatenate([_SPECIAL_INPUTS, rng.choice(_SPECIAL_INPUTS, n)])[:, None]
    else:
        spec = ModelSpec("mlp", 3, 5, elu_alpha)
        params = init_params(spec, seed, 2.0)
        X = 2.0 * rng.normal(size=(n, 3))
        X[rng.random(X.shape) < 0.1] = 0.0      # some pre-activations are exactly the bias
    coeffs = rng.normal(size=len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        views, grad = _model_views(spec, params), np.empty(spec.n_params)
        scores, hidden = _forward_hidden(spec, views, X)
        _backward_hidden(spec, views, X, coeffs, hidden, _model_views(spec, grad))
        want = _masked_elu_pass(spec, params, X, coeffs)
    for got, expected in zip((scores, hidden[1], grad), want):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_block_rows_rule():
    assert _block_rows(ModelSpec("mlp", 2, 8, 1.0)) == 1024
    assert _block_rows(ModelSpec("mlp", 2, 128, 1.0)) == 64
    # too wide for 64-row blocks: one pass, whose BLAS kernels vary with the row count
    for d_hidden in (129, 300, 500, 10000):
        assert _block_rows(ModelSpec("mlp", 2, d_hidden, 1.0)) == 0


def test_dimension_mismatch_rejected():
    spec = ModelSpec("linear", 2)
    with pytest.raises(ValidationError):
        forward(spec, np.zeros(2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError):
        forward_batch(spec, np.zeros(2), np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        backward_vjp(spec, np.zeros(2), np.zeros((3, 2)), np.zeros(2))


_LINEAR = ModelSpec("linear", 2)


@pytest.mark.parametrize("call, message", [
    (lambda: init_params(_LINEAR, 0, math.nan), "init_scale must be finite and >= 0, got nan"),
    (lambda: init_params(_LINEAR, 0, math.inf), "init_scale must be finite and >= 0, got inf"),
    (lambda: init_params(_LINEAR, 0, -0.1), "init_scale must be finite and >= 0, got -0.1"),
    (lambda: forward_batch(_LINEAR, np.zeros(3), np.zeros((1, 2))),
     "expected 2 parameters for linear, got shape (3,)"),
    (lambda: backward_vjp(_LINEAR, np.zeros(2), np.zeros((3, 3)), np.zeros(3)),
     "expected batch of shape (n, 2), got (3, 3)"),
], ids=["scale_nan", "scale_inf", "scale_negative", "param_count", "vjp_batch_width"])
def test_bad_input_rejected_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_linear_vjp_is_coeff_times_x():
    spec = ModelSpec("linear", 2)
    grad = backward_vjp(spec, np.zeros(2), np.array([[1.0, 0.0]]), np.array([0.5]))
    assert np.array_equal(grad, np.array([0.5, 0.0]))


def test_zero_coeffs_zero_gradient():
    spec = ModelSpec("mlp", 2, 3, 1.0)
    rng = np.random.default_rng(1)
    params = rng.normal(size=spec.n_params)
    grad = backward_vjp(spec, params, rng.normal(size=(4, 2)), np.zeros(4))
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("spec", [
    ModelSpec("linear", 3),
    ModelSpec("mlp", 2, 3, 1.0),
    ModelSpec("mlp", 4, 5, 0.7),
])
def test_vjp_matches_finite_differences(spec):
    rng = np.random.default_rng(42)
    params = rng.normal(scale=0.8, size=spec.n_params)
    X = rng.normal(size=(7, spec.d_in))
    coeffs = rng.normal(size=7)

    analytic = backward_vjp(spec, params, X, coeffs)
    fd = finite_diff(lambda p: float(coeffs @ forward_batch(spec, p, X)), params)
    rel = np.abs(analytic - fd) / (1.0 + np.abs(fd))
    assert np.max(rel) < 1e-5


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_linear_forward_homogeneous(c):
    spec = ModelSpec("linear", 3)
    rng = np.random.default_rng(5)
    w = rng.normal(size=3)
    x = rng.normal(size=3)
    assert forward(spec, c * w, x) == pytest.approx(c * forward(spec, w, x), abs=1e-10)


def test_output_layer_slice():
    spec = ModelSpec("mlp", 2, 4, 1.0)
    sl = output_layer_slice(spec)
    assert sl == slice(12, 17)
    with pytest.raises(ValidationError):
        output_layer_slice(ModelSpec("linear", 2))


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = ModelSpec("mlp", 2, 4, 1.0)
        rng = np.random.default_rng(9)
        params = rng.normal(size=spec.n_params) * 10.0 ** rng.integers(-8, 8, spec.n_params)
        path = tmp_path / "model.txt"
        save_model(path, spec, params)
        spec2, params2 = load_model(path)
        assert spec2 == spec
        assert np.array_equal(params, params2)

    def test_linear_round_trip(self, tmp_path):
        spec = ModelSpec("linear", 3)
        params = np.array([0.1, -2.5e-300, 3.0])
        path = tmp_path / "m.txt"
        save_model(path, spec, params)
        spec2, params2 = load_model(path)
        assert spec2 == spec and np.array_equal(params, params2)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("linear 2\n3\n1.0\n2.0\n3.0\n")
        with pytest.raises(ValidationError):
            load_model(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("resnet 2\n2\n1.0\n2.0\n")
        with pytest.raises(ValidationError):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        ("linear 2\n", "truncated model file"),
        ("\n2\n1.0\n2.0\n", "bad header ''"),
        ("linear two\n2\n1.0\n2.0\n", "bad header 'linear two'"),
        ("linear 2\ntwo\n1.0\n2.0\n", "bad parameter count 'two'"),
        ("linear 2\n2\n1.0\n", "expected 2 parameter lines, found 1"),
        ("linear 2\n2\n1.0\n2.0\n3.0\n", "expected 2 parameter lines, found 3"),
        ("linear 2\n2\n1.0\none\n", "unparseable parameter line"),
        ("linear 2\n2\n1.0\nnan\n", "non-finite parameter in file"),
        ("mlp 1 1 1.0\n4\n1.0\n2.0\n-inf\n4.0\n", "non-finite parameter in file"),
    ], ids=["truncated", "empty_header", "unparseable_header", "unparseable_count",
            "too_few_params", "too_many_params", "unparseable_param", "nan_param", "inf_param"])
    def test_bad_model_file_names_its_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.model"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)
