"""Minimal differentiable scoring models with a flat parameter vector.

Two model families:

* ``linear``: score(x) = w . x, no bias term.
* ``mlp``: one hidden layer with ELU activation,
  score(x) = v . ELU(W x + b_h) + b_out.

Parameters live in a single 1-D float64 array with a fixed layout so model
files round-trip bit-exactly:

    linear: [w_0 .. w_{d_in-1}]
    mlp:    [W (row-major, d_hidden x d_in), b_h (d_hidden),
             v (d_hidden), b_out]

The public functions are pure; gradients are hand-written vector-Jacobian
products (`backward_vjp`), checked against central finite differences in the
tests. The public functions validate their inputs; the training loop calls
the unchecked `_forward_hidden`/`_backward_hidden` pair on views of the
params and of a gradient buffer (`_model_views`) that a run takes once. The
pair keeps a batch's ELU negative part and activations from the forward pass
for the backward pass, which writes the gradient in place. Evaluation
(`forward_batch`) scores an mlp through `_score_mlp`, which keeps nothing.
Training, evaluation and the VJP share one ELU formula,
``max(Z, -0.0) + alpha * expm1(min(Z, 0))``, with no branch mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, read_text

__all__ = [
    "ModelSpec",
    "init_params",
    "forward",
    "forward_batch",
    "backward_vjp",
    "output_layer_slice",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description. ``d_hidden``/``elu_alpha`` only apply to mlp."""

    kind: str  # "linear" | "mlp"
    d_in: int
    d_hidden: int = 0
    elu_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.d_in < 1:
            raise ValidationError(f"d_in must be >= 1, got {self.d_in}")
        if self.kind == "mlp":
            if self.d_hidden < 1:
                raise ValidationError(f"mlp needs d_hidden >= 1, got {self.d_hidden}")
            if not 0 < self.elu_alpha < math.inf:
                raise ValidationError(f"elu_alpha must be finite and > 0, got {self.elu_alpha}")

    @property
    def n_params(self) -> int:
        if self.kind == "linear":
            return self.d_in
        # hidden weights + hidden biases + output weights + output bias
        return self.d_in * self.d_hidden + self.d_hidden + self.d_hidden + 1


def _check_init_scale(scale: float) -> None:
    if not 0 <= scale < math.inf:
        raise ValidationError(f"init_scale must be finite and >= 0, got {scale}")


def init_params(spec: ModelSpec, seed: int, scale: float) -> np.ndarray:
    """Draw parameters i.i.d. uniform on [-scale, scale], deterministic per seed."""
    _check_init_scale(scale)
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=spec.n_params)


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise ValidationError(
            f"expected {spec.n_params} parameters for {spec.kind}, got shape {params.shape}"
        )
    return params


def _check_width(spec: ModelSpec, width: int, what) -> None:
    """The one feature-width rule: ``what`` has the ``spec.d_in`` features the model takes."""
    if width != spec.d_in:
        raise ValidationError(f"{what}: {width} features, but the model takes {spec.d_in}")


def _model_views(spec: ModelSpec, params: np.ndarray):
    """``params`` (or a gradient buffer) as ``_forward_hidden`` and
    ``_backward_hidden`` take it: the vector itself for linear, else the
    mlp's (W, b_h, v, b_out) as views, b_out a one-element one, which see
    every in-place update, so that a training run takes them once."""
    if spec.kind == "linear":
        return params
    h, d = spec.d_hidden, spec.d_in
    return (params[: h * d].reshape(h, d), params[h * d : h * d + h],
            params[h * d + h : h * d + 2 * h], params[-1:])


_BLOCK_ELEMS = 8192      # 64 KiB of float64
_MIN_BLOCK_ROWS = 64


def _block_rows(spec: ModelSpec) -> int:
    """Rows per block when ``forward_batch`` scores a large mlp batch, 0 for none.

    The largest power of two whose (rows, d_hidden) float64 temporaries fit
    in 64 KiB, so they stay in cache and below the allocator's mmap
    threshold. A power of two keeps every row at the same offset modulo the
    BLAS kernels' unroll widths as in one pass over the whole batch, so the
    scores are bit-identical to that pass. Layers too wide for 64-row blocks
    are scored in one pass: there the BLAS kernel choice depends on the row
    count (d_hidden 300 or 500 changes bits at every block size).
    """
    rows = 1 << max(0, (_BLOCK_ELEMS // spec.d_hidden).bit_length() - 1)
    return rows if rows >= _MIN_BLOCK_ROWS else 0


def _elu_negative(Z_neg: np.ndarray, alpha: float, out=None) -> np.ndarray:
    """The ELU's branch for ``Z <= 0``, ``alpha * expm1(Z_neg)`` with
    ``Z_neg = min(Z, 0)``; a unit ``alpha`` skips the multiply (1.0 * x is x)."""
    E = np.expm1(Z_neg, out=out)
    if alpha != 1.0:
        E *= alpha
    return E


def _forward_hidden(spec: ModelSpec, views, X: np.ndarray):
    """Unchecked one-pass scores of a non-empty batch from the ``_model_views``
    of the params, with what ``_backward_hidden`` needs of the mlp's hidden
    layer (None for linear): the ELU's negative part ``Z_neg = min(Z, 0)`` and
    the activations ``U``. The ELU ``max(Z, -0.0) + alpha * expm1(Z_neg)``
    needs no mask: its second term is +0.0 where ``Z > 0``, and adding -0.0
    changes no value."""
    if spec.kind == "linear":
        return X @ views, None
    W, b_h, v, b_out = views
    Z = X @ W.T
    Z += b_h                              # (n, h)
    Z_neg = np.minimum(Z, 0.0)
    U = np.maximum(Z, -0.0, out=Z)
    U += _elu_negative(Z_neg, spec.elu_alpha)   # ELU, (n, h)
    scores = U @ v
    scores += b_out
    return scores, (Z_neg, U)


def _elu_in_place(Z: np.ndarray, bias, zero, neg_zero, alpha: float) -> None:
    """``Z <- ELU(Z + bias)``, ``_forward_hidden``'s ELU on a batch or block.

    ``zero`` and ``neg_zero`` are 0.0 and -0.0, as scalars or as tiles of
    Z's shape: numpy's minimum and maximum run about 3x faster on two
    contiguous arrays than on an array and a scalar.
    """
    Z += bias
    E = np.minimum(Z, zero)
    _elu_negative(E, alpha, out=E)
    np.maximum(Z, neg_zero, out=Z)
    Z += E


def _score_mlp(spec: ModelSpec, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Unchecked mlp scores of a non-empty batch: the bits of
    ``_forward_hidden``, with nothing kept for a backward pass.

    A batch of at least two blocks (``_block_rows``) is scored block by
    block, the last block taking the remainder. There the ELU runs on at most
    one block's rows at a time, with bias, 0.0 and -0.0 tiles of one block's
    rows built once per call. A smaller batch, or any batch of a layer too
    wide to block, is scored in one pass with scalar operands.
    """
    n, rows = X.shape[0], _block_rows(spec)
    W, b_h, v, b_out = _model_views(spec, params)
    if not rows or n < 2 * rows:
        Z = X @ W.T
        _elu_in_place(Z, b_h, 0.0, -0.0, spec.elu_alpha)
        return Z @ v + b_out
    W_T, out = W.T, np.empty(n)
    bias, zero = np.tile(b_h, (rows, 1)), np.zeros((rows, b_h.size))
    neg_zero = -zero
    last = n - n % rows - rows
    for lo in range(0, last + 1, rows):
        hi = n if lo == last else lo + rows
        Z = X[lo:hi] @ W_T
        for c in range(0, hi - lo, rows):
            k = min(rows, hi - lo - c)
            _elu_in_place(Z[c : c + k], bias[:k], zero[:k], neg_zero[:k], spec.elu_alpha)
        out[lo:hi] = Z @ v
    out += b_out
    return out


def forward_batch(spec: ModelSpec, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Score every row of X; order-preserving.

    An mlp batch of at least two blocks (``_block_rows``) is scored block by
    block, the last block taking the remainder, so every block has between
    one and two blocks' rows; the scores equal one pass bit for bit.
    """
    params = _check_params(spec, params)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"expected batch of shape (n, {spec.d_in}), got {X.shape}")
    _check_width(spec, X.shape[1], "batch")
    return X @ params if spec.kind == "linear" else _score_mlp(spec, params, X)


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> float:
    """Score a single feature vector, as ``forward_batch`` scores a batch of that one row."""
    x = np.asarray(x, dtype=np.float64)
    return float(forward_batch(spec, params, x[None])[0])


def _backward_hidden(spec: ModelSpec, views, X: np.ndarray, coeffs: np.ndarray, hidden,
                     out) -> None:
    """Unchecked ``backward_vjp`` of a non-empty batch, written into ``out``,
    the ``_model_views`` of a gradient buffer. ``views`` and ``hidden`` are
    what ``_forward_hidden`` took and returned for the same (pre-update)
    params; hidden's ``Z_neg`` is overwritten."""
    if spec.kind == "linear":
        np.matmul(X.T, coeffs, out=out)
        return
    Z_neg, U = hidden
    G = np.exp(Z_neg, out=Z_neg)          # exactly 1 where Z > 0, as Z_neg is 0 there
    if spec.elu_alpha != 1.0:             # alpha * exp(Z) on Z <= 0, i.e. where U <= 0
        G = np.where(U > 0, 1.0, spec.elu_alpha * G)
    G *= coeffs[:, None]
    G *= views[2]                         # times v: d(sum)/dZ
    g_W, g_b_h, g_v, g_b_out = out
    np.matmul(G.T, X, out=g_W)
    np.add.reduce(G, axis=0, out=g_b_h)
    np.matmul(U.T, coeffs, out=g_v)
    np.add.reduce(coeffs, keepdims=True, out=g_b_out)


def backward_vjp(
    spec: ModelSpec, params: np.ndarray, X: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i coeffs[i] * score(X[i]) with respect to the flat params."""
    params = _check_params(spec, params)
    X = np.asarray(X, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if X.ndim != 2 or coeffs.shape != (X.shape[0],):
        raise ValidationError(
            f"coeffs length {coeffs.shape} does not match batch shape {X.shape}"
        )
    _check_width(spec, X.shape[1], "batch")
    views = _model_views(spec, params)
    hidden = None if spec.kind == "linear" else _forward_hidden(spec, views, X)[1]
    grad = np.empty(spec.n_params)
    _backward_hidden(spec, views, X, coeffs, hidden, _model_views(spec, grad))
    return grad


def output_layer_slice(spec: ModelSpec) -> slice:
    """Slice of the flat parameter vector holding the output weights and bias."""
    if spec.kind != "mlp":
        raise ValidationError("only the mlp model has a separate output layer")
    h, d = spec.d_hidden, spec.d_in
    return slice(h * d + h, spec.n_params)


# --- model file round-trip ------------------------------------------------
#
# Text format:
#   line 1: "linear <d_in>"  or  "mlp <d_in> <d_hidden> <elu_alpha>"
#   line 2: parameter count
#   then one parameter per line, >= 17 significant digits.


def save_model(path, spec: ModelSpec, params: np.ndarray) -> None:
    params = _check_params(spec, params)
    if spec.kind == "linear":
        header = f"linear {spec.d_in}"
    else:
        header = f"mlp {spec.d_in} {spec.d_hidden} {spec.elu_alpha!r}"
    lines = [header, str(spec.n_params)]
    lines.extend(f"{p:.17e}" for p in params)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> tuple[ModelSpec, np.ndarray]:
    lines = [ln.strip() for ln in read_text(path, "ascii").splitlines()]
    if len(lines) < 2:
        raise ValidationError(f"{path}: truncated model file")
    head = lines[0].split()
    try:
        if head[0] == "linear" and len(head) == 2:
            spec = ModelSpec("linear", int(head[1]))
        elif head[0] == "mlp" and len(head) == 4:
            spec = ModelSpec("mlp", int(head[1]), int(head[2]), float(head[3]))
        else:
            raise ValueError
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{path}: bad header {lines[0]!r}") from exc
    except ValidationError as exc:   # ModelSpec's rules
        raise ValidationError(f"{path}: {exc}") from exc
    try:
        count = int(lines[1])
    except ValueError as exc:
        raise ValidationError(f"{path}: bad parameter count {lines[1]!r}") from exc
    if count != spec.n_params:
        raise ValidationError(
            f"{path}: header implies {spec.n_params} parameters, file says {count}"
        )
    body = [ln for ln in lines[2:] if ln]
    if len(body) != count:
        raise ValidationError(f"{path}: expected {count} parameter lines, found {len(body)}")
    try:
        params = np.array([float(ln) for ln in body], dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"{path}: unparseable parameter line") from exc
    if not np.all(np.isfinite(params)):
        raise ValidationError(f"{path}: non-finite parameter in file")
    return spec, params
