"""Primal-dual training for the min-max AUC objectives, plus momentum SGD
for the pointwise baselines and the two-stage pretrain/retrain scheme.

PESG step, per iteration on the primal block v = (w, a, b) and dual alpha:

    v      <- v - eta * (grad_v + gamma * (v - v_ref)) - weight_decay * eta * v
    alpha  <- [alpha + eta * grad_alpha]_+        (projection optional)

v_ref is refreshed at every learning-rate decay point with the running
average of the primal iterates of the stage that just ended; ``MinMaxState``
holds v, v_ref, that running sum and v's gradient buffer as float64 vectors.

Each update rule (``_pesg_rule``, ``_sgd_rule``) builds one training step,
``step(Xb, cols) -> batch loss``, that ``_train_epochs`` calls once per
mini-batch: forward pass, batch-score check, loss, backward pass, update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_both_classes
from .errors import NumericalError, ValidationError
from .losses import (
    AUC_KINDS,
    AuxVars,
    MinMaxGrads,
    SurrogateSpec,
    _bsn,
    _bsn_norm,
    _bsn_vjp,
    _cross_entropy,
    _focal,
    _minmax_grads,
    _minmax_weights,
)
from .metrics import _auc, _class_split
from .models import (
    ModelSpec,
    _backward_hidden,
    _check_params,
    _check_width,
    _forward_hidden,
    _model_views,
    forward_batch,
    init_params,
    output_layer_slice,
)

__all__ = [
    "PesgConfig",
    "SgdConfig",
    "MinMaxState",
    "RunRecord",
    "pesg_step",
    "on_epoch_end",
    "pesg_train",
    "sgd_train",
    "two_stage_train",
    "from_scratch_pesg",
]


@dataclass(frozen=True)
class PesgConfig:
    eta0: float = 0.1
    gamma: float = 0.0            # proximal pull toward v_ref
    weight_decay: float = 1e-4
    decay_epochs: tuple[int, ...] = ()
    decay_factor: float = 10.0
    project_alpha: bool = True

    def __post_init__(self):
        if not 0 < self.eta0 < math.inf:
            raise ValidationError(f"eta0 must be finite and > 0, got {self.eta0}")
        if not (0 <= self.gamma < math.inf and 0 <= self.weight_decay < math.inf):
            raise ValidationError(f"gamma and weight_decay must be finite and >= 0, got "
                                  f"{self.gamma}, {self.weight_decay}")
        if not 1 < self.decay_factor < math.inf:
            raise ValidationError(f"decay_factor must be finite and > 1, got {self.decay_factor}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ValidationError("decay_epochs must be strictly increasing")
        if self.decay_epochs and self.decay_epochs[0] < 1:
            raise ValidationError(f"decay_epochs must be >= 1 (epochs count from 1), got "
                                  f"{self.decay_epochs[0]}")


@dataclass(frozen=True)
class SgdConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 64

    def __post_init__(self):
        if not (0 <= self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise ValidationError(f"lr and weight_decay must be finite and >= 0, got {self.lr}, "
                                  f"{self.weight_decay}")
        if not 0 <= self.momentum < 1:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        _check_length(self.epochs, self.batch_size)


def _check_length(epochs: int, batch_size: int) -> None:
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 2:
        raise ValidationError(f"batch_size must be >= 2, got {batch_size}")


def _check_run(model_spec, params, data, test_data, epochs, batch_size) -> np.ndarray:
    """The float64 params, once the run's params, length and data sets pass their rules."""
    _check_length(epochs, batch_size)
    for dataset, what in ((data, "training set"), (test_data, "test set")):
        if dataset is not None:
            _check_width(model_spec, dataset.dim, what)
            _check_both_classes(dataset.n_pos, dataset.n_neg, what)
    return _check_params(model_spec, params)


class MinMaxState:
    """PESG's state: the primal block ``v = (w, a, b)``, a float64 copy of
    ``params`` with ``aux.a`` and ``aux.b`` appended (``params`` is a view of
    its w part); the dual ``alpha``, a numpy float64 so that ``alpha**2``
    overflows to inf instead of raising; the step size, the reference
    ``v_ref``, the stage's running sum ``v_sum`` and step count, and the
    decays so far. ``grad`` is the buffer of v's gradient that each step
    fills: the model gradient, then g_a and g_b."""

    def __init__(self, params: np.ndarray, aux: AuxVars, eta: float):
        self.v = np.append(np.asarray(params, dtype=np.float64), (aux.a, aux.b))
        self.alpha = np.float64(aux.alpha)
        self.eta = eta
        self.v_ref = self.v.copy()
        self.v_sum = np.zeros_like(self.v)
        self.grad = np.empty_like(self.v)
        self.stage_count = 0
        self.n_decays = 0

    @property
    def params(self) -> np.ndarray:
        return self.v[:-2]

    @property
    def ref_params(self) -> np.ndarray:
        return self.v_ref[:-2]

    @property
    def aux(self) -> AuxVars:
        return AuxVars(a=float(self.v[-2]), b=float(self.v[-1]), alpha=float(self.alpha))


@dataclass(frozen=True)
class RunRecord:
    epoch: int
    iter: int
    loss: float
    train_auc: float
    test_auc: float
    a: float
    b: float
    alpha: float
    eta: float


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value).all():
        raise NumericalError(f"non-finite {name} encountered; aborting run")


def _require_finite_scalars(name: str, *values) -> None:
    if not all(map(math.isfinite, values)):
        raise NumericalError(f"non-finite {name} encountered; aborting run")


def pesg_step(state: MinMaxState, model_grad: np.ndarray, grads: MinMaxGrads,
              cfg: PesgConfig) -> MinMaxState:
    """One primal-descent / dual-ascent update, in place."""
    _require_finite("model gradient", model_grad)
    _require_finite_scalars("aux gradients", grads.g_a, grads.g_b, grads.g_alpha)
    np.concatenate((model_grad, (grads.g_a, grads.g_b)), out=state.grad)
    with np.errstate(over="ignore", invalid="ignore"):
        return _pesg_update(state, grads.g_alpha, cfg)


def _pesg_update(state: MinMaxState, g_alpha, cfg: PesgConfig, prox: bool = True) -> MinMaxState:
    """``pesg_step`` without the gradient checks, from v's gradient in
    ``state.grad`` (which it overwrites) and alpha's ``g_alpha``: a
    non-finite gradient makes the updated params or aux non-finite, and both
    are checked, alpha before its projection (``max(0.0, nan)`` is 0.0).
    ``prox=False`` leaves the proximal term out (see ``_pesg_rule``)."""
    eta, v, g = state.eta, state.v, state.grad
    if prox:
        g += cfg.gamma * (v - state.v_ref)
    g *= eta
    g += cfg.weight_decay * eta * v
    v -= g
    alpha = state.alpha + eta * g_alpha
    if not (np.isfinite(v).all() and math.isfinite(alpha)):
        _require_finite("updated model parameters", state.params)
        _require_finite_scalars("updated aux variables", v[-2], v[-1], alpha)
    if cfg.project_alpha and not alpha > 0.0:
        alpha = np.float64(0.0)
    state.alpha = alpha
    state.v_sum += v
    state.stage_count += 1
    return state


def on_epoch_end(state: MinMaxState, epoch: int, cfg: PesgConfig) -> MinMaxState:
    """Decay the step size and roll v_ref over to the finished stage's average."""
    if epoch < 1:
        raise ValidationError(f"epoch must be >= 1, got {epoch}")
    if epoch not in cfg.decay_epochs:
        return state
    state.n_decays += 1
    state.eta = cfg.eta0 / cfg.decay_factor**state.n_decays
    if state.stage_count > 0:
        state.v_ref = state.v_sum / state.stage_count
    state.v_sum = np.zeros_like(state.v)
    state.stage_count = 0
    return state


def _pesg_rule(model_spec, state: MinMaxState, surrogate: SurrogateSpec, cfg: PesgConfig):
    """PESG's training step ``step(Xb, cols) -> batch loss`` on a batch
    ``Xb`` of a checked ``Dataset`` and its columns ``cols`` of
    ``_minmax_weights``: the forward pass, the batch-score check, optional
    BSN, the min-max gradients, the VJP into ``state.grad`` and the PESG
    update of ``state``, which checks what it updates.

    The views of ``state`` are taken once, (a, b) as the column view
    ``state.v[-2:, None]``. With ``gamma == 0`` the proximal term
    ``0 * (v - v_ref)`` is skipped. For a finite v_ref it is a signed
    zero: adding it turns a gradient entry of -0.0 into +0.0, which changes
    the update only where v holds -0.0. No step makes a -0.0 (v - t is -0.0
    only for v = -0.0), so a start that holds one keeps the term. A v_ref
    that overflowed (a stage sum beyond DBL_MAX) would make the term NaN and
    abort the run; without the term the run goes on.
    """
    views = _model_views(model_spec, state.params)
    grad_views = _model_views(model_spec, state.grad[:-2])
    g_ab = state.grad[-2:]
    v = state.v
    ab = v[-2:, None]
    prox = cfg.gamma != 0.0 or bool(np.signbit(v[v == 0.0]).any())

    def step(Xb, cols):
        raw, hidden = _forward_hidden(model_spec, views, Xb)
        _require_finite("batch scores", raw)
        if surrogate.bsn:
            norm = _bsn_norm(raw)
            scores = _bsn(raw, norm)
        else:
            scores = raw
        value, coeffs, g_alpha = _minmax_grads(scores, cols, ab, state.alpha, surrogate, g_ab)
        if surrogate.bsn:
            coeffs = _bsn_vjp(raw, coeffs, norm)
        _backward_hidden(model_spec, views, Xb, coeffs, hidden, grad_views)
        _pesg_update(state, g_alpha, cfg, prox)
        return value

    return step


def _sgd_rule(model_spec, params, velocity, surrogate: SurrogateSpec, cfg: SgdConfig):
    """Momentum SGD's training step ``step(Xb, yb) -> batch loss`` on
    cross-entropy or focal loss, with the batch labels ``yb`` as its table:
    the forward pass, the batch-score check, the loss, the VJP and the
    momentum update of ``params`` and ``velocity`` in place, through views
    and a gradient buffer taken once."""
    views = _model_views(model_spec, params)
    grad = np.empty_like(params)
    grad_views = _model_views(model_spec, grad)

    def step(Xb, yb):
        scores, hidden = _forward_hidden(model_spec, views, Xb)
        _require_finite("batch scores", scores)
        if surrogate.kind == "cross_entropy":
            value, coeffs = _cross_entropy(scores, yb)
        else:
            value, coeffs = _focal(scores, yb, surrogate.focal_alpha, surrogate.focal_gamma)
        _backward_hidden(model_spec, views, Xb, coeffs, hidden, grad_views)
        np.add(grad, cfg.weight_decay * params, out=grad)
        np.multiply(velocity, cfg.momentum, out=velocity)
        np.add(velocity, grad, out=velocity)
        np.subtract(params, cfg.lr * velocity, out=params)
        _require_finite("updated model parameters", params)
        return value

    return step


def _train_epochs(model_spec, params, data, table, epochs, batch_size, seed, test_data,
                  step, end_epoch) -> list[RunRecord]:
    """Shuffled mini-batch epochs over one update rule, on inputs the trainer
    checked at entry (``_check_run``); deterministic per seed.

    ``table`` holds the rule's per-sample label terms, one column (or entry)
    per row of ``data``. Each batch is one call of the rule's ``step`` on its
    rows of the epoch's shuffled ``X`` and ``table``; ``step`` changes
    ``params`` in place, and a non-finite batch loss aborts the run.
    ``end_epoch(epoch)`` runs after the epoch's evaluation and returns the
    (aux, eta) the epoch ran with.
    """
    train_split = _class_split(data.y)
    test_split = None if test_data is None else _class_split(test_data.y)
    records: list[RunRecord] = []
    rng = np.random.default_rng(seed)
    n = len(data)
    t = 0

    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        X, w = data.X[order], table[..., order]
        loss_sum = 0.0
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, batch_size):
                    Xb = X[start : start + batch_size]
                    loss = step(Xb, w[..., start : start + batch_size])
                    _require_finite_scalars("batch loss", loss)
                    loss_sum += loss * len(Xb)
                    t += 1
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}, iteration {t}: {exc}") from exc
        train_auc = _auc(forward_batch(model_spec, params, data.X), *train_split).auc
        test_auc = train_auc if test_data is None else _auc(
            forward_batch(model_spec, params, test_data.X), *test_split).auc
        aux, eta = end_epoch(epoch)
        records.append(RunRecord(
            epoch=epoch, iter=t, loss=float(loss_sum / n), train_auc=train_auc, test_auc=test_auc,
            a=float(aux.a), b=float(aux.b), alpha=float(aux.alpha), eta=float(eta)))
    return records


def pesg_train(
    model_spec: ModelSpec,
    params: np.ndarray,
    data: Dataset,
    surrogate: SurrogateSpec,
    cfg: PesgConfig,
    epochs: int,
    batch_size: int,
    seed: int,
    test_data: Dataset | None = None,
) -> tuple[np.ndarray, AuxVars, list[RunRecord]]:
    """Shuffled mini-batch PESG; fully deterministic per seed.

    Mini-batches that happen to contain a single class are still processed:
    the missing class's loss terms vanish but the dual still moves.
    """
    if surrogate.kind not in AUC_KINDS:
        raise ValidationError(f"pesg_train needs an AUC surrogate, got {surrogate.kind!r}")
    params = _check_run(model_spec, params, data, test_data, epochs, batch_size)
    state = MinMaxState(params=params, aux=AuxVars(), eta=cfg.eta0)

    def end_epoch(epoch):
        aux, eta = state.aux, state.eta
        on_epoch_end(state, epoch, cfg)
        return aux, eta

    records = _train_epochs(model_spec, state.params, data, _minmax_weights(data.y, surrogate.p),
                            epochs, batch_size, seed, test_data,
                            _pesg_rule(model_spec, state, surrogate, cfg), end_epoch)
    return state.params, state.aux, records


def sgd_train(
    model_spec: ModelSpec,
    params: np.ndarray,
    data: Dataset,
    surrogate: SurrogateSpec,
    cfg: SgdConfig,
    seed: int,
    test_data: Dataset | None = None,
) -> tuple[np.ndarray, list[RunRecord]]:
    """Momentum SGD on cross-entropy or focal loss; deterministic per seed."""
    if surrogate.kind in AUC_KINDS:
        raise ValidationError(f"sgd_train needs cross_entropy or focal, got {surrogate.kind!r}")
    params = _check_run(model_spec, params, data, test_data, cfg.epochs, cfg.batch_size).copy()
    step = _sgd_rule(model_spec, params, np.zeros_like(params), surrogate, cfg)
    records = _train_epochs(model_spec, params, data, data.y, cfg.epochs, cfg.batch_size, seed,
                            test_data, step, lambda epoch: (AuxVars(), cfg.lr))
    return params, records


def two_stage_train(
    model_spec: ModelSpec,
    data: Dataset,
    stage1: SgdConfig,
    surrogate: SurrogateSpec,
    stage2: PesgConfig,
    stage2_epochs: int,
    stage2_batch_size: int,
    seed: int,
    init_scale: float = 0.1,
    test_data: Dataset | None = None,
) -> tuple[np.ndarray, AuxVars, list[RunRecord]]:
    """Cross-entropy pretraining, then AUC maximization over all parameters
    with the output layer freshly re-drawn. Requires a layered (mlp) model."""
    sl = output_layer_slice(model_spec)     # the mlp rule, before any training
    seeds = np.random.SeedSequence(seed).generate_state(4)
    params0 = init_params(model_spec, int(seeds[0]), init_scale)
    ce_spec = SurrogateSpec("cross_entropy", p=surrogate.p)
    pre_params, pre_records = sgd_train(
        model_spec, params0, data, ce_spec, stage1, int(seeds[1]), test_data
    )

    params1 = pre_params.copy()
    params1[sl] = init_params(model_spec, int(seeds[2]), init_scale)[sl]

    final, aux, records = pesg_train(
        model_spec, params1, data, surrogate, stage2,
        stage2_epochs, stage2_batch_size, int(seeds[3]), test_data,
    )
    return final, aux, pre_records + records


def from_scratch_pesg(
    model_spec: ModelSpec,
    data: Dataset,
    surrogate: SurrogateSpec,
    cfg: PesgConfig,
    epochs: int,
    batch_size: int,
    seed: int,
    init_scale: float = 0.1,
    test_data: Dataset | None = None,
) -> tuple[np.ndarray, AuxVars, list[RunRecord]]:
    """PESG from a fresh random initialization (the single-stage baseline)."""
    seeds = np.random.SeedSequence(seed).generate_state(4)
    params0 = init_params(model_spec, int(seeds[0]), init_scale)
    return pesg_train(
        model_spec, params0, data, surrogate, cfg, epochs, batch_size,
        int(seeds[3]), test_data,
    )
