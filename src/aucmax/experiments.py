"""Scenario runner, outputs, ablations and the toy figure on the synthetic toy
benchmarks.

A scenario (``aucmax.config.ScenarioConfig``, the schema the config module
owns) fixes a data recipe (a toy draw with imbalance and easy/noisy
injection, or a CSV file used as loaded), a model, and a list of losses; the
runner trains every loss on every seed with an identical dataset,
initialization and batch order, so comparisons are paired.
Outputs are one metrics CSV and one model file per (loss, seed), a summary
CSV, and SVG curves; ``aucmax train`` and ``ablate`` add a manifest, the
config that ran, from which the same command regenerates every file.
All cells are computed first and files are written by a single collector at
the end, so a failed run leaves no torn outputs.
Every run and ablation trains the losses its scenario lists, and nothing else:
an ablation rejects a listed loss it would not train, and a noise/easy grid
builds every cell's config, before anything is trained.
The canonical robustness studies and the toy figure are config files packaged
in ``aucmax/configs``; the scenario factories below load them.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DataSetting, LossSetting, ScenarioConfig, _packaged_scenario
from .data import (
    Dataset,
    GaussianToySpec,
    dataset_hash,
    gen_gaussian_toy,
    inject_easy,
    inject_noise,
    load_csv,
    make_imbalanced,
)
from .errors import NumericalError, ValidationError
from .losses import SurrogateSpec
from .metrics import auc_score
from .models import ModelSpec, forward_batch, init_params, save_model
from .optimizer import (
    PesgConfig,
    RunRecord,
    SgdConfig,
    _pesg_train,
    _sgd_train,
    pesg_train,
    sgd_train,
)
from .plots import line_plot, scatter_boundary_panels

__all__ = [
    "ScenarioSummary",
    "prepare_data",
    "run_scenario",
    "ablate_noise_easy",
    "ablate_alpha_constraint",
    "ablate_bsn",
    "ablate_margin",
    "toy_figure",
    "emit_plot",
    "records_to_csv",
    "read_metrics_csv",
    "METRICS_HEADER",
]

METRICS_HEADER = "epoch,iter,loss,train_auc,test_auc,a,b,alpha,eta"
_SEED_SALT = 0x5EED_A0C


def derive_seed(seed: int, purpose: int) -> int:
    """Deterministic, process-independent sub-seed for one purpose."""
    ss = np.random.SeedSequence(entropy=(_SEED_SALT, int(seed), int(purpose)))
    return int(ss.generate_state(1)[0])


@dataclass
class CellResult:
    loss_label: str
    seed: int
    final_test_auc: float
    data_hash: str
    records: list[RunRecord]
    params: np.ndarray = field(repr=False)
    model_spec: ModelSpec = field(repr=False)


@dataclass
class ScenarioSummary:
    name: str
    cells: list[CellResult]

    def by_loss(self) -> dict[str, list[CellResult]]:
        out: dict[str, list[CellResult]] = {}
        for cell in self.cells:
            out.setdefault(cell.loss_label, []).append(cell)
        return out

    def stats(self) -> dict[str, tuple[float, float]]:
        """label -> (mean, std) of final test AUC over seeds (std 0 for one seed)."""
        result = {}
        for label, cells in self.by_loss().items():
            finals = [c.final_test_auc for c in cells]
            std = statistics.pstdev(finals) if len(finals) > 1 else 0.0
            result[label] = (statistics.mean(finals), std)
        return result

    def as_text(self) -> str:
        lines = [f"scenario {self.name}: final test AUC over {self._n_seeds()} seed(s)"]
        for label, (mean, std) in sorted(self.stats().items()):
            lines.append(f"  {label:<16} {mean:.4f} +/- {std:.4f}")
        return "\n".join(lines)

    def _n_seeds(self) -> int:
        return len({c.seed for c in self.cells})


def _load_two_class_csv(path) -> Dataset:
    """A CSV data file, rejected unless it holds both classes (AUC needs both)."""
    data = load_csv(path)
    if data.n_pos == 0 or data.n_neg == 0:
        raise ValidationError(f"{path}: needs samples of both classes, got {data.n_pos} "
                              f"positive and {data.n_neg} negative")
    return data


def prepare_data(setting: DataSetting, seed: int, model_for_scoring: ModelSpec | None = None
                 ) -> tuple[Dataset, Dataset | None]:
    """Build the (train, test) pair for one seed.

    A CSV source is returned as loaded, with test None when there is no test
    file; a file without both classes is rejected here, before any training.
    Toy pipeline: draw -> imbalance -> easy injection (scored by a small CE
    pretrain on the imbalanced set) -> noise injection. The noise pool is the
    removed positives not re-added as easy samples.
    """
    if setting.kind == "csv":
        train = _load_two_class_csv(setting.path)
        return train, _load_two_class_csv(setting.test_path) if setting.test_path else None
    train = gen_gaussian_toy(GaussianToySpec(
        mean_pos=setting.mean_pos, mean_neg=setting.mean_neg,
        cov_scale=setting.cov_scale, n_pos=setting.n_pos, n_neg=setting.n_neg,
        seed=derive_seed(seed, 1),
    ))
    test = gen_gaussian_toy(GaussianToySpec(
        mean_pos=setting.mean_pos, mean_neg=setting.mean_neg,
        cov_scale=setting.cov_scale, n_pos=setting.test_n_pos, n_neg=setting.test_n_neg,
        seed=derive_seed(seed, 2),
    ))

    removed = None
    if setting.imratio is not None:
        train, removed = make_imbalanced(train, setting.imratio, derive_seed(seed, 3))

    if setting.easy_frac > 0:
        if len(removed) == 0:
            raise ValidationError("easy injection needs removed positives (imratio below "
                                  "the drawn prior)")
        scorer = model_for_scoring or ModelSpec("mlp", 2, 8, 1.0)
        params0 = init_params(scorer, derive_seed(seed, 4), 0.1)
        ce = SurrogateSpec("cross_entropy", p=train.p)
        pre_params, _ = _sgd_train(scorer, params0, train, ce, setting.scorer_sgd,
                                   derive_seed(seed, 5), evaluate=False)
        scores = forward_batch(scorer, pre_params, removed.X)
        k = int(setting.easy_frac * len(removed))
        top = np.argsort(-scores, kind="stable")[:k]
        train = inject_easy(train, removed, scores, setting.easy_frac)
        rest = np.setdiff1d(np.arange(len(removed)), top)
        removed = removed.subset(rest)

    if setting.noise_rate > 0:
        if len(removed) == 0:
            raise ValidationError("noise injection needs removed positives (imratio below "
                                  "the drawn prior)")
        train = inject_noise(train, removed, setting.noise_rate, derive_seed(seed, 6))
    return train, test


def _train_one(model_spec: ModelSpec, params0: np.ndarray, train: Dataset, test: Dataset | None,
               setting: LossSetting, epochs: int, batch_size: int, seed: int
               ) -> tuple[np.ndarray, list[RunRecord]]:
    """Train one loss from the given start; batch order depends only on ``seed``.

    Returns the final params and the per-epoch records.
    """
    batch_seed = derive_seed(seed, 11)
    spec = setting.surrogate(train.p)
    if setting.kind in ("auc_square", "auc_margin"):
        params, _, records = pesg_train(model_spec, params0.copy(), train, spec,
                                        setting.pesg, epochs, batch_size, batch_seed, test)
    else:
        sgd_cfg = replace(setting.sgd, epochs=epochs, batch_size=batch_size)
        params, records = sgd_train(model_spec, params0.copy(), train, spec, sgd_cfg,
                                    batch_seed, test)
    return params, records


def _cell_start(cfg: ScenarioConfig, model_spec: ModelSpec, train: Dataset, seed: int
                ) -> np.ndarray:
    params0 = init_params(model_spec, derive_seed(seed, 10), cfg.init_scale)
    if cfg.warm_start is None:
        return params0
    ce = SurrogateSpec("cross_entropy", p=train.p)
    warm, _ = _sgd_train(model_spec, params0, train, ce, cfg.warm_start,
                         derive_seed(seed, 12), evaluate=False)
    return warm


def run_scenario(cfg: ScenarioConfig) -> ScenarioSummary:
    if not cfg.losses:
        raise ValidationError("scenario has no losses to run")
    cells: list[CellResult] = []
    for seed in cfg.seeds:
        train, test = prepare_data(cfg.data, seed)
        model_spec = cfg.model_spec(train.dim)
        dhash = dataset_hash(train)
        stage = "warm start"
        try:
            params0 = _cell_start(cfg, model_spec, train, seed)
            for setting in cfg.losses:
                stage = setting.label
                params, records = _train_one(model_spec, params0, train, test, setting,
                                             cfg.epochs, cfg.batch_size, seed)
                final = records[-1].test_auc if records else float("nan")
                cells.append(CellResult(setting.label, seed, final, dhash, records, params,
                                        model_spec))
        except NumericalError as exc:
            raise NumericalError(f"{stage}, seed {seed}: {exc}") from exc
    summary = ScenarioSummary(cfg.name, cells)
    if cfg.outputs:
        write_outputs(cfg, summary)
    return summary


# --- output files -------------------------------------------------------------


def records_to_csv(records: list[RunRecord]) -> str:
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch},{r.iter},{r.loss!r},{r.train_auc!r},{r.test_auc!r},"
            f"{r.a!r},{r.b!r},{r.alpha!r},{r.eta!r}"
        )
    return "\n".join(lines) + "\n"


def read_metrics_csv(path) -> list[RunRecord]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValidationError(f"{path}: missing metrics header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 9:
            raise ValidationError(f"{path}:{lineno}: expected 9 columns")
        records.append(RunRecord(
            epoch=int(cells[0]), iter=int(cells[1]), loss=float(cells[2]),
            train_auc=float(cells[3]), test_auc=float(cells[4]),
            a=float(cells[5]), b=float(cells[6]), alpha=float(cells[7]),
            eta=float(cells[8]),
        ))
    return records


def write_outputs(cfg: ScenarioConfig, summary: ScenarioSummary) -> list[str]:
    os.makedirs(cfg.outputs, exist_ok=True)
    written = []
    for cell in summary.cells:
        base = os.path.join(cfg.outputs, f"{cfg.name}_{cell.loss_label}_s{cell.seed}")
        with open(base + ".csv", "w", encoding="ascii") as fh:
            fh.write(records_to_csv(cell.records))
        save_model(base + ".model", cell.model_spec, cell.params)
        written += [base + ".csv", base + ".model"]
    spath = os.path.join(cfg.outputs, f"{cfg.name}_summary.csv")
    with open(spath, "w", encoding="ascii") as fh:
        fh.write("scenario,loss,seed,final_test_auc,dataset_hash\n")
        for cell in summary.cells:
            fh.write(f"{cfg.name},{cell.loss_label},{cell.seed},"
                     f"{cell.final_test_auc!r},{cell.data_hash}\n")
    written.append(spath)
    return written


def emit_plot(records_by_label: dict[str, list[RunRecord]], kind: str = "auc_vs_epoch") -> str:
    """SVG curve of test AUC or alpha against training epoch."""
    if not records_by_label or any(not recs for recs in records_by_label.values()):
        raise ValidationError("emit_plot needs non-empty record lists")
    if kind == "auc_vs_epoch":
        attr, ylabel = "test_auc", "test AUC"
    elif kind == "alpha_vs_epoch":
        attr, ylabel = "alpha", "alpha"
    else:
        raise ValidationError(f"unknown plot kind {kind!r}")
    series = [
        (label, [r.epoch for r in recs], [getattr(r, attr) for r in recs])
        for label, recs in sorted(records_by_label.items())
    ]
    return line_plot(series, xlabel="epoch", ylabel=ylabel, title=kind)


# --- ablations ----------------------------------------------------------------


def ablate_noise_easy(base: ScenarioConfig, noise_rates, easy_fracs
                      ) -> dict[tuple[float, float], ScenarioSummary]:
    """Full (noise rate x easy fraction) grid for the losses in ``base``.

    Every cell's config is built, and so checked, before the first cell trains.
    """
    if base.data.kind != "gaussian_toy":
        raise ValidationError("noise/easy ablation injects into the toy draw; "
                              "a CSV source is used as loaded")
    if base.data.imratio is None:
        raise ValidationError("noise/easy ablation needs an imbalanced base (set imratio)")
    cells = {(rate, frac): replace(base, name=f"{base.name}_n{rate:g}_e{frac:g}",
                                   data=replace(base.data, noise_rate=rate, easy_frac=frac))
             for rate in noise_rates for frac in easy_fracs}
    out = {key: run_scenario(cfg) for key, cfg in cells.items()}
    if base.outputs:
        _write_grid_curves(base, out)
    return out


def _write_grid_curves(base: ScenarioConfig, grid) -> None:
    os.makedirs(base.outputs, exist_ok=True)
    for (rate, frac), summary in grid.items():
        per_label: dict[str, list[RunRecord]] = {}
        for cell in summary.cells:
            # plot the first seed's curve per loss; summaries carry the rest
            per_label.setdefault(cell.loss_label, cell.records)
        svg = emit_plot(per_label, "auc_vs_epoch")
        path = os.path.join(base.outputs, f"{summary.name}_curves.svg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(svg)


def _reject_unvaried(cfg: ScenarioConfig, varied: list[LossSetting], what: str) -> None:
    """Reject a scenario that lists a loss the ablation would not train, before
    anything is trained or written."""
    skipped = [ls.label for ls in cfg.losses if ls not in varied]
    if skipped:
        raise ValidationError(f"{what} would not train {', '.join(skipped)}: "
                              "list only the losses it varies")


def _margin_loss(cfg: ScenarioConfig, what: str) -> LossSetting:
    """The scenario's auc_margin loss, the only loss ``what`` varies; it may list
    no other."""
    margin = [ls for ls in cfg.losses if ls.kind == "auc_margin"]
    if not margin:
        raise ValidationError(f"{what} needs an auc_margin loss")
    _reject_unvaried(cfg, margin[:1], what)
    return margin[0]


def _auc_losses(cfg: ScenarioConfig, what: str) -> list[LossSetting]:
    """The scenario's AUC losses, the losses ``what`` varies; it may list no other."""
    auc = [ls for ls in cfg.losses if ls.kind in ("auc_square", "auc_margin")]
    if not auc:
        raise ValidationError(f"{what} needs at least one AUC loss")
    _reject_unvaried(cfg, auc, what)
    return auc


def ablate_alpha_constraint(cfg: ScenarioConfig) -> ScenarioSummary:
    """Same margin run with and without the alpha >= 0 projection."""
    ls = _margin_loss(cfg, "alpha-constraint ablation")
    pair = (
        replace(ls, label=f"{ls.label}_proj", pesg=replace(ls.pesg, project_alpha=True)),
        replace(ls, label=f"{ls.label}_noproj", pesg=replace(ls.pesg, project_alpha=False)),
    )
    summary = run_scenario(replace(cfg, name=f"{cfg.name}_alpha", losses=pair))
    if cfg.outputs:
        per_label = {}
        for cell in summary.cells:
            per_label.setdefault(cell.loss_label, cell.records)
        for kind in ("alpha_vs_epoch", "auc_vs_epoch"):
            path = os.path.join(cfg.outputs, f"{cfg.name}_alpha_{kind}.svg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(emit_plot(per_label, kind))
    return summary


def ablate_bsn(cfg: ScenarioConfig) -> ScenarioSummary:
    """Every AUC loss in the scenario, with and without batch score normalization."""
    variants = []
    for ls in _auc_losses(cfg, "BSN ablation"):
        variants.append(replace(ls, label=f"{ls.label}_bsn", bsn=True))
        variants.append(replace(ls, label=f"{ls.label}_raw", bsn=False))
    return run_scenario(replace(cfg, name=f"{cfg.name}_bsn", losses=tuple(variants)))


def ablate_margin(cfg: ScenarioConfig, margins) -> ScenarioSummary:
    """Sweep the margin hyperparameter of the auc_margin loss."""
    ls = _margin_loss(cfg, "margin sweep")
    variants = tuple(replace(ls, label=f"{ls.label}_m{m:g}", m=m) for m in margins)
    return run_scenario(replace(cfg, name=f"{cfg.name}_margin", losses=variants))


# --- canonical desk-scale studies ---------------------------------------------
#
# Fixed protocols for the robustness phenomena, shared by the CLI and the
# acceptance suite. Hyperparameters were picked once on these toys (step sizes
# keep the aux dynamics stable: eta * 2 p (1-p) well below 2).


def noise_robustness_scenario(seeds=tuple(range(10)), outputs=None) -> ScenarioConfig:
    """Noisy imbalanced toy: margin vs square, warm-started, BSN on
    (``configs/noise_robustness.cfg``)."""
    return _packaged_scenario("noise_robustness", seeds, outputs)


def alpha_constraint_scenario(seeds=tuple(range(10)), outputs=None) -> ScenarioConfig:
    """Easy-heavy toy (40% easy + 1% noisy, m = 0.1) for the projection ablation
    (``configs/alpha_constraint.cfg``)."""
    return _packaged_scenario("alpha_constraint", seeds, outputs)


def two_stage_protocol() -> dict:
    """Shared settings for the two-stage vs from-scratch comparison."""
    return dict(
        data=DataSetting(n_pos=500, n_neg=500, imratio=0.01, noise_rate=0.05),
        model=ModelSpec("mlp", 2, 8, 1.0),
        margin=0.5,
        pesg=PesgConfig(eta0=0.1, weight_decay=1e-4,
                        decay_epochs=(15, 23), decay_factor=3.0),
        stage1=SgdConfig(lr=0.1, momentum=0.9, weight_decay=1e-4,
                         epochs=40, batch_size=64),
        epochs=30, batch_size=64,
    )


# --- the six-panel toy figure ---------------------------------------------------


def toy_figure(cfg: ScenarioConfig) -> str:
    """Decision boundaries before/after easy and noisy injection, per AUC loss.

    One row per loss in ``cfg.losses``, which must all be AUC losses; columns:
    the CE pretrain (trained with ``cfg.warm_start``), then each loss retrained
    from it on data with ``cfg.data.easy_frac`` of the removed positives
    re-added as easy samples, and on data with ``cfg.data.noise_rate`` label
    noise. Draws the scenario's one seed. Returns the SVG text; deterministic
    for a fixed config.
    """
    if cfg.model_kind != "mlp" or cfg.data.kind != "gaussian_toy":
        raise ValidationError("toy figure needs an mlp model on the 2-D toy data")
    if cfg.data.easy_frac == 0 or cfg.data.noise_rate == 0:
        raise ValidationError("toy figure needs data.easy_frac and data.noise_rate above 0")
    if cfg.warm_start is None:
        raise ValidationError("toy figure pretrains with the warm start: set "
                              "train.warm_start_epochs")
    if len(cfg.seeds) != 1:
        raise ValidationError(f"toy figure draws one seed, got {list(cfg.seeds)}: list one "
                              "in run.seeds or pick one with --seed")
    losses = _auc_losses(cfg, "toy figure")
    model_spec = cfg.model_spec(2)
    (seed,) = cfg.seeds
    train, _ = prepare_data(replace(cfg.data, noise_rate=0.0, easy_frac=0.0), seed)
    easy_train, _ = prepare_data(replace(cfg.data, noise_rate=0.0), seed,
                                 model_for_scoring=model_spec)
    noisy_train, _ = prepare_data(replace(cfg.data, easy_frac=0.0), seed)

    params0 = init_params(model_spec, derive_seed(seed, 20), cfg.init_scale)
    ce = SurrogateSpec("cross_entropy", p=train.p)

    def retrain(setting: LossSetting, dataset: Dataset) -> np.ndarray:
        spec = setting.surrogate(dataset.p)
        params, _, _ = _pesg_train(model_spec, pre_params.copy(), dataset, spec,
                                   setting.pesg, cfg.epochs, cfg.batch_size,
                                   derive_seed(seed, 22), evaluate=False)
        return params

    def panel(title, dataset: Dataset, params, annotation=""):
        return {
            "title": title,
            "X": dataset.X,
            "y": dataset.y,
            "noisy_mask": dataset.y_true != 0,
            "score_fn": lambda pts, p=params: forward_batch(model_spec, p, pts),
            "annotation": annotation,
        }

    stage = "pretrain"
    try:
        pre_params, _ = _sgd_train(model_spec, params0, train, ce, cfg.warm_start,
                                   derive_seed(seed, 21), evaluate=False)
        pre_auc = auc_score(forward_batch(model_spec, pre_params, train.X), train.y).auc
        rows = []
        for setting in losses:
            row = [panel("pretrained (CE)", train, pre_params, f"train AUC {pre_auc:.3f}")]
            for dataset, injected in ((easy_train, "easy"), (noisy_train, "noisy")):
                stage = f"{setting.label} + {injected}"
                row.append(panel(stage, dataset, retrain(setting, dataset)))
            rows.append(row)
    except NumericalError as exc:
        raise NumericalError(f"{stage}, seed {seed}: {exc}") from exc
    lim = max(abs(v) for v in (*cfg.data.mean_pos, *cfg.data.mean_neg)) + 3 * cfg.data.cov_scale
    return scatter_boundary_panels(rows, (-lim, lim), (-lim, lim))
