"""Scenario runner, ablations and the toy figure on the synthetic toy
benchmarks, and the formats of their output files.

A scenario (``aucmax.config.ScenarioConfig``, the schema the config module
owns) fixes a data recipe (a toy draw with imbalance and easy/noisy
injection, or a CSV file used as loaded), a model, and a list of losses; the
runner trains every loss on every seed with an identical dataset,
initialization and batch order, so comparisons are paired. A seed's data and
warm start, and each (seed, loss) training, are independent tasks that run in
parallel worker processes when the process is single-threaded (its BLAS held
to one thread), with the outputs of running them one by one.
The runner, the ablations and the figure compute and return; none of them
writes a file. ``write_outputs`` writes one summary's files, a metrics CSV and
a model file per (loss, seed) and a summary CSV; ``aucmax.cli`` calls it,
and writes the SVG curves and the run manifest, only once every cell has run
and every figure has drawn, so a failed run leaves no torn outputs.
Every run and ablation trains the losses its scenario lists, and nothing else:
an ablation rejects a listed loss it would not train, and a noise/easy grid
builds every cell's config, before anything is trained.
The canonical robustness studies and the toy figure are config files packaged
in ``aucmax/configs``; the scenario factories below load them.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import starmap

import numpy as np

from .config import PLOT_KINDS, DataSetting, LossSetting, ScenarioConfig, _packaged_scenario
from .data import (
    Dataset,
    dataset_hash,
    gen_gaussian_toy,
    inject_easy,
    inject_noise,
    load_csv,
    make_imbalanced,
)
from .errors import NumericalError, ValidationError, read_text
from .losses import AUC_KINDS, SurrogateSpec
from .metrics import auc_score
from .models import ModelSpec, forward_batch, init_params, save_model
from .optimizer import PesgConfig, RunRecord, SgdConfig, pesg_train, sgd_train
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

METRICS_HEADER = ",".join(f.name for f in fields(RunRecord))
_SEED_SALT = 0x5EED_A0C
# The easy-injection scorer, whatever the run's model is: a CE pretrain on the
# imbalanced toy draw. Fixed constants; no config key sets them.
SCORER_MODEL = ModelSpec("mlp", 2, 8, 1.0)
SCORER_SGD = SgdConfig(lr=0.05, epochs=5)


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
        n_seeds = len({c.seed for c in self.cells})
        lines = [f"scenario {self.name}: final test AUC over {n_seeds} seed(s)"]
        for label, (mean, std) in sorted(self.stats().items()):
            lines.append(f"  {label:<16} {mean:.4f} +/- {std:.4f}")
        return "\n".join(lines)

    def first_records(self) -> dict[str, list[RunRecord]]:
        """label -> the records of its first seed, the curve a plot draws."""
        return {label: cells[0].records for label, cells in self.by_loss().items()}


def _load_two_class_csv(path) -> Dataset:
    """A CSV data file, rejected unless it holds both classes (AUC needs both)."""
    data = load_csv(path)
    if data.n_pos == 0 or data.n_neg == 0:
        raise ValidationError(f"{path}: needs samples of both classes, got {data.n_pos} "
                              f"positive and {data.n_neg} negative")
    return data


def prepare_data(setting: DataSetting, seed: int) -> tuple[Dataset, Dataset | None]:
    """Build the (train, test) pair for one seed.

    A CSV source is returned as loaded (test None without a test file). Files
    without both classes or of unequal widths are rejected here, before training.
    Toy pipeline: draw -> imbalance -> easy injection (scored by a small CE
    pretrain on the imbalanced set) -> noise injection. The noise pool is the
    removed positives not re-added as easy samples. DataSetting checks at
    parse that the imbalance removes positives for the injections to draw on.
    """
    if setting.kind == "csv":
        train = _load_two_class_csv(setting.path)
        test = _load_two_class_csv(setting.test_path) if setting.test_path else None
        if test is not None and test.dim != train.dim:
            raise ValidationError(f"{setting.test_path}: {test.dim} features, but the training "
                                  f"file {setting.path} has {train.dim}")
        return train, test
    train = gen_gaussian_toy(setting.toy_spec(setting.n_pos, setting.n_neg, derive_seed(seed, 1)))
    test = gen_gaussian_toy(setting.toy_spec(setting.test_n_pos, setting.test_n_neg,
                                             derive_seed(seed, 2)))

    removed = None
    if setting.imratio is not None:
        train, removed = make_imbalanced(train, setting.imratio, derive_seed(seed, 3))

    if setting.easy_frac > 0:
        params0 = init_params(SCORER_MODEL, derive_seed(seed, 4), 0.1)
        ce = SurrogateSpec("cross_entropy", p=train.p)
        pre_params, _ = sgd_train(SCORER_MODEL, params0, train, ce, SCORER_SGD,
                                  derive_seed(seed, 5))
        scores = forward_batch(SCORER_MODEL, pre_params, removed.X)
        train, removed = inject_easy(train, removed, scores, setting.easy_frac)

    if setting.noise_rate > 0:
        train = inject_noise(train, removed, setting.noise_rate, derive_seed(seed, 6))
    return train, test


def _usable_cpus() -> int:
    """The CPUs this process may fork worker processes onto: 1 where the OS
    does not say, and 1 while the process runs more than one thread. A fork
    copies only the calling thread, so a lock another thread holds stays held
    in the child (Python 3.12+ warns); numpy's BLAS runs threads of its own
    unless it is held to one, e.g. by OPENBLAS_NUM_THREADS=1."""
    try:
        threads = len(os.listdir("/proc/self/task"))
        return len(os.sched_getaffinity(0)) if threads == 1 else 1
    except (OSError, AttributeError):
        return 1


def _in_order(pool, task, jobs: list[tuple]) -> tuple[list, Exception | None]:
    """``task(*job)`` for every job: the results in job order up to the first
    job that raised, and that job's exception (None when none raised); the
    later jobs that have not started are cancelled. A list of more than one
    job runs in ``pool`` when there is one, else every job runs in this
    process; either way these are the results and the error of running the
    jobs one after another."""
    pooled = pool is not None and len(jobs) > 1
    calls = pool.map(task, *zip(*jobs)) if pooled else starmap(task, jobs)
    results = []
    try:
        for result in calls:
            results.append(result)
    except Exception as exc:
        return results, exc
    return results, None


@dataclass
class _SeedStart:
    """What every loss of one seed trains from."""
    seed: int
    train: Dataset
    test: Dataset | None
    model_spec: ModelSpec
    data_hash: str
    params0: np.ndarray


def _seed_start(cfg: ScenarioConfig, seed: int) -> _SeedStart:
    """A seed's data and starting params: the warm start's CE model when there
    is one, else the initialization."""
    train, test = prepare_data(cfg.data, seed)
    model_spec = cfg.model_spec(train.dim)
    dhash = dataset_hash(train)
    try:
        params0 = init_params(model_spec, derive_seed(seed, 10), cfg.init_scale)
        if cfg.warm_start is not None:
            ce = SurrogateSpec("cross_entropy", p=train.p)
            params0, _ = sgd_train(model_spec, params0, train, ce, cfg.warm_start,
                                   derive_seed(seed, 12))
    except NumericalError as exc:
        raise NumericalError(f"warm start, seed {seed}: {exc}") from exc
    return _SeedStart(seed, train, test, model_spec, dhash, params0)


def _train_loss(cfg: ScenarioConfig, setting: LossSetting, start: _SeedStart) -> CellResult:
    """One (seed, loss) run from the seed's start: PESG for an AUC loss, else
    SGD for ``cfg.epochs`` at ``cfg.batch_size``."""
    spec = setting.surrogate(start.train.p)
    batch_seed = derive_seed(start.seed, 11)
    try:
        if setting.kind in AUC_KINDS:
            params, _, records = pesg_train(start.model_spec, start.params0, start.train, spec,
                                            setting.pesg, cfg.epochs, cfg.batch_size,
                                            batch_seed, start.test)
        else:
            sgd = replace(setting.sgd, epochs=cfg.epochs, batch_size=cfg.batch_size)
            params, records = sgd_train(start.model_spec, start.params0, start.train, spec, sgd,
                                        batch_seed, start.test)
    except NumericalError as exc:
        raise NumericalError(f"{setting.label}, seed {start.seed}: {exc}") from exc
    final = records[-1].test_auc if records else float("nan")
    return CellResult(setting.label, start.seed, final, start.data_hash, records, params,
                      start.model_spec)


def run_scenario(cfg: ScenarioConfig) -> ScenarioSummary:
    """Train every listed loss on every seed. Within a seed every loss starts
    from the same params (the warm start's CE model when there is one) and sees
    the same batch order.

    The seeds' starts, then the (seed, loss) runs, are independent tasks. In a
    single-threaded process with more than one usable CPU, each list of more
    than one task runs in one fork pool of min(tasks, CPUs) workers, built at
    entry and forked at the first such list; the pool and its threads are gone
    when this returns, so the next scenario may fork again. The cells, and the
    error raised if a task fails, are those of training seed by seed and loss
    by loss: a failed start stops its seed and every later one.
    """
    if not cfg.losses:
        raise ValidationError("scenario has no losses to run")
    tasks = len(cfg.seeds) * len(cfg.losses)
    workers = min(tasks, _usable_cpus())
    pool = None
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker imports numpy and aucmax afresh,
        # which takes longer than a benchmark cell. Building the pool forks
        # nothing; from Python 3.11 it forks every worker at its first task,
        # before it starts its own threads.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        starts, start_error = _in_order(pool, _seed_start, [(cfg, seed) for seed in cfg.seeds])
        cells, train_error = _in_order(pool, _train_loss, [(cfg, setting, start)
                                                           for start in starts
                                                           for setting in cfg.losses])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            # A joined thread may stay listed for a moment; a process that
            # still lists it would run the next scenario without a pool.
            deadline = time.monotonic() + 1.0
            while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
                time.sleep(1e-4)
    error = train_error or start_error
    if error is not None:
        raise error
    return ScenarioSummary(cfg.name, cells)


# --- output files -------------------------------------------------------------


def records_to_csv(records: list[RunRecord]) -> str:
    return "\n".join([METRICS_HEADER, *(",".join(map(repr, astuple(r))) for r in records)]) + "\n"


def read_metrics_csv(path) -> list[RunRecord]:
    lines = read_text(path, "ascii").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValidationError(f"{path}: missing metrics header")
    n_cols = len(fields(RunRecord))
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValidationError(f"{path}:{lineno}: expected {n_cols} columns")
        try:
            record = RunRecord(int(cells[0]), int(cells[1]), *map(float, cells[2:]))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparseable metrics value") from exc
        if not all(map(math.isfinite, astuple(record))):
            raise ValidationError(f"{path}:{lineno}: metrics values must be finite")
        records.append(record)
    if not records:
        raise ValidationError(f"{path}: no metrics rows")
    return records


def write_outputs(out: str, summary: ScenarioSummary) -> None:
    """Into directory ``out``: ``<name>_<loss>_s<seed>.csv`` (the metrics) and
    ``.model`` per cell, and ``<name>_summary.csv``, for the summary's name."""
    os.makedirs(out, exist_ok=True)
    for cell in summary.cells:
        base = os.path.join(out, f"{summary.name}_{cell.loss_label}_s{cell.seed}")
        with open(base + ".csv", "w", encoding="ascii") as fh:
            fh.write(records_to_csv(cell.records))
        save_model(base + ".model", cell.model_spec, cell.params)
    with open(os.path.join(out, f"{summary.name}_summary.csv"), "w", encoding="ascii") as fh:
        fh.write("scenario,loss,seed,final_test_auc,dataset_hash\n")
        for cell in summary.cells:
            fh.write(f"{summary.name},{cell.loss_label},{cell.seed},"
                     f"{cell.final_test_auc!r},{cell.data_hash}\n")


def emit_plot(records_by_label: dict[str, list[RunRecord]], kind: str = "auc_vs_epoch") -> str:
    """SVG curve of test AUC or alpha against training epoch."""
    if not records_by_label or any(not recs for recs in records_by_label.values()):
        raise ValidationError("emit_plot needs non-empty record lists")
    if kind not in PLOT_KINDS:
        raise ValidationError(f"unknown plot kind {kind!r}")
    attr, ylabel = PLOT_KINDS[kind]
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
    return {key: run_scenario(cfg) for key, cfg in cells.items()}


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
    auc = [ls for ls in cfg.losses if ls.kind in AUC_KINDS]
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
    return run_scenario(replace(cfg, name=f"{cfg.name}_alpha", losses=pair))


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


def noise_robustness_scenario(seeds=tuple(range(10))) -> ScenarioConfig:
    """Noisy imbalanced toy: margin vs square, warm-started, BSN on
    (``configs/noise_robustness.cfg``)."""
    return _packaged_scenario("noise_robustness", seeds)


def alpha_constraint_scenario(seeds=tuple(range(10))) -> ScenarioConfig:
    """Easy-heavy toy (40% easy + 1% noisy, m = 0.1) for the projection ablation
    (``configs/alpha_constraint.cfg``)."""
    return _packaged_scenario("alpha_constraint", seeds)


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
    easy_train, _ = prepare_data(replace(cfg.data, noise_rate=0.0), seed)
    noisy_train, _ = prepare_data(replace(cfg.data, easy_frac=0.0), seed)

    params0 = init_params(model_spec, derive_seed(seed, 20), cfg.init_scale)
    ce = SurrogateSpec("cross_entropy", p=train.p)

    def retrain(setting: LossSetting, dataset: Dataset) -> np.ndarray:
        spec = setting.surrogate(dataset.p)
        params, _, _ = pesg_train(model_spec, pre_params, dataset, spec, setting.pesg,
                                  cfg.epochs, cfg.batch_size, derive_seed(seed, 22))
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
        pre_params, _ = sgd_train(model_spec, params0, train, ce, cfg.warm_start,
                                  derive_seed(seed, 21))
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
