"""The benchmark's two workloads, the checks on every cell's outputs, and
the Runner that runs and checks one cell.

A workload is a pool of cell inputs built from the workload seed. A cell is
one seed's unit of work: ``run`` makes the timed calls into aucmax and
``collect`` turns what they returned or wrote into a CellOutput, untimed.
Cells call aucmax through module attributes looked up at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from aucmax import cli, experiments

# cells per pool; a run cycles through its pool
POOL_SIZE = 8
# the per-epoch fields of a training record, in metrics-CSV order
RECORD_FIELDS = ("epoch", "iter", "loss", "train_auc", "test_auc", "a", "b", "alpha", "eta")
_AUC_COLS = (RECORD_FIELDS.index("train_auc"), RECORD_FIELDS.index("test_auc"))
_ALPHA_COL = RECORD_FIELDS.index("alpha")
# ROADMAP tolerance for records that must agree with a reference path
REFERENCE_ATOL = 1e-12


def cell_seeds(workload_seed: int) -> list[int]:
    """The pool's cell seeds; a pure function of the workload seed."""
    rng = random.Random(workload_seed)
    return [rng.randrange(2**31) for _ in range(POOL_SIZE)]


@dataclass
class CellOutput:
    runs: dict[str, list[tuple]]     # run label -> one RECORD_FIELDS tuple per epoch
    extra: dict[str, float] = field(default_factory=dict)
    steps: int = 0                   # optimizer updates, PESG plus SGD
    blob: bytes = b""                # exact outputs, for the repeat check


def _as_rows(records) -> list[tuple]:
    return [tuple(getattr(r, f) for f in RECORD_FIELDS) for r in records]


def _blob(runs: dict, extra: dict) -> bytes:
    lines = []
    for label, rows in runs.items():
        lines.append(label)
        lines.extend(",".join(repr(v) for v in row) for row in rows)
    lines.extend(f"{k}={v!r}" for k, v in extra.items())
    return "\n".join(lines).encode()


def no_span(name: str):
    """The span factory of an untraced run."""
    return contextlib.nullcontext()


class Workload:
    """A pool of cell inputs, and how to run and read one cell."""

    name = ""

    def build(self, workload_seed: int) -> list:
        raise NotImplementedError

    def run(self, inp, span):
        raise NotImplementedError

    def collect(self, inp, raw) -> CellOutput:
        raise NotImplementedError

    def expected(self, inp) -> tuple[dict, set]:
        """Run label -> expected epoch column, and the labels that project alpha."""
        raise NotImplementedError

    def execute(self, inp, span=no_span) -> tuple[float, CellOutput]:
        """One cell: its wall time (of ``run`` only) and its outputs."""
        t0 = time.perf_counter()
        raw = self.run(inp, span)
        wall = time.perf_counter() - t0
        return wall, self.collect(inp, raw)


class NoiseRobustness(Workload):
    """Criterion-08 protocol for one seed: mlp h=8 with exact BSN, a 40-epoch
    cross-entropy warm start, then square and margin PESG for 60 epochs each."""

    name = "noise_robustness"

    def build(self, workload_seed: int) -> list:
        return [experiments.noise_robustness_scenario(seeds=[s])
                for s in cell_seeds(workload_seed)]

    def run(self, cfg, span):
        return experiments.run_scenario(cfg)

    def collect(self, cfg, summary) -> CellOutput:
        runs = {c.loss_label: _as_rows(c.records) for c in summary.cells}
        steps = sum(rows[-1][1] for rows in runs.values())
        warm = cfg.warm_start
        if warm is not None:
            if warm.batch_size != cfg.batch_size:
                raise ValueError("warm-start step count assumes the PESG batch size")
            # steps per epoch on the same training set, read off PESG epoch 1
            steps += warm.epochs * next(iter(runs.values()))[0][1]
        return CellOutput(runs, {}, steps, _blob(runs, {}))

    def expected(self, cfg) -> tuple[dict, set]:
        epochs = list(range(1, cfg.epochs + 1))
        return ({ls.label: epochs for ls in cfg.losses},
                {ls.label for ls in cfg.losses if ls.pesg.project_alpha})


# The README's example config; gen-data draws the dataset it describes.
EXAMPLE_CONFIG = """\
run.name   = demo
run.seeds  = 0,1,2
data.n_pos = 500            # base draw before imbalancing
data.n_neg = 500
data.imratio = 0.1          # keep positives until this fraction
data.noise_rate = 0.05      # flip this share of labels (both directions)
model.kind = mlp            # or linear
model.d_hidden = 8
loss.kind  = auc_margin     # cross_entropy | focal | auc_square | auc_margin
loss.m     = 0.5
loss.bsn   = true
optim.eta0 = 0.5
optim.decay_epochs = 30,45
optim.decay_factor = 3
train.epochs = 60
train.batch_size = 32
"""
_EXAMPLE_EPOCHS = 60


class CliFailure(RuntimeError):
    pass


class CliPipeline(Workload):
    """``aucmax gen-data``, ``train`` and ``eval`` through aucmax.cli.main in
    one process, in a fresh directory per cell. ``train`` reads back the CSV
    that ``gen-data`` wrote (data.kind = csv, no held-out file) and ``eval``
    scores the saved model on that CSV."""

    name = "cli_pipeline"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def build(self, workload_seed: int) -> list:
        return [(s, EXAMPLE_CONFIG) for s in cell_seeds(workload_seed)]

    def execute(self, inp, span=no_span) -> tuple[float, CellOutput]:
        """Like Workload.execute, in a fresh directory that is removed afterwards."""
        paths = self._make_dir(inp)
        try:
            t0 = time.perf_counter()
            stdout = self._run(inp, span, paths)
            wall = time.perf_counter() - t0
            return wall, self._collect(stdout, paths)
        finally:
            shutil.rmtree(paths["dir"], ignore_errors=True)

    def _make_dir(self, inp) -> dict:
        """A fresh directory holding the gen-data and train configs."""
        seed, text = inp
        os.makedirs(self.workdir, exist_ok=True)
        d = tempfile.mkdtemp(prefix=f"cell_s{seed}_", dir=self.workdir)
        paths = {
            "dir": d,
            "gen_cfg": os.path.join(d, "gen.cfg"),
            "train_cfg": os.path.join(d, "train.cfg"),
            "csv": os.path.join(d, f"demo_s{seed}.csv"),
            "metrics": os.path.join(d, f"demo_auc_margin_s{seed}.csv"),
            "model": os.path.join(d, f"demo_auc_margin_s{seed}.model"),
        }
        with open(paths["gen_cfg"], "w", encoding="ascii") as fh:
            fh.write(text)
        with open(paths["train_cfg"], "w", encoding="ascii") as fh:
            fh.write(text + f"data.kind = csv\ndata.path = {paths['csv']}\n")
        return paths

    def _run(self, inp, span, paths) -> str:
        seed = str(inp[0])
        steps = (
            ("cli.gen_data", ["gen-data", "--config", paths["gen_cfg"], "--seed", seed,
                              "--out", paths["dir"]]),
            ("cli.train", ["train", "--config", paths["train_cfg"], "--seed", seed,
                           "--out", paths["dir"]]),
            ("cli.eval", ["eval", "--model", paths["model"], "--data", paths["csv"]]),
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for name, argv in steps:
                with span(name):
                    rc = cli.main(argv)
                if rc != 0:
                    tail = out.getvalue().strip().splitlines()[-1:]
                    raise CliFailure(f"aucmax {argv[0]} exited {rc}: {tail}")
        return out.getvalue()

    def _collect(self, stdout, paths) -> CellOutput:
        with open(paths["metrics"], encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if lines[0] != ",".join(RECORD_FIELDS):
            raise ValueError(f"unexpected metrics header {lines[0]!r}")
        rows = [tuple(int(c) if i < 2 else float(c) for i, c in enumerate(line.split(",")))
                for line in lines[1:] if line]
        eval_line = [ln for ln in stdout.splitlines() if ln.startswith("auc=")][-1]
        extra = {
            "eval_auc": float(eval_line.split()[0].split("=")[1]),
            "eval_accuracy": float(eval_line.split("=")[-1]),
        }
        with open(paths["csv"], "rb") as fh:
            blob = fh.read()
        with open(paths["model"], "rb") as fh:
            blob += fh.read()
        runs = {"train": rows}
        return CellOutput(runs, extra, rows[-1][1], blob + _blob(runs, extra))

    def expected(self, inp) -> tuple[dict, set]:
        # the margin loss projects alpha unless optim.project_alpha says otherwise
        return {"train": list(range(1, _EXAMPLE_EPOCHS + 1))}, {"train"}


def make_workloads(workdir: str) -> dict:
    return {w.name: w for w in (NoiseRobustness(), CliPipeline(workdir))}


def check_cell(out: CellOutput, expected_epochs: dict, projected: set,
               reference: dict | None = None) -> list[str]:
    """Problems with one cell's outputs; an empty list means the cell is correct."""
    problems = []
    if set(out.runs) != set(expected_epochs):
        problems.append(f"runs {sorted(out.runs)} != {sorted(expected_epochs)}")
    for label, rows in out.runs.items():
        values = [v for row in rows for v in row] + list(out.extra.values())
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{label}: non-finite value")
        if [row[0] for row in rows] != expected_epochs.get(label):
            problems.append(f"{label}: not one record per epoch")
        if not all(0.0 <= row[c] <= 1.0 for row in rows for c in _AUC_COLS):
            problems.append(f"{label}: AUC outside [0, 1]")
        if label in projected and any(row[_ALPHA_COL] < 0.0 for row in rows):
            problems.append(f"{label}: projected alpha below 0")
    if "eval_auc" in out.extra:
        if not 0.0 <= out.extra["eval_auc"] <= 1.0:
            problems.append("eval: AUC outside [0, 1]")
        # eval scores the training CSV with the saved model; the last training
        # record's AUC is the same number before eval rounds it to 6 digits
        if abs(out.extra["eval_auc"] - out.runs["train"][-1][_AUC_COLS[0]]) > 6e-7:
            problems.append("eval: AUC differs from the final training record")
    if reference is not None:
        problems.extend(_compare_reference(out, reference))
    return problems


def _compare_reference(out: CellOutput, ref: dict) -> list[str]:
    problems = []
    for label, ref_rows in ref["runs"].items():
        rows = out.runs.get(label)
        if rows is None or len(rows) != len(ref_rows):
            problems.append(f"{label}: record count differs from the reference")
            continue
        worst = max((abs(v - r) for row, ref_row in zip(rows, ref_rows)
                     for v, r in zip(row, ref_row)), default=0.0)
        if not worst <= REFERENCE_ATOL:
            problems.append(f"{label}: differs from the reference by {worst:.3g}")
    for key, r in ref.get("extra", {}).items():
        if not abs(out.extra.get(key, math.inf) - r) <= REFERENCE_ATOL:
            problems.append(f"{key}: differs from the reference")
    return problems


@dataclass
class Cell:
    cell_id: int
    pool_index: int
    wall_s: float
    steps: int = 0
    problems: list = field(default_factory=list)


class Runner:
    """Runs one workload's cells and checks each cell's outputs."""

    def __init__(self, workload: Workload, pool: list, reference: list | None):
        self.workload = workload
        self.pool = pool
        self.reference = reference          # per pool index, or None
        self.blobs = {}                     # pool index -> exact outputs seen first

    def run_cell(self, k: int, tracer=None) -> Cell:
        """Cell k runs pool input k mod the pool size; k is also its span cell id."""
        i = k % len(self.pool)
        inp = self.pool[i]
        cell = Cell(k, i, 0.0)
        if tracer is not None:
            tracer.cell = k
        try:
            cell.wall_s, out = self.workload.execute(
                inp, tracer.span if tracer is not None else no_span)
            cell.steps = out.steps
            ref = self.reference[i] if self.reference is not None else None
            cell.problems = check_cell(out, *self.workload.expected(inp), ref)
            if out.blob != self.blobs.setdefault(i, out.blob):
                cell.problems.append("repeated cell did not reproduce its outputs byte for byte")
        except Exception as exc:  # a failing cell is reported, not raised
            cell.problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.cell = -1
        return cell
