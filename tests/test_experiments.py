import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import aucmax.experiments
import aucmax.optimizer
from aucmax.config import DataSetting, LossSetting, ScenarioConfig, load_config, parse_config
from aucmax.data import Dataset, dataset_hash, save_csv
from aucmax.errors import NumericalError, ValidationError
from aucmax.models import load_model
from aucmax.experiments import (
    ablate_alpha_constraint,
    ablate_bsn,
    ablate_margin,
    ablate_noise_easy,
    alpha_constraint_scenario,
    emit_plot,
    noise_robustness_scenario,
    prepare_data,
    read_metrics_csv,
    records_to_csv,
    run_scenario,
    toy_figure,
    write_outputs,
)
from aucmax.optimizer import PesgConfig, RunRecord, SgdConfig
from aucmax.plots import line_plot

SQUARE = LossSetting("auc_square", kind="auc_square", pesg=PesgConfig(project_alpha=False))
MARGIN = LossSetting("auc_margin", kind="auc_margin")


def _fast_scenario(**overrides):
    defaults = dict(
        name="t",
        data=DataSetting(n_pos=40, n_neg=40, test_n_pos=50, test_n_neg=200),
        model_kind="linear",
        losses=(
            SQUARE,
            MARGIN,
            LossSetting(label="ce", kind="cross_entropy"),
            LossSetting(label="focal", kind="focal"),
        ),
        epochs=4,
        batch_size=16,
        seeds=(0,),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _set_cpus(monkeypatch, cpus):
    """Make run_scenario see ``cpus`` usable CPUs: 1 runs every task in this
    process, more fork worker processes for all shares but the first."""
    monkeypatch.setattr(aucmax.experiments, "_usable_cpus", lambda: cpus)


class TestPrepareData:
    def test_pipeline_shapes(self):
        setting = DataSetting(n_pos=200, n_neg=200, imratio=0.05,
                              noise_rate=0.05, easy_frac=0.2)
        train, test = prepare_data(setting, seed=0)
        assert train.n_pos > 0 and train.n_neg > 0
        assert len(test) == setting.test_n_pos + setting.test_n_neg
        assert train.has_true_labels()

    def test_deterministic(self):
        setting = DataSetting(n_pos=50, n_neg=60, imratio=0.1, noise_rate=0.1)
        a, _ = prepare_data(setting, seed=3)
        b, _ = prepare_data(setting, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_easy_injection_needs_imbalance(self):
        with pytest.raises(ValidationError):
            prepare_data(DataSetting(easy_frac=0.5), seed=0)

    def test_csv_source_used_as_loaded(self, tmp_path):
        train, test = _csv_pair(tmp_path)
        # the toy-shaping fields do not touch a CSV source
        setting = DataSetting(kind="csv", path=str(tmp_path / "train.csv"),
                              test_path=str(tmp_path / "test.csv"),
                              imratio=0.1, noise_rate=0.05, easy_frac=0.2)
        got_train, got_test = prepare_data(setting, seed=0)
        assert dataset_hash(got_train) == dataset_hash(train)
        assert dataset_hash(got_test) == dataset_hash(test)
        _, no_test = prepare_data(DataSetting(kind="csv", path=str(tmp_path / "train.csv")), 0)
        assert no_test is None

    @pytest.mark.parametrize("one_class", ["train.csv", "test.csv"])
    def test_single_class_csv_rejected_before_training(self, tmp_path, monkeypatch, one_class):
        _csv_pair(tmp_path)
        X = np.random.default_rng(1).normal(size=(10, 3))
        save_csv(Dataset(X, np.ones(10, dtype=int)), tmp_path / one_class)
        steps = []
        _set_cpus(monkeypatch, 1)     # a worker's steps would not reach this list
        monkeypatch.setattr(aucmax.optimizer, "_forward_hidden", lambda *a: steps.append(a))
        cfg = _fast_scenario(data=DataSetting(kind="csv", path=str(tmp_path / "train.csv"),
                                              test_path=str(tmp_path / "test.csv")))
        with pytest.raises(ValidationError, match="both classes") as exc:
            run_scenario(cfg)
        assert str(tmp_path / one_class) in str(exc.value)
        assert steps == []

    @pytest.mark.parametrize("kw", [dict(kind="parquet"), dict(kind="csv")])
    def test_bad_source_rejected(self, kw):
        with pytest.raises(ValidationError):
            DataSetting(**kw)


def _csv_pair(tmp_path):
    """A 3-D train/test pair saved as train.csv and test.csv."""
    rng = np.random.default_rng(0)
    train = Dataset(rng.normal(size=(40, 3)), np.repeat([1, -1], 20))
    test = Dataset(rng.normal(size=(30, 3)), np.repeat([1, -1], 15))
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    return train, test


class TestRunScenario:
    def test_csv_source_sets_the_model_width(self, tmp_path):
        _csv_pair(tmp_path)
        cfg = _fast_scenario(data=DataSetting(kind="csv", path=str(tmp_path / "train.csv")),
                             model_kind="mlp", d_hidden=4, losses=(MARGIN,))
        (cell,) = run_scenario(cfg).cells
        assert cell.model_spec.d_in == 3
        assert all(r.test_auc == r.train_auc for r in cell.records)

    def test_single_seed_zero_std(self):
        summary = run_scenario(_fast_scenario())
        stats = summary.stats()
        assert set(stats) == {"auc_square", "auc_margin", "ce", "focal"}
        for mean, std in stats.values():
            assert std == 0.0
            assert 0.0 <= mean <= 1.0

    def test_paired_losses_share_dataset_hash(self):
        summary = run_scenario(_fast_scenario(seeds=(0, 1)))
        by_seed = {}
        for cell in summary.cells:
            by_seed.setdefault(cell.seed, set()).add(cell.data_hash)
        for hashes in by_seed.values():
            assert len(hashes) == 1

    def test_separable_toy_all_losses_high_auc(self):
        cfg = _fast_scenario(
            name="sep",
            data=DataSetting(mean_pos=(2.2, 2.2), mean_neg=(-2.2, -2.2),
                             n_pos=150, n_neg=300, test_n_pos=200, test_n_neg=800),
            epochs=25,
            batch_size=32,
        )
        summary = run_scenario(cfg)
        for label, (mean, _) in summary.stats().items():
            assert mean >= 0.99, f"{label} reached only {mean}"

    def test_outputs_written(self, tmp_path):
        cfg = _fast_scenario()
        summary = run_scenario(cfg)
        write_outputs(str(tmp_path), summary)
        files = sorted(p.name for p in tmp_path.iterdir())
        # a metrics CSV and a model per (loss, seed), and the summary; the CLI adds a manifest
        assert files == sorted([f"t_{ls.label}_s0{ext}" for ls in cfg.losses
                                for ext in (".csv", ".model")] + ["t_summary.csv"])
        for cell in summary.cells:  # one model per (loss, seed), beside its metrics
            spec, params = load_model(tmp_path / f"t_{cell.loss_label}_s{cell.seed}.model")
            assert spec == cell.model_spec and np.array_equal(params, cell.params)
        summary_text = (tmp_path / "t_summary.csv").read_text()
        assert summary_text.startswith("scenario,loss,seed,final_test_auc,dataset_hash")

    def test_replay_regenerates_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_outputs(str(out_a), run_scenario(_fast_scenario()))
        write_outputs(str(out_b), run_scenario(_fast_scenario()))
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_diverging_warm_start_is_named(self):
        cfg = _fast_scenario(warm_start=SgdConfig(lr=1e300, epochs=2, batch_size=16),
                             seeds=(3,))
        with pytest.raises(NumericalError, match=r"^warm start, seed 3: epoch 1, iteration"):
            run_scenario(cfg)

    def test_nonfinite_batch_loss_names_the_loss_and_seed(self):
        cfg = parse_config("data.n_pos = 40\ndata.n_neg = 40\n"
                           "data.test_n_pos = 20\ndata.test_n_neg = 20\n"
                           "model.init_scale = 1e160\nloss.kind = auc_square\n"
                           "train.epochs = 2\n").scenario
        with pytest.raises(NumericalError, match=r"^auc_square, seed 0: epoch 1, iteration 0: "
                                                 r"non-finite batch loss"):
            run_scenario(cfg)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            _fast_scenario(losses=(MARGIN, MARGIN))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValidationError, match=r"duplicate seeds in scenario: \[0, 0\]"):
            _fast_scenario(seeds=(0, 0))


_ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pooled(case: str, *args):
    """``case(*args)``, a function of this module, run in a fresh interpreter
    held to one BLAS thread: a single-threaded process, so run_scenario forks
    worker processes there. Warnings are errors there too. Checks that worker
    processes ran, that no child is left, running or unreaped, that one thread
    is listed after the case, and that one line was printed, so no worker ran
    on into the code after the case. Returns the case's (JSON) result. A case
    that hangs fails. The interpreter leads a session of its own, whose process
    group is killed when the call ends, so no forked worker of a failed case is
    left running."""
    code = ("import json, os, resource, sys\n"
            "import test_experiments as t\n"
            f"result = t.{case}(*json.loads(sys.argv[1]))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    left = True\n"
            "except ChildProcessError:    # this process has no child at all\n"
            "    left = False\n"
            "print(json.dumps([result, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,\n"
            "                  left, len(os.listdir('/proc/self/task'))]))\n")
    src = os.path.dirname(os.path.dirname(aucmax.experiments.__file__))
    path = [os.path.dirname(__file__), src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **_ONE_BLAS_THREAD, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with subprocess.Popen([sys.executable, "-W", "error", "-c", code, json.dumps(args)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as case:
        try:
            stdout, stderr = case.communicate(timeout=120)
        finally:
            try:
                os.killpg(case.pid, signal.SIGKILL)
            except ProcessLookupError:     # the group is empty: nothing was left
                pass
    assert case.returncode == 0, stderr
    lines = stdout.splitlines()
    assert len(lines) == 1, stdout
    result, children_maxrss, left, threads = json.loads(lines[0])
    assert children_maxrss > 0, "no worker process ran"
    assert not left and threads == 1
    return result


_SCENARIOS = {"fast_two_seeds": lambda: _fast_scenario(seeds=(0, 1)),
              "noise_robustness": lambda: noise_robustness_scenario(seeds=[0])}


def _write_scenario(name, out):
    write_outputs(out, run_scenario(_SCENARIOS[name]()))


def _error_of(run):
    try:
        run()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return None


def _first_error():
    cfg = _fast_scenario(losses=(SQUARE, MARGIN), seeds=(0, 1), init_scale=1e160)
    return _error_of(lambda: run_scenario(cfg))


def _seed_1_start_fails():
    real = aucmax.experiments.prepare_data

    def seed_1_fails(setting, seed):
        if seed == 1:
            raise ValidationError("no data for seed 1")
        return real(setting, seed)

    aucmax.experiments.prepare_data = seed_1_fails
    try:
        return [_error_of(lambda: run_scenario(_fast_scenario(seeds=(0, 1, 2)))),
                _error_of(lambda: run_scenario(_fast_scenario(seeds=(0, 1, 2),
                                                              init_scale=1e160)))]
    finally:
        aucmax.experiments.prepare_data = real


def _fails_at(job):
    if job in (1, 3):
        raise ValueError(f"job {job}")
    return job * 10


def _lists_in_order():
    """Three job lists cut into this process's shares: the first error is in
    the first share, in the second share when there are two, and nowhere."""
    outcomes = []
    for jobs in ([0, 1, 2, 3, 4], [0, 2, 3, 4], [0, 2]):
        results, error = aucmax.experiments._in_order(_fails_at, [(j,) for j in jobs],
                                                      aucmax.experiments._usable_cpus())
        outcomes.append([results, error and [type(error).__name__, str(error)]])
    return outcomes


def _exits_at(job):
    if job == 3:
        os._exit(3)
    return job * 10


def _dead_worker():
    """Five jobs in two shares, where job 3 ends the forked share's process."""
    results, error = aucmax.experiments._in_order(_exits_at, [(j,) for j in range(5)], 2)
    return [results, type(error).__name__, str(error)]


def _interrupts_at(job):
    if job == 1:
        raise KeyboardInterrupt
    return job * 10


def _unpicklable_at(job):
    return (lambda: job) if job == 1 else job * 10


def _worker_fails(task):
    """Two jobs in two shares, where ``task`` fails the forked share's job. A
    worker that unwinds into this frame returns here too, and so prints."""
    try:
        results, error = aucmax.experiments._in_order(globals()[task], [(0,), (1,)], 2)
    except BaseException as exc:
        return ["raised", type(exc).__name__]
    return [results, type(error).__name__, str(error)]


def _fds_left():
    """The fds left open by ``_in_order`` in two shares that succeed, that fail
    in this process's share, and whose forked share's process dies."""
    left = []
    for task, jobs in ((_fails_at, [0, 2]), (_fails_at, [1, 2]), (_exits_at, [0, 3])):
        before = len(os.listdir("/proc/self/fd"))
        aucmax.experiments._in_order(task, [(j,) for j in jobs], 2)
        left.append(len(os.listdir("/proc/self/fd")) - before)
    return left


def _loads_multiprocessing():
    run_scenario(_fast_scenario(seeds=(0, 1)))
    return "multiprocessing" in sys.modules


def _interrupts_or_sleeps(job):
    if job == 0:
        raise KeyboardInterrupt
    time.sleep(600)     # a forked share left running holds the call this long


def _interrupted():
    """Two jobs in two shares, where the first, in this process, is interrupted."""
    try:
        aucmax.experiments._in_order(_interrupts_or_sleeps, [(0,), (1,)], 2)
    except KeyboardInterrupt:
        return "KeyboardInterrupt"
    return None


def _back_to_back(calls):
    """``calls`` run_scenario calls, alternately of one seed and of two: for
    each, whether it forked and how many threads were listed as it returned."""
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    lifecycle = []
    for call in range(calls):
        before = len(forks)
        run_scenario(_fast_scenario(seeds=(0, 1)[: 1 + call % 2]))
        lifecycle.append([len(forks) > before, len(os.listdir("/proc/self/task"))])
    return lifecycle


def _fork_states(pointwise=True, preload=False):
    """For each fork of a two-seed run_scenario, of its pointwise and AUC
    losses or of the AUC losses alone, after this process imported
    scipy.special itself or not: whether scipy.special was loaded and how
    many threads were listed just before it."""
    if preload:
        import scipy.special  # noqa: F401
    states = []
    os.register_at_fork(before=lambda: states.append(
        ["scipy.special" in sys.modules, len(os.listdir("/proc/self/task"))]))
    losses = _fast_scenario().losses if pointwise else (SQUARE, MARGIN)
    run_scenario(_fast_scenario(seeds=(0, 1), losses=losses))
    return states


def _needs_two_cpus():
    if _CPUS < 2:
        pytest.skip("a forked worker needs two usable CPUs")


class TestParallelRuns:
    """Worker processes change where a scenario's tasks run, not what they give.
    The pooled path runs in a subprocess held to one BLAS thread (``_pooled``);
    the in-process path is forced here."""

    @pytest.fixture(params=["in_process", "pooled"])
    def run(self, request, monkeypatch):
        """Runs a case function of this module on the path the param names."""
        if request.param == "pooled":
            _needs_two_cpus()
            return _pooled
        _set_cpus(monkeypatch, 1)
        return lambda case, *args: globals()[case](*args)

    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_both_paths_write_the_same_bytes(self, tmp_path, monkeypatch, name):
        _needs_two_cpus()
        _pooled("_write_scenario", name, str(tmp_path / "pooled"))
        _set_cpus(monkeypatch, 1)
        _write_scenario(name, str(tmp_path / "in_process"))
        names = sorted(p.name for p in (tmp_path / "in_process").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
        for name in names:
            assert ((tmp_path / "in_process" / name).read_bytes()
                    == (tmp_path / "pooled" / name).read_bytes())

    def test_first_error_in_order_is_raised(self, run):
        kind, message = run("_first_error")
        assert kind == "NumericalError"
        assert message.startswith("auc_square, seed 0: epoch 1, iteration 0: "
                                  "non-finite batch loss")

    def test_a_failed_start_stops_its_seed_after_earlier_seeds_train(self, run):
        failed_start, earlier_loss = run("_seed_1_start_fails")
        assert failed_start == ["ValidationError", "no data for seed 1"]
        # a loss of an earlier seed fails first in the sequential order
        assert earlier_loss[0] == "NumericalError"
        assert earlier_loss[1].startswith("auc_square, seed 0: ")

    def test_in_order_returns_the_results_before_the_first_failure(self, run):
        assert run("_lists_in_order") == [[[0], ["ValueError", "job 1"]],
                                          [[0, 20], ["ValueError", "job 3"]],
                                          [[0, 20], None]]

    def test_a_dead_worker_is_an_error_at_its_place_in_job_order(self):
        assert _pooled("_dead_worker") == [
            [0, 10], "RuntimeError", "the worker process from job 2 on died with exit code 3"]

    @pytest.mark.parametrize("task", ["_interrupts_at", "_unpicklable_at"])
    def test_a_worker_that_cannot_send_its_share_dies_in_its_place(self, task):
        # the worker leaves with exit code 1 and runs none of the caller's code
        assert _pooled("_worker_fails", task) == [
            [0], "RuntimeError", "the worker process from job 1 on died with exit code 1"]

    def test_no_pipe_fd_is_left_open(self):
        assert _pooled("_fds_left") == [0, 0, 0]

    def test_pooled_runs_never_load_multiprocessing(self):
        _needs_two_cpus()
        assert _pooled("_loads_multiprocessing") is False

    def test_an_interrupt_in_this_process_leaves_no_worker(self):
        # _pooled fails on a worker left running, or on one that holds the call
        assert _pooled("_interrupted") == "KeyboardInterrupt"

    def test_every_call_forks_and_returns_single_threaded(self):
        # a thread the last call left listed would keep the next call in process
        _needs_two_cpus()
        assert _pooled("_back_to_back", 20) == [[True, 1]] * 20

    def test_workers_fork_single_threaded_without_scipy_special(self):
        # no pointwise trainer loads scipy.special, so no OpenBLAS thread of
        # its own keeps a scenario in process
        _needs_two_cpus()
        states = _pooled("_fork_states")
        assert states and all(state == [False, 1] for state in states)

    def test_workers_fork_single_threaded_with_scipy_special_loaded(self):
        # a caller that loaded scipy.special, its BLAS held to one thread,
        # still forks single-threaded workers for the pointwise losses
        _needs_two_cpus()
        states = _pooled("_fork_states", True, True)
        assert states and all(state == [True, 1] for state in states)

    def test_workers_fork_without_scipy_special_when_nothing_pointwise_trains(self):
        # no pointwise loss, warm start or easy injection
        _needs_two_cpus()
        states = _pooled("_fork_states", False)
        assert states and all(state == [False, 1] for state in states)

    def test_a_threaded_process_forks_no_pool(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert aucmax.experiments._usable_cpus() == 1
        finally:
            stop.set()
            thread.join()


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        records = [
            RunRecord(1, 10, 0.5, 0.7, 0.68, 0.1, -0.1, 0.0, 0.1),
            RunRecord(2, 20, 0.25, 0.8, 0.79, 0.2, -0.2, 0.05, 0.1),
        ]
        path = tmp_path / "m.csv"
        path.write_text(records_to_csv(records))
        assert read_metrics_csv(path) == records

    def test_blank_lines_are_skipped(self, tmp_path):
        record = RunRecord(1, 10, 0.5, 0.7, 0.68, 0.1, -0.1, 0.0, 0.1)
        path = tmp_path / "m.csv"
        path.write_text(records_to_csv([record, record]).replace("\n", "\n\n"))
        assert read_metrics_csv(path) == [record, record]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValidationError):
            read_metrics_csv(path)


class TestEmitPlot:
    def _records(self, values):
        return [RunRecord(e + 1, e, 0.0, v, v, 0.0, 0.0, 0.1, 0.1)
                for e, v in enumerate(values)]

    def test_constant_series_spans_x_range(self):
        svg = emit_plot({"flat": self._records([0.5] * 8)}, "auc_vs_epoch")
        assert svg.startswith("<svg")
        assert "data flat:" in svg
        # a constant series renders as one polyline with equal y coordinates
        line = [ln for ln in svg.splitlines() if ln.startswith("<polyline")][0]
        ys = {pt.split(",")[1] for pt in line.split('points="')[1].split('"')[0].split()}
        assert len(ys) == 1

    def test_identical_input_identical_bytes(self):
        recs = {"a": self._records([0.1, 0.4, 0.9]), "b": self._records([0.2, 0.3, 0.5])}
        assert emit_plot(recs, "auc_vs_epoch") == emit_plot(recs, "auc_vs_epoch")

    def test_axes_bounds_contain_all_points(self):
        recs = {"a": self._records([0.13, 0.97, 0.55])}
        svg = emit_plot(recs, "auc_vs_epoch")
        axes_line = [ln for ln in svg.splitlines() if ln.startswith("<!-- axes:")][0]
        x0, x1, y0, y1 = map(float, axes_line.split(":")[1].strip(" ->").split())
        for epoch, v in ((1, 0.13), (2, 0.97), (3, 0.55)):
            assert x0 < epoch < x1
            assert y0 < v < y1

    def test_alpha_kind_uses_alpha_field(self):
        recs = {"a": [RunRecord(1, 1, 0.0, 0.5, 0.5, 0.0, 0.0, 0.33, 0.1)]}
        svg = emit_plot(recs, "alpha_vs_epoch")
        assert "data a: 1,0.33" in svg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="^unknown plot kind 'loss_vs_epoch'$"):
            emit_plot({"a": self._records([0.5])}, "loss_vs_epoch")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            emit_plot({}, "auc_vs_epoch")

    @pytest.mark.parametrize("series, message", [
        ([], "nothing to plot"),
        ([("a", [1, 2], [0.5])], "series 'a' is empty or ragged"),
        ([("a", [], [])], "series 'a' is empty or ragged"),
    ], ids=["no_series", "ragged", "empty"])
    def test_line_plot_rejects_bad_series_with_its_message(self, series, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            line_plot(series, xlabel="epoch", ylabel="AUC")


@pytest.mark.parametrize("call, message", [
    (lambda: run_scenario(_fast_scenario(losses=())), "scenario has no losses to run"),
    (lambda: ablate_noise_easy(_fast_scenario(), (0.05,), (0.1,)),
     "noise/easy ablation needs an imbalanced base (set imratio)"),
], ids=["no_losses", "balanced_grid_base"])
def test_bad_input_rejected_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestAblations:
    def test_margin_sweep_labels(self):
        cfg = _fast_scenario(losses=(MARGIN,))
        summary = ablate_margin(cfg, margins=(0.1, 1.0))
        assert set(summary.stats()) == {"auc_margin_m0.1", "auc_margin_m1"}

    def test_alpha_constraint_pairs(self):
        cfg = _fast_scenario(losses=(replace(MARGIN, m=0.1),))
        summary = ablate_alpha_constraint(cfg)
        assert set(summary.stats()) == {"auc_margin_proj", "auc_margin_noproj"}
        projected = [c for c in summary.cells if c.loss_label == "auc_margin_proj"]
        for cell in projected:
            assert min(r.alpha for r in cell.records) >= 0.0

    @pytest.mark.parametrize("ablate, losses, skipped", [
        (lambda cfg: ablate_margin(cfg, (0.1, 1.0)), (SQUARE, MARGIN), "auc_square"),
        (ablate_alpha_constraint, (SQUARE, MARGIN), "auc_square"),
        (ablate_alpha_constraint, (MARGIN, replace(MARGIN, label="m2")), "m2"),
        (ablate_bsn, (MARGIN, LossSetting("ce", kind="cross_entropy")), "ce"),
    ], ids=["margin", "alpha_constraint", "alpha_constraint_second_margin", "bsn"])
    def test_listed_loss_the_ablation_would_not_train_is_rejected(
            self, monkeypatch, ablate, losses, skipped):
        drawn = []
        monkeypatch.setattr(aucmax.experiments, "prepare_data", lambda *a, **k: drawn.append(a))
        cfg = _fast_scenario(losses=losses)
        with pytest.raises(ValidationError, match=f"would not train {skipped}:"):
            ablate(cfg)
        assert drawn == []

    def test_alpha_constraint_needs_margin_loss(self):
        cfg = _fast_scenario(losses=(SQUARE,))
        with pytest.raises(ValidationError):
            ablate_alpha_constraint(cfg)

    def test_bsn_pairs(self):
        cfg = _fast_scenario(losses=(SQUARE, MARGIN))
        summary = ablate_bsn(cfg)
        assert set(summary.stats()) == {
            "auc_square_bsn", "auc_square_raw", "auc_margin_bsn", "auc_margin_raw",
        }

    def test_noise_easy_grid_degenerate_cell(self):
        base = _fast_scenario(
            data=DataSetting(n_pos=60, n_neg=60, imratio=0.2,
                             test_n_pos=30, test_n_neg=120),
            losses=(SQUARE, MARGIN),
        )
        grid = ablate_noise_easy(base, noise_rates=(0.0, 0.1), easy_fracs=(0.0,))
        assert set(grid) == {(0.0, 0.0), (0.1, 0.0)}
        # the zero cell matches a plain scenario run on the same base
        plain = run_scenario(
            ScenarioConfig(name="t_n0_e0", data=base.data, model_kind=base.model_kind,
                           d_hidden=base.d_hidden, elu_alpha=base.elu_alpha,
                           init_scale=base.init_scale, losses=base.losses,
                           epochs=base.epochs, batch_size=base.batch_size,
                           seeds=base.seeds))
        assert grid[(0.0, 0.0)].stats() == plain.stats()

    def test_noise_easy_grid_checks_every_cell_before_training(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(aucmax.experiments, "prepare_data", lambda *a, **k: drawn.append(a))
        base = _fast_scenario(data=DataSetting(n_pos=60, n_neg=60, imratio=0.2))
        with pytest.raises(ValidationError, match="noise_rate must be in"):
            ablate_noise_easy(base, noise_rates=(0.01, 1.5), easy_fracs=(0.0,))
        assert drawn == []

    def test_noise_easy_grid_rejects_a_csv_source(self, tmp_path):
        _csv_pair(tmp_path)
        base = _fast_scenario(data=DataSetting(kind="csv", path=str(tmp_path / "train.csv"),
                                               imratio=0.1))
        with pytest.raises(ValidationError, match="toy draw"):
            ablate_noise_easy(base, noise_rates=(0.05,), easy_fracs=(0.1,))

    def test_noise_easy_grid_injects_expected_counts(self):
        base = _fast_scenario(
            data=DataSetting(n_pos=100, n_neg=100, imratio=0.05,
                             test_n_pos=30, test_n_neg=120),
            losses=(MARGIN,),
        )
        rate = 0.1
        train, _ = prepare_data(
            DataSetting(n_pos=100, n_neg=100, imratio=0.05, noise_rate=rate,
                        test_n_pos=30, test_n_neg=120), seed=0)
        assert int((train.y_true == -1).sum()) == int(rate * 100)


@pytest.fixture(scope="module")
def figure_svg():
    cfg = ScenarioConfig(
        name="fig",
        data=DataSetting(mean_pos=(2.0, 2.0), mean_neg=(-2.0, -2.0),
                         n_pos=60, n_neg=60, imratio=0.2, easy_frac=0.5, noise_rate=0.2,
                         test_n_pos=20, test_n_neg=80),
        model_kind="mlp", d_hidden=4,
        losses=(SQUARE, MARGIN),
        epochs=6, batch_size=16, seeds=(0,),
        warm_start=SgdConfig(lr=0.05, epochs=20, batch_size=16),
    )
    return cfg, toy_figure(cfg)


class TestToyFigure:
    def test_has_six_panels(self, figure_svg):
        _, text = figure_svg
        assert text.count("panel ") == 6
        assert "pretrained (CE)" in text
        assert "auc_margin + noisy" in text

    def test_deterministic_bytes(self, figure_svg):
        cfg, text = figure_svg
        assert toy_figure(cfg) == text

    def test_linear_model_rejected(self):
        cfg = _fast_scenario(model_kind="linear",
                             data=DataSetting(n_pos=30, n_neg=30, imratio=0.2,
                                              test_n_pos=20, test_n_neg=80))
        with pytest.raises(ValidationError):
            toy_figure(cfg)

    @pytest.mark.parametrize("field", ["easy_frac", "noise_rate"])
    def test_zero_injection_rejected(self, figure_svg, field):
        cfg, _ = figure_svg
        cfg = replace(cfg, data=replace(cfg.data, **{field: 0.0}))
        with pytest.raises(ValidationError, match=field):
            toy_figure(cfg)

    def test_scenario_without_an_auc_loss_rejected(self, figure_svg):
        cfg, _ = figure_svg
        cfg = replace(cfg, losses=(LossSetting("ce", kind="cross_entropy"),))
        with pytest.raises(ValidationError, match="AUC loss"):
            toy_figure(cfg)

    @pytest.mark.parametrize("kw, message", [
        (dict(losses=(MARGIN, LossSetting("ce", kind="cross_entropy"))), "would not train ce:"),
        (dict(warm_start=None), "train.warm_start_epochs"),
        (dict(seeds=(0, 1, 2)), r"one seed, got \[0, 1, 2\]"),
    ], ids=["non_auc_loss", "no_pretrain", "three_seeds"])
    def test_figure_that_would_not_draw_its_config_rejected(self, figure_svg, monkeypatch,
                                                           kw, message):
        drawn = []
        monkeypatch.setattr(aucmax.experiments, "prepare_data", lambda *a, **k: drawn.append(a))
        cfg, _ = figure_svg
        with pytest.raises(ValidationError, match=message):
            toy_figure(replace(cfg, **kw))
        assert drawn == []

    def test_pretrain_is_the_warm_start(self, figure_svg):
        cfg, text = figure_svg
        longer = replace(cfg, warm_start=replace(cfg.warm_start, epochs=21))
        assert toy_figure(longer) != text

    @pytest.mark.parametrize("kw, stage", [
        (dict(warm_start=SgdConfig(lr=1e300, epochs=2, batch_size=16)), "pretrain"),
        (dict(losses=(replace(SQUARE, pesg=PesgConfig(eta0=1e300, project_alpha=False)),)),
         r"auc_square \+ easy"),
    ], ids=["pretrain", "retrain"])
    def test_numerical_abort_names_the_stage_and_seed(self, figure_svg, kw, stage):
        cfg, _ = figure_svg
        with pytest.raises(NumericalError, match=rf"^{stage}, seed 0: epoch 1, iteration"):
            toy_figure(replace(cfg, **kw))


class TestBoundaryContour:
    def test_vertices_sit_on_the_level_set(self):
        from aucmax.plots import zero_contour_segments

        def score_fn(pts):
            # circle of radius 1.5
            return (pts**2).sum(axis=1) - 1.5**2

        segs = zero_contour_segments(score_fn, (-3, 3), (-3, 3), resolution=24, tol=1e-3)
        assert len(segs) > 10
        for p1, p2 in segs:
            assert abs(score_fn(np.array([p1]))[0]) < 1e-3
            assert abs(score_fn(np.array([p2]))[0]) < 1e-3


def test_every_packaged_config_parses():
    configs = resources.files("aucmax") / "configs"
    names = sorted(p.name for p in configs.iterdir() if p.name.endswith(".cfg"))
    assert names == ["alpha_constraint.cfg", "bsn.cfg", "noise_robustness.cfg",
                     "toy_figure.cfg"]
    for name in names:
        assert load_config(configs / name).scenario.name == name[:-len(".cfg")]


@pytest.mark.parametrize("make", [noise_robustness_scenario, alpha_constraint_scenario])
def test_canonical_scenarios_are_the_packaged_files(make):
    name = make.__name__[:-len("_scenario")]
    packaged = load_config(resources.files("aucmax") / "configs" / f"{name}.cfg").scenario
    assert packaged.seeds == tuple(range(10))
    assert make() == packaged
    for s in (0, 7):
        assert make(seeds=[s]) == replace(packaged, seeds=(s,))


# sha256 of each metrics CSV of the canonical scenarios at seed 0 (computed on
# x86-64 with numpy 2.4 and OpenBLAS). A change that must keep every output
# bit leaves them unchanged; only a change meant to alter the numbers updates them.
GOLDEN_METRICS_SHA256 = {
    "noise_robustness_auc_square_s0.csv":
        "0918604cc8cf35b7e50e6e5abb2da4167d848532c565a62417ae43c8d5074f98",
    "noise_robustness_auc_margin_s0.csv":
        "0987bd84fcf781de15f48c7fdc577a5c71d4c3f318af975b93e6e025b6f7b0d5",
    "alpha_constraint_auc_margin_s0.csv":
        "4069b3517fa7e3e6a5d1a2af4b11b7b9bc8621bf680bf54be9b2c93eda097fdf",
}


def test_canonical_metrics_csvs_match_golden_hashes(tmp_path):
    for make in (noise_robustness_scenario, alpha_constraint_scenario):
        write_outputs(str(tmp_path), run_scenario(make(seeds=[0])))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_METRICS_SHA256}
    assert got == GOLDEN_METRICS_SHA256


# The same for _fast_scenario at seed 0: square and margin PESG without BSN,
# and cross-entropy and focal SGD, which the canonical scenarios do not train.
GOLDEN_FAST_METRICS_SHA256 = {
    "t_auc_square_s0.csv":
        "b08c9add013bdb94b3f8961daeabe021640369146e445db86a4625e5b8722af2",
    "t_auc_margin_s0.csv":
        "b76a53dc1c173bb5f655ba47c3033a7b3de987460f48fe5713f6e74774c08a5f",
    "t_ce_s0.csv":
        "68b7cf2b73d32b3f9071c24790f2734464dca7b63b360bef827ef9e904334feb",
    "t_focal_s0.csv":
        "a230cc3c91bc6eae3f8500a2841fc95ea5b9cf7847a742755d2556784dd0cd81",
}


# The packaged toy figure at seed 0, with the same provenance.
GOLDEN_FIGURE_SHA256 = "e53dec770d804108c1897993683c5e2149002cd3f5e379ba9930d04afc110849"


def test_packaged_figure_matches_golden_hash():
    scenario = load_config(resources.files("aucmax") / "configs" / "toy_figure.cfg").scenario
    svg = toy_figure(scenario)
    assert hashlib.sha256(svg.encode("ascii")).hexdigest() == GOLDEN_FIGURE_SHA256


def test_fast_scenario_metrics_csvs_match_golden_hashes(tmp_path):
    write_outputs(str(tmp_path), run_scenario(_fast_scenario()))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_FAST_METRICS_SHA256}
    assert got == GOLDEN_FAST_METRICS_SHA256


# The same for the ablations at seed 0: criterion 09's pair (the projected run
# is the canonical margin run under another name) and bsn.cfg's four runs.
GOLDEN_ABLATION_METRICS_SHA256 = {
    "alpha_constraint_alpha_auc_margin_proj_s0.csv":
        "4069b3517fa7e3e6a5d1a2af4b11b7b9bc8621bf680bf54be9b2c93eda097fdf",
    "alpha_constraint_alpha_auc_margin_noproj_s0.csv":
        "cad3fbcd7ed634cf0aea712268d1470f843b42714d7671779f228e1909fc975f",
    "bsn_bsn_auc_square_bsn_s0.csv":
        "f83063b394197f52dc55ff6a63d31c9095c0eadad7a37ba8a5cca4a878928f16",
    "bsn_bsn_auc_square_raw_s0.csv":
        "29ca242d3ae2939dbbd80ecb40bb426eae205181fab330924bd35d25d778358d",
    "bsn_bsn_auc_margin_bsn_s0.csv":
        "4c8bdfb23ec6d819b43d12f1dd2b19ce47a589fad6097c6a65da73d34b504f69",
    "bsn_bsn_auc_margin_raw_s0.csv":
        "bb9a6eea39cfdb3726d20a9efa971160c00574122f0d6ad64abf9b8a5f53981d",
}


def test_ablation_metrics_csvs_match_golden_hashes(tmp_path):
    bsn = load_config(resources.files("aucmax") / "configs" / "bsn.cfg").scenario
    write_outputs(str(tmp_path), ablate_alpha_constraint(alpha_constraint_scenario(seeds=[0])))
    write_outputs(str(tmp_path), ablate_bsn(replace(bsn, seeds=(0,))))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_ABLATION_METRICS_SHA256}
    assert got == GOLDEN_ABLATION_METRICS_SHA256
