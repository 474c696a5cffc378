"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _span(sid, parent, name, t0, t1, attr=None):
    return Span(sid, parent, name, t0, t1, 0, attr)


class TestSelfTime:
    def test_nested_overlapping_and_clipped_children(self):
        spans = [
            _span(0, -1, "root", 0, 100),
            _span(1, 0, "a", 10, 30),
            _span(2, 1, "a.child", 12, 15),   # covered by a, not by root directly
            _span(3, 0, "b", 20, 50),         # overlaps a: the union counts once
            _span(4, 0, "c", 90, 120),        # runs past root's end: clipped
        ]
        selfs = tracing.self_times(spans)
        assert selfs == {0: 100 - (50 - 10) - (100 - 90), 1: 20 - 3, 2: 3, 3: 30, 4: 30}

    def test_leaf_and_disjoint_children(self):
        spans = [_span(0, -1, "p", 0, 10), _span(1, 0, "x", 1, 2), _span(2, 0, "y", 5, 9)]
        assert tracing.self_times(spans)[0] == 10 - 1 - 4

    def test_cell_layer_metrics(self):
        spans = [
            _span(0, -1, "optimizer.pesg_train", 0, 1000),
            _span(1, 0, "models.forward_batch", 0, 100, attr=32),
            _span(2, 0, "losses.minmax_grads", 100, 200, attr=True),
            _span(3, 2, "losses.minmax_value", 150, 180),
            _span(4, 0, "losses.minmax_grads", 200, 300, attr=False),
            _span(5, 0, "models.forward_batch", 300, 500, attr=600),
            _span(6, 0, "metrics.auc_score", 500, 600, attr=600),
            _span(7, -1, "optimizer.sgd_train", 1000, 1100),
            _span(8, 7, "models.backward_vjp", 1000, 1050),
        ]
        m = tracing.cell_layer_metrics(spans, cell_ns=2000)
        assert m["models.forward_calls"] == 2
        assert m["models.forward_rows"] == 632
        assert m["models.forward_s"] == pytest.approx(300e-9)
        assert m["losses.minmax_s"] == pytest.approx(200e-9)   # grads self + value
        assert m["losses.minmax_calls"] == 2
        assert m["optimizer.two_class_batch_ratio"] == (1, 2)
        assert m["optimizer.sgd_steps"] == 1
        assert m["optimizer.loop_self_s"] == pytest.approx((1000 - 600 + 50) * 1e-9)
        # only the 600-row forward is a whole-dataset evaluation
        assert m["metrics.eval_share"] == pytest.approx((200 + 100) / 2000)
        assert set(m) == set(tracing.LAYER_METRICS)


class TestPercentile:
    def test_nearest_rank_and_cells_beyond(self):
        assert run.percentile_value(list(range(30, 0, -1)), 60) == (18, 12)
        assert run.percentile_value(list(range(1, 41)), 75) == (30, 10)

    def test_fixed_percentile_whatever_the_sample_count(self):
        # fewer cells (a slower change) are read at the same percentile
        assert run.percentile_value([float(x) for x in range(1, 21)], 90) == (18.0, 2)
        assert run.percentile_value([3.0, 1.0, 2.0], 90) == (3.0, 0)

    def test_empty(self):
        with pytest.raises(ValueError):
            run.percentile_value([], 90)


class _FakeWorkload:
    """Cells that take no time; cell ``fail_at`` raises."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.calls = 0

    def execute(self, inp, span):
        from workloads import CellOutput

        self.calls += 1
        if self.calls == self.fail_at:
            raise TypeError("signature changed")
        rows = [(1, 1, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.1)]
        return 1e-4, CellOutput({"m": rows}, steps=1, blob=b"x")

    def expected(self, inp):
        return {"m": [1]}, set()


class TestClosedLoop:
    def test_stops_at_the_first_failed_cell(self):
        from workloads import Runner

        runner = Runner(_FakeWorkload(fail_at=3), [0, 1], None)
        cells, _ = run.closed_loop(runner, 60.0)
        assert len(cells) == 3
        assert [bool(c.problems) for c in cells] == [False, False, True]
        assert "TypeError: signature changed" in cells[-1].problems

    def test_setup_probes_are_spread_over_the_loop(self):
        import time

        from workloads import Runner

        runner = Runner(_FakeWorkload(), [0], None)
        stamps = []

        def probe():
            stamps.append(time.perf_counter())
            time.sleep(0.01)
            return 0.5

        t0 = time.perf_counter()
        cells, setup = run.closed_loop(runner, 0.35, probe=probe)
        assert setup == [0.5] * run.SETUP_REPEATS
        assert len(cells) > run.SETUP_REPEATS
        # probe i runs once the cells have had i/SETUP_REPEATS of the loop
        assert stamps[0] - t0 < 0.05
        assert stamps[-1] - t0 > 0.25


class TestTracerInstall:
    def test_wrappers_removed_after_traced_run(self):
        import numpy as np

        from aucmax import models, optimizer

        original = models.forward_batch
        spec = models.ModelSpec("linear", 2)
        X = np.ones((3, 2))
        tracer = tracing.Tracer()
        with tracer.installed():
            assert optimizer.forward_batch is not original
            assert "aucmax.optimizer.forward_batch" in tracing.traced_sites()
            tracer.cell = 7
            optimizer.forward_batch(spec, np.zeros(2), X)
        assert [(s.name, s.cell, s.attr) for s in tracer.spans] == [("models.forward_batch", 7, 3)]
        assert tracing.traced_sites() == []
        assert optimizer.forward_batch is original and models.forward_batch is original

        # an untraced run in the same process records nothing
        n = len(tracer.spans)
        optimizer.forward_batch(spec, np.zeros(2), X)
        assert len(tracer.spans) == n

    def test_wrappers_removed_when_the_run_raises(self):
        tracer = tracing.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.installed():
                raise RuntimeError("cell failed")
        assert tracing.traced_sites() == []


class TestWorkloadInputs:
    @pytest.fixture(scope="class")
    def workloads(self, tmp_path_factory):
        from workloads import make_workloads

        return make_workloads(str(tmp_path_factory.mktemp("work")))

    @pytest.mark.parametrize("name", run.WORKLOADS)
    def test_same_seed_same_inputs(self, workloads, name):
        wl = workloads[name]
        assert wl.build(3) == wl.build(3)
        assert wl.build(3) != wl.build(4)

    def test_cell_seeds_are_a_pure_function_of_the_workload_seed(self):
        from workloads import POOL_SIZE, cell_seeds

        assert cell_seeds(5) == cell_seeds(5)
        assert len(set(cell_seeds(5))) == POOL_SIZE


class TestChecks:
    def _out(self):
        from workloads import CellOutput

        rows = [(1, 3, 0.5, 0.9, 0.8, 0.1, -0.1, 0.2, 0.1),
                (2, 6, 0.4, 0.95, 0.85, 0.1, -0.1, 0.1, 0.1)]
        return CellOutput({"m": rows})

    def test_clean_cell_passes(self):
        from workloads import check_cell

        out = self._out()
        assert check_cell(out, {"m": [1, 2]}, {"m"}, {"runs": out.runs, "extra": {}}) == []

    @pytest.mark.parametrize("field, value, problem", [
        (0, 3, "one record per epoch"),
        (3, 1.5, "AUC outside"),
        (7, -1e-9, "projected alpha"),
        (2, float("nan"), "non-finite"),
    ])
    def test_bad_record_fails(self, field, value, problem):
        from workloads import check_cell

        out = self._out()
        row = list(out.runs["m"][1])
        row[field] = value
        out.runs["m"][1] = tuple(row)
        problems = check_cell(out, {"m": [1, 2]}, {"m"})
        assert any(problem in p for p in problems)

    def test_reference_tolerance(self):
        from workloads import REFERENCE_ATOL, check_cell

        out = self._out()
        ref = {"runs": {"m": [list(r) for r in out.runs["m"]]}, "extra": {}}
        ref["runs"]["m"][0][2] += REFERENCE_ATOL / 2
        assert check_cell(out, {"m": [1, 2]}, set(), ref) == []
        ref["runs"]["m"][0][2] += REFERENCE_ATOL
        assert check_cell(out, {"m": [1, 2]}, set(), ref) != []


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit_of(name) for name in run.PER_LAYER_METRICS}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
