#!/usr/bin/env python3
"""aucmax benchmark: closed-loop cells of two workloads, timed from outside.

    python3 bench/run.py --workload all                # every end-to-end metric
    python3 bench/run.py --workload all --trace 1      # every per-layer metric
    python3 bench/run.py --workload cli_pipeline --seed 3 --seconds 20 --trace 0

Run from the repository root. One workload runs in one process, with one
client: the next cell starts when the previous one ends. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

WORKLOADS = ("noise_robustness", "cli_pipeline")
DEFAULT_SEED = 0          # the workload seed whose cells have stored reference records
SETUP_REPEATS = 7         # fresh interpreters timed per run for setup_s
PROBE_TIMEOUT_S = 60

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cell_s_p90": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_METRICS = tracing.LAYER_METRICS + ["trace.overhead_s"]


# --- statistics ------------------------------------------------------------------


def percentile_value(samples, percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of the samples, and how many samples lie
    above that rank."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(xs)))    # 1-based
    return xs[rank - 1], len(xs) - rank


# --- process set-up --------------------------------------------------------------


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "aucmax", "__init__.py")):
        raise SystemExit(f"error: no aucmax sources under {SRC}; run from a full checkout")


def import_aucmax():
    """Import aucmax from this checkout's src/ and nowhere else."""
    require_sources()
    sys.path.insert(0, SRC)
    import aucmax

    if os.path.dirname(os.path.dirname(os.path.abspath(aucmax.__file__))) != SRC:
        raise SystemExit(f"error: imported aucmax from {aucmax.__file__}, not {SRC}")
    return aucmax


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.rstrip().endswith(".so")})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(workload_seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload_seed": workload_seed,
    }


# --- the closed loop ----------------------------------------------------------


def load_reference(name: str, workload_seed: int, pool_size: int):
    """Stored records of the default seed's pool, or None for other seeds."""
    if workload_seed != DEFAULT_SEED:
        return None
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, encoding="ascii") as fh:
        ref = json.load(fh)
    if ref["workload_seed"] != workload_seed or len(ref["cells"]) != pool_size:
        raise ValueError(f"{path} does not hold the pool of workload seed {workload_seed}")
    return ref["cells"]


def setup_probe(workload: str, workload_seed: int) -> float:
    """Wall time of a fresh interpreter that imports aucmax and builds the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(workload_seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=PROBE_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return wall


def closed_loop(runner, seconds: float, tracer=None, probe=None):
    """Cells back to back for ``seconds``; returns (cells, set-up times).

    With a tracer, every second cell runs traced: alternating cell by cell
    lets drift in machine speed fall on traced and untraced cells alike. With
    a probe, SETUP_REPEATS set-up probes run between cells, spread evenly over
    the loop so that a slow phase of the machine hits only some of them; their
    time is not counted in ``seconds``. The loop stops at the first failed cell.
    """
    cells, setup = [], []
    min_cells = 1 if tracer is None else 2
    probe_s = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - probe_s
        if probe is not None and len(setup) < SETUP_REPEATS \
                and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            setup.append(probe())
            probe_s += time.perf_counter() - t0
            continue
        if len(cells) >= min_cells and elapsed >= seconds:
            break
        k = len(cells)
        if tracer is not None and k % 2:
            with tracer.installed():
                cells.append(runner.run_cell(k, tracer))
        else:
            cells.append(runner.run_cell(k))
        if cells[-1].problems:
            break
    return cells, setup


# --- one workload ----------------------------------------------------------------


def run_workload(args) -> int:
    pin_blas_threads()
    import_aucmax()
    from workloads import POOL_SIZE, Runner, make_workloads

    workload = make_workloads(os.path.join(OUT_DIR, "work"))[args.workload]
    pool = workload.build(args.seed)
    if args.setup_probe:
        return 0

    env = environment(args.seed)
    print(f"environment: {json.dumps(env)}")
    runner = Runner(workload, pool, load_reference(args.workload, args.seed, POOL_SIZE))
    warmup = runner.run_cell(0)               # untimed; its outputs are repeated by cell 0
    tracer = tracing.Tracer() if args.trace else None
    timed, setup = [], []
    if not warmup.problems:
        probe = None if args.trace else (lambda: setup_probe(args.workload, args.seed))
        timed, setup = closed_loop(runner, args.seconds, tracer, probe)

    cells = [warmup] + timed
    failed = sum(1 for c in cells if c.problems)
    problems = {p for c in cells for p in c.problems}
    if tracing.traced_sites():
        problems.add(f"tracing wrappers left installed: {tracing.traced_sites()}")
    detail = {"workload": args.workload, "attempted": len(cells), "failed": failed,
              "error_rate": failed / len(cells), "problems": sorted(problems)}
    metrics, units = {}, {}
    if problems:
        pass                                  # a failed run reports no timings
    elif args.trace:
        untraced, traced = timed[0::2], timed[1::2]
        tracer.write(os.path.join(OUT_DIR, f"trace_{args.workload}.tsv.gz"))
        metrics = _layer_metrics(tracer, traced)
        metrics["trace.overhead_s"] = statistics.median(c.wall_s for c in traced) \
            - statistics.median(c.wall_s for c in untraced)
        units = {name: tracing.unit_of(name) for name in metrics}
        detail.update(untraced_cells=len(untraced), traced_cells=len(traced),
                      spans=len(tracer.spans))
    else:
        walls = [c.wall_s for c in timed]
        # A fixed percentile, so that a change is compared with its parent at
        # the same one whatever its speed. The median is only printed: on a
        # shared 2-vCPU host, cell speed changed by up to 2x in phases of
        # seconds to a minute, and the median jumped with the share of a run
        # that fell in a fast phase, while the p90 read the slower level that
        # covered most of a run (bench/BASELINE.md).
        p90, beyond_p90 = percentile_value(walls, 90)
        metrics = {
            "setup_s": statistics.median(setup),
            "cell_s_p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        # printed, not bounded: as noisy as the median (bench/BASELINE.md)
        detail.update(cells=len(walls), cells_beyond_p90=beyond_p90,
                      cell_s_p50=statistics.median(walls),
                      steps_per_s=sum(c.steps for c in timed) / sum(walls),
                      setup_runs_s=setup)

    for name, value in metrics.items():
        print(f"{args.workload:<18} {name:<34} {value:>14.6g} {units[name]}")
    print(f"{args.workload:<18} {'error_rate':<34} {detail['error_rate']:>14.6g} ratio")
    print(f"detail: {json.dumps(detail)}")
    result = {
        "correct": not problems,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, traced: list) -> dict:
    by_cell = {}
    for s in tracer.spans:
        if s.cell >= 0:
            by_cell.setdefault(s.cell, []).append(s)
    per_cell = [tracing.cell_layer_metrics(by_cell.get(c.cell_id, []), int(c.wall_s * 1e9))
                for c in traced]
    out = {}
    for name in tracing.LAYER_METRICS:
        if name == "optimizer.two_class_batch_ratio":
            both = sum(m[name][0] for m in per_cell)
            total = sum(m[name][1] for m in per_cell)
            out[name] = both / total if total else 0.0
        else:
            out[name] = statistics.median(m[name] for m in per_cell)
    return out


# --- every workload ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=args.seconds + 150, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith(("environment:", "detail:")):
                print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    ap.add_argument("--seconds", type=float, default=50.0, help="timed closed-loop length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    require_sources()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
