"""Command-line interface.

Subcommands: gen-data, train, eval, ablate, verify, plot. Runs are driven by
a flat ``key = value`` config file (see aucmax.config.KEYS); ``--seed``
overrides ``run.seeds`` with a single seed. ``train`` trains, and ``ablate``
varies, exactly the losses ``loss.kind`` lists; an ablation that would skip a
listed loss is rejected before it trains. ``ablate.kind = toy_figure`` draws
the decision-boundary figure as ``<run.name>.svg``. Both write
``<run.name>_manifest.cfg``, the config that ran, which ``--config`` reruns.
Each command computes every summary, figure and curve first and writes its
files only then, so one that fails writes nothing.
Exit status: 0 on success, 1 on validation failure, 2 on numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import Config, format_config, load_config, parse_config
from .data import _check_both_classes, dataset_hash, load_csv, save_csv
from .errors import NumericalError, ValidationError
from .experiments import (
    ablate_alpha_constraint,
    ablate_bsn,
    ablate_margin,
    ablate_noise_easy,
    emit_plot,
    prepare_data,
    read_metrics_csv,
    run_scenario,
    toy_figure,
    write_outputs,
)
from .metrics import accuracy, auc_score, auc_sensitivity_demo
from .models import _check_width, forward_batch, load_model


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # numerical aborts here, so route usage problems to status 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aucmax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seeds")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    common(p)

    p = sub.add_parser("train", help="train one model per configured loss and seed")
    common(p)

    p = sub.add_parser("eval", help="score a saved model on a dataset CSV")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("ablate", help="run one of the ablation grids")
    common(p)

    p = sub.add_parser("verify", help="run the oracle suite and print pass/fail")
    p.add_argument("--demo", action="store_true",
                   help="also print the AUC-vs-accuracy sensitivity table")

    p = sub.add_parser("plot", help="render metrics CSVs to one SVG")
    common(p)
    p.add_argument("metrics", nargs="+", help="metrics CSV files")
    return parser


def _config(args) -> Config:
    """The config file (or the defaults), with ``--seed`` applied."""
    config = load_config(args.config) if args.config else parse_config("")
    seeds = config.scenario.seeds if args.seed is None else (args.seed,)
    return replace(config, scenario=replace(config.scenario, seeds=seeds))


def _blas() -> str:
    """Name and version of the BLAS library numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.26 reports no build info
        return "unknown"
    return f"{blas['name']} {blas['version']}"


def _write_text(out: str, name: str, text: str) -> str:
    """Write ``text`` to file ``name`` in directory ``out``; returns its path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_run(out: str, command: str, config: Config, summaries, svgs) -> None:
    """Every file of a computed run: each summary's cell files, each
    ``name -> SVG text``, and ``<run.name>_manifest.cfg``, the config that
    ran, seeds included and no output path, so runs into different
    directories write the same bytes."""
    manifest = (f"# aucmax {command}; aucmax {__version__}, numpy {np.__version__}, "
                f"BLAS {_blas()}\n" + format_config(config))
    for summary in summaries:
        write_outputs(out, summary)
    for name, svg in svgs.items():
        _write_text(out, name, svg)
    _write_text(out, f"{config.scenario.name}_manifest.cfg", manifest)


def _cmd_gen_data(args) -> int:
    scenario = _config(args).scenario
    seed = scenario.seeds[0]
    data, _ = prepare_data(scenario.data, seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{scenario.name}_s{seed}.csv")
    save_csv(data, path)
    print(f"wrote {path}  ({len(data)} samples, p={data.p:.4f}, hash={dataset_hash(data)})")
    return 0


def _cmd_train(args) -> int:
    config = _config(args)
    summary = run_scenario(config.scenario)
    _write_run(args.out, "train", config, [summary], {})
    print(summary.as_text())
    print(f"wrote metrics, models, summary and manifest to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model_spec, params = load_model(args.model)
    data = load_csv(args.data)
    _check_both_classes(data.n_pos, data.n_neg, args.data)
    _check_width(model_spec, data.dim, args.data)
    scores = forward_batch(model_spec, params, data.X)
    res = auc_score(scores, data.y)
    acc = accuracy(scores, data.y, args.threshold)
    print(f"samples={len(data)} pos={res.n_pos} neg={res.n_neg}")
    print(f"auc={res.auc:.6f} (tie_mass={res.tie_mass:.3g}) "
          f"accuracy@{args.threshold:g}={acc:.6f}")
    return 0


def _cmd_ablate(args) -> int:
    config = _config(args)
    scenario = config.scenario
    kind = config.ablate_kind
    svgs = {}
    try:
        if kind in ("alpha_constraint", "noise_easy") and scenario.epochs == 0:
            raise ValidationError(f"ablate.kind = {kind} draws curves over the epochs: "
                                  "train.epochs must be at least 1")
        if kind == "margin":
            summaries = [ablate_margin(scenario, config.ablate_margins)]
        elif kind == "alpha_constraint":
            summaries = [ablate_alpha_constraint(scenario)]
            svgs = {f"{summaries[0].name}_{p}.svg": emit_plot(summaries[0].first_records(), p)
                    for p in ("alpha_vs_epoch", "auc_vs_epoch")}
        elif kind == "bsn":
            summaries = [ablate_bsn(scenario)]
        elif kind == "noise_easy":
            grid = ablate_noise_easy(scenario, config.ablate_noise_rates,
                                     config.ablate_easy_fracs)
            summaries = [grid[key] for key in sorted(grid)]
            svgs = {f"{s.name}_curves.svg": emit_plot(s.first_records(), "auc_vs_epoch")
                    for s in summaries}
        else:   # toy_figure, the last kind parse_config allows
            summaries = []
            svgs = {f"{scenario.name}.svg": toy_figure(scenario)}
    except ValidationError as exc:   # every ablation rule is set by the config file
        raise ValidationError(f"{args.config}: {exc}") from exc
    _write_run(args.out, "ablate", config, summaries, svgs)
    if kind == "noise_easy":
        for (rate, frac), summary in zip(sorted(grid), summaries):
            print(f"-- noise={rate:g} easy={frac:g}")
            print(summary.as_text())
    elif summaries:
        print(summaries[0].as_text())
    else:
        print(f"wrote {os.path.join(args.out, f'{scenario.name}.svg')}")
    return 0


def _cmd_verify(args) -> int:
    # imported here, so that no other command compiles and loads the oracle suite
    from .verify import format_check_table, run_oracle_suite

    results = run_oracle_suite()
    print(format_check_table(results))
    if args.demo:
        report = auc_sensitivity_demo()
        print()
        print(report.as_text())
        print()
        print(report.as_csv(), end="")
    return 0 if all(r.passed for r in results) else 1


def _cmd_plot(args) -> int:
    config = _config(args)
    paths = {}
    for path in args.metrics:
        label = os.path.splitext(os.path.basename(path))[0]
        if label in paths:
            raise ValidationError(f"{paths[label]} and {path} would draw one curve, "
                                  f"both labelled {label!r}: rename one")
        paths[label] = path
    records = {label: read_metrics_csv(path) for label, path in paths.items()}
    svg = emit_plot(records, config.plot_kind)
    print(f"wrote {_write_text(args.out, f'{config.scenario.name}_{config.plot_kind}.svg', svg)}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
