"""Command-line interface.

Subcommands: gen-data, train, eval, ablate, verify, plot. Runs are driven by
a flat ``key = value`` config file (see aucmax.config.KEYS); ``--seed``
overrides ``run.seeds`` with a single seed. Exit status: 0 on success, 1 on
validation failure, 2 on numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments
from .config import KEYS, RunConfig, load_config
from .data import dataset_hash, inject_noise, load_csv, make_imbalanced, save_csv
from .errors import NumericalError, ValidationError
from .experiments import (
    DataSetting,
    LossSetting,
    ScenarioConfig,
    ablate_alpha_constraint,
    ablate_bsn,
    ablate_margin,
    ablate_noise_easy,
    prepare_data,
    read_metrics_csv,
    records_to_csv,
)
from .metrics import accuracy, auc_score, auc_sensitivity_demo
from .models import forward_batch, init_params, load_model, save_model
from .optimizer import pesg_train, sgd_train
from .verify import format_check_table, run_oracle_suite


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


def _runconfig(args) -> RunConfig:
    if args.config:
        return RunConfig(load_config(args.config))
    return RunConfig({key: default for key, (_, default) in KEYS.items()})


def _seeds(args, cfg: RunConfig) -> tuple[int, ...]:
    if args.seed is not None:
        return (args.seed,)
    return tuple(cfg["run.seeds"])


def _data_setting(cfg: RunConfig) -> DataSetting:
    return DataSetting(
        mean_pos=tuple(cfg["data.mean_pos"]),
        mean_neg=tuple(cfg["data.mean_neg"]),
        cov_scale=cfg["data.cov_scale"],
        n_pos=cfg["data.n_pos"],
        n_neg=cfg["data.n_neg"],
        test_n_pos=cfg["data.test_n_pos"],
        test_n_neg=cfg["data.test_n_neg"],
        imratio=cfg["data.imratio"],
        noise_rate=cfg["data.noise_rate"],
        easy_frac=cfg["data.easy_frac"],
    )


def _loss_setting(cfg: RunConfig) -> LossSetting:
    return LossSetting(
        label=cfg["loss.kind"],
        kind=cfg["loss.kind"],
        m=cfg["loss.m"],
        focal_alpha=cfg["loss.focal_alpha"],
        focal_gamma=cfg["loss.focal_gamma"],
        bsn=cfg["loss.bsn"],
        bsn_exact=cfg["loss.bsn_exact"],
        pesg=cfg.pesg(),
        sgd=cfg.sgd(),
    )


def _scenario(cfg: RunConfig, seeds, out) -> ScenarioConfig:
    return ScenarioConfig(
        name=cfg["run.name"],
        data=_data_setting(cfg),
        model_kind=cfg["model.kind"],
        d_hidden=cfg["model.d_hidden"],
        elu_alpha=cfg["model.elu_alpha"],
        init_scale=cfg["model.init_scale"],
        losses=(_loss_setting(cfg),),
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        seeds=seeds,
        outputs=out,
    )


def _cmd_gen_data(args) -> int:
    cfg = _runconfig(args)
    seed = _seeds(args, cfg)[0]
    if cfg["data.kind"] == "csv":
        data = load_csv(cfg["data.path"])
        if cfg["data.imratio"] is not None:
            data, removed = make_imbalanced(data, cfg["data.imratio"], seed)
            if cfg["data.noise_rate"] > 0:
                data = inject_noise(data, removed, cfg["data.noise_rate"], seed + 1)
    else:
        data, _ = prepare_data(_data_setting(cfg), seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{cfg['run.name']}_s{seed}.csv")
    save_csv(data, path)
    print(f"wrote {path}  ({len(data)} samples, p={data.p:.4f}, hash={dataset_hash(data)})")
    return 0


def _cmd_train(args) -> int:
    cfg = _runconfig(args)
    seeds = _seeds(args, cfg)
    os.makedirs(args.out, exist_ok=True)

    if cfg["data.kind"] == "csv":
        train = cfg.train_dataset(seeds[0])
        test = cfg.test_dataset(seeds[0])
        model_spec = cfg.model_spec(train.dim)
        for seed in seeds:
            params0 = init_params(model_spec, experiments.derive_seed(seed, 10),
                                  cfg["model.init_scale"])
            spec = cfg.surrogate(train.p)
            batch_seed = experiments.derive_seed(seed, 11)
            if spec.kind in ("auc_square", "auc_margin"):
                params, _, records = pesg_train(
                    model_spec, params0, train, spec, cfg.pesg(),
                    cfg["train.epochs"], cfg["train.batch_size"], batch_seed, test)
            else:
                params, records = sgd_train(model_spec, params0, train, spec,
                                            cfg.sgd(), batch_seed, test)
            base = os.path.join(args.out, f"{cfg['run.name']}_{spec.kind}_s{seed}")
            save_model(base + ".model", model_spec, params)
            with open(base + ".csv", "w", encoding="ascii") as fh:
                fh.write(records_to_csv(records))
            print(f"seed {seed}: final test AUC {records[-1].test_auc:.4f} -> {base}.csv")
        return 0

    scenario = _scenario(cfg, seeds, args.out)
    summary = experiments.run_scenario(scenario)
    print(summary.as_text())

    # persist the trained model of the first seed and loss for `eval`
    first = summary.cells[0]
    kind = scenario.losses[0].kind
    mpath = os.path.join(args.out, f"{cfg['run.name']}_{kind}_s{first.seed}.model")
    save_model(mpath, scenario.model_spec(), first.params)
    print(f"saved model to {mpath}")
    return 0


def _cmd_eval(args) -> int:
    model_spec, params = load_model(args.model)
    data = load_csv(args.data)
    if data.dim != model_spec.d_in:
        raise ValidationError(
            f"model expects {model_spec.d_in}-D inputs, dataset has {data.dim}-D")
    scores = forward_batch(model_spec, params, data.X)
    res = auc_score(scores, data.y)
    acc = accuracy(scores, data.y, args.threshold)
    print(f"samples={len(data)} pos={res.n_pos} neg={res.n_neg}")
    print(f"auc={res.auc:.6f} (tie_mass={res.tie_mass:.3g}) "
          f"accuracy@{args.threshold:g}={acc:.6f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _runconfig(args)
    seeds = _seeds(args, cfg)
    scenario = _scenario(cfg, seeds, args.out)
    kind = cfg["ablate.kind"]
    if kind == "margin":
        summary = ablate_margin(scenario, cfg["ablate.margins"])
        print(summary.as_text())
    elif kind == "alpha_constraint":
        summary = ablate_alpha_constraint(scenario)
        print(summary.as_text())
    elif kind == "bsn":
        losses = (experiments.auc_square(pesg=cfg.pesg()),
                  experiments.auc_margin(m=cfg["loss.m"], pesg=cfg.pesg()))
        summary = ablate_bsn(ScenarioConfig(
            name=scenario.name, data=scenario.data, model_kind=scenario.model_kind,
            d_hidden=scenario.d_hidden, elu_alpha=scenario.elu_alpha,
            init_scale=scenario.init_scale, losses=losses, epochs=scenario.epochs,
            batch_size=scenario.batch_size, seeds=seeds, outputs=args.out))
        print(summary.as_text())
    elif kind == "noise_easy":
        losses = (experiments.auc_square(), experiments.auc_margin(m=cfg["loss.m"]))
        base = ScenarioConfig(
            name=scenario.name, data=scenario.data, model_kind=scenario.model_kind,
            d_hidden=scenario.d_hidden, elu_alpha=scenario.elu_alpha,
            init_scale=scenario.init_scale, losses=losses, epochs=scenario.epochs,
            batch_size=scenario.batch_size, seeds=seeds, outputs=args.out)
        grid = ablate_noise_easy(base, cfg["ablate.noise_rates"], cfg["ablate.easy_fracs"])
        for (rate, frac), summary in sorted(grid.items()):
            print(f"-- noise={rate:g} easy={frac:g}")
            print(summary.as_text())
    else:
        raise ValidationError(f"unknown ablate.kind {kind!r}")
    return 0


def _cmd_verify(args) -> int:
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
    cfg = _runconfig(args)
    records = {}
    for path in args.metrics:
        label = os.path.splitext(os.path.basename(path))[0]
        records[label] = read_metrics_csv(path)
    svg = experiments.emit_plot(records, cfg["plot.kind"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{cfg['run.name']}_{cfg['plot.kind']}.svg")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(svg)
    print(f"wrote {path}")
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
