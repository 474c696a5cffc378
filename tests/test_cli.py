import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucmax.experiments
from aucmax import cli
from aucmax.cli import main
from aucmax.config import KEYS, DataSetting, format_config, parse_config
from aucmax.data import (
    Dataset,
    GaussianToySpec,
    dataset_hash,
    gen_gaussian_toy,
    load_csv,
    save_csv,
)
from aucmax.errors import NumericalError, ValidationError
from aucmax.experiments import (
    ScenarioSummary,
    derive_seed,
    prepare_data,
    read_metrics_csv,
    records_to_csv,
)
from aucmax.losses import SurrogateSpec
from aucmax.metrics import auc_sensitivity_demo
from aucmax.models import ModelSpec, init_params, load_model, save_model
from aucmax.optimizer import PesgConfig, RunRecord, SgdConfig, pesg_train, sgd_train

README = (Path(__file__).parents[1] / "README.md").read_text()
README_EXAMPLE = README.split("errors. Example:\n\n```\n")[1].split("```")[0]
README_LIBRARY_USE = README.split("## Library use\n\n```python\n")[1].split("```")[0]


def test_readme_library_use_runs_and_prints_one_auc_twice(capsys):
    # the final epoch's test AUC, and the test AUC of the returned params
    exec(compile(README_LIBRARY_USE, "README.md", "exec"), {})
    final_auc, scored_auc = map(float, capsys.readouterr().out.split())
    assert final_auc == scored_auc >= 0.99


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        config = parse_config("""
        # a comment
        loss.kind = auc_margin
        loss.m = 0.3
        optim.decay_epochs = 15, 23
        run.seeds = 0,1,2
        loss.bsn = true
        """)
        scenario = config.scenario
        (loss,) = scenario.losses
        assert loss.kind == loss.label == "auc_margin"
        assert loss.m == 0.3
        assert loss.pesg.decay_epochs == (15, 23)
        assert scenario.seeds == (0, 1, 2)
        assert loss.bsn is True
        assert scenario.epochs == 30

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config("loss.margin = 0.3")

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ValidationError, match=":2"):
            parse_config("loss.m = 0.3\ntrain.epochs = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("loss.kind auc_margin")

    def test_readme_key_table_matches_the_parser(self):
        table = README.split("| key | default | meaning |")[1].split("\n\n")[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
        documented = {key.strip().strip("`"): default.strip() for key, default in rows}
        assert sorted(documented) == sorted(KEYS)

        # each documented default, written out, parses to the empty file's config
        default = parse_config("")
        written = format_config(default)
        for key, text in documented.items():
            if text == "unset":
                assert f"\n{key} = " not in "\n" + written, key
            else:
                value = "" if text == "empty" else text.strip("`")
                assert parse_config(f"{key} = {value}") == default, key

    def test_readme_example_config_parses(self):
        scenario = parse_config(README_EXAMPLE, source="README.md").scenario
        assert scenario.name == "demo" and [ls.kind for ls in scenario.losses] == ["auc_margin"]

    def test_hash_inside_a_value_is_kept(self):
        config = parse_config("data.kind = csv\ndata.path = runs/#3/train.csv  # a comment\n")
        assert config.scenario.data.path == "runs/#3/train.csv"
        assert "data.path = runs/#3/train.csv\n" in format_config(config)
        assert parse_config(format_config(config)) == config

    @pytest.mark.parametrize("source", ["README.md"] + sorted(
        p.name for p in (Path(cli.__file__).parent / "configs").glob("*.cfg")))
    def test_shipped_configs_parse_as_under_the_first_hash_rule(self, source):
        # the shipped files put a blank before each comment, so cutting every
        # line at its first '#' reads them the same
        text = README_EXAMPLE if source == "README.md" else \
            (Path(cli.__file__).parent / "configs" / source).read_text()
        cut = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        assert parse_config(text) == parse_config(cut)

    @pytest.mark.parametrize("path", ["a #b", "#b", "a\nb", " a", "a\0b"])
    def test_format_config_names_a_value_it_cannot_write(self, path):
        config = parse_config("data.kind = csv\ndata.path = a")
        data = replace(config.scenario.data, path=path)
        config = replace(config, scenario=replace(config.scenario, data=data))
        with pytest.raises(ValidationError, match="data.path"):
            format_config(config)

    def test_loss_list_and_warm_start(self):
        config = parse_config("loss.kind = auc_square, auc_margin\nloss.m = 0.3\n"
                              "optim.lr = 0.2\noptim.weight_decay = 0.01\n"
                              "train.batch_size = 32\ntrain.warm_start_epochs = 5\n")
        square, margin = config.scenario.losses
        assert (square.label, margin.label) == ("auc_square", "auc_margin")
        assert square.m == margin.m == 0.3
        assert (square.pesg.project_alpha, margin.pesg.project_alpha) == (False, True)
        assert config.scenario.warm_start == SgdConfig(lr=0.2, weight_decay=0.01, epochs=5,
                                                       batch_size=32)
        assert parse_config("train.warm_start_epochs = 0").scenario.warm_start is None

    def test_unset_project_alpha_follows_the_loss_kind(self):
        for kind, projects in (("auc_margin", True), ("auc_square", False)):
            loss = parse_config(f"loss.kind = {kind}").scenario.losses[0]
            assert loss.pesg.project_alpha is projects
        loss = parse_config("loss.kind = auc_square\noptim.project_alpha = on").scenario.losses[0]
        assert loss.pesg.project_alpha is True

    @pytest.mark.parametrize("text", [
        "data.kind = parquet", "data.kind = csv", "model.kind = cnn", "optim.eta0 = 0",
        "train.epochs = -3", "train.batch_size = 1",
        "optim.gamma = nan", "optim.eta0 = inf", "optim.decay_factor = inf",
        "optim.weight_decay = inf",
        "data.noise_rate = nan", "data.noise_rate = 1", "data.noise_rate = -0.1",
        "data.easy_frac = -1", "data.easy_frac = 1.5", "data.easy_frac = nan",
        "loss.m = nan", "loss.kind = auc_square\nloss.m = inf", "loss.kind = auc_margin\nloss.m = 0",
        "model.init_scale = nan", "model.init_scale = inf", "model.init_scale = -0.1",
        "loss.kind = focal\nloss.focal_gamma = nan", "loss.kind = focal\nloss.focal_alpha = nan",
        "data.cov_scale = nan", "data.cov_scale = -1", "data.imratio = 2", "data.imratio = nan",
        "model.kind = mlp\nmodel.elu_alpha = inf",
        "data.noise_rate = 0.05", "data.easy_frac = 0.2",
        "data.n_pos = 30\ndata.n_neg = 30\ndata.imratio = 0.5\ndata.noise_rate = 0.05",
        "data.n_pos = 30\ndata.n_neg = 30\ndata.imratio = 0.499\ndata.easy_frac = 0.2",
        "data.imratio = 0.2\ndata.noise_rate = 0.05\ndata.easy_frac = 1",
        "loss.kind = auc_margin, auc_margin", "loss.kind = ,", "train.warm_start_epochs = -1",
        "run.seeds = 0, 0",
        "ablate.kind = bogus", "plot.kind = loss_vs_epoch",
        "data.mean_pos = nan, 1", "data.mean_neg = -1, inf", "optim.decay_epochs = 0, 3",
        "run.name = a/b", "run.name = /abs", "run.name =",
        "ablate.margins = -0.1, 0.5", "ablate.margins = 0.5, 0", "ablate.margins = nan",
        "ablate.margins = 0.5, inf",
    ])
    def test_bad_settings_rejected(self, text):
        with pytest.raises(ValidationError, match="run.cfg"):
            parse_config(text, source="run.cfg")

    @pytest.mark.parametrize("text", ["loss.kind = cross_entropy\noptim.lr = -0.1",
                                      "loss.kind = focal\noptim.momentum = 5",
                                      "loss.kind = cross_entropy\noptim.lr = inf"])
    def test_bad_sgd_settings_name_the_file(self, text):
        with pytest.raises(ValidationError, match="run.cfg"):
            parse_config(text, source="run.cfg")

    @pytest.mark.parametrize("key", ["loss.bsn_exact", "optim.regularize_aux"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(f"{key} = true")

    @pytest.mark.parametrize("key", ["ablate.margins", "ablate.noise_rates", "ablate.easy_fracs"])
    @pytest.mark.parametrize("value", ["", "0.1, 0.1"], ids=["empty", "repeated"])
    def test_ablation_grid_needs_distinct_values(self, key, value):
        with pytest.raises(ValidationError, match=f"run.cfg:2: bad value for {key}"):
            parse_config(f"ablate.kind = noise_easy\n{key} = {value}", source="run.cfg")

    def test_every_run_field_is_keyed_expanded_or_fixed(self):
        # every loss kind and a warm start, so every nested field is reached
        config = parse_config("loss.kind = cross_entropy, focal, auc_square, auc_margin\n"
                              "train.warm_start_epochs = 3\n")
        keyed = {target for _, *targets in KEYS.values() for target in targets}
        seen, unset = set(), []

        def walk(obj, prefix):
            for f in fields(obj):
                path, value = prefix + f.name, getattr(obj, f.name)
                seen.add(path)
                if path in UNKEYED_FIELDS:
                    continue
                items = value if isinstance(value, tuple) else (value,)
                if items and all(is_dataclass(v) for v in items):
                    for item in items:
                        walk(item, path + ("[]." if isinstance(value, tuple) else "."))
                elif path not in EXPANDED_FIELDS and (type(obj), f.name) not in keyed:
                    unset.append(path)

        walk(config, "")
        assert unset == []
        assert set(UNKEYED_FIELDS) | EXPANDED_FIELDS <= seen

    def test_config_module_does_not_load_the_runner(self):
        code = "import sys, aucmax.config; print('aucmax.experiments' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


# The fields of a run that no config key sets, each with the reason.
UNKEYED_FIELDS = {
    "scenario.losses[].label": "a parsed loss is labelled by its loss.kind",
    "scenario.losses[].sgd.epochs": "run_scenario trains for train.epochs",
    "scenario.losses[].sgd.batch_size": "run_scenario batches by train.batch_size",
}
# The fields parse_config's two expansions set: loss.kind gives each loss its
# projection default (unless optim.project_alpha is set), and
# train.warm_start_epochs gives the warm start its length and train.batch_size.
EXPANDED_FIELDS = {"scenario.losses[].pesg.project_alpha", "scenario.warm_start.epochs",
                   "scenario.warm_start.batch_size"}


_KINDS = ("cross_entropy", "focal", "auc_square", "auc_margin")
# a '#' inside a value is kept; a value cannot start with one (it follows the blank after '=')
_names = st.from_regex(r"[a-z0-9_./-][a-z0-9_./#-]{0,11}", fullmatch=True)
_run_names = st.from_regex(r"[a-z0-9_.-][a-z0-9_.#-]{0,11}", fullmatch=True)  # no separator


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _listed(strategy, **kw):
    return st.lists(strategy, **kw).map(", ".join)


@st.composite
def _config_texts(draw):
    """A valid config file over most keys, with values as a user may write them."""
    lines = {
        "loss.kind": draw(_listed(st.sampled_from(_KINDS), min_size=1, max_size=4, unique=True)),
        "loss.m": draw(_floats(0.01, 2.0)),
        "loss.bsn": draw(st.sampled_from(["true", "off", "1", "no"])),
        "model.kind": draw(st.sampled_from(["linear", "mlp"])),
        "model.d_hidden": str(draw(st.integers(1, 64))),
        "model.elu_alpha": draw(_floats(0.1, 5.0)),
        "optim.eta0": draw(_floats(1e-4, 10.0)),
        "optim.decay_epochs": draw(st.lists(st.integers(1, 99), unique=True)
                                   .map(sorted).map(lambda v: ", ".join(map(str, v)))),
        "optim.lr": draw(_floats(0.0, 1.0)),
        "optim.momentum": draw(_floats(0.0, 0.99)),
        "train.batch_size": str(draw(st.integers(2, 256))),
        "train.warm_start_epochs": str(draw(st.integers(0, 50))),
        "run.name": draw(_run_names),
        "run.seeds": draw(_listed(st.integers(0, 2**31).map(str), min_size=1, max_size=5,
                                  unique=True)),
        "ablate.margins": draw(_listed(_floats(0.01, 2.0), min_size=1, max_size=5,
                                       unique=True)),
    }
    if draw(st.booleans()):
        lines["data.kind"] = "csv"
        lines["data.path"] = draw(_names)
        if draw(st.booleans()):
            lines["data.test_path"] = draw(_names)
    else:
        lines["data.mean_pos"] = draw(_listed(_floats(0.5, 5.0), min_size=2, max_size=2))
        lines["data.cov_scale"] = draw(_floats(0.1, 3.0))
        if draw(st.booleans()):
            # far enough below the default draw's prior (0.5) to remove positives
            # for the injections; an imratio that removes none is rejected with them
            lines["data.imratio"] = draw(_floats(0.01, 0.49))
            lines["data.noise_rate"] = draw(_floats(0.0, 0.5))
            # below 1: easy_frac = 1 leaves noise injection no pool, and is rejected
            lines["data.easy_frac"] = draw(_floats(0.0, 0.9))
    project = draw(st.sampled_from([None, "true", "false"]))
    if project is not None:
        lines["optim.project_alpha"] = project
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=150, deadline=None)
@given(text=_config_texts())
def test_format_config_round_trips(text):
    config = parse_config(text)
    assert parse_config(format_config(config)) == config


CONFIGS = Path(cli.__file__).parent / "configs"


def _assert_same_files(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def _main_in_fresh_interpreter(argvs, block_scipy=False):
    """In a new Python process, which first makes every scipy import fail if
    ``block_scipy``: the exit status of ``main`` on each argv in turn, and the
    names of the modules loaded after the last."""
    code = ("import json, sys\n"
            + ("sys.modules['scipy'] = None\n" if block_scipy else "")
            + "from aucmax.cli import main\n"
            "statuses = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([statuses, sorted(sys.modules)]))\n")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = json.dumps([[str(arg) for arg in argv] for argv in argvs])
    run = subprocess.run([sys.executable, "-c", code, argvs], capture_output=True, text=True,
                         env=env)
    assert run.returncode == 0, run.stderr
    statuses, loaded = json.loads(run.stdout.splitlines()[-1])
    return statuses, set(loaded)


@pytest.fixture()
def toy_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "run.name = smoke\n"
        "data.n_pos = 40\n"
        "data.n_neg = 40\n"
        "data.test_n_pos = 30\n"
        "data.test_n_neg = 120\n"
        "model.kind = linear\n"
        "loss.kind = auc_margin\n"
        "loss.m = 0.5\n"
        "train.epochs = 3\n"
        "train.batch_size = 16\n"
    )
    return cfg


def _capture_ablations(monkeypatch):
    """Replace the bsn and noise_easy ablations with stubs that record the
    scenario they are given; returns the list they append to."""
    seen = []
    monkeypatch.setattr(cli, "ablate_bsn",
                        lambda cfg: seen.append(cfg) or ScenarioSummary(cfg.name, []))
    monkeypatch.setattr(cli, "ablate_noise_easy",
                        lambda cfg, rates, fracs: seen.append(cfg) or {})
    return seen


# The README example (EXAMPLE_CONFIG of bench/workloads.py), copied so that
# an edit to either file leaves the hashes below pinned to the same run.
GOLDEN_EXAMPLE = """\
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

# sha256 of what the example's gen-data, train on that CSV and eval write at
# --seed 7, with the provenance of the goldens in test_experiments.py. The
# manifest is left out: it holds version strings.
GOLDEN_CLI_SHA256 = {
    "demo_s7.csv": "bdbdddaff76a5718bd46264ac008d019aeb244789f0521d9fe64072560780dd9",
    "demo_auc_margin_s7.csv":
        "38c0a95abccc080aa8c42c6be9f8d151e3bcae8118245537be0881bebd81d19c",
    "demo_auc_margin_s7.model":
        "a2fb9c736a709ea464ee61492cefe2944944cae068f9da31f0cf64d0fb89ffe1",
    "demo_summary.csv": "32d81dc46d83d9da7c281fe8c713d35442a85d1168019af8d2f2a166ebd6ee1a",
    "eval stdout": "cd064e1bc9320b487762220dde0479b7cedc62f0942bcf1d8b98ac24cd3e71fc",
}


def test_csv_path_outputs_match_golden_hashes(tmp_path, capsys):
    gen, train = tmp_path / "gen.cfg", tmp_path / "train.cfg"
    gen.write_text(GOLDEN_EXAMPLE)
    train.write_text(GOLDEN_EXAMPLE + f"data.kind = csv\ndata.path = {tmp_path / 'demo_s7.csv'}\n")
    assert main(["gen-data", "--config", str(gen), "--seed", "7", "--out", str(tmp_path)]) == 0
    assert main(["train", "--config", str(train), "--seed", "7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "demo_auc_margin_s7.model"),
                 "--data", str(tmp_path / "demo_s7.csv")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_CLI_SHA256 if name != "eval stdout"}
    got["eval stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_CLI_SHA256


class TestCliCommands:
    def test_gen_data_writes_csv(self, tmp_path, toy_config, capsys):
        rc = main(["gen-data", "--config", str(toy_config), "--seed", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        path = tmp_path / "out" / "smoke_s1.csv"
        data = load_csv(path)
        assert len(data) == 80
        assert "wrote" in capsys.readouterr().out

    def test_gen_data_draws_the_dataset_train_trains_on(self, tmp_path, capsys):
        # easy injection is scored by prepare_data's own scorer, whatever model.kind is
        cfg = tmp_path / "easy.cfg"
        cfg.write_text("data.easy_frac = 0.2\ndata.imratio = 0.05\nmodel.kind = linear\n")
        rc = main(["gen-data", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        printed = capsys.readouterr().out.split("hash=")[1].split(")")[0]
        train, _ = prepare_data(DataSetting(imratio=0.05, easy_frac=0.2), 0)
        assert printed == dataset_hash(train)

    def test_train_saves_the_model_of_the_first_seed(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        assert rc == 0
        train, test = prepare_data(
            DataSetting(n_pos=40, n_neg=40, test_n_pos=30, test_n_neg=120), 0)
        spec = ModelSpec("linear", 2)
        params0 = init_params(spec, derive_seed(0, 10), 0.1)
        params, _, _ = pesg_train(
            spec, params0, train, SurrogateSpec("auc_margin", p=train.p, m=0.5),
            PesgConfig(project_alpha=True), 3, 16, derive_seed(0, 11), test)
        save_model(tmp_path / "explicit.model", spec, params)
        saved = (out / "smoke_auc_margin_s0.model").read_bytes()
        assert saved == (tmp_path / "explicit.model").read_bytes()

    def test_train_writes_metrics_model_and_summary(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "smoke_auc_margin_s0.csv").exists()
        assert (out / "smoke_summary.csv").exists()
        model_path = out / "smoke_auc_margin_s0.model"
        spec, params = load_model(model_path)
        assert spec.kind == "linear" and params.shape == (2,)
        assert "final test AUC" in capsys.readouterr().out

    @pytest.mark.parametrize("loss", ["auc_margin", "cross_entropy"])
    def test_train_on_csv_matches_an_explicit_run(self, tmp_path, loss):
        # a CSV is trained on as loaded, with no held-out set: test AUC = train AUC
        data = gen_gaussian_toy(GaussianToySpec(n_pos=30, n_neg=50, seed=4))
        save_csv(data, tmp_path / "data.csv")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(
            "run.name = pin\n"
            "data.kind = csv\n"
            f"data.path = {tmp_path / 'data.csv'}\n"
            "data.imratio = 0.1\n"
            "data.noise_rate = 0.05\n"
            "model.kind = mlp\n"
            "model.d_hidden = 4\n"
            f"loss.kind = {loss}\n"
            "optim.eta0 = 0.5\n"
            "optim.lr = 0.05\n"
            "train.epochs = 3\n"
            "train.batch_size = 16\n"
        )
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0

        spec = ModelSpec("mlp", 2, 4, 1.0)
        params0 = init_params(spec, derive_seed(7, 10), 0.1)
        surrogate = SurrogateSpec(loss, p=data.p, m=0.5)
        if loss == "auc_margin":
            params, _, records = pesg_train(
                spec, params0, data, surrogate, PesgConfig(eta0=0.5, project_alpha=True),
                3, 16, derive_seed(7, 11), test_data=None)
        else:
            params, records = sgd_train(
                spec, params0, data, surrogate, SgdConfig(lr=0.05, epochs=3, batch_size=16),
                derive_seed(7, 11), test_data=None)
        save_model(tmp_path / "explicit.model", spec, params)
        assert (out / f"pin_{loss}_s7.csv").read_text() == records_to_csv(records)
        assert (out / f"pin_{loss}_s7.model").read_bytes() == \
            (tmp_path / "explicit.model").read_bytes()

    @pytest.mark.parametrize("source", ["gaussian_toy", "csv"])
    def test_gen_data_hash_is_the_hash_train_reports(self, tmp_path, source, capsys):
        text = ("run.name = agree\ndata.imratio = 0.1\ndata.noise_rate = 0.05\n"
                "train.epochs = 1\n")
        if source == "csv":
            save_csv(gen_gaussian_toy(GaussianToySpec(n_pos=500, n_neg=500, seed=3)),
                     tmp_path / "data.csv")
            text += f"data.kind = csv\ndata.path = {tmp_path / 'data.csv'}\n"
        cfg = tmp_path / "agree.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split("hash=")[1].split(")")[0]
        assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        summary = (out / "agree_summary.csv").read_text().splitlines()
        assert summary[1].split(",")[-1] == printed

    @pytest.mark.parametrize("ablation", ["bsn", "noise_easy"])
    @pytest.mark.parametrize("extra, eta0, square_projects, margin_projects", [
        ("", 0.1, False, True),
        ("optim.eta0 = 0.5\n", 0.5, False, True),
        ("optim.project_alpha = true\n", 0.1, True, True),
        ("optim.project_alpha = false\n", 0.1, False, False),
    ], ids=["default", "eta0", "project_on", "project_off"])
    def test_ablation_pairs_follow_the_optim_keys(self, tmp_path, monkeypatch, ablation,
                                                  extra, eta0, square_projects,
                                                  margin_projects):
        seen = _capture_ablations(monkeypatch)
        cfg = tmp_path / "pair.cfg"
        cfg.write_text(f"ablate.kind = {ablation}\nloss.kind = auc_square, auc_margin\n"
                       "loss.m = 0.3\n" + extra)
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        square, margin = seen[0].losses
        assert (square.kind, margin.kind, margin.m) == ("auc_square", "auc_margin", 0.3)
        assert square.pesg.eta0 == margin.pesg.eta0 == eta0
        assert square.pesg.project_alpha is square_projects
        assert margin.pesg.project_alpha is margin_projects

    @pytest.mark.parametrize("ablation", ["bsn", "noise_easy"])
    @pytest.mark.parametrize("kinds", ["auc_margin", "auc_square, auc_margin"])
    def test_ablations_run_the_listed_losses(self, tmp_path, monkeypatch, ablation, kinds):
        seen = _capture_ablations(monkeypatch)
        text = f"ablate.kind = {ablation}\nloss.kind = {kinds}\nloss.bsn = true\n"
        cfg = tmp_path / "listed.cfg"
        cfg.write_text(text)
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert seen[0].losses == parse_config(text).scenario.losses
        assert all(ls.bsn for ls in seen[0].losses)

    def test_eval_prints_auc(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        main(["gen-data", "--config", str(toy_config), "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        rc = main(["eval", "--model", str(out / "smoke_auc_margin_s0.model"),
                   "--data", str(out / "smoke_s2.csv")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "auc=" in text and "accuracy@0.5=" in text

    def test_eval_rejects_a_nan_threshold(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        main(["gen-data", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        capsys.readouterr()
        rc = main(["eval", "--model", str(out / "smoke_auc_margin_s0.model"),
                   "--data", str(out / "smoke_s0.csv"), "--threshold", "nan"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: accuracy threshold must not be NaN\n")

    def test_eval_names_a_one_class_data_file(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        X = np.random.default_rng(1).normal(size=(2, 2))
        save_csv(Dataset(X, np.ones(2, dtype=int)), tmp_path / "one.csv")
        capsys.readouterr()
        rc = main(["eval", "--model", str(out / "smoke_auc_margin_s0.model"),
                   "--data", str(tmp_path / "one.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "one.csv") in err and "both classes" in err

    def test_train_runs_into_two_directories_write_the_same_bytes(self, tmp_path, toy_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["train", "--config", str(toy_config), "--seed", "0",
                         "--out", str(out)]) == 0
        _assert_same_files(out_a, out_b)
        assert {p.suffix for p in out_a.iterdir()} == {".csv", ".model", ".cfg"}
        manifest = (out_a / "smoke_manifest.cfg").read_text()
        assert manifest.startswith("# aucmax train; aucmax ")
        assert "run.seeds = 0\n" in manifest and str(tmp_path) not in manifest

    def test_manifest_names_the_blas_library(self, tmp_path, toy_config):
        assert main(["train", "--config", str(toy_config), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        comment = (tmp_path / "smoke_manifest.cfg").read_text().splitlines()[0]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert comment.endswith(f", BLAS {blas['name']} {blas['version']}")

    @pytest.mark.parametrize("source", ["noise_robustness", "alpha_constraint", "readme"])
    def test_the_manifest_reruns_the_run(self, tmp_path, source, capsys):
        if source == "readme":
            config = tmp_path / "demo.cfg"
            config.write_text(README_EXAMPLE)
            name = "demo"
        else:
            config = CONFIGS / f"{source}.cfg"
            name = source
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train", "--config", str(config), "--seed", "0", "--out", str(first)]) == 0
        assert main(["train", "--config", str(first / f"{name}_manifest.cfg"),
                     "--out", str(second)]) == 0
        _assert_same_files(first, second)
        assert len(list(first.glob("*_s0.model"))) == (2 if source == "noise_robustness" else 1)

    def test_pointwise_training_leaves_scipy_special_unloaded(self, tmp_path):
        # the README's gen-data, train and eval, with every pointwise trainer:
        # a warm start, the easy-injection scorer and the cross-entropy and
        # focal losses
        config, out = tmp_path / "demo.cfg", tmp_path / "out"
        config.write_text(README_EXAMPLE.replace(
            "loss.kind  = auc_margin", "loss.kind  = auc_margin, cross_entropy, focal")
            + "train.warm_start_epochs = 2\ndata.easy_frac = 0.2\n")
        statuses, loaded = _main_in_fresh_interpreter(
            [["gen-data", "--config", config, "--seed", 0, "--out", out],
             ["train", "--config", config, "--seed", 0, "--out", out],
             ["eval", "--model", out / "demo_focal_s0.model", "--data", out / "demo_s0.csv"]])
        assert statuses == [0, 0, 0] and "scipy.special" not in loaded

    def test_every_manifest_writing_command_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the whole runtime: where every scipy import fails, the
        # README's gen-data, train on its CSV and eval, and an ablation, run
        gen, train, out = tmp_path / "gen.cfg", tmp_path / "train.cfg", tmp_path / "out"
        gen.write_text(README_EXAMPLE)
        train.write_text(README_EXAMPLE + f"data.kind = csv\ndata.path = {out / 'demo_s0.csv'}\n")
        statuses, _ = _main_in_fresh_interpreter(
            [["gen-data", "--config", gen, "--seed", 0, "--out", out],
             ["train", "--config", train, "--seed", 0, "--out", out],
             ["eval", "--model", out / "demo_auc_margin_s0.model", "--data", out / "demo_s0.csv"],
             ["ablate", "--config", CONFIGS / "alpha_constraint.cfg", "--seed", 0, "--out", out]],
            block_scipy=True)
        assert statuses == [0, 0, 0, 0]

    def test_ablate_writes_a_manifest_that_reruns_it(self, tmp_path, capsys):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text("run.name = ab\ndata.n_pos = 30\ndata.n_neg = 30\n"
                       "data.test_n_pos = 20\ndata.test_n_neg = 80\n"
                       "train.epochs = 2\ntrain.batch_size = 16\n"
                       "ablate.kind = margin\nablate.margins = 0.1, 1.0\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["ablate", "--config", str(cfg), "--seed", "3", "--out", str(first)]) == 0
        assert main(["ablate", "--config", str(first / "ab_manifest.cfg"),
                     "--out", str(second)]) == 0
        _assert_same_files(first, second)
        assert (first / "ab_margin_auc_margin_m0.1_s3.csv").exists()

    def test_ablate_toy_figure_writes_a_figure_its_manifest_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text("run.name = fig\ndata.mean_pos = 2.0, 2.0\ndata.mean_neg = -2.0, -2.0\n"
                       "data.n_pos = 60\ndata.n_neg = 60\ndata.imratio = 0.2\n"
                       "data.easy_frac = 0.5\ndata.noise_rate = 0.2\n"
                       "data.test_n_pos = 20\ndata.test_n_neg = 80\n"
                       "model.kind = mlp\nmodel.d_hidden = 4\nloss.kind = auc_margin\n"
                       "optim.lr = 0.05\ntrain.epochs = 6\ntrain.batch_size = 16\n"
                       "train.warm_start_epochs = 20\nablate.kind = toy_figure\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["ablate", "--config", str(cfg), "--out", str(first)]) == 0
        assert sorted(p.name for p in first.iterdir()) == ["fig.svg", "fig_manifest.cfg"]
        assert main(["ablate", "--config", str(first / "fig_manifest.cfg"),
                     "--out", str(second)]) == 0
        _assert_same_files(first, second)
        svg = (first / "fig.svg").read_text()
        assert svg.count("panel ") == 3 and "auc_margin + noisy" in svg

    @pytest.mark.parametrize("lines, message", [
        ("ablate.kind = alpha_constraint\nloss.kind = auc_square, auc_margin\n",
         "would not train auc_square:"),
        ("ablate.kind = noise_easy\ndata.imratio = 0.2\nablate.noise_rates = 0.01, 1.5\n"
         "ablate.easy_fracs = 0\n", "noise_rate must be in"),
        ("ablate.kind = noise_easy\ndata.imratio = 0.5\nablate.noise_rates = 0, 0.05\n"
         "ablate.easy_fracs = 0\n", "imratio = 0.5 removes none of n_pos = 30"),
        ("ablate.kind = noise_easy\ndata.imratio = 0.2\nablate.noise_rates = 0, 0.05\n"
         "ablate.easy_fracs = 1\n", "easy_frac = 1.0 re-adds all 22 removed positives"),
        ("ablate.kind = alpha_constraint\ntrain.epochs = 0\n", "train.epochs must be at least 1"),
        ("ablate.kind = noise_easy\ndata.imratio = 0.2\ntrain.epochs = 0\n",
         "train.epochs must be at least 1"),
        ("ablate.margins = 0.1, 0.1000001\n",
         "duplicate loss labels in scenario: ['auc_margin_m0.1', 'auc_margin_m0.1']"),
        ("ablate.kind = bsn\nloss.kind = cross_entropy\n",
         "BSN ablation needs at least one AUC loss"),
        ("ablate.kind = toy_figure\n", "toy figure needs an mlp model on the 2-D toy data"),
    ], ids=["skipped_loss", "bad_grid_cell", "nothing_removed", "easy_empties_noise_pool",
            "alpha_zero_epochs", "grid_zero_epochs", "margin_labels_alike", "bsn_no_auc_loss",
            "figure_linear_model"])
    def test_rejected_ablation_writes_nothing(self, tmp_path, monkeypatch, capsys, lines,
                                              message):
        drawn = []
        monkeypatch.setattr(aucmax.experiments, "prepare_data", lambda *a: drawn.append(a))
        cfg = tmp_path / "ab.cfg"
        cfg.write_text("data.n_pos = 30\ndata.n_neg = 30\ndata.test_n_pos = 20\n"
                       "data.test_n_neg = 80\ntrain.epochs = 2\ntrain.batch_size = 16\n" + lines)
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err
        assert drawn == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, message", [
        ("ablate.noise_rates = 0.01, 1.5\nablate.easy_fracs = 0\n",
         "noise_rate must be in [0, 1), got 1.5"),
        ("ablate.noise_rates = 0, 0.05\nablate.easy_fracs = 1\n",
         "easy_frac = 1.0 re-adds all 30 removed positives"),
    ], ids=["bad_grid_cell", "easy_empties_noise_pool"])
    def test_bad_grid_cell_names_the_file(self, tmp_path, capsys, grid, message):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("data.n_pos = 40\ndata.n_neg = 40\ndata.imratio = 0.2\n"
                       "ablate.kind = noise_easy\n" + grid)
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, line, where, message", [
        ("train", "run.name = a/b", "",
         "run name must be non-empty, with no path separator: 'a/b'"),
        ("train", "run.name =", "", "run name must be non-empty, with no path separator: ''"),
        ("ablate", "ablate.margins = -0.1, 0.5", "", "margin m must be > 0, got -0.1"),
        ("ablate", "ablate.margins = 0.5, nan", "", "margin m must be finite, got nan"),
        ("train", "run.name = a\0b", ":2", "NUL byte in 'run.name = a\\x00b'"),
        ("train", "data.kind = csv\ndata.path = a\0b.csv", ":3",
         "NUL byte in 'data.path = a\\x00b.csv'"),
        ("ablate", "# a comment\0", ":2", "NUL byte in '# a comment\\x00'"),
        ("train", "run.seeds = ,", "", "scenario needs at least one seed"),
        ("train", "loss.bsn = maybe", ":2", "bad value for loss.bsn: not a boolean: 'maybe'"),
        ("train", "data.mean_pos = 1, 2, 3", ":2",
         "bad value for data.mean_pos: expected two comma-separated floats, got '1, 2, 3'"),
        ("train", "data.imratio = 0.6", "",
         "imratio must be in (0, 0.5] for n_pos = 500, n_neg = 500, got 0.6"),
        ("train", "model.init_scale = nan", "", "init_scale must be finite and >= 0, got nan"),
        ("train", "train.epochs = -1", "", "epochs must be >= 0, got -1"),
        ("train", "data.test_path = x.csv", "", "data.path and data.test_path name CSV files: "
         "set them only with data.kind = csv, not gaussian_toy"),
    ], ids=["name_with_separator", "empty_name", "negative_margin", "nan_margin", "nul_in_name",
            "nul_in_path", "nul_in_comment", "no_seeds", "bad_boolean", "three_floats_for_a_pair",
            "imratio_above_prior", "nan_init_scale", "negative_epochs", "test_path_without_csv"])
    def test_parse_time_rejection_trains_nothing(self, tmp_path, monkeypatch, capsys, command,
                                                  line, where, message):
        drawn = []
        monkeypatch.setattr(aucmax.experiments, "prepare_data", lambda *a: drawn.append(a))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"train.epochs = 1\n{line}\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}{where}: {message}\n"
        assert drawn == [] and not (tmp_path / "out").exists()

    def test_ablate_noise_easy_writes_every_cell(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("run.name = g\ndata.n_pos = 30\ndata.n_neg = 30\ndata.imratio = 0.2\n"
                       "data.test_n_pos = 20\ndata.test_n_neg = 80\ntrain.epochs = 2\n"
                       "train.batch_size = 16\nablate.kind = noise_easy\n"
                       "ablate.noise_rates = 0.05, 0\nablate.easy_fracs = 0.5, 0\n")
        out = tmp_path / "out"
        rc = main(["ablate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        grid = [("0", "0"), ("0", "0.5"), ("0.05", "0"), ("0.05", "0.5")]
        cells = [f"g_n{rate}_e{frac}" for rate, frac in grid]
        headers = [i for i, line in enumerate(lines) if line.startswith("-- ")]
        assert [lines[i] for i in headers] == [f"-- noise={r} easy={f}" for r, f in grid]
        # each header is followed by its own cell's summary
        assert [lines[i + 1] for i in headers] == [
            f"scenario {cell}: final test AUC over 1 seed(s)" for cell in cells]
        files = {"g_manifest.cfg"}
        for cell in cells:
            files |= {f"{cell}_auc_margin_s0.csv", f"{cell}_auc_margin_s0.model",
                      f"{cell}_summary.csv", f"{cell}_curves.svg"}
            assert len(read_metrics_csv(out / f"{cell}_auc_margin_s0.csv")) == 2
            assert (out / f"{cell}_curves.svg").read_text().startswith("<svg")
        assert {p.name for p in out.iterdir()} == files

    def test_train_on_data_that_removes_no_positive_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        cfg.write_text("data.n_pos = 30\ndata.n_neg = 30\ndata.imratio = 0.5\n"
                       "data.noise_rate = 0.05\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}: noise_rate and easy_frac inject removed positives" in err
        assert not (tmp_path / "out").exists()

    def test_train_rejects_a_test_file_of_another_width_before_training(
            self, tmp_path, monkeypatch, capsys):
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(gen_gaussian_toy(GaussianToySpec(n_pos=20, n_neg=20, seed=1)), train_csv)
        test_csv.write_text("f0,f1,f2,label\n" + "0.5,0.1,0.2,1\n-0.5,0.3,0.1,-1\n" * 10)
        trained = []
        monkeypatch.setattr(aucmax.experiments, "pesg_train",
                            lambda *a, **k: trained.append(a))
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"data.kind = csv\ndata.path = {train_csv}\ndata.test_path = {test_csv}\n"
                       "train.epochs = 1\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {test_csv}: 3 features, but the model "
                                           "takes 2\n")
        assert trained == [] and not (tmp_path / "out").exists()

    def test_grid_aborted_in_its_second_cell_writes_nothing(self, tmp_path, monkeypatch, capsys):
        real, calls = aucmax.experiments.run_scenario, []

        def second_cell_aborts(cfg):
            calls.append(cfg.name)
            if len(calls) == 2:
                raise NumericalError(f"{cfg.name} diverged")
            return real(cfg)

        monkeypatch.setattr(aucmax.experiments, "run_scenario", second_cell_aborts)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("run.name = g\ndata.n_pos = 30\ndata.n_neg = 30\ndata.imratio = 0.2\n"
                       "data.test_n_pos = 20\ndata.test_n_neg = 80\ntrain.epochs = 2\n"
                       "train.batch_size = 16\nablate.kind = noise_easy\n"
                       "ablate.noise_rates = 0, 0.05\nablate.easy_fracs = 0\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2 and calls == ["g_n0_e0", "g_n0.05_e0"]
        assert "g_n0.05_e0 diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_figure_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def no_plot(records, kind):
            raise ValidationError(f"cannot draw {kind}")

        monkeypatch.setattr(cli, "emit_plot", no_plot)
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text("data.n_pos = 30\ndata.n_neg = 30\ndata.test_n_pos = 20\n"
                       "data.test_n_neg = 80\ntrain.epochs = 2\ntrain.batch_size = 16\n"
                       "ablate.kind = alpha_constraint\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1 and "cannot draw" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plot_creates_svg(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        capsys.readouterr()
        rc = main(["plot", "--config", str(toy_config), "--out", str(out),
                   str(out / "smoke_auc_margin_s0.csv")])
        assert rc == 0
        svg = (out / "smoke_auc_vs_epoch.svg").read_text()
        assert svg.startswith("<svg")

    def test_ablate_margin_grid(self, tmp_path, capsys):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(
            "run.name = ab\n"
            "data.n_pos = 30\ndata.n_neg = 30\n"
            "data.test_n_pos = 20\ndata.test_n_neg = 80\n"
            "model.kind = linear\n"
            "loss.kind = auc_margin\n"
            "train.epochs = 2\ntrain.batch_size = 16\n"
            "ablate.kind = margin\n"
            "ablate.margins = 0.1, 1.0\n"
        )
        rc = main(["ablate", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "auc_margin_m0.1" in text and "auc_margin_m1" in text

    def test_verify_exits_zero(self, capsys):
        rc = main(["verify"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "7/7 checks passed" in text
        assert "PASS" in text and "FAIL" not in text

    def test_verify_demo_prints_the_sensitivity_table(self, capsys):
        rc = main(["verify", "--demo"])
        assert rc == 0
        out = capsys.readouterr().out
        report = auc_sensitivity_demo()
        assert "7/7 checks passed" in out
        assert out.endswith(f"\n\n{report.as_text()}\n\n{report.as_csv()}")
        assert report.as_csv().startswith("case,accuracy,auc\nbase,0.92,")

    def test_eval_rejects_a_model_of_another_input_width(self, tmp_path, toy_config, capsys):
        main(["gen-data", "--config", str(toy_config), "--seed", "0", "--out", str(tmp_path)])
        model = tmp_path / "wide.model"
        save_model(model, ModelSpec("linear", 3), np.zeros(3))
        capsys.readouterr()
        data = tmp_path / "smoke_s0.csv"
        rc = main(["eval", "--model", str(model), "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {data}: 2 features, but the model takes 3\n"

    @pytest.mark.parametrize("line", ["ablate.kind = bogus", "plot.kind = bogus"])
    def test_unknown_ablate_or_plot_kind_stops_train(self, tmp_path, line, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"train.epochs = 1\n{line}\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}:2: bad value for" in err and "expected one of" in err
        assert not (tmp_path / "out").exists()

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("loss.margin = 0.3\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["config", "data", "model", "metrics"])
    def test_undecodable_bytes_exit_one(self, tmp_path, toy_config, capsys, reader):
        out = tmp_path / "out"
        for command in ("train", "gen-data"):
            assert main([command, "--config", str(toy_config), "--seed", "0",
                         "--out", str(out)]) == 0
        data, model = out / "smoke_s0.csv", out / "smoke_auc_margin_s0.model"
        bad, argv = {
            "config": (toy_config, ["train", "--config", str(toy_config), "--out", str(out)]),
            "data": (data, ["eval", "--model", str(model), "--data", str(data)]),
            "model": (model, ["eval", "--model", str(model), "--data", str(data)]),
            "metrics": (out / "smoke_auc_margin_s0.csv",
                        ["plot", "--out", str(out), str(out / "smoke_auc_margin_s0.csv")]),
        }[reader]
        size = bad.stat().st_size
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert main(argv) == 1
        encoding = "utf-8" if reader == "config" else "ascii"
        assert capsys.readouterr() == (
            "", f"error: {bad}: not {encoding} text: byte 0xff at offset {size}\n")

    def test_eval_missing_model_exits_one(self, tmp_path, capsys):
        rc = main(["eval", "--model", str(tmp_path / "nope.model"),
                   "--data", str(tmp_path / "nope.csv")])
        assert rc in (1, 2)  # file errors surface as validation problems

    def test_numerical_abort_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "run.name = boom\n"
            "data.n_pos = 30\ndata.n_neg = 30\n"
            "data.test_n_pos = 20\ndata.test_n_neg = 80\n"
            "model.kind = linear\n"
            "loss.kind = auc_margin\n"
            "optim.eta0 = 1e12\n"
            "optim.weight_decay = 0\n"
            "train.epochs = 40\ntrain.batch_size = 16\n"
        )
        rc = main(["train", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "numerical abort" in capsys.readouterr().err

    def test_numerical_abort_names_the_loss_and_seed(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "data.n_pos = 30\ndata.n_neg = 30\n"
            "data.test_n_pos = 20\ndata.test_n_neg = 80\n"
            "loss.kind = auc_square\n"
            "optim.eta0 = 1e300\n"
            "run.seeds = 1, 2\n"
            "train.epochs = 2\ntrain.batch_size = 16\n"
        )
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert re.search(r"numerical abort: auc_square, seed 1: epoch 1, iteration \d+: "
                         r"non-finite", capsys.readouterr().err)

    @pytest.mark.parametrize("cell", ["nan", "1e400"])
    def test_eval_names_the_line_of_a_non_finite_feature(self, tmp_path, toy_config, capsys,
                                                         cell):
        out = tmp_path / "out"
        main(["train", "--config", str(toy_config), "--seed", "0", "--out", str(out)])
        data = tmp_path / "nan.csv"
        data.write_text(f"f0,f1,label\n0.5,1.0,1\n0.25,{cell},-1\n")
        capsys.readouterr()
        rc = main(["eval", "--model", str(out / "smoke_auc_margin_s0.model"),
                   "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {data}:3: features must be finite\n"

    @pytest.mark.parametrize("args, config", [
        (["gen-data", "--seed", "-1"], None),
        (["train"], "run.seeds = 3, -1\n"),
    ], ids=["gen_data_seed_flag", "train_config_seeds"])
    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys, args, config):
        if config is not None:
            cfg = tmp_path / "neg.cfg"
            cfg.write_text(config)
            args = args + ["--config", str(cfg)]
        rc = main(args + ["--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seeds must be >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, where, message", [
        ("1,10,0.5,0.7,x,0.1,-0.1,0.0,0.1\n", ":2", "unparseable metrics value"),
        ("", "", "no metrics rows"),
        ("1,10,0.5,0.7,0.8,0.1,-0.1,0.0\n", ":2", "expected 9 columns"),
        ("1,10,nan,nan,nan,nan,nan,nan,nan\n", ":2", "metrics values must be finite"),
        ("1,10,0.5,0.7,0.8,0.1,-0.1,0.0,0.1\n2,20,0.5,0.7,inf,0.1,-0.1,0.0,0.1\n", ":3",
         "metrics values must be finite"),
    ], ids=["bad_cell", "no_rows", "wrong_columns", "all_nan", "inf_in_second_row"])
    def test_plot_names_a_bad_metrics_file(self, tmp_path, capsys, body, where, message):
        metrics = tmp_path / "m.csv"
        metrics.write_text(records_to_csv([]) + body)
        rc = main(["plot", "--out", str(tmp_path / "out"), str(metrics)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {metrics}{where}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_plot_rejects_two_files_of_one_label(self, tmp_path, capsys):
        a, b = tmp_path / "a" / "run_s0.csv", tmp_path / "b" / "run_s0.csv"
        for path in (a, b):
            path.parent.mkdir()
            path.write_text(records_to_csv([RunRecord(1, 10, 0.5, 0.7, 0.8, 0.1, -0.1,
                                                      0.0, 0.1)]))
        rc = main(["plot", "--out", str(tmp_path / "out"), str(a), str(b)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(a) in err and str(b) in err
        assert "'run_s0'" in err
        assert not (tmp_path / "out").exists()

    def test_usage_error_exits_one(self, capsys):
        rc = main(["train", "--bogus-flag"])
        assert rc == 1


_fractions = st.sampled_from([0.0, 0.1, 0.25, 0.5])


@settings(max_examples=8, deadline=None)
@given(n=st.integers(20, 60), imratio=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
       noise=_fractions, easy=_fractions, seed=st.integers(0, 2**16))
def test_library_gen_data_and_train_agree_on_the_dataset(n, imratio, noise, easy, seed):
    text = (f"run.name = agree\ndata.n_pos = {n}\ndata.n_neg = {n}\n"
            f"data.test_n_pos = 10\ndata.test_n_neg = 10\ndata.imratio = {imratio}\n"
            f"data.noise_rate = {noise}\ndata.easy_frac = {easy}\ntrain.epochs = 1\n")
    expected = dataset_hash(prepare_data(parse_config(text).scenario.data, seed)[0])
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "agree.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        argv = ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
        assert main(["gen-data", *argv]) == 0
        assert dataset_hash(load_csv(out / f"agree_s{seed}.csv")) == expected
        assert main(["train", *argv]) == 0
        summary = (out / "agree_summary.csv").read_text().splitlines()
        assert summary[1].split(",")[-1] == expected
