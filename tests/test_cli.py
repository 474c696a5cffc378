import pytest

from aucmax.cli import main
from aucmax.config import KEYS, parse_config
from aucmax.data import dataset_hash, load_csv
from aucmax.errors import ValidationError
from aucmax.experiments import DataSetting, derive_seed, prepare_data
from aucmax.losses import SurrogateSpec
from aucmax.models import ModelSpec, init_params, load_model, save_model
from aucmax.optimizer import PesgConfig, pesg_train


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        values = parse_config("""
        # a comment
        loss.kind = auc_margin
        loss.m = 0.3
        optim.decay_epochs = 15, 23
        run.seeds = 0,1,2
        loss.bsn = true
        """)
        assert values["loss.kind"] == "auc_margin"
        assert values["loss.m"] == 0.3
        assert values["optim.decay_epochs"] == (15, 23)
        assert values["run.seeds"] == (0, 1, 2)
        assert values["loss.bsn"] is True
        assert values["train.epochs"] == KEYS["train.epochs"][1]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config("loss.margin = 0.3")

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ValidationError, match=":2"):
            parse_config("loss.m = 0.3\ntrain.epochs = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("loss.kind auc_margin")


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
        assert "final test AUC" in capsys.readouterr().out or True

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

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("loss.margin = 0.3\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

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

    def test_usage_error_exits_one(self, capsys):
        rc = main(["train", "--bogus-flag"])
        assert rc == 1
