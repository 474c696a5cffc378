"""The run schema and its flat ``key = value`` file format.

A run is a ScenarioConfig: a data recipe (DataSetting), a model, one
LossSetting per listed loss, the training length and the seeds. Config adds
the keys that steer only ``ablate`` and ``plot``. Every field a run reads is
set by a key of KEYS or by one of parse_config's two expansions. The
easy-injection scorer is no part of the schema: its model and SGD settings are
fixed constants of ``aucmax.experiments`` (``SCORER_MODEL``, ``SCORER_SGD``).

File format: one assignment per line; a ``#`` at the start of a line or right
after whitespace starts a comment, so ``runs/#3/train.csv`` is one value. Keys
are namespaced (``data.imratio``, ``optim.eta0``, ...). Unknown keys, and
unknown ``ablate.kind``/``plot.kind`` values, are errors so typos cannot
silently fall back to defaults; so is a NUL byte on any line. KEYS names the
dataclass field each key sets; a key left out of the file takes that field's
default. The key table is reproduced in the README. ``format_config`` writes a
parsed config back as a file that parses to the same config.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace

from .data import GaussianToySpec, _easy_count, imbalanced_keep_count
from .errors import ValidationError, read_text
from .losses import SurrogateSpec
from .models import ModelSpec, _check_init_scale
from .optimizer import PesgConfig, SgdConfig, _check_length

__all__ = ["parse_config", "load_config", "format_config", "Config", "KEYS",
           "DataSetting", "LossSetting", "ScenarioConfig"]

ABLATE_KINDS = ("margin", "noise_easy", "alpha_constraint", "bsn", "toy_figure")
# plot kind -> (the RunRecord field it draws against the epoch, its axis label)
PLOT_KINDS = {"auc_vs_epoch": ("test_auc", "test AUC"), "alpha_vs_epoch": ("alpha", "alpha")}
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class DataSetting:
    """Where a scenario's data comes from.

    ``gaussian_toy`` draws the training and test sets from the fields below,
    then applies imbalance and easy/noise injection to the training draw.
    ``csv`` uses the files at ``path`` and ``test_path`` as loaded; without a
    test file the test AUC is the training AUC.
    """

    kind: str = "gaussian_toy"       # gaussian_toy | csv
    path: str | None = None
    test_path: str | None = None
    mean_pos: tuple[float, float] = GaussianToySpec.mean_pos
    mean_neg: tuple[float, float] = GaussianToySpec.mean_neg
    cov_scale: float = GaussianToySpec.cov_scale
    n_pos: int = GaussianToySpec.n_pos
    n_neg: int = GaussianToySpec.n_neg
    test_n_pos: int = 1000
    test_n_neg: int = 9000
    imratio: float | None = None
    noise_rate: float = 0.0
    easy_frac: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian_toy", "csv"):
            raise ValidationError(f"data kind must be gaussian_toy or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ValidationError("data kind csv needs a path")
        if not 0 <= self.noise_rate < 1:
            raise ValidationError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if not 0 <= self.easy_frac <= 1:
            raise ValidationError(f"easy_frac must be in [0, 1], got {self.easy_frac}")
        if self.kind == "gaussian_toy":
            self.toy_spec(self.n_pos, self.n_neg, 0)     # the draws' own checks, at parse
            self.toy_spec(self.test_n_pos, self.test_n_neg, 0)
            removed = 0 if self.imratio is None else \
                self.n_pos - imbalanced_keep_count(self.n_pos, self.n_neg, self.imratio)
            if removed == 0 and (self.noise_rate > 0 or self.easy_frac > 0):
                raise ValidationError("noise_rate and easy_frac inject removed positives, but "
                                      f"imratio = {self.imratio} removes none of n_pos = "
                                      f"{self.n_pos}")
            if self.noise_rate > 0 and _easy_count(self.easy_frac, removed) == removed:
                raise ValidationError(f"easy_frac = {self.easy_frac} re-adds all {removed} "
                                      "removed positives, which leaves noise_rate = "
                                      f"{self.noise_rate} an empty pool")

    def toy_spec(self, n_pos: int, n_neg: int, seed: int) -> GaussianToySpec:
        """The draw of n_pos positives and n_neg negatives from these blobs."""
        return GaussianToySpec(self.mean_pos, self.mean_neg, self.cov_scale, n_pos, n_neg, seed)


@dataclass(frozen=True)
class LossSetting:
    label: str
    kind: str = "auc_margin"         # cross_entropy | focal | auc_square | auc_margin
    m: float = 0.5
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    bsn: bool = False
    pesg: PesgConfig = field(default_factory=PesgConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)

    def __post_init__(self):
        self.surrogate(0.5)     # the loss's own checks; the prior comes from the data

    def surrogate(self, p: float) -> SurrogateSpec:
        return SurrogateSpec(
            kind=self.kind, p=p, m=self.m,
            focal_alpha=self.focal_alpha, focal_gamma=self.focal_gamma,
            bsn=self.bsn,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "run"
    data: DataSetting = field(default_factory=DataSetting)
    model_kind: str = "linear"       # linear | mlp
    d_hidden: int = 16
    elu_alpha: float = 1.0
    init_scale: float = 0.1
    losses: tuple[LossSetting, ...] = ()
    epochs: int = 30
    batch_size: int = 64
    seeds: tuple[int, ...] = (0,)
    # when set, every loss in a seed cell starts from the same CE model
    # trained with this config on the cell's (post-injection) training set;
    # the toy figure trains its CE pretrain with it
    warm_start: SgdConfig | None = None

    def __post_init__(self):
        if not self.name or any(sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise ValidationError(f"run name must be non-empty, with no path separator: {self.name!r}")
        self.model_spec(1)      # the model's own checks; d_in comes from the data
        _check_init_scale(self.init_scale)
        if not self.seeds:
            raise ValidationError("scenario needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError(f"duplicate seeds in scenario: {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ValidationError(f"seeds must be >= 0, got {list(self.seeds)}")
        _check_length(self.epochs, self.batch_size)
        labels = [ls.label for ls in self.losses]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate loss labels in scenario: {labels}")

    def model_spec(self, d_in: int) -> ModelSpec:
        if self.model_kind == "linear":
            return ModelSpec("linear", d_in)
        return ModelSpec(self.model_kind, d_in, self.d_hidden, self.elu_alpha)


@dataclass(frozen=True)
class Config:
    """A parsed config file: the scenario ``train`` runs, with one loss per
    listed ``loss.kind``, and the keys that steer only ``ablate`` and ``plot``."""

    scenario: ScenarioConfig
    project_alpha: bool | None = None     # unset: margin yes, square no
    ablate_kind: str = "margin"           # one of ABLATE_KINDS
    ablate_margins: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 1.0)
    ablate_noise_rates: tuple[float, ...] = (0.01, 0.05)
    ablate_easy_fracs: tuple[float, ...] = (0.1, 0.2)
    plot_kind: str = "auc_vs_epoch"       # one of PLOT_KINDS

    def __post_init__(self):
        for m in self.ablate_margins:
            SurrogateSpec("auc_margin", p=0.5, m=m)     # the margin loss's own checks


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


def _parse_grid(s: str) -> tuple[float, ...]:
    vals = _parse_float_list(s)
    if not vals:
        raise ValueError("expected at least one value")
    if len(set(vals)) != len(vals):
        raise ValueError(f"expected distinct values, got {s!r}")
    return vals


def _parse_name_list(s: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in s.split(",") if tok.strip())
    if not names:
        raise ValueError("expected at least one name")
    return names


def _choice(*allowed):
    def parse(s: str) -> str:
        if s not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {s!r}")
        return s
    return parse


def _parse_count(s: str) -> int:
    n = int(s)
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


def _parse_pair(s: str) -> tuple[float, float]:
    vals = _parse_float_list(s)
    if len(vals) != 2:
        raise ValueError(f"expected two comma-separated floats, got {s!r}")
    return vals


# key -> (parser, (owner, field), ...): the dataclass fields the key sets.
# Two keys are expanded by parse_config: loss.kind gives one LossSetting per
# listed kind, and train.warm_start_epochs (0: none) a warm start with the
# file's SGD settings and batch size.
KEYS = {
    "data.kind": (str, (DataSetting, "kind")),
    "data.path": (str, (DataSetting, "path")),
    "data.test_path": (str, (DataSetting, "test_path")),
    "data.n_pos": (int, (DataSetting, "n_pos")),
    "data.n_neg": (int, (DataSetting, "n_neg")),
    "data.mean_pos": (_parse_pair, (DataSetting, "mean_pos")),
    "data.mean_neg": (_parse_pair, (DataSetting, "mean_neg")),
    "data.cov_scale": (float, (DataSetting, "cov_scale")),
    "data.imratio": (float, (DataSetting, "imratio")),
    "data.noise_rate": (float, (DataSetting, "noise_rate")),
    "data.easy_frac": (float, (DataSetting, "easy_frac")),
    "data.test_n_pos": (int, (DataSetting, "test_n_pos")),
    "data.test_n_neg": (int, (DataSetting, "test_n_neg")),
    "model.kind": (str, (ScenarioConfig, "model_kind")),
    "model.d_hidden": (int, (ScenarioConfig, "d_hidden")),
    "model.elu_alpha": (float, (ScenarioConfig, "elu_alpha")),
    "model.init_scale": (float, (ScenarioConfig, "init_scale")),
    "loss.kind": (_parse_name_list, (LossSetting, "kind")),
    "loss.m": (float, (LossSetting, "m")),
    "loss.focal_alpha": (float, (LossSetting, "focal_alpha")),
    "loss.focal_gamma": (float, (LossSetting, "focal_gamma")),
    "loss.bsn": (_parse_bool, (LossSetting, "bsn")),
    "optim.eta0": (float, (PesgConfig, "eta0")),
    "optim.gamma": (float, (PesgConfig, "gamma")),
    "optim.weight_decay": (float, (PesgConfig, "weight_decay"), (SgdConfig, "weight_decay")),
    "optim.decay_epochs": (_parse_int_list, (PesgConfig, "decay_epochs")),
    "optim.decay_factor": (float, (PesgConfig, "decay_factor")),
    "optim.project_alpha": (_parse_bool, (Config, "project_alpha")),
    "optim.lr": (float, (SgdConfig, "lr")),
    "optim.momentum": (float, (SgdConfig, "momentum")),
    "train.epochs": (int, (ScenarioConfig, "epochs")),
    "train.batch_size": (int, (ScenarioConfig, "batch_size")),
    "train.warm_start_epochs": (_parse_count, (ScenarioConfig, "warm_start")),
    "ablate.kind": (_choice(*ABLATE_KINDS), (Config, "ablate_kind")),
    "ablate.margins": (_parse_grid, (Config, "ablate_margins")),
    "ablate.noise_rates": (_parse_grid, (Config, "ablate_noise_rates")),
    "ablate.easy_fracs": (_parse_grid, (Config, "ablate_easy_fracs")),
    "run.name": (str, (ScenarioConfig, "name")),
    "run.seeds": (_parse_int_list, (ScenarioConfig, "seeds")),
    "plot.kind": (_choice(*PLOT_KINDS), (Config, "plot_kind")),
}


def parse_config(text: str, source: str = "<config>") -> Config:
    kw = {owner: {} for owner in (DataSetting, ScenarioConfig, LossSetting,
                                  PesgConfig, SgdConfig, Config)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\0" in raw:    # values name files, and no file name may hold one
            raise ValidationError(f"{source}:{lineno}: NUL byte in {raw!r}")
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}")
        parser, *fields = KEYS[key]
        try:
            parsed = parser(value)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
        for owner, name in fields:
            kw[owner][name] = parsed

    kinds = kw[LossSetting].pop("kind", (LossSetting.kind,))
    warm_epochs = kw[ScenarioConfig].pop("warm_start", 0)
    project = kw[Config].get("project_alpha")
    try:
        sgd = SgdConfig(**kw[SgdConfig])
        if warm_epochs:
            batch_size = kw[ScenarioConfig].get("batch_size", ScenarioConfig.batch_size)
            kw[ScenarioConfig]["warm_start"] = replace(sgd, epochs=warm_epochs,
                                                       batch_size=batch_size)
        # unset optim.project_alpha: the margin loss projects, the others do not
        losses = tuple(
            LossSetting(kind, kind=kind, **kw[LossSetting], sgd=sgd, pesg=PesgConfig(
                **kw[PesgConfig],
                project_alpha=kind == "auc_margin" if project is None else project))
            for kind in kinds)
        scenario = ScenarioConfig(data=DataSetting(**kw[DataSetting]), losses=losses,
                                  **kw[ScenarioConfig])
        return Config(scenario, **kw[Config])
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def load_config(path) -> Config:
    return parse_config(read_text(path, "utf-8"), source=str(path))


def _packaged_scenario(name: str, seeds) -> ScenarioConfig:
    """The scenario of the packaged ``configs/<name>.cfg`` on ``seeds``."""
    path = os.path.join(os.path.dirname(__file__), "configs", f"{name}.cfg")
    return replace(load_config(path).scenario, seeds=tuple(seeds))


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def format_config(config: Config) -> str:
    """Every key that has a value, one per line in KEYS order, floats as
    ``repr``: ``parse_config(format_config(c)) == c``. A value that would not
    read back (a line break, surrounding blanks, a comment ``#`` or a NUL
    byte) is rejected with its key."""
    scenario = config.scenario
    loss = scenario.losses[0]
    owners = {DataSetting: scenario.data, ScenarioConfig: scenario, LossSetting: loss,
              PesgConfig: loss.pesg, SgdConfig: loss.sgd, Config: config}
    expanded = {"loss.kind": tuple(ls.kind for ls in scenario.losses),
                "train.warm_start_epochs": scenario.warm_start.epochs if scenario.warm_start
                else 0}
    lines = []
    for key, (_, (owner, name), *_) in KEYS.items():
        value = expanded[key] if key in expanded else getattr(owners[owner], name)
        if value is None:
            continue
        text = _format_value(value)
        if (text != text.strip() or len(text.splitlines()) > 1 or _COMMENT.search(" " + text)
                or "\0" in text):
            raise ValidationError(f"{key} = {text!r} cannot be written to a config file")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
