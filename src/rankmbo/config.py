"""Experiment configuration: flat-sectioned key=value files, validation, profiles.

A config file has four sections (task, train, search, diagnostics); every key
is optional and falls back to the desk-scale default.  Per-stage seeds default
to fixed offsets from the task seed so one base seed pins the whole pipeline.

The train and search sections map onto the runtime configs of the stages that
use them (``TrainConfig`` and its subclasses, ``SearchConfig``), which check
their own values; ``validate`` builds them the way the harness does and
reports their errors under the dotted config path.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from .diagnostics import _check_radii
from .objectives import OBJECTIVES, DarConfig
from .search import SearchConfig
from .surrogate import ValidationError
from .tasks import _TASK_FACTORIES

__all__ = [
    "ValidationError",
    "TaskBlock",
    "TrainBlock",
    "SearchBlock",
    "DiagnosticsBlock",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "apply_profile",
    "reseed",
    "set_by_path",
    "preset_path",
]

PROFILES = {
    "desk": {"train.hidden": 64, "search.num_candidates": 32},
    "paper": {"train.hidden": 2048, "search.num_candidates": 128},
}

@dataclass
class TaskBlock:
    name: str = "branin"
    pool_size: int = 5000
    keep_fraction: float = 0.6
    noise_std: float = 0.0
    seed: int = 0


@dataclass
class TrainBlock:
    objective: str = "dar"
    hidden: int = 64
    iterations: int = 5000
    batch_size: int = 256
    learning_rate: float = 3e-4
    optimizer: str = "adam"
    weight_decay: float = 0.0
    weight_init_scale: float = 1.0
    margin: float = 0.4
    near_fraction: float = 0.2
    intra_ratio: float = 0.1
    seed: int | None = None


@dataclass
class SearchBlock:
    step_size: float = 0.05
    steps: int = 200
    num_candidates: int = 32
    init_rule: str = "topk"
    seed: int | None = None


@dataclass
class DiagnosticsBlock:
    eval_pool_size: int = 4000
    eval_near_fraction: float = 0.05
    radii: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    w1_sample_size: int = 128
    mse_rank_audit_trials: int = 0
    marginal_audit_trials: int = 0
    seed: int | None = None


@dataclass
class ExperimentConfig:
    task: TaskBlock = field(default_factory=TaskBlock)
    train: TrainBlock = field(default_factory=TrainBlock)
    search: SearchBlock = field(default_factory=SearchBlock)
    diagnostics: DiagnosticsBlock = field(default_factory=DiagnosticsBlock)

    def resolved_seeds(self) -> dict[str, int]:
        base = self.task.seed
        return {
            "task": base,
            "train": self.train.seed if self.train.seed is not None else base + 1,
            "search": self.search.seed if self.search.seed is not None else base + 2,
            "diagnostics": (
                self.diagnostics.seed if self.diagnostics.seed is not None else base + 3
            ),
        }

    def train_config(self, config_cls):
        """The runtime config ``config_cls`` built from the train section and
        the resolved train seed; raises ValidationError on a bad value."""
        return _runtime_config(self.train, config_cls, seed=self.resolved_seeds()["train"])

    def search_config(self) -> SearchConfig:
        """The runtime search config, without trajectories; raises
        ValidationError on a bad value."""
        return _runtime_config(
            self.search,
            SearchConfig,
            seed=self.resolved_seeds()["search"],
            keep_trajectories=False,
        )

    def to_dict(self) -> dict:
        out = {}
        for section in ("task", "train", "search", "diagnostics"):
            block = getattr(self, section)
            out[section] = {
                f.name: _plain(getattr(block, f.name)) for f in fields(block)
            }
        return out


def _runtime_config(block, config_cls, **overrides):
    names = {f.name for f in fields(config_cls)}
    values = {f.name: getattr(block, f.name) for f in fields(block) if f.name in names}
    return config_cls(**{**values, **overrides})


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def _convert(section: str, key: str, raw: str, template) -> object:
    name = f"{section}.{key}"
    raw = raw.strip()
    if key == "radii":
        try:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ValidationError(name, f"cannot parse radii list from {raw!r}")
    target = type(template) if template is not None else None
    try:
        if target is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if target is int or (template is None and key == "seed"):
            return int(raw)
        if target is float:
            return float(raw)
        return raw
    except ValueError:
        raise ValidationError(name, f"cannot parse {raw!r} as {getattr(target, '__name__', 'int')}")


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError("config", str(exc))
    cfg = ExperimentConfig()
    blocks = {
        "task": cfg.task,
        "train": cfg.train,
        "search": cfg.search,
        "diagnostics": cfg.diagnostics,
    }
    for section in parser.sections():
        if section not in blocks:
            raise ValidationError(section, "unknown section")
        block = blocks[section]
        known = {f.name for f in fields(block)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ValidationError(f"{section}.{key}", "unknown key")
            setattr(block, key, _convert(section, key, raw, getattr(block, key)))
    validate(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def validate(cfg: ExperimentConfig) -> None:
    t = cfg.task
    if t.name not in _TASK_FACTORIES:
        raise ValidationError("task.name", f"unknown task {t.name!r}")
    if t.pool_size < 2:
        raise ValidationError("task.pool_size", "must be at least 2")
    if not 0.0 < t.keep_fraction <= 1.0:
        raise ValidationError("task.keep_fraction", "must lie in (0, 1]")
    if int(t.keep_fraction * t.pool_size) < 2:
        raise ValidationError("task.keep_fraction", "keeps fewer than 2 designs")
    if t.noise_std < 0.0:
        raise ValidationError("task.noise_std", "must be non-negative")

    tr = cfg.train
    if tr.objective not in OBJECTIVES:
        raise ValidationError("train.objective", f"must be one of {tuple(OBJECTIVES)}")
    if tr.hidden < 1:
        raise ValidationError("train.hidden", "must be positive")
    # DarConfig is the widest train config; its near_fraction also splits the
    # dataset for search, whatever the objective
    with _section("train"):
        cfg.train_config(DarConfig)
    with _section("search"):
        cfg.search_config()

    d = cfg.diagnostics
    if d.eval_pool_size < 2:
        raise ValidationError("diagnostics.eval_pool_size", "must be at least 2")
    if not 0.0 < d.eval_near_fraction < 1.0:
        raise ValidationError(
            "diagnostics.eval_near_fraction", "must lie strictly in (0, 1)"
        )
    if len(d.radii) == 0:
        raise ValidationError("diagnostics.radii", "must list at least one radius")
    try:
        _check_radii(d.radii)
    except ValueError as exc:
        raise ValidationError("diagnostics.radii", str(exc)) from None
    if d.w1_sample_size < 1:
        raise ValidationError("diagnostics.w1_sample_size", "must be positive")
    if d.mse_rank_audit_trials < 0:
        raise ValidationError("diagnostics.mse_rank_audit_trials", "must be non-negative")
    if d.marginal_audit_trials < 0:
        raise ValidationError("diagnostics.marginal_audit_trials", "must be non-negative")


@contextmanager
def _section(name: str):
    """Re-raise a runtime config's ValidationError under ``name.<key>``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{name}.{exc.field}", exc.message) from None


def apply_profile(cfg: ExperimentConfig, profile: str | None) -> ExperimentConfig:
    if profile is None:
        return cfg
    if profile not in PROFILES:
        raise ValidationError("profile", f"must be one of {tuple(PROFILES)}")
    for path, value in PROFILES[profile].items():
        set_by_path(cfg, path, value)
    return cfg


def reseed(cfg: ExperimentConfig, base_seed: int) -> ExperimentConfig:
    """Re-derive every stage seed from one base seed."""
    cfg.task.seed = base_seed
    cfg.train.seed = base_seed + 1
    cfg.search.seed = base_seed + 2
    cfg.diagnostics.seed = base_seed + 3
    return cfg


def set_by_path(cfg: ExperimentConfig, path: str, value) -> None:
    """Assign a config field by dotted path, e.g. 'train.intra_ratio'."""
    try:
        section, key = path.split(".", 1)
    except ValueError:
        raise ValidationError(path, "expected a dotted path like train.intra_ratio")
    if section not in ("task", "train", "search", "diagnostics"):
        raise ValidationError(path, "unknown section")
    block = getattr(cfg, section)
    if key not in {f.name for f in fields(block)}:
        raise ValidationError(path, "unknown key")
    if isinstance(value, str):
        value = _convert(section, key, value, getattr(block, key))
    setattr(block, key, value)


def preset_path(name: str) -> Path:
    """Path of a preset config shipped with the package."""
    path = Path(__file__).parent / "presets" / f"{name}.cfg"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.cfg"))
        raise ValueError(f"unknown preset {name!r} (available: {available})")
    return path
