"""Experiment configuration: flat-sectioned key=value files, validation, profiles.

A config file has four sections (task, train, search, diagnostics); every key
is optional and falls back to the desk-scale default.  Per-stage seeds default
to fixed offsets from the task seed so one base seed pins the whole pipeline.

Each section is a dataclass that checks its own values with the rules of the
code they feed: the train section is a ``DarConfig`` plus the objective and
hidden-width rules, the search section is a ``SearchConfig``, the task section
runs ``tasks``' checks and the diagnostics section ``diagnostics``' checks.
``validate`` rebuilds every section, so a key set by path is checked too, and
reports an error under the dotted config path.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .diagnostics import _check_eval_pool, _check_radii, _check_w1_sample_size
from .objectives import DarConfig, _check_fraction, get_objective
from .search import SearchConfig
from .tasks import ValidationError, _check_non_negative, _check_pool, _check_seed, get_task

__all__ = [
    "ValidationError",
    "TaskBlock",
    "TrainBlock",
    "DiagnosticsBlock",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "apply_profile",
    "reseed",
    "set_by_path",
    "preset_path",
]

SECTIONS = ("task", "train", "search", "diagnostics")

# a stage seed left unset is the task seed plus the stage's offset
SEED_OFFSETS = {"task": 0, "train": 1, "search": 2, "diagnostics": 3}

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

    def __post_init__(self) -> None:
        get_task(self.name)
        _check_pool(self.pool_size, self.keep_fraction, self.noise_std)
        _check_seed(self.seed)


@dataclass
class TrainBlock(DarConfig):
    # DarConfig is the widest train config; its near_fraction also splits the
    # dataset for search
    objective: str = "dar"
    hidden: int = 64
    seed: int | None = None

    def __post_init__(self) -> None:
        get_objective(self.objective)
        if self.hidden < 1:
            raise ValidationError("hidden", "must be positive")
        super().__post_init__()


@dataclass
class DiagnosticsBlock:
    eval_pool_size: int = 4000
    eval_near_fraction: float = 0.05
    radii: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    w1_sample_size: int = 128
    mse_rank_audit_trials: int = 0
    marginal_audit_trials: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_eval_pool(self.eval_pool_size, self.eval_near_fraction)
        _check_radii(self.radii)
        _check_w1_sample_size(self.w1_sample_size)
        _check_non_negative("mse_rank_audit_trials", self.mse_rank_audit_trials)
        _check_non_negative("marginal_audit_trials", self.marginal_audit_trials)
        _check_seed(self.seed)


@dataclass
class ExperimentConfig:
    task: TaskBlock = field(default_factory=TaskBlock)
    train: TrainBlock = field(default_factory=TrainBlock)
    search: SearchConfig = field(default_factory=lambda: SearchConfig(seed=None))
    diagnostics: DiagnosticsBlock = field(default_factory=DiagnosticsBlock)

    def resolved_seeds(self) -> dict[str, int]:
        seeds = {}
        for section, offset in SEED_OFFSETS.items():
            seed = getattr(self, section).seed
            seeds[section] = self.task.seed + offset if seed is None else seed
        return seeds

    def train_config(self, config_cls):
        """The runtime config ``config_cls`` built from the train section and
        the resolved train seed; raises ValidationError on a bad value."""
        values = {key: getattr(self.train, key) for key in _keys(config_cls)}
        return config_cls(**{**values, "seed": self.resolved_seeds()["train"]})

    def search_config(self) -> SearchConfig:
        """The search section with the resolved seed; raises ValidationError."""
        return replace(self.search, seed=self.resolved_seeds()["search"])

    def to_dict(self) -> dict:
        out = {}
        for section in SECTIONS:
            block = getattr(self, section)
            out[section] = {key: getattr(block, key) for key in _keys(block)}
        return out


def _keys(block) -> dict:
    """A section's file keys, each mapped to its field: the constructor
    fields, not the constants."""
    return {f.name: f for f in fields(block) if f.init}


def _convert(section: str, key: str, raw: str, default) -> object:
    name = f"{section}.{key}"
    raw = raw.strip()
    if key == "radii":
        try:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ValidationError(name, f"cannot parse radii list from {raw!r}")
    # parse by the declared type, not the current value's: a key set to an
    # int by path still takes a float; only the seeds default to None
    target = int if default is None else type(default)
    try:
        return target(raw) if target in (int, float) else raw
    except ValueError:
        raise ValidationError(name, f"cannot parse {raw!r} as {target.__name__}")


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError("config", str(exc))
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in SECTIONS:  # rejected even when it has no keys
            raise ValidationError(section, "unknown section")
        for key, raw in parser.items(section):
            set_by_path(cfg, f"{section}.{key}", raw)
    validate(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def validate(cfg: ExperimentConfig) -> None:
    """Rebuild every section, which runs its checks, then check the one rule
    across sections: ``train.near_fraction`` must leave a kept design off
    the near side.  An error is reported under the dotted config path."""
    for name in SECTIONS:
        try:
            replace(getattr(cfg, name))
        except ValidationError as exc:
            raise ValidationError(f"{name}.{exc.field}", exc.message) from None
    keep = _check_pool(cfg.task.pool_size, cfg.task.keep_fraction, cfg.task.noise_std)
    _check_fraction("train.near_fraction", cfg.train.near_fraction, keep)


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
    for section, offset in SEED_OFFSETS.items():
        getattr(cfg, section).seed = base_seed + offset
    return cfg


def set_by_path(cfg: ExperimentConfig, path: str, value) -> None:
    """Assign a config field by dotted path, e.g. 'train.intra_ratio'."""
    try:
        section, key = path.split(".", 1)
    except ValueError:
        raise ValidationError(path, "expected a dotted path like train.intra_ratio")
    if section not in SECTIONS:
        raise ValidationError(path, "unknown section")
    block = getattr(cfg, section)
    declared = _keys(block).get(key)
    if declared is None:
        raise ValidationError(path, "unknown key")
    if isinstance(value, str):
        value = _convert(section, key, value, declared.default)
    setattr(block, key, value)


def preset_path(name: str) -> Path:
    """Path of a preset config shipped with the package."""
    path = Path(__file__).parent / "presets" / f"{name}.cfg"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.cfg"))
        raise ValueError(f"unknown preset {name!r} (available: {available})")
    return path
