"""Experiment configuration: flat-sectioned key=value files, validation, profiles.

A config file has four sections (task, train, search, diagnostics); every key
is optional and falls back to the desk-scale default.  Per-stage seeds default
to fixed offsets from the task seed so one base seed pins the whole pipeline.

Each rule lives with the code that the value feeds: the task section is
checked by ``tasks`` (``get_task`` and the dataset builder's pool check), the
objective by ``objectives.get_objective``, the train and search sections by
the runtime configs (``TrainConfig`` and its subclasses, ``SearchConfig``),
the eval pool and the radii by ``diagnostics``.  ``validate`` runs those
checks the way the harness does and reports their errors under the dotted
config path.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from .diagnostics import _check_eval_pool, _check_radii
from .objectives import DarConfig, get_objective
from .search import SearchConfig
from .tasks import ValidationError, _check_pool, get_task

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
        seeds = {}
        for section, offset in SEED_OFFSETS.items():
            seed = getattr(self, section).seed
            seeds[section] = self.task.seed + offset if seed is None else seed
        return seeds

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
        for section in SECTIONS:
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
    t = cfg.task
    with _section("task"):
        get_task(t.name)
        _check_pool(t.pool_size, t.keep_fraction, t.noise_std)

    with _section("train"):
        get_objective(cfg.train.objective)
        if cfg.train.hidden < 1:
            raise ValidationError("hidden", "must be positive")
        # DarConfig is the widest train config; its near_fraction also splits
        # the dataset for search, whatever the objective
        cfg.train_config(DarConfig)
    with _section("search"):
        cfg.search_config()

    d = cfg.diagnostics
    with _section("diagnostics"):
        _check_eval_pool(d.eval_pool_size, d.eval_near_fraction)
        _check_radii(d.radii)
        if d.w1_sample_size < 1:
            raise ValidationError("w1_sample_size", "must be positive")
        if d.mse_rank_audit_trials < 0:
            raise ValidationError("mse_rank_audit_trials", "must be non-negative")
        if d.marginal_audit_trials < 0:
            raise ValidationError("marginal_audit_trials", "must be non-negative")


@contextmanager
def _section(name: str):
    """Re-raise a ValidationError of section ``name`` under ``name.<key>``."""
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
