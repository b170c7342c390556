"""Synthetic continuous black-box tasks and offline dataset construction.

All objectives are stored in "higher is better" orientation so the whole
pipeline uniformly maximizes.  Offline datasets follow the worst-fraction
protocol: sample a pool uniformly inside the feasible box, evaluate the true
objective, and keep only the lowest-scoring fraction, which creates a
deliberate shift between the training data and the region of the true optima.
The task name, pool size, keep fraction, noise and seed fully determine that
draw, so a dataset is rebuilt from them rather than read back; ``save_dataset``
writes it as CSV for inspection only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .artifacts import write_csv

__all__ = [
    "ValidationError",
    "TaskSpec",
    "OfflineDataset",
    "eval_quadratic_bowl",
    "branin_task",
    "quadratic_bowl_task",
    "get_task",
    "make_offline_dataset",
    "normalized_score",
    "save_dataset",
    "BRANIN_MAXIMIZERS",
    "BRANIN_MAX_VALUE",
]

# The three global maximizers of the negated Branin function and their value.
BRANIN_MAXIMIZERS = (
    (math.pi, 2.275),
    (-math.pi, 12.275),
    (9.42478, 2.475),
)
BRANIN_MAX_VALUE = -0.397887


class ValidationError(ValueError):
    """A config field failed validation; carries the field name.

    The runtime configs and the dataset builder raise it with their own key
    (``iterations``, ``pool_size``); ``config.validate`` re-raises it under
    the dotted config path (``train.iterations``), which the CLI reports as
    the JSON ``field``.
    """

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self.message = message
        super().__init__(f"{field_name}: {message}")


@dataclass
class TaskSpec:
    """A continuous black-box objective with box bounds.

    ``fn`` is batched: it maps an (n, dim) array of designs to n scores.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.lower.shape != (self.dim,) or self.upper.shape != (self.dim,):
            raise ValueError("bounds must both have shape (dim,)")
        if not np.all(self.lower < self.upper):
            raise ValueError("degenerate box: need lower[i] < upper[i] for all i")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)

    def contains(self, X: np.ndarray) -> bool:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return bool(np.all(X >= self.lower) and np.all(X <= self.upper))


@dataclass
class OfflineDataset:
    """Fixed (design, score) pairs; the only information available to training.

    ``y_min_full`` and ``y_max_full`` are the true-score extrema over the whole
    pool the dataset was kept from, the reference scale of
    :func:`normalized_score`; they stay ``None`` for a dataset built from
    bare arrays.
    """

    designs: np.ndarray
    scores: np.ndarray
    task: TaskSpec
    seed: int
    pool_size: int
    keep_fraction: float
    noise_std: float = 0.0
    y_min_full: float | None = None
    y_max_full: float | None = None

    def __post_init__(self) -> None:
        self.designs = np.asarray(self.designs, dtype=float)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.designs.ndim != 2 or self.designs.shape[1] != self.task.dim:
            raise ValueError("designs must have shape (m, dim)")
        if len(self.designs) != len(self.scores):
            raise ValueError("designs and scores must have equal length")
        if len(self.scores) < 2:
            raise ValueError("dataset needs at least 2 points")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if not self.task.contains(self.designs):
            raise ValueError("every design must lie inside the task box")

    def __len__(self) -> int:
        return len(self.scores)


def _branin_batch(X: np.ndarray) -> np.ndarray:
    """Negated Branin function of each row, on the box [-5, 10] x [0, 15].

    Uses the standard constants a=1, b=5.1/(4*pi^2), c=5/pi, r=6, s=10,
    t=1/(8*pi).  The sign flip makes the three classic minimizers the global
    maximizers, with value close to -0.397887.
    """
    x1, x2 = X[:, 0], X[:, 1]
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    t = 1.0 / (8.0 * np.pi)
    value = (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * np.cos(x1) + 10.0
    return -value


def eval_quadratic_bowl(x: np.ndarray, center: np.ndarray) -> float:
    """Concave bowl -||x - center||^2 with its analytically known maximum at center."""
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    if x.shape != center.shape:
        raise ValueError("x and center must have the same length")
    return float(-np.sum((x - center) ** 2))


def branin_task() -> TaskSpec:
    return TaskSpec(
        name="branin",
        dim=2,
        lower=np.array([-5.0, 0.0]),
        upper=np.array([10.0, 15.0]),
        fn=_branin_batch,
    )


def quadratic_bowl_task(
    dim: int = 2, center: np.ndarray | None = None, halfwidth: float = 5.0
) -> TaskSpec:
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise ValueError("center must have shape (dim,)")
    return TaskSpec(
        name="quadratic_bowl",
        dim=dim,
        lower=center - halfwidth,
        upper=center + halfwidth,
        fn=lambda X: -np.sum((X - center) ** 2, axis=1),
    )


_TASK_FACTORIES: dict[str, Callable[[], TaskSpec]] = {
    "branin": branin_task,
    "quadratic_bowl": quadratic_bowl_task,
}


def get_task(name: str) -> TaskSpec:
    if name not in _TASK_FACTORIES:
        known = ", ".join(sorted(_TASK_FACTORIES))
        raise ValidationError("name", f"unknown task {name!r} (known: {known})")
    return _TASK_FACTORIES[name]()


def _check_non_negative(field_name: str, value: float) -> None:
    """Raises ValidationError naming ``field_name`` unless ``value`` is finite
    and at least 0; NaN and infinity fail."""
    if not math.isfinite(value):
        raise ValidationError(field_name, "must be finite")
    if value < 0:
        raise ValidationError(field_name, "must be non-negative")


def _check_seed(seed: int | None) -> None:
    """A seed must be non-negative; ``None`` passes, a section seed derived
    from the task seed."""
    if seed is not None:
        _check_non_negative("seed", seed)


def _check_pool(pool_size: int, keep_fraction: float, noise_std: float) -> int:
    """The number of designs kept; raises ValidationError naming the bad
    argument."""
    if pool_size < 2:
        raise ValidationError("pool_size", "must be at least 2")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValidationError("keep_fraction", "must lie in (0, 1]")
    keep = int(math.floor(keep_fraction * pool_size))
    if keep < 2:
        raise ValidationError(
            "keep_fraction", f"keeps {keep} of {pool_size} designs, fewer than 2"
        )
    _check_non_negative("noise_std", noise_std)
    return keep


def make_offline_dataset(
    task: TaskSpec,
    pool_size: int,
    keep_fraction: float,
    seed: int,
    noise_std: float = 0.0,
) -> OfflineDataset:
    """Draw a uniform pool, keep the worst fraction of it as the offline dataset.

    Records the true-score extrema of the full pool on the dataset for later
    normalization.  Deterministic for a fixed seed; ties in the keep selection
    are broken by original pool index via a stable sort.
    """
    keep = _check_pool(pool_size, keep_fraction, noise_std)
    rng = np.random.default_rng(seed)
    pool = rng.uniform(task.lower, task.upper, size=(pool_size, task.dim))
    y_true = task.evaluate_batch(pool)

    observed = y_true
    if noise_std > 0.0:
        observed = y_true + rng.normal(0.0, noise_std, size=pool_size)

    order = np.argsort(observed, kind="stable")
    kept = order[:keep]
    return OfflineDataset(
        designs=pool[kept],
        scores=observed[kept],
        task=task,
        seed=seed,
        pool_size=pool_size,
        keep_fraction=keep_fraction,
        noise_std=noise_std,
        y_min_full=float(y_true.min()),
        y_max_full=float(y_true.max()),
    )


def normalized_score(y, dataset: OfflineDataset):
    """Map true scores onto the dataset's pool scale: (y - y_min) / (y_max - y_min).

    ``y`` is a score or an array of them.  Results may exceed [0, 1] when a
    searched design beats the pool optimum; that is permitted and reported
    as-is.
    """
    lo, hi = dataset.y_min_full, dataset.y_max_full
    if lo is None or hi is None:
        raise ValueError("dataset has no recorded pool extrema; draw it from a pool")
    span = hi - lo
    if span == 0.0:
        raise ValueError("pool extrema coincide; normalization undefined")
    return (y - lo) / span


def save_dataset(dataset: OfflineDataset, csv_path: str | Path) -> None:
    """Write the dataset as CSV, header x0..x{d-1},y."""
    header = [f"x{i}" for i in range(dataset.task.dim)] + ["y"]
    rows = np.column_stack([dataset.designs, dataset.scores]).tolist()
    write_csv(csv_path, header, rows)


def dataset_sidecar(dataset: OfflineDataset) -> dict:
    """The facts that fix the dataset draw plus its pool extrema, as
    ``manifest.json`` records them."""
    return {
        "task": dataset.task.name,
        "seed": dataset.seed,
        "pool_size": dataset.pool_size,
        "keep_fraction": dataset.keep_fraction,
        "noise_std": dataset.noise_std,
        "y_min_full": dataset.y_min_full,
        "y_max_full": dataset.y_max_full,
    }

