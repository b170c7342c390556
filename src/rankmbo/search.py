"""Projected gradient-ascent design search over a trained surrogate.

Ascent runs in the standardized input space used at training (step sizes then
have a consistent meaning across tasks); after every step ``project_box``
clamps each coordinate into the raw box.
Candidates are initialized from the near-optimal subset of the offline
dataset and scored against the true objective only afterwards, as a held-out
grader.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .surrogate import MlpSurrogate
from .tasks import OfflineDataset, ValidationError, normalized_score
from .tasks import _check_non_negative, _check_seed
from .objectives import PartitionedDataset

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SurrogateObjective",
    "project_box",
    "ascend",
    "propose_candidates",
    "score_candidates",
    "save_search_result",
]


@dataclass
class SearchConfig:
    step_size: float = 0.05
    steps: int = 200
    num_candidates: int = 32
    # a constant, not an option; a field so that ``to_dict`` echoes it
    init_rule: str = field(default="topk", init=False)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_non_negative("step_size", self.step_size)
        _check_non_negative("steps", self.steps)
        if self.num_candidates < 1:
            raise ValidationError("num_candidates", "must be at least 1")
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SearchResult:
    init_designs: np.ndarray
    candidates: np.ndarray
    surrogate_scores: np.ndarray
    config: SearchConfig
    true_scores: np.ndarray | None = None
    normalized_scores: np.ndarray | None = None
    best_true: float | None = None
    best_normalized: float | None = None


class SurrogateObjective:
    """Differentiable search objective: the surrogate's z-score adapted output.

    An objective serves one ascent: ``gradient_batch`` follows each row's
    local linear map from one step to the next, through the model's
    ``_trajectory_gradient``, so a step pays for the units whose ReLU
    flipped, not for two hidden x hidden products."""

    def __init__(self, model: MlpSurrogate):
        if not model.is_adapted:
            raise RuntimeError("model has no adaptation constants; adapt it first")
        self.model = model
        self.x_std = model.x_std
        self._gradient = model._trajectory_gradient()

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        return self._gradient(X) / self.model.adapt_std


def project_box(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per-coordinate clamp of x into [lower, upper]; scalar bounds apply to
    every coordinate."""
    x = np.asarray(x, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape[-1:] not in ((), x.shape[-1:]) or lower.shape != upper.shape:
        raise ValueError("inconsistent lengths for x and bounds")
    return np.clip(x, lower, upper)


def ascend(
    objective, X0: np.ndarray, lower: np.ndarray, upper: np.ndarray, config: SearchConfig
) -> np.ndarray:
    """Projected gradient ascent from each row of X0, all trajectories at once;
    returns every iterate, shape (k, steps+1, dim).

    The objective must expose ``gradient_batch`` and ``x_std``, the scale of
    its training-time input standardization (ones for exact stand-ins); the
    offset of that standardization does not enter the step, so ``ascend``
    reads no mean.  The ascent step lives in the standardized space; mapped
    back to raw coordinates it becomes a step along x_std^2 * gradient, with
    ``project_box`` applied directly on the raw box so the bound satisfaction
    is exact.  The step size is fixed; no schedule.
    """
    X = np.atleast_2d(np.asarray(X0, dtype=float))
    x_std = np.asarray(objective.x_std, dtype=float)
    step_scale = config.step_size * x_std**2
    path = np.empty((len(X), config.steps + 1, X.shape[1]))
    path[:, 0] = X
    for t in range(config.steps):
        g = np.asarray(objective.gradient_batch(X), dtype=float)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite search gradient at step {t}")
        X = project_box(X + step_scale * g, lower, upper)
        path[:, t + 1] = X
    return path


def propose_candidates(
    model: MlpSurrogate,
    dataset: OfflineDataset,
    part: PartitionedDataset,
    config: SearchConfig,
) -> SearchResult:
    """Ascend from near-set initializations; returns candidates without true scores.

    The start rule is ``topk``: the highest-scoring members of the near set,
    padded by uniform draws from it with replacement when the near set is
    smaller than the candidate count.
    """
    if part.n_near < 1:
        raise ValueError("empty near set")
    if config.seed is None:  # the [search] section itself; search_config() resolves it
        raise ValidationError("seed", "must be set for a reproducible search")
    rng = np.random.default_rng(config.seed)
    y = dataset.scores
    k = config.num_candidates
    ranked = part.near_idx[np.argsort(-y[part.near_idx], kind="stable")]
    chosen = ranked[:k]
    if len(chosen) < k:
        pad = part.near_idx[rng.integers(0, part.n_near, size=k - len(chosen))]
        chosen = np.concatenate([chosen, pad])
    X0 = dataset.designs[chosen]

    objective = SurrogateObjective(model)
    paths = ascend(objective, X0, dataset.task.lower, dataset.task.upper, config)
    candidates = paths[:, -1].copy()
    return SearchResult(
        init_designs=X0,
        candidates=candidates,
        surrogate_scores=model.predict_adapted_batch(candidates),
        config=config,
    )


def score_candidates(result: SearchResult, dataset: OfflineDataset) -> SearchResult:
    """Evaluate the true objective on each candidate and fill in the summary,
    normalized on the pool scale of the dataset the search started from."""
    result.true_scores = dataset.task.evaluate_batch(result.candidates)
    result.normalized_scores = normalized_score(result.true_scores, dataset)
    best = int(np.argmax(result.true_scores))
    result.best_true = float(result.true_scores[best])
    result.best_normalized = float(result.normalized_scores[best])
    return result


def save_search_result(
    result: SearchResult, csv_path: str | Path, json_path: str | Path
) -> None:
    """Write a scored result: one CSV row per candidate and the JSON summary.
    An unscored result raises ValueError before either file is written."""
    if result.true_scores is None:
        raise ValueError("the result is unscored; run score_candidates first")
    dim = result.candidates.shape[1]
    header = (
        ["candidate_id"]
        + [f"x0_{i}" for i in range(dim)]
        + [f"xfinal_{i}" for i in range(dim)]
        + ["surrogate_score", "true_score", "normalized_score"]
    )
    scores = np.column_stack(
        [result.surrogate_scores, result.true_scores, result.normalized_scores]
    )
    values = np.hstack([result.init_designs, result.candidates, scores]).tolist()
    write_csv(csv_path, header, ([cid] + row for cid, row in enumerate(values)))
    summary = {
        "best_true": result.best_true,
        "best_normalized": result.best_normalized,
        "config": result.config.to_dict(),
    }
    write_json(json_path, summary)
