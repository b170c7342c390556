"""Training objectives for the surrogate: MSE regression, global pairwise
ranking, and distribution-aware ranking (DAR).

The two ranking objectives descend the same margin loss
``max(0, margin - (h(x_pref) - h(x_other)))`` and differ only in how training
pairs are drawn.  The global trainer samples uniformly from all index pairs
with a strict score gap.  DAR first splits the dataset at the top-quantile
threshold into a near-optimal set and its complement, then mixes cross-region
pairs (near vs. sub, the preferred element always near) with a small ratio of
intra-region pairs drawn inside the near set.  Every trainer finishes with
z-score output adaptation, so the three return models whose gradient scale
during design search is comparable.  ``OBJECTIVES`` is the one table of
objective names, their runtime config classes and their trainers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .surrogate import MlpSurrogate, TrainConfig, _Optimizer, zscore_adapt
from .tasks import OfflineDataset, ValidationError, _check_non_negative

__all__ = [
    "OBJECTIVES",
    "get_objective",
    "PartitionedDataset",
    "RankConfig",
    "DarConfig",
    "TrainingDiverged",
    "partition",
    "partition_scores",
    "mse_loss",
    "mse_loss_grad",
    "margin_rank_loss",
    "margin_rank_loss_grad",
    "zero_one_rank_loss",
    "sample_ranked_pairs",
    "sample_dar_pairs",
    "train_mse",
    "train_rank_global",
    "train_dar",
    "save_loss_trace",
]


class TrainingDiverged(RuntimeError):
    """Raised when the training loss, an activation of the forward pass or the
    optimizer state becomes non-finite; ``iteration`` is where it happened."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"training loss became non-finite at iteration {iteration}")


@dataclass
class PartitionedDataset:
    """Index split of a dataset at the top-quantile score threshold.

    ``near_idx`` holds the indices whose score is >= threshold (ties at the
    threshold included), ``sub_idx`` the strict complement.  Both are sorted
    ascending and together cover every index exactly once.
    """

    threshold: float
    near_idx: np.ndarray
    sub_idx: np.ndarray

    @property
    def n_near(self) -> int:
        return len(self.near_idx)

    @property
    def n_sub(self) -> int:
        return len(self.sub_idx)


def _check_fraction(field: str, value: float) -> None:
    """The near-fraction rule of every partition: raises ValidationError
    naming ``field`` unless ``value`` lies strictly in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValidationError(field, "must lie strictly in (0, 1)")


@dataclass
class RankConfig(TrainConfig):
    margin: float = 0.4

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_non_negative("margin", self.margin)


@dataclass
class DarConfig(RankConfig):
    near_fraction: float = 0.2
    intra_ratio: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_fraction("near_fraction", self.near_fraction)
        if not 0.0 <= self.intra_ratio <= 1.0:
            raise ValidationError("intra_ratio", "must lie in [0, 1]")


def partition_scores(scores: np.ndarray, near_fraction: float) -> PartitionedDataset:
    """Split score indices so the near set holds the top ~near_fraction of them.

    The threshold is the ceil(near_fraction * m)-th largest score; every index
    whose score ties the threshold goes to the near side.  Raises when the
    split would leave either side empty (e.g. all scores identical).
    """
    scores = np.asarray(scores, dtype=float)
    m = len(scores)
    if m < 2:
        raise ValueError("partition needs at least 2 scores")
    _check_fraction("near_fraction", near_fraction)
    k = int(math.ceil(near_fraction * m))
    threshold = float(np.sort(scores)[::-1][k - 1])
    near = np.flatnonzero(scores >= threshold)
    sub = np.flatnonzero(scores < threshold)
    if len(near) == 0:
        raise ValueError("near-optimal set is empty; increase near_fraction")
    if len(sub) == 0:
        raise ValueError(
            "suboptimal set is empty (all scores tie the threshold); partition undefined"
        )
    return PartitionedDataset(threshold=threshold, near_idx=near, sub_idx=sub)


def partition(dataset: OfflineDataset, near_fraction: float) -> PartitionedDataset:
    return partition_scores(dataset.scores, near_fraction)


def mse_loss(pred, y):
    """Squared error (pred - y)^2; broadcasts over arrays."""
    return (np.asarray(pred, dtype=float) - np.asarray(y, dtype=float)) ** 2


def mse_loss_grad(pred, y):
    """d/dpred of the squared error: 2 (pred - y)."""
    return 2.0 * (np.asarray(pred, dtype=float) - np.asarray(y, dtype=float))


def margin_rank_loss(s_pref, s_other, margin: float):
    """Hinge on the score gap: max(0, margin - (s_pref - s_other))."""
    s_pref = np.asarray(s_pref, dtype=float)
    s_other = np.asarray(s_other, dtype=float)
    return np.maximum(0.0, margin - (s_pref - s_other))


def margin_rank_loss_grad(s_pref, s_other, margin: float):
    """Gradients w.r.t. (s_pref, s_other); zero at and beyond the hinge point."""
    s_pref = np.asarray(s_pref, dtype=float)
    s_other = np.asarray(s_other, dtype=float)
    active = (margin - (s_pref - s_other)) > 0.0
    g = active.astype(float)
    return -g, g


def zero_one_rank_loss(s_pref, s_other):
    """1 when the preferred score is at or below the other, else 0 (ties count as errors)."""
    s_pref = np.asarray(s_pref, dtype=float)
    s_other = np.asarray(s_other, dtype=float)
    return (s_pref <= s_other).astype(float)


def _require_ranked_pair(
    scores: np.ndarray, message: str = "no two scores are strictly ordered"
) -> None:
    """Raise unless two scores are strictly ordered (NaN counts as unordered);
    without such a pair there is nothing to draw."""
    if not (len(scores) > 0 and scores.max() > scores.min()):
        raise ValueError(message)


def _require_intra_pairs(
    scores: np.ndarray, part: PartitionedDataset, intra_ratio: float
) -> None:
    if intra_ratio > 0.0:
        _require_ranked_pair(
            scores[part.near_idx],
            "near set cannot form intra-region pairs; set intra_ratio=0",
        )


def sample_ranked_pairs(
    rng: np.random.Generator, scores: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from all index pairs (i, j) with scores[i] > scores[j].

    Draws unordered candidate pairs with replacement and orients each by score;
    tied candidates are redrawn, a bounded number of times and then directly
    from the ranked pairs, which leaves the distribution uniform over the
    strictly ranked pairs.  Raises ValueError, before drawing, when no two
    scores are strictly ordered.
    """
    scores = np.asarray(scores, dtype=float)
    _require_ranked_pair(scores)
    return _draw_ranked(rng, scores, count)


# with distinct scores only i == j candidates tie, and a round or two clears them
_TIE_ROUNDS = 8


def _draw_ranked(
    rng: np.random.Generator, scores: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(pref, other) indices into ``scores``: ``count`` uniform candidate
    pairs, tied ones redrawn for up to ``_TIE_ROUNDS`` rounds, each oriented by
    score; candidates still tied then come from ``_draw_ranked_direct``.
    The caller has checked that a strictly ranked pair exists."""
    m = len(scores)
    i = rng.integers(0, m, size=count)
    j = rng.integers(0, m, size=count)
    tied = scores[i] == scores[j]
    for _ in range(_TIE_ROUNDS):
        if not tied.any():
            break
        n_bad = int(tied.sum())
        i[tied] = rng.integers(0, m, size=n_bad)
        j[tied] = rng.integers(0, m, size=n_bad)
        tied = scores[i] == scores[j]
    swap = scores[j] > scores[i]
    pref, other = np.where(swap, j, i), np.where(swap, i, j)
    if tied.any():
        pref[tied], other[tied] = _draw_ranked_direct(rng, scores, int(tied.sum()))
    return pref, other


def _draw_ranked_direct(
    rng: np.random.Generator, scores: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform draws from the T strictly ranked (pref, other) pairs.
    With the scores sorted and ``ends`` the running sum of each position's
    number of lower scores, u in [0, T) picks the position p with
    ``ends[p-1] <= u < ends[p]`` and its (u - ends[p-1])-th lower position."""
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    below = np.searchsorted(ranked, ranked, side="left")
    ends = np.cumsum(below)
    u = rng.integers(0, ends[-1], size=count)
    p = np.searchsorted(ends, u, side="right")
    return order[p], order[u - ends[p] + below[p]]


def sample_dar_pairs(
    rng: np.random.Generator,
    scores: np.ndarray,
    part: PartitionedDataset,
    intra_ratio: float,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixture pair sampler: cross-region with probability 1 - intra_ratio,
    intra-region (both from the near set, preferred = higher score, ties
    redrawn) otherwise.  Returns (pref, other, intra_mask).  Raises
    ValueError, before drawing, when intra_ratio > 0 and no two near scores
    are strictly ordered.
    """
    scores = np.asarray(scores, dtype=float)
    _require_intra_pairs(scores, part, intra_ratio)
    u = rng.random(count)
    intra = u > (1.0 - intra_ratio)
    pref = np.empty(count, dtype=np.int64)
    other = np.empty(count, dtype=np.int64)

    n_cross = int((~intra).sum())
    pref[~intra] = part.near_idx[rng.integers(0, part.n_near, size=n_cross)]
    other[~intra] = part.sub_idx[rng.integers(0, part.n_sub, size=n_cross)]

    n_intra = count - n_cross
    if n_intra > 0:
        near_pref, near_other = _draw_ranked(rng, scores[part.near_idx], n_intra)
        pref[intra] = part.near_idx[near_pref]
        other[intra] = part.near_idx[near_other]
    return pref, other, intra


def _standardize_inputs(model: MlpSurrogate, designs: np.ndarray) -> None:
    mean = designs.mean(axis=0)
    std = designs.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    model.set_input_standardization(mean, std)


def _descend(
    model: MlpSurrogate,
    dataset: OfflineDataset,
    config: TrainConfig,
    next_batch,
    objective: str,
) -> tuple[MlpSurrogate, np.ndarray]:
    """Minibatch descent with one fused forward/backward pass per iteration,
    then z-score output adaptation; the tail of every trainer.

    ``next_batch(rng) -> (inputs, loss_fn)`` draws an iteration's batch; see
    ``MlpSurrogate.loss_and_grads`` for ``loss_fn``.  A non-finite loss, a
    non-finite activation (the message names its layer) or an overflowed
    optimizer state raises ``TrainingDiverged`` with the iteration.  Returns
    the model, tagged with ``objective`` and the config, and the loss trace.
    Every iteration's forward pass writes into one ``_score_workspace``,
    allocated for the first batch's row count, which every trainer keeps
    fixed, and the backward pass consumes that cache and hands W2's gradient
    to the optimizer chunk by chunk, so no later iteration allocates an
    activation-sized array or a whole W2 gradient.  The workspace, the
    optimizer and its gradient views are freed before the output is adapted:
    adapting while the optimizer was held raised paper-width peak RSS from
    259 to 322 MB.
    """
    if config.seed is None:  # the [train] section itself; train_config() resolves it
        raise ValidationError("seed", "must be set for reproducible training")
    _standardize_inputs(model, dataset.designs)
    rng = np.random.default_rng(config.seed)
    opt = _Optimizer(model, config)
    work = None
    trace = np.empty(config.iterations)
    for it in range(config.iterations):
        inputs, loss_fn = next_batch(rng)
        if work is None:
            work = model._score_workspace(len(inputs))
        try:
            loss, grads = model.loss_and_grads(
                inputs, loss_fn, out=opt.chunked_grads, work=work, w2_sink=opt.take_w2
            )
        except FloatingPointError as exc:
            raise TrainingDiverged(it, f"{exc} at iteration {it}") from exc
        if grads is None:
            raise TrainingDiverged(it)
        trace[it] = loss
        if not opt.step():
            raise TrainingDiverged(
                it, f"optimizer state became non-finite at iteration {it}"
            )
    del opt, grads, work  # grads are views of the optimizer's gradient buffer
    zscore_adapt(model, dataset)
    model.objective = objective
    model.train_config = config.to_dict()
    return model, trace


def train_mse(
    model: MlpSurrogate, dataset: OfflineDataset, config: TrainConfig
) -> tuple[MlpSurrogate, np.ndarray]:
    """Minibatch descent on the mean squared error against observed scores,
    followed by z-score output adaptation.

    Inputs are standardized per coordinate over the dataset before entering
    the network; the constants are stored on the model and applied at
    inference.  Returns the model and the per-iteration mean batch loss.
    """
    X, y = dataset.designs, dataset.scores
    bs = config.batch_size

    def next_batch(rng):
        idx = rng.integers(0, len(y), size=bs)
        y_batch = y[idx]

        def loss_fn(preds):
            loss = float(np.mean(mse_loss(preds, y_batch)))
            return loss, mse_loss_grad(preds, y_batch) / bs

        return X[idx], loss_fn

    return _descend(model, dataset, config, next_batch, "mse")


def _train_pairwise(
    model: MlpSurrogate,
    dataset: OfflineDataset,
    config: RankConfig,
    draw_pairs,
    tag: str,
) -> tuple[MlpSurrogate, np.ndarray]:
    X = dataset.designs
    bs = config.batch_size

    def loss_fn(scores):
        s_pref, s_other = scores[:bs], scores[bs:]
        loss = float(np.mean(margin_rank_loss(s_pref, s_other, config.margin)))
        g_pref, g_other = margin_rank_loss_grad(s_pref, s_other, config.margin)
        return loss, np.concatenate([g_pref, g_other]) / bs

    def next_batch(rng):
        pref, other = draw_pairs(rng, bs)
        return np.vstack([X[pref], X[other]]), loss_fn

    return _descend(model, dataset, config, next_batch, tag)


def train_rank_global(
    model: MlpSurrogate, dataset: OfflineDataset, config: RankConfig
) -> tuple[MlpSurrogate, np.ndarray]:
    """Margin-loss descent on pairs drawn uniformly from all strictly ranked
    index pairs of the dataset, followed by z-score output adaptation."""
    y = dataset.scores
    _require_ranked_pair(y)

    def draw(rng, count):
        return sample_ranked_pairs(rng, y, count)

    return _train_pairwise(model, dataset, config, draw, "rank_global")


def train_dar(
    model: MlpSurrogate, dataset: OfflineDataset, config: DarConfig
) -> tuple[MlpSurrogate, np.ndarray]:
    """Distribution-aware ranking: quantile partition, mixed pair sampling,
    margin-loss descent, then z-score output adaptation."""
    part = partition(dataset, config.near_fraction)
    y = dataset.scores
    _require_intra_pairs(y, part, config.intra_ratio)

    def draw(rng, count):
        pref, other, _ = sample_dar_pairs(rng, y, part, config.intra_ratio, count)
        return pref, other

    return _train_pairwise(model, dataset, config, draw, "dar")


# Objective name -> (runtime config class, trainer name).  The trainer is
# resolved by name when it is asked for, so a wrapper installed on this
# module's attribute (a profiler, a test double) is the one that runs.
OBJECTIVES = {
    "mse": (TrainConfig, "train_mse"),
    "rank_global": (RankConfig, "train_rank_global"),
    "dar": (DarConfig, "train_dar"),
}


def get_objective(name: str):
    """(config class, trainer) of a training objective; every trainer returns
    a model adapted for search."""
    if name not in OBJECTIVES:
        raise ValidationError(
            "objective", f"unknown objective {name!r} (known: {', '.join(OBJECTIVES)})"
        )
    config_cls, trainer = OBJECTIVES[name]
    return config_cls, globals()[trainer]


def save_loss_trace(trace: np.ndarray, path: str | Path) -> None:
    losses = np.asarray(trace, dtype=float).tolist()
    write_csv(path, ["iteration", "loss"], enumerate(losses))
