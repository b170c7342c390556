"""Theory-facing measurements for trained surrogates.

The central quantity is the optimization-oriented ranking error: the
probability that a surrogate scores a near-optimal design at or below a
suboptimal one (ties count as errors).  It is computed exactly over every
pair of a fresh evaluation pool's top-quantile set and its complement, by
sorting the suboptimal scores once and counting with a binary search (one
minus the Mann-Whitney U statistic).  The module also measures how that error
grows as the suboptimal side is restricted to within a radius of the data
manifold.  Distances to the manifold come from one k-d tree nearest-neighbour
query over the pool, each pool side is scored once, and every radius counts
on a mask of those scores.  Empirical 1-Wasserstein distances are exact
minimum-cost matchings (including the additive pair metric on products of
design pairs).  The manifold diameter, the calibration constant of the
distance terms, is exact: the farthest pair lies on the convex hull, so in 2
to 4 dimensions only qhull's hull points are compared, and the quadratic
scan over every point is left to other dimensions and flat sets.  Two
inequalities are audited numerically: the
squared-error-to-ranking reduction with constant 4 / gap^2, and the
decomposition of the pair-metric transport cost into the sum of its marginal
transport costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import cdist

from .artifacts import write_csv, write_json
from .objectives import _check_fraction, partition_scores
from .tasks import OfflineDataset, TaskSpec, ValidationError

__all__ = [
    "EvalPool",
    "RadiusRow",
    "RankingErrorReport",
    "BoundReport",
    "make_eval_pool",
    "ranking_error",
    "manifold_distances",
    "manifold_diameter",
    "ranking_error_vs_radius",
    "build_ranking_report",
    "wasserstein1_sorted",
    "wasserstein1_assignment",
    "product_pairs",
    "audit_mse_to_rank",
    "audit_marginal_decomposition",
    "save_radius_rows",
    "save_bound_reports",
    "report_summary",
    "save_report_summary",
]

ASSIGNMENT_CAP = 512
# manifold_diameter reduces the set to its convex hull up to this dimension
_HULL_MAX_DIM = 4
# the slack of every audit's lhs <= rhs check, for rounding in the two sides
AUDIT_TOL = 1e-9


@dataclass
class EvalPool:
    """A large fresh sample of designs with true scores, used only for evaluation.

    The pool is split at the top-quantile threshold of the true scores into the
    near-optimal side and its complement, mirroring how the offline dataset is
    partitioned but on unseen ground truth.  ``near_designs`` and
    ``sub_designs`` are fresh copies on every access: take a side once per
    call, or index ``designs`` through ``near_idx`` and ``sub_idx``.  The
    pool keeps its data and that split only: its size and seed are the
    ``make_eval_pool`` arguments, which the config's ``[diagnostics]``
    section records.
    """

    designs: np.ndarray
    true_scores: np.ndarray
    near_fraction: float
    near_idx: np.ndarray = field(init=False)
    sub_idx: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.designs = np.asarray(self.designs, dtype=float)
        self.true_scores = np.asarray(self.true_scores, dtype=float)
        part = partition_scores(self.true_scores, self.near_fraction)
        self.near_idx = part.near_idx
        self.sub_idx = part.sub_idx

    @property
    def near_designs(self) -> np.ndarray:
        return self.designs[self.near_idx]

    @property
    def sub_designs(self) -> np.ndarray:
        return self.designs[self.sub_idx]


@dataclass
class RadiusRow:
    radius: float
    n_restricted: int
    error: float | None


@dataclass
class RankingErrorReport:
    rows: list[RadiusRow]
    overall_error: float
    value_gap: float
    w1_near: float
    mean_dist_to_manifold: float
    manifold_diameter: float
    near_fraction: float
    n_near: int
    n_sub: int
    seed: int


@dataclass
class BoundReport:
    lhs: float
    rhs: float
    holds: bool | None
    applicable: bool
    value_gap: float | None = None


def make_eval_pool(
    task: TaskSpec, size: int, near_fraction: float, seed: int
) -> EvalPool:
    _check_eval_pool(size, near_fraction)
    rng = np.random.default_rng(seed)
    designs = rng.uniform(task.lower, task.upper, size=(size, task.dim))
    return EvalPool(
        designs=designs,
        true_scores=task.evaluate_batch(designs),
        near_fraction=near_fraction,
    )


def _check_eval_pool(size: int, near_fraction: float) -> None:
    """Raises ValidationError naming the config key of a bad pool size or
    near fraction."""
    if size < 2:
        raise ValidationError("eval_pool_size", "must be at least 2")
    _check_fraction("eval_near_fraction", near_fraction)


def _check_w1_sample_size(n: int) -> None:
    """Raises ValidationError naming ``w1_sample_size`` unless the exact W1
    solve can take ``n`` points."""
    if not 1 <= n <= ASSIGNMENT_CAP:
        raise ValidationError("w1_sample_size", f"must lie in [1, {ASSIGNMENT_CAP}]")


def ranking_error(score_fn, near: np.ndarray, sub: np.ndarray) -> float:
    """Fraction of all (near, sub) pairs the scorer ranks incorrectly (ties count).

    Exact over the full product: with the sub scores sorted once, the number of
    sub scores at or above each near score is one ``searchsorted`` away, so
    the cost is O((n + m) log m) at any pool size.  NaN scores are rejected.
    """
    near = np.atleast_2d(np.asarray(near, dtype=float))
    sub = np.atleast_2d(np.asarray(sub, dtype=float))
    return _scores_error(score_fn(near), score_fn(sub))


def _scores_error(h_near, h_sub) -> float:
    """Ranking error of already computed near and sub scores."""
    h_near = np.asarray(h_near, dtype=float)
    h_sub = np.asarray(h_sub, dtype=float)
    if len(h_near) == 0 or len(h_sub) == 0:
        raise ValueError("both design sets must be non-empty")
    if np.isnan(h_near).any() or np.isnan(h_sub).any():
        raise ValueError("scores must not be NaN")
    wrong = len(h_sub) - np.searchsorted(np.sort(h_sub), h_near, side="left")
    return int(wrong.sum()) / (len(h_near) * len(h_sub))


def manifold_distances(X: np.ndarray, manifold: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of X to its nearest manifold point,
    by one k-d tree query."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    manifold = np.atleast_2d(np.asarray(manifold, dtype=float))
    if len(manifold) == 0:
        raise ValueError("manifold must be non-empty")
    for name, arr in (("X", X), ("manifold", manifold)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    return cKDTree(manifold).query(X)[0]


def manifold_diameter(manifold: np.ndarray) -> float:
    """Largest Euclidean distance between two manifold points.

    The farthest pair of a finite set lies on its convex hull, so in 2 to 4
    dimensions only qhull's hull vertices and the points it reports as
    coplanar with a facet are compared.  In other dimensions (qhull is slower
    than the quadratic scan from 5 on), or when qhull refuses the set (too
    few points, or all of them in a lower-dimensional flat), every point is.
    Each distance is the same ``cdist`` value either way, so the result is
    the maximum over all pairs bit for bit.  The scan runs in row chunks of
    at most about 2e6 distances.  A NaN or infinite coordinate raises
    ValueError.
    """
    points = np.atleast_2d(np.asarray(manifold, dtype=float))
    if not np.isfinite(points).all():
        raise ValueError("manifold must be finite")
    if 2 <= points.shape[1] <= _HULL_MAX_DIM:
        try:
            hull = ConvexHull(points, qhull_options="Qc")
        except (QhullError, ValueError):
            pass
        else:
            points = points[np.union1d(hull.vertices, hull.coplanar[:, 0])]
    best = 0.0
    chunk = max(1, 2_000_000 // max(1, len(points)))
    for start in range(0, len(points), chunk):
        best = max(best, float(cdist(points[start : start + chunk], points).max()))
    return best


def _check_radii(radii) -> list[float]:
    """Radii as floats; there must be at least one, positive, not NaN and
    strictly ascending, so the restricted sets are nested (``inf`` is the
    unrestricted radius).  Raises ValidationError naming ``radii``."""
    radii = [float(r) for r in radii]
    if not radii:
        raise ValidationError("radii", "radii must list at least one radius")
    if any(math.isnan(r) for r in radii):
        raise ValidationError("radii", "radii must not be NaN")
    if any(r <= 0.0 for r in radii):
        raise ValidationError("radii", "radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii", "radii must be strictly ascending")
    return radii


def _radius_rows(h_near, h_sub, d_sub, radii) -> list[RadiusRow]:
    """One row per radius, counting on the sub scores within that radius."""
    h_sub = np.asarray(h_sub, dtype=float)
    rows: list[RadiusRow] = []
    for radius in radii:
        mask = d_sub <= radius
        n = int(mask.sum())
        err = _scores_error(h_near, h_sub[mask]) if n else None
        rows.append(RadiusRow(radius=radius, n_restricted=n, error=err))
    return rows


def ranking_error_vs_radius(
    score_fn,
    pool: EvalPool,
    manifold: np.ndarray,
    radii,
) -> list[RadiusRow]:
    """Ranking error with the suboptimal side restricted to within each radius
    of the manifold.  Radii must be positive and ascending, so the restricted
    sets are nested.  Empty restrictions yield a row with a null estimate.
    """
    radii = _check_radii(radii)
    sub = pool.sub_designs
    d_sub = manifold_distances(sub, manifold)
    return _radius_rows(score_fn(pool.near_designs), score_fn(sub), d_sub, radii)


def build_ranking_report(
    score_fn,
    pool: EvalPool,
    dataset: OfflineDataset,
    radii,
    w1_sample_size: int = 128,
    seed: int = 0,
) -> RankingErrorReport:
    """Radius sweep plus the scalar terms of the error decomposition: the
    empirical margin between the two pool sides, the transport distance from
    the near side to the training marginal, and the mean distance of the near
    side to the data manifold (with the manifold diameter as the calibration
    constant).  One distance query covers the whole pool and each side is
    scored once; the radius rows and the overall error share those scores."""
    _check_w1_sample_size(w1_sample_size)
    radii = _check_radii(radii)
    manifold = dataset.designs
    dist = manifold_distances(pool.designs, manifold)
    h_near, h_sub = score_fn(pool.near_designs), score_fn(pool.sub_designs)
    rows = _radius_rows(h_near, h_sub, dist[pool.sub_idx], radii)
    overall = _scores_error(h_near, h_sub)
    f_near = pool.true_scores[pool.near_idx]
    f_sub = pool.true_scores[pool.sub_idx]
    gap = float(f_near.min() - f_sub.max())

    rng = np.random.default_rng(seed)
    n = min(w1_sample_size, len(pool.near_idx), len(manifold))
    pick = rng.choice(len(pool.near_idx), n, replace=False)
    near_sample = pool.designs[pool.near_idx[pick]]
    manifold_sample = manifold[rng.choice(len(manifold), n, replace=False)]
    w1 = wasserstein1_assignment(near_sample, manifold_sample, metric="euclidean")

    return RankingErrorReport(
        rows=rows,
        overall_error=overall,
        value_gap=gap,
        w1_near=w1,
        mean_dist_to_manifold=float(dist[pool.near_idx].mean()),
        manifold_diameter=manifold_diameter(manifold),
        near_fraction=pool.near_fraction,
        n_near=len(pool.near_idx),
        n_sub=len(pool.sub_idx),
        seed=seed,
    )


def wasserstein1_sorted(a, b) -> float:
    """Closed-form 1-D empirical W1 between equal-size samples: sort and match."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if len(a) != len(b):
        raise ValueError("samples must have equal length")
    if len(a) == 0:
        raise ValueError("samples must be non-empty")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def _pair_cost(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return cdist(A[:, 0, :], B[:, 0, :]) + cdist(A[:, 1, :], B[:, 1, :])


def wasserstein1_assignment(
    A: np.ndarray,
    B: np.ndarray,
    metric: str = "euclidean",
    max_points: int = ASSIGNMENT_CAP,
) -> float:
    """Exact empirical W1 between equal-size samples via min-cost matching.

    ``euclidean`` expects (n, d) design arrays (1-D inputs are treated as
    (n, 1)); ``pair`` expects (n, 2, d) arrays of design pairs and uses the
    additive metric ||x - z|| + ||x' - z'||.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if metric == "euclidean":
        if A.ndim == 1:
            A = A[:, None]
        if B.ndim == 1:
            B = B[:, None]
        if A.ndim != 2 or B.ndim != 2:
            raise ValueError("euclidean metric expects (n, d) arrays")
    elif metric == "pair":
        if A.ndim != 3 or A.shape[1] != 2 or B.ndim != 3 or B.shape[1] != 2:
            raise ValueError("pair metric expects (n, 2, d) arrays")
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if len(A) != len(B):
        raise ValueError("samples must have equal size")
    if len(A) == 0:
        raise ValueError("samples must be non-empty")
    if len(A) > max_points:
        raise ValueError(f"sample size {len(A)} exceeds the exact-solve cap {max_points}")
    if A.shape[1:] != B.shape[1:]:
        raise ValueError("sample dimensions must match")
    cost = cdist(A, B) if metric == "euclidean" else _pair_cost(A, B)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / len(A))


def product_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """All (first_i, second_j) combinations as an (n*m, 2, d) pair array."""
    first = np.atleast_2d(np.asarray(first, dtype=float))
    second = np.atleast_2d(np.asarray(second, dtype=float))
    if first.shape[1] != second.shape[1]:
        raise ValueError("marginal samples must share the design dimension")
    n, m = len(first), len(second)
    out = np.empty((n * m, 2, first.shape[1]))
    out[:, 0, :] = np.repeat(first, m, axis=0)
    out[:, 1, :] = np.tile(second, (n, 1))
    return out


def audit_mse_to_rank(
    score_fn,
    near: np.ndarray,
    sub: np.ndarray,
    f_near: np.ndarray,
    f_sub: np.ndarray,
) -> BoundReport:
    """Check ranking error <= (4 / gap^2) * (near MSE + sub MSE) against truth.

    The gap is the smallest true-value difference over all (near, sub) pairs;
    when it is not strictly positive the reduction does not apply and the
    report is flagged accordingly.
    """
    near = np.atleast_2d(np.asarray(near, dtype=float))
    sub = np.atleast_2d(np.asarray(sub, dtype=float))
    f_near = np.asarray(f_near, dtype=float)
    f_sub = np.asarray(f_sub, dtype=float)
    gap = float(f_near.min() - f_sub.max())
    if gap <= 0.0:
        return BoundReport(
            lhs=math.nan, rhs=math.nan, holds=None, applicable=False, value_gap=gap
        )
    h_near = np.asarray(score_fn(near), dtype=float)
    h_sub = np.asarray(score_fn(sub), dtype=float)
    lhs = _scores_error(h_near, h_sub)
    mse_near = float(np.mean((h_near - f_near) ** 2))
    mse_sub = float(np.mean((h_sub - f_sub) ** 2))
    rhs = 4.0 / gap**2 * (mse_near + mse_sub)
    holds = bool(lhs <= rhs + AUDIT_TOL)
    return BoundReport(lhs=lhs, rhs=rhs, holds=holds, applicable=True, value_gap=gap)


def audit_marginal_decomposition(
    near_sample: np.ndarray,
    sub_sample: np.ndarray,
    mu_sample: np.ndarray,
    nu_sample: np.ndarray,
) -> BoundReport:
    """Check pair-metric W1 of the two product measures against the sum of
    the marginal W1 distances.

    The product measures are built from all index combinations of each pair
    of marginal samples (n^2 equal-mass atoms per side), matching the product
    structure the decomposition requires.
    """
    samples = [
        np.atleast_2d(np.asarray(s, dtype=float))
        for s in (near_sample, sub_sample, mu_sample, nu_sample)
    ]
    near_s, sub_s, mu_s, nu_s = samples
    n = len(near_s)
    if any(len(s) != n for s in samples):
        raise ValueError("all four marginal samples must have equal size")
    if n > 64:
        raise ValueError("marginal sample size capped at 64 for the exact solve")
    target = product_pairs(near_s, sub_s)
    training = product_pairs(mu_s, nu_s)
    lhs = wasserstein1_assignment(target, training, metric="pair", max_points=n * n)
    rhs = wasserstein1_assignment(near_s, mu_s) + wasserstein1_assignment(sub_s, nu_s)
    holds = bool(lhs <= rhs + AUDIT_TOL)
    return BoundReport(lhs=lhs, rhs=rhs, holds=holds, applicable=True)


def save_radius_rows(rows: list[RadiusRow], path: str | Path) -> None:
    write_csv(
        path,
        ["d", "n_restricted", "rank_error"],
        ([row.radius, row.n_restricted, row.error] for row in rows),
    )


def save_bound_reports(reports: list[BoundReport], path: str | Path) -> None:
    write_csv(
        path,
        ["trial", "lhs", "rhs", "holds"],
        (
            [trial, rep.lhs, rep.rhs, None if rep.holds is None else int(rep.holds)]
            for trial, rep in enumerate(reports)
        ),
    )


def report_summary(report: RankingErrorReport) -> dict:
    """The report's scalars and radius rows as plain JSON values."""
    return {
        "overall_error": report.overall_error,
        "value_gap": report.value_gap,
        "w1_near": report.w1_near,
        "mean_dist_to_manifold": report.mean_dist_to_manifold,
        "manifold_diameter": report.manifold_diameter,
        "near_fraction": report.near_fraction,
        "n_near": report.n_near,
        "n_sub": report.n_sub,
        "seed": report.seed,
        "radius_errors": [
            {"d": r.radius, "n_restricted": r.n_restricted, "rank_error": r.error}
            for r in report.rows
        ],
    }


def save_report_summary(report: RankingErrorReport, path: str | Path) -> None:
    write_json(path, report_summary(report))
