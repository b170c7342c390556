"""Independent reference values for checking the outputs of a run."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

BAND_SIGMAS = 6.0


def ranking_error_count(h_near, h_sub) -> tuple[int, int]:
    """(wrong, total) over all (near, sub) pairs; a pair is wrong when
    h_near <= h_sub, so ties count as errors.  O((n + m) log m)."""
    h_near = np.asarray(h_near, dtype=float).reshape(-1)
    h_sub = np.sort(np.asarray(h_sub, dtype=float).reshape(-1))
    at_or_above = len(h_sub) - np.searchsorted(h_sub, h_near, side="left")
    return int(at_or_above.sum()), len(h_near) * len(h_sub)


def agrees(reported: float, wrong: int, total: int, pairs_compared: int) -> bool:
    """Exact equality when every pair was compared; otherwise within a
    BAND_SIGMAS binomial band of a uniform subsample of ``pairs_compared``."""
    p = wrong / total
    if pairs_compared >= total:
        return reported == p
    sigma = math.sqrt(p * (1.0 - p) / pairs_compared)
    return abs(reported - p) <= BAND_SIGMAS * sigma


def check_radius_report(score_fn, rows, overall, near, sub, manifold, pair_cap):
    """Problems found in a radius sweep and its overall error; empty when all hold.

    ``rows`` is a sequence of (radius, n_restricted, error or None).  Scores
    are taken on the same arrays the program scores, so an exact comparison
    is bit-for-bit; distances to the manifold come from a k-d tree,
    independent of the program's own chunked search.
    """
    problems = []
    cap = math.inf if pair_cap is None else pair_cap
    h_near = score_fn(near)
    wrong, total = ranking_error_count(h_near, score_fn(sub))
    if not agrees(overall, wrong, total, min(total, cap)):
        problems.append(f"overall rank error {overall!r} != exact {wrong}/{total}")
    counts = [row[1] for row in rows]
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append(f"n_restricted decreases with radius: {counts}")
    d_sub, _ = cKDTree(manifold).query(sub)
    for radius, n, err in rows:
        mask = d_sub <= radius
        if int(mask.sum()) != n:
            problems.append(f"d={radius}: n_restricted {n} != {int(mask.sum())}")
        elif n == 0:
            if err is not None:
                problems.append(f"d={radius}: empty restriction reports {err!r}")
        else:
            w, t = ranking_error_count(h_near, score_fn(sub[mask]))
            if err is None or not agrees(err, w, t, min(t, cap)):
                problems.append(f"d={radius}: rank error {err!r} != exact {w}/{t}")
    return problems
