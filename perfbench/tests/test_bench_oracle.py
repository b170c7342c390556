"""The exact ranking-error count against the brute-force comparison matrix."""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oracle import agrees, ranking_error_count  # noqa: E402

# few distinct values, so ties between and within the two sides are frequent
scores = st.lists(st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3), min_size=1, max_size=40)


@given(scores, scores)
def test_count_equals_brute_force_matrix(near, sub):
    h_near, h_sub = np.array(near), np.array(sub)
    wrong, total = ranking_error_count(h_near, h_sub)
    brute = h_near[:, None] <= h_sub[None, :]
    assert total == brute.size
    assert wrong == int(brute.sum())
    assert agrees(float(np.mean(brute)), wrong, total, total)


@given(st.integers(1, 30), st.integers(1, 30), st.floats(-5, 5))
def test_all_ties_count_as_errors(n, m, value):
    assert ranking_error_count(np.full(n, value), np.full(m, value)) == (n * m, n * m)


def test_subsample_band():
    wrong, total = 300, 1000  # p = 0.3
    sigma = np.sqrt(0.3 * 0.7 / 100)
    assert agrees(0.3 + 5.9 * sigma, wrong, total, 100)
    assert not agrees(0.3 + 6.1 * sigma, wrong, total, 100)
    assert not agrees(0.3 + 1e-12, wrong, total, total)
