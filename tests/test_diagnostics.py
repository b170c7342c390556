import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import cdist

from rankmbo import diagnostics
from rankmbo.diagnostics import (
    EvalPool,
    audit_marginal_decomposition,
    audit_mse_to_rank,
    build_ranking_report,
    make_eval_pool,
    manifold_diameter,
    manifold_distances,
    product_pairs,
    ranking_error,
    ranking_error_vs_radius,
    save_bound_reports,
    save_radius_rows,
    wasserstein1_assignment,
    wasserstein1_sorted,
)
from rankmbo.tasks import (
    OfflineDataset,
    ValidationError,
    branin_task,
    make_offline_dataset,
    quadratic_bowl_task,
)


def enumerate_w1(A, B, metric="euclidean"):
    """Brute-force matching optimum over all permutations; independent oracle."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = len(A)
    best = math.inf
    for perm in permutations(range(n)):
        if metric == "euclidean":
            total = sum(np.linalg.norm(A[i] - B[perm[i]]) for i in range(n))
        else:
            total = sum(
                np.linalg.norm(A[i, 0] - B[perm[i], 0])
                + np.linalg.norm(A[i, 1] - B[perm[i], 1])
                for i in range(n)
            )
        best = min(best, total)
    return best / n


def true_score_fn(pool_like):
    """Score function equal to the bowl's true objective."""
    return lambda X: -np.sum(np.atleast_2d(X) ** 2, axis=1)


class TestEvalPool:
    @pytest.mark.parametrize(
        "size, near_fraction, field, message",
        [
            (1, 0.05, "eval_pool_size", "must be at least 2"),
            (100, 1.5, "eval_near_fraction", "must lie strictly in (0, 1)"),
        ],
        ids=["pool_size", "near_fraction"],
    )
    def test_bad_argument_names_field(self, size, near_fraction, field, message):
        with pytest.raises(ValidationError) as excinfo:
            make_eval_pool(branin_task(), size, near_fraction, 0)
        assert (excinfo.value.field, excinfo.value.message) == (field, message)


class TestRankingError:
    def test_true_function_is_perfect(self):
        task = quadratic_bowl_task(dim=2)
        pool = make_eval_pool(task, 300, 0.1, seed=0)
        err = ranking_error(task.evaluate_batch, pool.near_designs, pool.sub_designs)
        assert err == 0.0

    def test_negated_function_is_fully_wrong(self):
        task = quadratic_bowl_task(dim=2)
        pool = make_eval_pool(task, 300, 0.1, seed=0)
        err = ranking_error(
            lambda X: -task.evaluate_batch(X), pool.near_designs, pool.sub_designs
        )
        assert err == 1.0

    def test_half_wrong_three_points(self):
        scores = {(0.0,): 1.0, (1.0,): 2.0, (2.0,): 0.0}

        def fn(X):
            return np.array([scores[tuple(row)] for row in np.atleast_2d(X)])

        err = ranking_error(fn, np.array([[0.0]]), np.array([[1.0], [2.0]]))
        assert err == 0.5

    def test_within_unit_interval_and_brute_force_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            near = rng.normal(size=(rng.integers(1, 20), 2))
            sub = rng.normal(size=(rng.integers(1, 20), 2))
            w = rng.normal(size=2)
            fn = lambda X: np.atleast_2d(X) @ w
            err = ranking_error(fn, near, sub)
            brute = np.mean(
                [float(fn(a[None])[0] <= fn(b[None])[0]) for a in near for b in sub]
            )
            assert 0.0 <= err <= 1.0
            assert err == brute

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        near = rng.normal(size=(15, 2))
        sub = rng.normal(size=(25, 2))
        w = rng.normal(size=2)
        base = lambda X: np.atleast_2d(X) @ w
        err = ranking_error(base, near, sub)
        assert ranking_error(lambda X: np.exp(base(X)), near, sub) == err
        assert ranking_error(lambda X: 3.0 * base(X) + 7.0, near, sub) == err

    # few distinct values force ties, including between infinities
    tied_scores = st.lists(
        st.sampled_from([-np.inf, 0.0, 1.0, 2.0, np.inf]), min_size=1, max_size=30
    )

    @settings(max_examples=200, deadline=None)
    @given(tied_scores, tied_scores)
    def test_equals_brute_force_matrix_with_ties(self, h_near, h_sub):
        h_near, h_sub = np.array(h_near), np.array(h_sub)
        fn = lambda X: X[:, 0]
        err = ranking_error(fn, h_near[:, None], h_sub[:, None])
        assert err == np.mean(h_near[:, None] <= h_sub[None, :])

    def test_exact_beyond_ten_million_pairs(self):
        # near i is ranked at or below sub j + 0.5 for every j >= i: 5000 - i
        # wrong pairs each, 12_502_500 of the 25M in all
        n = 5000
        near = np.arange(n, dtype=float)[:, None]
        sub = near + 0.5
        assert ranking_error(lambda X: X[:, 0], near, sub) == 12_502_500 / 25_000_000

    def test_nan_scores_rejected(self):
        def fn(X):
            out = X[:, 0].copy()
            out[out == 1.0] = np.nan
            return out

        with pytest.raises(ValueError, match="NaN"):
            ranking_error(fn, np.array([[1.0], [2.0]]), np.array([[0.0]]))
        with pytest.raises(ValueError, match="NaN"):
            ranking_error(fn, np.array([[2.0]]), np.array([[0.0], [1.0]]))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            ranking_error(lambda X: np.zeros(len(X)), np.zeros((0, 2)), np.zeros((3, 2)))


def single_distance(x, M):
    return manifold_distances(x[None, :], M)[0]


class TestManifoldDistance:
    def test_member_distance_zero(self):
        M = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert single_distance(np.array([1.0, 1.0]), M) == 0.0

    def test_three_four_five(self):
        assert single_distance(np.array([3.0, 4.0]), np.zeros((1, 2))) == 5.0

    def test_adding_points_never_increases_distance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            M = rng.normal(size=(10, 3))
            extra = rng.normal(size=(5, 3))
            x = rng.normal(size=3)
            d1 = single_distance(x, M)
            d2 = single_distance(x, np.vstack([M, extra]))
            assert d2 <= d1

    def test_batch_matches_single(self):
        # each row scored alone equals its row of the batch
        rng = np.random.default_rng(7)
        M = rng.normal(size=(20, 2))
        X = rng.normal(size=(9, 2))
        batch = manifold_distances(X, M)
        singles = np.array([single_distance(x, M) for x in X])
        assert np.allclose(batch, singles, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        X = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="X must be finite"):
            manifold_distances(X, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_manifold_rejected(self, bad):
        M = np.array([[0.0, 1.0], [0.0, bad]])
        with pytest.raises(ValueError, match="manifold must be finite"):
            manifold_distances(np.zeros((3, 2)), M)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_brute_force_in_shipped_dims(self, data):
        X, M = data.draw(query_and_manifold(dims=(1, 2)))
        assert np.array_equal(manifold_distances(X, M), cdist(X, M).min(axis=1))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_brute_force_on_a_large_pool(self, dim):
        # big enough for the tree to prune many leaves; an approximate search
        # (a nonzero eps) misses some nearest points here
        rng = np.random.default_rng(16)
        M = rng.uniform(-5.0, 5.0, size=(3000, dim))
        X = np.vstack([rng.uniform(-6.0, 6.0, size=(2000, dim)), M[:100]])
        assert np.array_equal(manifold_distances(X, M), cdist(X, M).min(axis=1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_close_to_brute_force_in_higher_dims(self, data):
        X, M = data.draw(query_and_manifold(dims=(3, 4, 5, 6)))
        np.testing.assert_allclose(
            manifold_distances(X, M), cdist(X, M).min(axis=1), rtol=1e-12, atol=1e-12
        )


coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def query_and_manifold(draw, dims):
    """(X, M) with duplicate manifold points, one-point manifolds and query
    points that lie on the manifold all in reach.  Manifolds reach past the
    k-d tree's 16-point leaves, so its pruning is exercised."""
    d = draw(st.sampled_from(dims))
    point = st.lists(coords, min_size=d, max_size=d)
    M = draw(st.lists(point, min_size=1, max_size=80))
    M += draw(st.lists(st.sampled_from(M), max_size=8))
    X = draw(st.lists(point, max_size=12))
    X += draw(st.lists(st.sampled_from(M), min_size=0 if X else 1, max_size=4))
    return np.array(X, dtype=float), np.array(M, dtype=float)


class TestRadiusSweep:
    def _setup(self):
        task = quadratic_bowl_task(dim=2)
        ds = make_offline_dataset(task, 300, 0.6, seed=1)
        pool = make_eval_pool(task, 400, 0.05, seed=2)
        return task, ds, pool

    def test_large_radius_equals_overall(self):
        task, ds, pool = self._setup()
        fn = task.evaluate_batch
        rows = ranking_error_vs_radius(fn, pool, ds.designs, [1e9])
        overall = ranking_error(fn, pool.near_designs, pool.sub_designs)
        assert rows[0].error == overall
        assert rows[0].n_restricted == len(pool.sub_idx)

    def test_tiny_radius_gives_null_row(self):
        task, ds, pool = self._setup()
        rows = ranking_error_vs_radius(task.evaluate_batch, pool, ds.designs, [1e-12, 1e9])
        assert rows[0].n_restricted == 0
        assert rows[0].error is None
        assert rows[1].error is not None

    def test_restricted_sets_are_nested(self):
        task, ds, pool = self._setup()
        radii = [0.1, 0.3, 0.8, 2.0]
        d_sub = manifold_distances(pool.sub_designs, ds.designs)
        sizes = [int((d_sub <= r).sum()) for r in radii]
        rows = ranking_error_vs_radius(task.evaluate_batch, pool, ds.designs, radii)
        assert [r.n_restricted for r in rows] == sizes
        assert sizes == sorted(sizes)

    def test_radii_validation(self):
        task, ds, pool = self._setup()
        sweep = lambda radii: ranking_error_vs_radius(
            task.evaluate_batch, pool, ds.designs, radii
        )
        report = lambda radii: build_ranking_report(task.evaluate_batch, pool, ds, radii)
        for run in (sweep, report):
            with pytest.raises(ValueError, match="ascending"):
                run([2.0, 1.0])
            with pytest.raises(ValueError, match="ascending"):
                run([1.0, 1.0])
            with pytest.raises(ValueError, match="positive"):
                run([-1.0])
            with pytest.raises(ValueError, match="positive"):
                run([0.0, 1.0])
            with pytest.raises(ValueError, match="NaN"):
                run([float("nan")])
            with pytest.raises(ValueError, match="NaN"):
                run([1.0, float("nan")])
            with pytest.raises(ValueError, match="at least one radius"):
                run(())

    def test_infinite_radius_is_unrestricted(self):
        task, ds, pool = self._setup()
        rows = ranking_error_vs_radius(
            task.evaluate_batch, pool, ds.designs, [0.5, float("inf")]
        )
        assert rows[-1].n_restricted == len(pool.sub_idx)
        assert rows[-1].error == ranking_error(
            task.evaluate_batch, pool.near_designs, pool.sub_designs
        )

    def test_bad_radii_name_field(self):
        task, ds, pool = self._setup()
        with pytest.raises(ValidationError) as excinfo:
            ranking_error_vs_radius(task.evaluate_batch, pool, ds.designs, [2.0, 1.0])
        assert excinfo.value.field == "radii"

    @pytest.mark.parametrize("n", [0, 513])
    def test_bad_w1_sample_size_names_field(self, n):
        # 513 points exceed the exact-solve cap even where the pool would
        # cap the sample below it
        task, ds, pool = self._setup()
        with pytest.raises(ValidationError) as excinfo:
            build_ranking_report(task.evaluate_batch, pool, ds, [1.0], w1_sample_size=n)
        assert (excinfo.value.field, excinfo.value.message) == (
            "w1_sample_size",
            "must lie in [1, 512]",
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.lists(st.integers(0, 10**9), min_size=1, max_size=6))
    def test_counts_match_brute_force(self, seed, picks):
        # radii sit exactly on pool distances, so the <= boundary is exercised
        task = quadratic_bowl_task(dim=2)
        ds = make_offline_dataset(task, 60, 0.6, seed=seed)
        pool = make_eval_pool(task, 120, 0.1, seed=seed + 1)
        d_sub = cdist(pool.sub_designs, ds.designs).min(axis=1)
        radii = sorted({float(d_sub[p % len(d_sub)]) for p in picks} - {0.0})
        if not radii:
            return
        expected = [int((d_sub <= r).sum()) for r in radii]
        rows = ranking_error_vs_radius(task.evaluate_batch, pool, ds.designs, radii)
        assert [r.n_restricted for r in rows] == expected
        report = build_ranking_report(task.evaluate_batch, pool, ds, radii, w1_sample_size=8)
        assert [r.n_restricted for r in report.rows] == expected

    def test_report_fields(self):
        task, ds, pool = self._setup()
        report = build_ranking_report(
            task.evaluate_batch, pool, ds, [0.5, 1.0, 2.0], w1_sample_size=16, seed=0
        )
        assert report.overall_error == 0.0
        assert report.value_gap > 0.0
        assert report.w1_near >= 0.0
        assert report.mean_dist_to_manifold >= 0.0
        assert report.manifold_diameter > 0.0
        assert report.n_near == len(pool.near_idx)

    def test_report_scores_each_side_once(self):
        task, ds, pool = self._setup()
        scorer = CountingScorer(wiggly_score)
        radii = [0.1, 0.3, 0.8, 2.0, 1e9]
        report = build_ranking_report(scorer, pool, ds, radii, w1_sample_size=16)
        assert scorer.calls == 2
        assert report.overall_error == ranking_error(
            wiggly_score, pool.near_designs, pool.sub_designs
        )
        assert report.rows == ranking_error_vs_radius(wiggly_score, pool, ds.designs, radii)
        assert 0.0 < report.overall_error < 1.0
        assert report.mean_dist_to_manifold == manifold_distances(
            pool.near_designs, ds.designs
        ).mean()
        # a row-wise scorer gives the same rows as scoring each restriction alone
        d_sub = manifold_distances(pool.sub_designs, ds.designs)
        for row in report.rows:
            mask = d_sub <= row.radius
            if row.n_restricted:
                assert row.error == ranking_error(
                    wiggly_score, pool.near_designs, pool.sub_designs[mask]
                )

    def test_sweep_scores_each_side_once(self):
        task, ds, pool = self._setup()
        scorer = CountingScorer(wiggly_score)
        ranking_error_vs_radius(scorer, pool, ds.designs, [0.1, 0.3, 0.8, 2.0])
        assert scorer.calls == 2


class CountingScorer:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, X):
        self.calls += 1
        return self.fn(X)


def wiggly_score(X):
    """Row-wise scorer that misranks some pairs of the bowl."""
    X = np.atleast_2d(X)
    return -np.sum(X**2, axis=1) + 3.0 * np.sin(5.0 * X[:, 0])


class TestWassersteinSorted:
    def test_identical_lists(self):
        assert wasserstein1_sorted([1.0, 2.0], [2.0, 1.0]) == 0.0

    def test_singletons(self):
        assert wasserstein1_sorted([0.0], [3.0]) == 3.0

    def test_matched_shift(self):
        assert wasserstein1_sorted([0.0, 1.0], [1.0, 2.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein1_sorted([0.0], [1.0, 2.0])


class TestWassersteinAssignment:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(10, 3))
        assert wasserstein1_assignment(A, A.copy()) == 0.0

    def test_matches_sorted_in_one_dimension(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            assert wasserstein1_assignment(a, b) == pytest.approx(
                wasserstein1_sorted(a, b), abs=1e-12
            )

    def test_matches_enumeration_small_n(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            A = rng.normal(size=(n, d))
            B = rng.normal(size=(n, d))
            assert wasserstein1_assignment(A, B) == pytest.approx(
                enumerate_w1(A, B), abs=1e-9
            )

    def test_pair_metric_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, 2, 2))
            B = rng.normal(size=(n, 2, 2))
            assert wasserstein1_assignment(A, B, metric="pair") == pytest.approx(
                enumerate_w1(A, B, metric="pair"), abs=1e-9
            )

    def test_metric_axioms(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, 2))
            B = rng.normal(size=(n, 2))
            C = rng.normal(size=(n, 2))
            dab = wasserstein1_assignment(A, B)
            dba = wasserstein1_assignment(B, A)
            dac = wasserstein1_assignment(A, C)
            dcb = wasserstein1_assignment(C, B)
            assert dab >= 0.0
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dcb + 1e-9
        # identity of indiscernibles on point sets
        A = rng.normal(size=(6, 2))
        assert wasserstein1_assignment(A, np.random.default_rng(1).permutation(A)) == pytest.approx(0.0, abs=1e-12)

    def test_product_sample_bounded_by_marginal_sum(self):
        # product built from 2 x 3 marginals stays within brute-force reach
        rng = np.random.default_rng(13)
        for _ in range(20):
            first_a, second_a = rng.normal(size=(2, 2)), rng.normal(size=(3, 2))
            first_b, second_b = rng.normal(size=(2, 2)), rng.normal(size=(3, 2))
            prod_a = product_pairs(first_a, second_a)
            prod_b = product_pairs(first_b, second_b)
            lhs = wasserstein1_assignment(prod_a, prod_b, metric="pair")
            assert lhs == pytest.approx(enumerate_w1(prod_a, prod_b, metric="pair"), abs=1e-9)
            rhs = wasserstein1_assignment(first_a, first_b) + wasserstein1_assignment(
                second_a, second_b
            )
            assert lhs <= rhs + 1e-9

    def test_size_cap_and_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein1_assignment(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            wasserstein1_assignment(np.zeros((600, 1)), np.zeros((600, 1)))
        with pytest.raises(ValueError):
            wasserstein1_assignment(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAuditMseToRank:
    def _pool(self, seed=0):
        rng = np.random.default_rng(seed)
        near = rng.uniform(-1.0, 1.0, size=(20, 2))
        sub = rng.uniform(2.0, 4.0, size=(40, 2))

        def truth(X):
            return -np.sum(np.atleast_2d(X) ** 2, axis=1)

        return near, sub, truth(near), truth(sub), truth

    def test_truth_scorer_gives_zero_both_sides(self):
        near, sub, f_near, f_sub, truth = self._pool()
        rep = audit_mse_to_rank(truth, near, sub, f_near, f_sub)
        assert rep.applicable
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.holds

    def test_constant_shift_keeps_ranking(self):
        near, sub, f_near, f_sub, truth = self._pool()
        shifted = lambda X: truth(X) + 5.0
        rep = audit_mse_to_rank(shifted, near, sub, f_near, f_sub)
        assert rep.lhs == 0.0
        expected_rhs = 4.0 / rep.value_gap**2 * (25.0 + 25.0)
        assert rep.rhs == pytest.approx(expected_rhs)
        assert rep.holds

    def test_nonpositive_gap_flagged_inapplicable(self):
        near, sub, f_near, f_sub, truth = self._pool()
        rep = audit_mse_to_rank(truth, near, sub, f_sub[:20], f_near)
        assert not rep.applicable
        assert rep.holds is None

    def test_scores_each_side_once(self):
        near, sub, f_near, f_sub, _ = self._pool(seed=3)
        scorer = CountingScorer(wiggly_score)
        rep = audit_mse_to_rank(scorer, near, sub, f_near, f_sub)
        assert scorer.calls == 2
        assert rep.lhs == ranking_error(wiggly_score, near, sub)
        mse = np.mean((wiggly_score(near) - f_near) ** 2) + np.mean(
            (wiggly_score(sub) - f_sub) ** 2
        )
        assert rep.rhs == 4.0 / rep.value_gap**2 * mse

    def test_random_scorers_never_violate(self):
        near, sub, f_near, f_sub, _ = self._pool(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.normal(size=2)
            b = rng.normal()
            fn = lambda X: np.atleast_2d(X) @ w + b
            rep = audit_mse_to_rank(fn, near, sub, f_near, f_sub)
            assert rep.applicable and rep.holds


@st.composite
def diameter_sets(draw):
    """Point sets in 1 to 6 dimensions with 1 point and up, duplicates and,
    on integer grids, collinear and coplanar points and flat sets."""
    d = draw(st.integers(1, 6))
    coord = st.integers(-3, 3).map(float) if draw(st.booleans()) else coords
    point = st.lists(coord, min_size=d, max_size=d)
    M = draw(st.lists(point, min_size=1, max_size=60))
    M += draw(st.lists(st.sampled_from(M), max_size=8))
    return np.array(M, dtype=float)


def brute_force_diameter(M):
    return float(cdist(M, M).max())


class TestManifoldDiameter:
    @settings(max_examples=400, deadline=None)
    @given(diameter_sets())
    def test_equals_brute_force(self, M):
        assert manifold_diameter(M) == brute_force_diameter(M)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_few_points(self, n, dim):
        M = np.random.default_rng(n * 10 + dim).normal(size=(n, dim))
        assert manifold_diameter(M) == brute_force_diameter(M)

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]),  # collinear
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 3, 0], [1, 1, 0]], float),
            np.c_[np.random.default_rng(0).normal(size=(40, 3)), np.zeros(40)],
        ],
        ids=["collinear-2d", "coplanar-3d", "flat-4d"],
    )
    def test_flat_sets_fall_back_to_every_point(self, M):
        with pytest.raises(QhullError):
            ConvexHull(M, qhull_options="Qc")
        assert manifold_diameter(M) == brute_force_diameter(M)

    @pytest.mark.parametrize("dim", [1, 5, 6])
    def test_outside_hull_dims_scans_every_point(self, dim, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("qhull must not run outside 2-4 dimensions")

        monkeypatch.setattr(diagnostics, "ConvexHull", refuse)
        M = np.random.default_rng(dim).normal(size=(300, dim))
        assert manifold_diameter(M) == brute_force_diameter(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_manifold_rejected(self, bad):
        # a NaN distance used to drop out of the running maximum, so the
        # diameter read 0.0
        M = np.array([[0.0, 0.0], [bad, 1.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="manifold must be finite"):
            manifold_diameter(M)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_large_set_scans_only_the_hull(self, dim):
        # the chunked scan over all 3000 points held a 666 x 3000 distance
        # block (16 MB); the hull has at most a few hundred points
        M = np.random.default_rng(dim).uniform(-5.0, 5.0, size=(3000, dim))
        tracemalloc.start()
        try:
            got = manifold_diameter(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert got == brute_force_diameter(M)


class TestAuditMarginalDecomposition:
    def test_identical_samples_zero_both_sides(self):
        rng = np.random.default_rng(14)
        s = rng.normal(size=(4, 2))
        rep = audit_marginal_decomposition(s, s, s, s)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_singleton_transport_is_forced(self):
        rep = audit_marginal_decomposition(
            np.array([[0.0]]), np.array([[10.0]]), np.array([[1.0]]), np.array([[9.0]])
        )
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.holds

    def test_random_trials_never_violate(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            samples = [rng.normal(size=(8, 2)) for _ in range(4)]
            rep = audit_marginal_decomposition(*samples)
            assert rep.holds

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 16), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_product_measures_make_it_an_identity(self, n, dim, seed):
        # for product measures and an additive pair cost, the projections of
        # an optimal coupling give lhs >= rhs and the product of the two
        # optimal marginal couplings gives lhs <= rhs
        rng = np.random.default_rng(seed)
        samples = [rng.normal(size=(n, dim)) for _ in range(4)]
        samples[1][: n // 2] = samples[3][: n // 2]  # some zero-cost atoms
        rep = audit_marginal_decomposition(*samples)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-9, abs=0.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            audit_marginal_decomposition(
                np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((2, 1))
            )
        with pytest.raises(ValueError):
            audit_marginal_decomposition(
                np.zeros((65, 1)), np.zeros((65, 1)), np.zeros((65, 1)), np.zeros((65, 1))
            )


class TestReportSerialization:
    def test_radius_rows_csv(self, tmp_path):
        from rankmbo.diagnostics import RadiusRow

        rows = [RadiusRow(0.5, 10, 0.25), RadiusRow(1.0, 0, None)]
        save_radius_rows(rows, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "d,n_restricted,rank_error"
        assert lines[1] == "0.5,10,0.25"
        assert lines[2] == "1,0,"

    def test_bound_reports_csv(self, tmp_path):
        from rankmbo.diagnostics import BoundReport

        reports = [
            BoundReport(lhs=0.125, rhs=0.5, holds=True, applicable=True),
            BoundReport(lhs=float("nan"), rhs=float("nan"), holds=None, applicable=False),
        ]
        save_bound_reports(reports, tmp_path / "b.csv")
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "trial,lhs,rhs,holds"
        assert lines[1] == "0,0.125,0.5,1"
        assert lines[2].startswith("1,nan,nan,")


def test_eval_pool_partitions_by_true_score():
    task = quadratic_bowl_task(dim=2)
    pool = make_eval_pool(task, 200, 0.1, seed=3)
    assert len(pool.near_idx) + len(pool.sub_idx) == 200
    assert pool.true_scores[pool.near_idx].min() >= pool.true_scores[pool.sub_idx].max()
    # near side really is the top of the true scores
    assert pool.true_scores[pool.near_idx].min() >= np.quantile(pool.true_scores, 0.85)
