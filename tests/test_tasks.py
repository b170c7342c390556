import numpy as np
import pytest

from rankmbo.tasks import (
    BRANIN_MAX_VALUE,
    BRANIN_MAXIMIZERS,
    OfflineDataset,
    ValidationError,
    branin_task,
    get_task,
    make_offline_dataset,
    normalized_score,
    quadratic_bowl_task,
    save_dataset,
)


def branin(*rows):
    """The Branin task's values at the given rows."""
    return branin_task().evaluate_batch(np.array(rows, dtype=float))


class TestBranin:
    @pytest.mark.parametrize("x", BRANIN_MAXIMIZERS)
    def test_maximizer_values(self, x):
        assert branin(x)[0] == pytest.approx(-0.397887, abs=1e-6)

    def test_origin_value(self):
        # hand evaluation: -(36 + 10(1 - 1/(8 pi)) + 10)
        expected = -(36.0 + 20.0 - 10.0 / (8.0 * np.pi))
        assert branin([0.0, 0.0])[0] == pytest.approx(expected, abs=1e-12)
        assert branin([0.0, 0.0])[0] == pytest.approx(-55.602, abs=1e-3)

    def test_outside_box_is_permitted(self):
        assert np.isfinite(branin([100.0, -50.0])[0])

    def test_grid_maximum_near_known_maximizers(self):
        # independent dense-grid oracle over the feasible box
        task = branin_task()
        g1 = np.linspace(task.lower[0], task.upper[0], 200)
        g2 = np.linspace(task.lower[1], task.upper[1], 200)
        X1, X2 = np.meshgrid(g1, g2, indexing="ij")
        grid = np.column_stack([X1.ravel(), X2.ravel()])
        values = task.evaluate_batch(grid)
        assert values.max() == pytest.approx(BRANIN_MAX_VALUE, abs=1e-3)
        maxima = np.array(BRANIN_MAXIMIZERS)
        # grid points attaining the maximum (within 1e-3) sit within 0.1 of a maximizer
        for p in grid[values >= values.max() - 1e-3]:
            assert np.min(np.linalg.norm(maxima - p, axis=1)) < 0.1
        # each of the three maximizers is approached by the grid within its 0.1-ball
        for m in maxima:
            ball = values[np.linalg.norm(grid - m, axis=1) < 0.1]
            assert ball.max() == pytest.approx(BRANIN_MAX_VALUE, abs=6e-3)


def bowl(center, *rows):
    """The values at the given rows of the bowl centred at ``center``."""
    center = np.asarray(center, dtype=float)
    task = quadratic_bowl_task(dim=len(center), center=center)
    return task.evaluate_batch(np.array(rows, dtype=float))


class TestQuadraticBowl:
    def test_center_is_zero(self):
        c = [1.0, 2.0, 3.0]
        assert bowl(c, c)[0] == 0.0

    def test_unit_offset(self):
        assert bowl([1.0, 2.0], [2.0, 2.0])[0] == -1.0

    def test_three_four_five(self):
        assert bowl([0.0, 0.0], [3.0, 4.0])[0] == -25.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="center"):
            quadratic_bowl_task(dim=2, center=np.zeros(1))

    def test_batch_matches_scalar_evaluator(self):
        # oracle: a per-row scalar evaluation in plain Python
        c = [1.0, -2.0, 0.5]
        X = np.random.default_rng(4).uniform(-4.0, 4.0, size=(50, 3))
        scalar = [-sum((xi - ci) ** 2 for xi, ci in zip(x, c)) for x in X.tolist()]
        assert np.array_equal(bowl(c, *X), scalar)


class TestMakeOfflineDataset:
    def test_keeps_bottom_fraction(self):
        # pool of 5 scores {1..5}, keep 0.6 -> the bottom three
        task = quadratic_bowl_task(dim=1, halfwidth=10.0)
        rng_free_scores = np.array([3.0, 1.0, 5.0, 2.0, 4.0])
        order = np.argsort(rng_free_scores, kind="stable")
        assert set(rng_free_scores[order[:3]]) == {1.0, 2.0, 3.0}

    def test_keep_fraction_one_is_identity(self):
        task = quadratic_bowl_task(dim=2)
        ds = make_offline_dataset(task, pool_size=50, keep_fraction=1.0, seed=3)
        assert len(ds) == 50
        assert ds.scores.max() == ds.y_max_full
        assert ds.scores.min() == ds.y_min_full

    def test_worst_fraction_matches_independent_sort(self):
        # oracle: regenerate the pool and sort it independently
        task = branin_task()
        ds = make_offline_dataset(task, pool_size=5000, keep_fraction=0.6, seed=11)
        rng = np.random.default_rng(11)
        pool = rng.uniform(task.lower, task.upper, size=(5000, 2))
        scores = task.evaluate_batch(pool)
        keep = int(0.6 * 5000)
        boundary = np.sort(scores)[keep]
        assert ds.scores.max() < boundary
        assert ds.scores.min() == ds.y_min_full == scores.min()
        assert ds.y_max_full == scores.max()
        expected = pool[np.argsort(scores, kind="stable")[:keep]]
        assert np.array_equal(np.sort(ds.scores), np.sort(scores)[:keep])
        assert np.array_equal(ds.designs, expected)

    def test_deterministic_per_seed(self):
        task = branin_task()
        a = make_offline_dataset(task, 500, 0.5, seed=7)
        b = make_offline_dataset(branin_task(), 500, 0.5, seed=7)
        assert np.array_equal(a.designs, b.designs)
        assert np.array_equal(a.scores, b.scores)

    def test_designs_inside_box(self):
        task = branin_task()
        ds = make_offline_dataset(task, 200, 0.6, seed=0)
        assert task.contains(ds.designs)

    def test_noise_option(self):
        task = quadratic_bowl_task(dim=2)
        noisy = make_offline_dataset(task, 100, 0.6, seed=5, noise_std=1.0)
        clean = make_offline_dataset(quadratic_bowl_task(dim=2), 100, 0.6, seed=5)
        assert not np.array_equal(noisy.scores, clean.scores)

    @pytest.mark.parametrize(
        "pool_size,keep_fraction", [(1, 1.0), (5, 0.2), (100, 0.01)]
    )
    def test_degenerate_keep_rejected(self, pool_size, keep_fraction):
        with pytest.raises(ValueError):
            make_offline_dataset(branin_task(), pool_size, keep_fraction, seed=0)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("pool_size", dict(pool_size=1, keep_fraction=1.0)),
            ("keep_fraction", dict(pool_size=100, keep_fraction=0.0)),
            ("keep_fraction", dict(pool_size=100, keep_fraction=1.5)),
            ("keep_fraction", dict(pool_size=100, keep_fraction=0.01)),
            ("noise_std", dict(pool_size=100, keep_fraction=0.6, noise_std=-1.0)),
            ("noise_std", dict(pool_size=100, keep_fraction=0.6, noise_std=np.nan)),
            ("noise_std", dict(pool_size=100, keep_fraction=0.6, noise_std=np.inf)),
        ],
    )
    def test_bad_argument_names_field(self, field, kwargs):
        with pytest.raises(ValueError) as excinfo:
            make_offline_dataset(branin_task(), seed=0, **kwargs)
        assert isinstance(excinfo.value, ValidationError)
        assert excinfo.value.field == field


def with_extrema(y_min, y_max):
    """A two-point dataset carrying the given pool extrema."""
    return OfflineDataset(
        designs=[[0.0], [1.0]], scores=[0.0, 1.0], task=quadratic_bowl_task(dim=1),
        y_min_full=y_min, y_max_full=y_max,
    )


class TestNormalizedScore:
    def test_endpoints(self):
        ds = with_extrema(-4.0, 0.0)
        assert normalized_score(-4.0, ds) == 0.0
        assert normalized_score(0.0, ds) == 1.0

    def test_linear_interpolation(self):
        assert normalized_score(4.0, with_extrema(0.0, 10.0)) == pytest.approx(0.4)

    def test_can_exceed_unit_interval(self):
        assert normalized_score(2.0, with_extrema(0.0, 1.0)) == pytest.approx(2.0)

    def test_array_matches_scalars(self):
        ds = with_extrema(-3.0, 7.0)
        y = np.random.default_rng(2).normal(size=20)
        expected = [normalized_score(float(v), ds) for v in y]
        assert np.array_equal(normalized_score(y, ds), expected)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lo, span = rng.normal(), abs(rng.normal()) + 0.1
            y = lo + span * rng.random()
            a, b = abs(rng.normal()) + 0.1, rng.normal()
            d1 = with_extrema(lo, lo + span)
            d2 = with_extrema(a * lo + b, a * (lo + span) + b)
            assert normalized_score(a * y + b, d2) == pytest.approx(
                normalized_score(y, d1), abs=1e-9
            )

    def test_degenerate_extrema_rejected(self):
        with pytest.raises(ValueError):
            normalized_score(1.0, with_extrema(1.0, 1.0))

    def test_missing_extrema_rejected(self):
        with pytest.raises(ValueError):
            normalized_score(0.5, with_extrema(None, None))

    def test_later_pool_leaves_earlier_dataset_unchanged(self):
        # the extrema belong to the dataset that drew them, not to the shared task
        task = branin_task()
        first = make_offline_dataset(task, pool_size=50, keep_fraction=0.6, seed=0)
        best = float(first.scores.max())
        before = normalized_score(best, first)
        second = make_offline_dataset(task, pool_size=50, keep_fraction=0.6, seed=1)
        assert normalized_score(best, first) == before
        assert (first.y_min_full, first.y_max_full) != (second.y_min_full, second.y_max_full)


class TestDatasetValidationAndIO:
    def test_score_design_length_mismatch(self):
        task = quadratic_bowl_task(dim=1)
        with pytest.raises(ValueError):
            OfflineDataset(designs=[[0.0], [1.0]], scores=[0.0], task=task)

    def test_out_of_box_design_rejected(self):
        task = quadratic_bowl_task(dim=1, halfwidth=1.0)
        with pytest.raises(ValueError):
            OfflineDataset(designs=[[0.0], [2.0]], scores=[0.0, 1.0], task=task)

    def test_csv_roundtrip_is_exact(self, tmp_path):
        task = branin_task()
        ds = make_offline_dataset(task, 100, 0.6, seed=4)
        save_dataset(ds, tmp_path / "d.csv")
        data = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(data[:, :-1], ds.designs)
        assert np.array_equal(data[:, -1], ds.scores)

    def test_csv_header(self, tmp_path):
        task = branin_task()
        ds = make_offline_dataset(task, 10, 1.0, seed=4)
        save_dataset(ds, tmp_path / "d.csv")
        header = (tmp_path / "d.csv").read_text().splitlines()[0]
        assert header == "x0,x1,y"

    def test_get_task(self):
        assert get_task("branin").name == "branin"
        with pytest.raises(ValueError) as excinfo:
            get_task("nope")
        assert isinstance(excinfo.value, ValidationError)
        assert excinfo.value.field == "name"
