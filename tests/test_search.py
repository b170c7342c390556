from types import SimpleNamespace

import numpy as np
import pytest

from rankmbo.objectives import DarConfig, partition, train_dar
from rankmbo.search import (
    SearchConfig,
    SurrogateObjective,
    ascend,
    project_box,
    propose_candidates,
    save_search_result,
    score_candidates,
)
from rankmbo.surrogate import init_surrogate, zscore_adapt
from rankmbo.tasks import OfflineDataset, ValidationError, quadratic_bowl_task


class ExactBowl:
    """Closed-form concave objective used as an exact surrogate stand-in."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)
        self.x_std = np.ones_like(self.center)

    def value_batch(self, X):
        return -np.sum((np.atleast_2d(X) - self.center) ** 2, axis=1)

    def gradient_batch(self, X):
        return -2.0 * (np.atleast_2d(X) - self.center)


class ZeroGradient:
    def __init__(self, dim):
        self.x_std = np.ones(dim)

    def value_batch(self, X):
        return np.zeros(len(np.atleast_2d(X)))

    def gradient_batch(self, X):
        return np.zeros_like(np.atleast_2d(X))


def make_dataset(m=40, seed=0):
    task = quadratic_bowl_task(dim=2, halfwidth=5.0)
    rng = np.random.default_rng(seed)
    designs = rng.uniform(task.lower, task.upper, size=(m, 2))
    scores = task.evaluate_batch(designs)
    return OfflineDataset(
        designs=designs, scores=scores, task=task, seed=seed,
        pool_size=m, keep_fraction=1.0,
        y_min_full=float(scores.min()), y_max_full=float(scores.max()),
    )


class TestProjectBox:
    def test_interior_unchanged(self):
        x = np.array([0.5, 0.5])
        out = project_box(x, np.zeros(2), np.ones(2))
        assert np.array_equal(out, x)

    def test_upper_clamp(self):
        out = project_box(np.array([2.0]), np.array([0.0]), np.array([1.0]))
        assert out[0] == 1.0

    def test_both_coordinates_clamped(self):
        out = project_box(
            np.array([20.0, -20.0]), np.array([-5.0, 0.0]), np.array([10.0, 15.0])
        )
        assert np.array_equal(out, np.array([10.0, 0.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(scale=5.0, size=3)
            lo = -np.abs(rng.normal(size=3))
            hi = np.abs(rng.normal(size=3))
            once = project_box(x, lo, hi)
            assert np.array_equal(project_box(once, lo, hi), once)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), np.zeros(3), np.ones(3))


def ascend_one(objective, x0, lower, upper, config):
    """Trajectory of a single start, shape (steps+1, dim)."""
    return ascend(objective, np.asarray(x0, dtype=float)[None, :], lower, upper, config)[0]


class TestAscend:
    def test_zero_steps_returns_start(self):
        obj = ExactBowl([0.0, 0.0])
        x0 = np.array([1.0, 2.0])
        traj = ascend_one(obj, x0, np.full(2, -5.0), np.full(2, 5.0), SearchConfig(steps=0))
        assert traj.shape == (1, 2)
        assert np.array_equal(traj[0], x0)

    def test_zero_gradient_stays_put(self):
        obj = ZeroGradient(2)
        x0 = np.array([1.0, -1.0])
        traj = ascend_one(obj, x0, np.full(2, -5.0), np.full(2, 5.0), SearchConfig(steps=20))
        assert np.all(traj == x0)

    def test_batch_shape_and_rows_independent(self):
        obj = ExactBowl([1.0, -2.0])
        X0 = np.array([[4.0, 3.0], [-4.0, 0.5], [0.0, 0.0]])
        cfg = SearchConfig(step_size=0.1, steps=15)
        paths = ascend(obj, X0, np.full(2, -5.0), np.full(2, 5.0), cfg)
        assert paths.shape == (3, 16, 2)
        for x0, path in zip(X0, paths):
            assert np.array_equal(ascend_one(obj, x0, np.full(2, -5.0), np.full(2, 5.0), cfg), path)

    def test_converges_to_bowl_center(self):
        # contraction per step is (1 - 2 * 0.1); 500 steps land within 1e-3
        center = np.array([1.0, -2.0])
        obj = ExactBowl(center)
        traj = ascend_one(
            obj,
            np.array([4.0, 3.0]),
            np.full(2, -5.0),
            np.full(2, 5.0),
            SearchConfig(step_size=0.1, steps=500),
        )
        assert np.linalg.norm(traj[-1] - center) < 1e-3

    def test_iterates_respect_box(self):
        obj = ExactBowl([10.0, 10.0])  # center outside the box pulls to the corner
        traj = ascend_one(
            obj,
            np.zeros(2),
            np.full(2, -1.0),
            np.full(2, 1.0),
            SearchConfig(step_size=0.5, steps=50),
        )
        assert np.all(traj >= -1.0) and np.all(traj <= 1.0)
        assert np.allclose(traj[-1], [1.0, 1.0])

    def test_clamp_is_project_box(self):
        # bounds of the wrong length reach project_box's own check
        with pytest.raises(ValueError, match="inconsistent lengths"):
            ascend(ExactBowl([0.0, 0.0]), np.zeros((1, 2)), np.zeros(3), np.ones(3), SearchConfig(steps=1))

    def test_scalar_bounds_match_array_bounds(self):
        obj = ExactBowl([10.0, -10.0])
        X0 = np.array([[0.5, 0.0], [-0.5, 0.9]])
        cfg = SearchConfig(step_size=0.2, steps=20)
        paths = ascend(obj, X0, -1.0, 1.0, cfg)
        assert np.array_equal(paths, ascend(obj, X0, np.full(2, -1.0), np.full(2, 1.0), cfg))

    def test_nonfinite_gradient_reports_step(self):
        class Bad(ZeroGradient):
            def gradient_batch(self, X):
                return np.full_like(np.atleast_2d(X), np.nan)

        with pytest.raises(FloatingPointError, match="step 0"):
            ascend(Bad(2), np.zeros((1, 2)), np.full(2, -1.0), np.full(2, 1.0), SearchConfig(steps=3))

    def test_adapted_and_raw_trajectories_match_with_scaled_step(self):
        ds = make_dataset()
        model, _ = train_dar(
            init_surrogate(2, 16, seed=1),
            ds,
            DarConfig(iterations=200, batch_size=16, learning_rate=1e-3, seed=2),
        )
        sigma = model.adapt_std
        X0 = ds.designs[:1]
        lo, hi = ds.task.lower, ds.task.upper
        raw = SimpleNamespace(gradient_batch=model.input_gradient_batch, x_std=model.x_std)
        t_adapted = ascend(
            SurrogateObjective(model), X0, lo, hi,
            SearchConfig(step_size=0.05, steps=40),
        )
        t_raw = ascend(raw, X0, lo, hi, SearchConfig(step_size=0.05 / sigma, steps=40))
        assert np.allclose(t_adapted, t_raw, atol=1e-9)


class TestProposeAndScore:
    def _trained(self, ds):
        model, _ = train_dar(
            init_surrogate(2, 16, seed=3),
            ds,
            DarConfig(iterations=200, batch_size=16, learning_rate=1e-3, seed=4),
        )
        return model

    def test_topk_single_candidate_no_steps_is_best_design(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.2)
        cfg = SearchConfig(steps=0, num_candidates=1, seed=0)
        result = propose_candidates(model, ds, part, cfg)
        best = ds.designs[np.argmax(ds.scores)]
        assert np.array_equal(result.candidates[0], best)

    def test_padding_to_candidate_count(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.1)  # 4 near points
        cfg = SearchConfig(steps=0, num_candidates=11, seed=0)
        result = propose_candidates(model, ds, part, cfg)
        assert len(result.candidates) == 11
        for x0 in result.init_designs:
            assert any(np.array_equal(x0, d) for d in ds.designs[part.near_idx])

    def test_candidates_inside_box(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.2)
        cfg = SearchConfig(steps=100, step_size=0.5, num_candidates=8, seed=1)
        result = propose_candidates(model, ds, part, cfg)
        assert ds.task.contains(result.candidates)

    def test_zero_step_best_matches_best_initialization(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.2)
        cfg = SearchConfig(step_size=0.0, steps=50, num_candidates=5, seed=2)
        result = score_candidates(propose_candidates(model, ds, part, cfg), ds)
        init_best = ds.task.evaluate_batch(result.init_designs).max()
        assert result.best_true == pytest.approx(init_best, abs=0)

    def test_deterministic_including_padding(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.1)
        cfg = SearchConfig(steps=5, num_candidates=20, seed=6)
        assert part.n_near < cfg.num_candidates  # the rest are seeded draws
        a = propose_candidates(model, ds, part, cfg)
        b = propose_candidates(model, ds, part, cfg)
        assert np.array_equal(a.candidates, b.candidates)

    def test_score_candidates_fills_summary(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.2)
        result = propose_candidates(
            model, ds, part, SearchConfig(steps=10, num_candidates=4, seed=0)
        )
        result = score_candidates(result, ds)
        assert result.best_true == result.true_scores.max()
        assert result.best_normalized is not None
        assert len(result.normalized_scores) == 4

    def test_identical_candidates_share_best(self):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.1)  # 4 near points, padded to 6 starts
        cfg = SearchConfig(steps=0, num_candidates=6, seed=123)
        result = propose_candidates(model, ds, part, cfg)
        result.candidates = np.tile(result.candidates[:1], (6, 1))
        result = score_candidates(result, ds)
        assert np.all(result.true_scores == result.best_true)

    def test_csv_and_json_output(self, tmp_path):
        ds = make_dataset()
        model = self._trained(ds)
        part = partition(ds, 0.2)
        result = score_candidates(
            propose_candidates(model, ds, part, SearchConfig(steps=2, num_candidates=3, seed=0)),
            ds,
        )
        save_search_result(result, tmp_path / "s.csv", tmp_path / "s.json")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == (
            "candidate_id,x0_0,x0_1,xfinal_0,xfinal_1,"
            "surrogate_score,true_score,normalized_score"
        )
        assert len(lines) == 4
        import json

        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["best_true"] == result.best_true
        assert summary["config"]["num_candidates"] == 3


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(step_size=-0.1)
    with pytest.raises(ValueError):
        SearchConfig(num_candidates=0)
    SearchConfig(step_size=0.0)  # a zero step is a legitimate degenerate search


@pytest.mark.parametrize(
    "field, value", [("step_size", np.inf), ("step_size", np.nan), ("seed", -1)]
)
def test_search_config_rejects_non_finite_step_and_negative_seed(field, value):
    with pytest.raises(ValidationError) as excinfo:
        SearchConfig(**{field: value})
    assert excinfo.value.field == field
