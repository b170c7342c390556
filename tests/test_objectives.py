import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankmbo import objectives
from rankmbo.objectives import (
    _TIE_ROUNDS,
    DarConfig,
    RankConfig,
    TrainingDiverged,
    margin_rank_loss,
    margin_rank_loss_grad,
    mse_loss,
    mse_loss_grad,
    partition,
    partition_scores,
    sample_dar_pairs,
    sample_ranked_pairs,
    save_loss_trace,
    train_dar,
    train_mse,
    train_rank_global,
    zero_one_rank_loss,
    _draw_ranked_direct,
)
from rankmbo.surrogate import _BLOCK, TrainConfig, init_surrogate, zscore_adapt
from rankmbo.tasks import OfflineDataset, ValidationError, quadratic_bowl_task


def brute_force_partition(scores, near_fraction):
    """Independent construction: k-th largest threshold plus tie inclusion."""
    scores = np.asarray(scores, dtype=float)
    k = math.ceil(near_fraction * len(scores))
    threshold = sorted(scores, reverse=True)[k - 1]
    near = {i for i, y in enumerate(scores) if y >= threshold}
    return threshold, near


def small_dataset(designs, scores):
    dim = np.atleast_2d(designs).shape[1]
    task = quadratic_bowl_task(dim=dim, halfwidth=100.0)
    return OfflineDataset(designs=designs, scores=scores, task=task)


def wide_init_surrogate(dim, hidden, seed):
    """``init_surrogate`` with its weights scaled by 4 in place."""
    model = init_surrogate(dim, hidden, seed=seed)
    for w in model.weights:
        w *= 4.0
    return model


class TestPartition:
    def test_top_two_of_ten(self):
        part = partition_scores(np.arange(1.0, 11.0), 0.2)
        assert part.threshold == 9.0
        assert set(part.near_idx) == {8, 9}
        assert set(part.sub_idx) == set(range(8))

    def test_top_one_no_ties(self):
        part = partition_scores(np.array([1.0, 2.0, 3.0, 3.0, 5.0]), 0.2)
        assert part.threshold == 5.0
        assert set(part.near_idx) == {4}

    def test_tie_inclusion_at_threshold(self):
        part = partition_scores(np.array([1.0, 2.0, 3.0, 3.0]), 0.5)
        assert part.threshold == 3.0
        assert set(part.near_idx) == {2, 3}
        assert part.n_near == 2

    def test_all_identical_scores_rejected(self):
        with pytest.raises(ValueError):
            partition_scores(np.ones(10), 0.2)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction_rejected(self, eps):
        with pytest.raises(ValueError):
            partition_scores(np.arange(10.0), eps)

    def test_matches_brute_force_on_random_datasets(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            m = int(rng.integers(2, 200))
            # mix continuous and heavily tied score patterns
            if rng.random() < 0.5:
                scores = rng.normal(size=m)
            else:
                scores = rng.integers(0, 6, size=m).astype(float)
            eps = float(rng.uniform(0.05, 0.95))
            threshold, near = brute_force_partition(scores, eps)
            if len(near) == m:
                with pytest.raises(ValueError):
                    partition_scores(scores, eps)
                continue
            part = partition_scores(scores, eps)
            assert part.threshold == threshold
            assert set(part.near_idx) == near
            assert set(part.sub_idx) == set(range(m)) - near

    def test_partition_of_dataset(self):
        ds = small_dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        part = partition(ds, 0.33)
        assert set(part.near_idx) == {2}


class TestLosses:
    def test_mse_cases(self):
        assert mse_loss(1.0, 1.0) == 0.0
        assert mse_loss(3.0, 1.0) == 4.0
        assert mse_loss_grad(3.0, 1.0) == 4.0
        assert mse_loss(2.0, 5.0) == mse_loss(5.0, 2.0)

    def test_margin_cases(self):
        assert margin_rank_loss(2.0, 0.0, 0.4) == 0.0
        assert margin_rank_loss(0.0, 0.0, 0.4) == pytest.approx(0.4)
        assert margin_rank_loss(0.1, 0.0, 0.4) == pytest.approx(0.3)

    def test_margin_gradients(self):
        g1, g2 = margin_rank_loss_grad(0.1, 0.0, 0.4)
        assert (g1, g2) == (-1.0, 1.0)
        g1, g2 = margin_rank_loss_grad(2.0, 0.0, 0.4)
        assert (g1, g2) == (0.0, 0.0)
        # at the kink the loss is 0 and so are the gradients
        g1, g2 = margin_rank_loss_grad(0.4, 0.0, 0.4)
        assert (g1, g2) == (0.0, 0.0)

    def test_margin_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s1, s2, c = rng.normal(size=3)
            beta = abs(rng.normal())
            assert margin_rank_loss(s1 + c, s2 + c, beta) == pytest.approx(
                margin_rank_loss(s1, s2, beta), abs=1e-9
            )

    def test_margin_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        step = 1e-6
        checked = 0
        for _ in range(200):
            s1, s2 = rng.normal(size=2)
            beta = abs(rng.normal())
            if abs(beta - (s1 - s2)) <= 1e-4:
                continue
            fd1 = (margin_rank_loss(s1 + step, s2, beta) - margin_rank_loss(s1 - step, s2, beta)) / (2 * step)
            fd2 = (margin_rank_loss(s1, s2 + step, beta) - margin_rank_loss(s1, s2 - step, beta)) / (2 * step)
            g1, g2 = margin_rank_loss_grad(s1, s2, beta)
            assert abs(g1 - fd1) < 1e-6 * max(1.0, abs(fd1))
            assert abs(g2 - fd2) < 1e-6 * max(1.0, abs(fd2))
            checked += 1
        assert checked > 150

    def test_zero_one_cases(self):
        assert zero_one_rank_loss(1.0, 0.0) == 0.0
        assert zero_one_rank_loss(0.0, 1.0) == 1.0
        assert zero_one_rank_loss(1.0, 1.0) == 1.0  # ties count as mis-rankings

    def test_zero_one_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s1, s2 = rng.normal(size=2)
            a = abs(rng.normal()) + 0.1
            b = rng.normal()
            assert zero_one_rank_loss(s1, s2) == zero_one_rank_loss(a * s1 + b, a * s2 + b)
            assert zero_one_rank_loss(s1, s2) == zero_one_rank_loss(np.exp(s1), np.exp(s2))


class TestPairSamplers:
    def test_ranked_pairs_respect_order(self):
        rng = np.random.default_rng(0)
        scores = np.array([1.0, 1.0, 2.0, 5.0, 5.0, 7.0])
        pref, other = sample_ranked_pairs(rng, scores, 5000)
        assert np.all(scores[pref] > scores[other])

    def test_ranked_pairs_uniform_over_ranked_set(self):
        rng = np.random.default_rng(1)
        scores = np.array([0.0, 1.0, 2.0])
        pref, other = sample_ranked_pairs(rng, scores, 30000)
        counts = {}
        for p, o in zip(pref, other):
            counts[(p, o)] = counts.get((p, o), 0) + 1
        assert set(counts) == {(1, 0), (2, 0), (2, 1)}
        for c in counts.values():
            assert abs(c / 30000 - 1 / 3) < 0.02

    def test_dar_mixture_rate(self):
        rng = np.random.default_rng(2)
        scores = np.arange(100.0)
        part = partition_scores(scores, 0.2)
        _, _, intra = sample_dar_pairs(rng, scores, part, 0.1, 100_000)
        assert abs(intra.mean() - 0.1) < 0.01

    def test_dar_degenerate_mixtures(self):
        rng = np.random.default_rng(3)
        scores = np.arange(50.0)
        part = partition_scores(scores, 0.2)
        pref, other, intra = sample_dar_pairs(rng, scores, part, 0.0, 2000)
        assert not intra.any()
        assert np.all(np.isin(pref, part.near_idx))
        assert np.all(np.isin(other, part.sub_idx))
        pref, other, intra = sample_dar_pairs(rng, scores, part, 1.0, 2000)
        assert intra.all()
        assert np.all(np.isin(pref, part.near_idx))
        assert np.all(np.isin(other, part.near_idx))
        assert np.all(scores[pref] > scores[other])

    def test_ranked_pairs_without_ranked_pair_raise(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        for scores in (np.zeros(5), np.array([2.0]), np.array([]), np.array([np.nan, 1.0])):
            with pytest.raises(ValueError):
                sample_ranked_pairs(rng, scores, 3)
        assert rng.bit_generator.state == state

    def test_dar_intra_without_ranked_near_pair_raises(self):
        rng = np.random.default_rng(5)
        scores = np.array([0.0, 1.0, 2.0, 5.0, 5.0])
        part = partition_scores(scores, 0.4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="intra_ratio=0"):
            sample_dar_pairs(rng, scores, part, 0.1, 3)
        assert rng.bit_generator.state == state
        pref, other, intra = sample_dar_pairs(rng, scores, part, 0.0, 50)
        assert not intra.any() and np.all(scores[pref] > scores[other])

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(st.integers(0, 4), min_size=2, max_size=30),
        near_fraction=st.floats(0.05, 0.95),
        intra_ratio=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        count=st.integers(0, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returned_pairs_strictly_ranked(
        self, values, near_fraction, intra_ratio, count, seed
    ):
        scores = np.array(values, dtype=float)
        rng = np.random.default_rng(seed)
        if np.all(scores == scores[0]):
            with pytest.raises(ValueError):
                sample_ranked_pairs(rng, scores, count)
            return
        pref, other = sample_ranked_pairs(rng, scores, count)
        assert len(pref) == count
        assert np.all(scores[pref] > scores[other])

        threshold, _ = brute_force_partition(scores, near_fraction)
        if threshold == scores.min():
            return  # every score would be near; the partition is undefined
        part = partition_scores(scores, near_fraction)
        near = scores[part.near_idx]
        if intra_ratio > 0.0 and np.all(near == near[0]):
            with pytest.raises(ValueError):
                sample_dar_pairs(rng, scores, part, intra_ratio, count)
            return
        pref, other, intra = sample_dar_pairs(rng, scores, part, intra_ratio, count)
        assert np.all(scores[pref] > scores[other])
        assert np.all(np.isin(pref, part.near_idx))
        assert np.all(np.isin(other[intra], part.near_idx))
        assert np.all(np.isin(other[~intra], part.sub_idx))


class _EveryInteger:
    """Stand-in generator whose one draw is every integer in [0, high)."""

    def integers(self, low, high, size):
        assert low == 0 and size == high
        return np.arange(high)


class _CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


class TestTieRedraws:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.integers(0, 3), min_size=2, max_size=25))
    def test_direct_draw_maps_onto_each_ranked_pair_once(self, values):
        scores = np.array(values, dtype=float)
        n = len(scores)
        ranked = [(i, j) for i in range(n) for j in range(n) if scores[i] > scores[j]]
        assume(ranked)
        pref, other = _draw_ranked_direct(_EveryInteger(), scores, len(ranked))
        assert sorted(zip(pref.tolist(), other.tolist())) == sorted(ranked)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_distinct_value_finishes_within_the_cap(self, seed):
        # 999 tied scores: a candidate pair is ranked with probability ~0.002
        scores = np.zeros(1000)
        scores[0] = 1.0
        rng = _CountingRng(seed)
        pref, other = sample_ranked_pairs(rng, scores, 256)
        assert rng.calls <= 2 + 2 * _TIE_ROUNDS + 1
        assert np.all(pref == 0) and np.all(other != 0)


class TestTrainMse:
    def test_fits_two_points(self):
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])
        model = init_surrogate(1, 64, seed=0)
        model, trace = train_mse(
            model, ds, TrainConfig(iterations=2000, batch_size=4, learning_rate=1e-2, seed=1)
        )
        assert trace[-1] < 1e-3
        assert np.all(np.isfinite(trace))
        assert model.objective == "mse"

    def test_zero_learning_rate_keeps_parameters(self):
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])
        model = init_surrogate(1, 8, seed=5)
        before = [w.copy() for w in model.weights]
        model, _ = train_mse(
            model, ds, TrainConfig(iterations=50, batch_size=2, learning_rate=0.0, seed=1)
        )
        for w, b in zip(model.weights, before):
            assert np.array_equal(w, b)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_iteration(self):
        ds = small_dataset([[0.0], [1.0]], [0.0, 1e200])
        model = init_surrogate(1, 8, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train_mse(
                model, ds,
                TrainConfig(iterations=500, batch_size=4, learning_rate=1e150, seed=1),
            )
        assert exc.value.iteration == 0

    def test_deterministic(self):
        ds = small_dataset([[0.0], [0.5], [1.0]], [0.0, 0.2, 1.0])
        cfg = TrainConfig(iterations=100, batch_size=4, learning_rate=1e-3, seed=9)
        m1, t1 = train_mse(init_surrogate(1, 8, seed=2), ds, cfg)
        m2, t2 = train_mse(init_surrogate(1, 8, seed=2), ds, cfg)
        assert np.array_equal(t1, t2)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)


class TestDescend:
    @pytest.mark.parametrize(
        "train, config",
        [
            (train_mse, TrainConfig(iterations=3, batch_size=4, seed=1)),
            (train_dar, DarConfig(iterations=3, batch_size=4, near_fraction=0.5, seed=1)),
        ],
    )
    def test_optimizer_is_freed_before_adaptation(self, monkeypatch, train, config):
        # adapting while the optimizer and its gradient views are alive keeps
        # three parameter-sized buffers beside the adaptation's forward pass
        refs = []

        class Recording(objectives._Optimizer):
            def __init__(self, model, config):
                super().__init__(model, config)
                refs.extend([weakref.ref(self), weakref.ref(self.grad)])

        def adapt(model, dataset):
            assert len(refs) == 2 and all(ref() is None for ref in refs)
            return zscore_adapt(model, dataset)

        monkeypatch.setattr(objectives, "_Optimizer", Recording)
        monkeypatch.setattr(objectives, "zscore_adapt", adapt)
        ds = small_dataset([[0.0], [0.5], [1.0]], [0.0, 0.2, 1.0])
        model, _ = train(init_surrogate(1, 8, seed=0), ds, config)
        assert model.is_adapted and len(refs) == 2

    def test_iterations_after_the_first_allocate_no_activation_array(self):
        # the first iteration allocates the forward workspace; later ones
        # reuse it, and the backward pass writes its deltas over it.  What
        # a later iteration still allocates is the batch, the upstream
        # gradient, a bool ReLU mask and numpy's ufunc buffers for broadcast
        # operands (at most 8192 entries each, at any batch size).
        rows, hidden, iterations = 256, 256, 8
        rng = np.random.default_rng(0)
        designs = rng.normal(size=(100, 2))
        ds = small_dataset(designs, -np.sum(designs**2, axis=1))
        starts, peaks = [], []

        def next_batch(rng):
            # each draw closes the previous iteration and opens the next
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            X = rng.normal(size=(rows, 2))
            # every other batch has no active row, so nothing is gathered
            scale = 2.0 / rows if len(starts) % 2 else 0.0
            return X, lambda s: (float(np.mean(s**2)), scale * s)

        config = TrainConfig(iterations=iterations, batch_size=rows, seed=0)
        tracemalloc.start()
        try:
            objectives._descend(init_surrogate(2, hidden, seed=0), ds, config, next_batch, "t")
        finally:
            tracemalloc.stop()
        grown = [peak - start for start, peak in zip(starts, peaks[1:])]
        assert len(grown) == iterations - 1
        array = rows * hidden * 8
        assert grown[0] > 2 * array  # the workspace
        assert max(grown[1:]) < array


class TestTrainRankGlobal:
    def test_separates_two_points(self):
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])
        model = init_surrogate(1, 64, seed=0)
        model, _ = train_rank_global(
            model, ds, RankConfig(iterations=2000, batch_size=8, learning_rate=1e-2, seed=1, margin=0.4)
        )
        low, high = model.forward_batch(np.array([[0.0], [1.0]]))
        gap = high - low
        assert gap >= 0.4 - 1e-2
        assert model.is_adapted
        assert model.objective == "rank_global"

    def test_all_tied_scores_rejected(self):
        ds = small_dataset([[0.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            train_rank_global(init_surrogate(1, 8, seed=0), ds, RankConfig(seed=0))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_under_saturated_hinge_raises(self):
        # an infinite score gives a finite hinge loss, so only the per-layer
        # activation checks of the forward pass catch the overflow
        assert margin_rank_loss(np.inf, 1.0, 0.4) == 0.0
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])
        model = wide_init_surrogate(1, 8, seed=2)
        model.weights[1][0, 0] = 1e308
        with pytest.raises(TrainingDiverged, match="layer") as exc:
            train_rank_global(model, ds, RankConfig(iterations=5, batch_size=4, seed=0))
        assert exc.value.iteration == 0
        assert isinstance(exc.value.__cause__, FloatingPointError)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_adam_moment_overflow_raises(self):
        # the scores and the loss stay finite, but the squared gradient
        # overflows Adam's second moment, which would freeze those parameters
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])
        model = wide_init_surrogate(1, 8, seed=0)
        model.weights[1][0, 0] = 1e308
        before = [w.copy() for w in model.weights]
        with pytest.raises(TrainingDiverged) as exc:
            train_rank_global(model, ds, RankConfig(iterations=5, batch_size=4, seed=0))
        assert exc.value.iteration == 0
        for w, b in zip(model.weights, before):
            assert np.array_equal(w, b)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_adam_moment_overflow_in_last_block_raises(self):
        # as above, at a width where the flat buffers span several blocks; a
        # tiny W3[0, 0] keeps every squared gradient finite except W3[0, 0]'s,
        # which lies in the partial last block
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])

        def make_model():
            model = wide_init_surrogate(1, 200, seed=0)
            model.weights[1][0, 0] = 1e308
            model.weights[2][0, 0] = -1e-160
            return model

        # every batch pairs x=1 (preferred) against x=0, all hinges active
        probe = make_model()
        probe.set_input_standardization(np.array([0.5]), np.array([0.5]))
        gw, gb = probe.param_gradients(
            np.array([[1.0]] * 4 + [[0.0]] * 4), np.repeat([-0.25, 0.25], 4)
        )
        g = np.concatenate([a.ravel() for a in gw + gb])
        overflowing = np.flatnonzero(~np.isfinite(g * g))
        n = probe.num_params
        assert n > _BLOCK and n % _BLOCK != 0
        assert len(overflowing) == 1 and overflowing[0] >= n // _BLOCK * _BLOCK

        model = make_model()
        before = [p.copy() for p in model.weights + model.biases]
        with pytest.raises(TrainingDiverged) as exc:
            train_rank_global(model, ds, RankConfig(iterations=5, batch_size=4, seed=0))
        assert exc.value.iteration == 0
        assert "optimizer state" in str(exc.value)
        for p, b in zip(model.weights + model.biases, before):
            assert np.array_equal(p, b)

    def test_zero_margin_ordered_model_is_fixed_point(self):
        # identity-like model already orders the two points; margin 0 gives no gradient
        ds = small_dataset([[0.0], [1.0]], [0.0, 1.0])
        model = init_surrogate(1, 16, seed=3)
        model, trace = train_mse(
            model, ds, TrainConfig(iterations=3000, batch_size=4, learning_rate=1e-2, seed=1)
        )
        before_w = [w.copy() for w in model.weights]
        before_b = [b.copy() for b in model.biases]
        model, trace = train_rank_global(
            model, ds,
            RankConfig(iterations=200, batch_size=16, learning_rate=1e-2, seed=2, margin=0.0),
        )
        assert np.all(trace == 0.0)
        for w, b in zip(model.weights, before_w):
            assert np.array_equal(w, b)
        for bb, b in zip(model.biases, before_b):
            assert np.array_equal(bb, b)


class TestTrainDar:
    def _dataset(self, m=60, seed=0):
        rng = np.random.default_rng(seed)
        designs = rng.uniform(-5.0, 5.0, size=(m, 2))
        scores = -np.sum(designs**2, axis=1)
        return small_dataset(designs, scores)

    def test_trains_and_adapts(self):
        ds = self._dataset()
        cfg = DarConfig(iterations=300, batch_size=32, learning_rate=1e-3, seed=1)
        model, trace = train_dar(init_surrogate(2, 16, seed=4), ds, cfg)
        assert model.is_adapted
        assert model.objective == "dar"
        assert np.all(np.isfinite(trace))

    def test_intra_needs_two_distinct_near_scores(self):
        scores = np.array([0.0, 0.0, 0.0, 5.0])
        ds = small_dataset([[0.0], [1.0], [2.0], [3.0]], scores)
        cfg = DarConfig(iterations=10, batch_size=4, near_fraction=0.25, intra_ratio=0.5, seed=0)
        with pytest.raises(ValueError, match="intra_ratio=0"):
            train_dar(init_surrogate(1, 4, seed=0), ds, cfg)

    def test_deterministic(self):
        ds = self._dataset()
        cfg = DarConfig(iterations=100, batch_size=16, learning_rate=1e-3, seed=7)
        m1, t1 = train_dar(init_surrogate(2, 8, seed=2), ds, cfg)
        m2, t2 = train_dar(init_surrogate(2, 8, seed=2), ds, cfg)
        assert np.array_equal(t1, t2)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DarConfig(near_fraction=1.5)
        with pytest.raises(ValueError):
            DarConfig(intra_ratio=-0.1)
        with pytest.raises(ValueError):
            RankConfig(margin=-1.0)

    @pytest.mark.parametrize(
        "config_cls, field, value",
        [
            (TrainConfig, "learning_rate", math.nan),
            (TrainConfig, "learning_rate", math.inf),
            (TrainConfig, "seed", -1),
            (RankConfig, "margin", math.nan),
            (RankConfig, "margin", math.inf),
            (DarConfig, "seed", -1),
        ],
    )
    def test_non_finite_value_or_negative_seed_names_field(self, config_cls, field, value):
        with pytest.raises(ValidationError) as excinfo:
            config_cls(**{field: value})
        assert excinfo.value.field == field


def test_save_loss_trace(tmp_path):
    save_loss_trace(np.array([1.0, 0.5]), tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss"
    assert lines[1] == "0,1"
    assert lines[2] == "1,0.5"
