import base64
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankmbo import surrogate
from rankmbo.objectives import margin_rank_loss_grad
from rankmbo.surrogate import (
    MlpSurrogate,
    TrainConfig,
    _BLOCK,
    _Optimizer,
    init_surrogate,
    load_model,
    save_model,
    zscore_adapt,
)


def finite_difference_param_grads(model, X, upstream, step=1e-5):
    """Central-difference oracle for d/dtheta sum_i upstream_i h(x_i)."""

    def objective():
        return float(np.dot(upstream, model.forward_batch(X)))

    grads_w, grads_b = [], []
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for arr in params:
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                hi = objective()
                flat[k] = orig - step
                lo = objective()
                flat[k] = orig
                gflat[k] = (hi - lo) / (2.0 * step)
            grads.append(g)
    return grads_w, grads_b


def score(model, x):
    """Network output at one design, through the batch API."""
    return float(model.forward_batch(np.asarray(x, dtype=float)[None, :])[0])


def input_grad(model, x):
    return model.input_gradient_batch(np.asarray(x, dtype=float)[None, :])[0]


def finite_difference_input_grad(model, x, step=1e-5):
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (score(model, x + e) - score(model, x - e)) / (2.0 * step)
    return g


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def ref_forward_cache(model, X):
    """Five-array forward pass that keeps each pre-activation beside its ReLU
    output; the reference for the surrogate's in-place cache."""
    Z = (X - model.x_mean) / model.x_std
    A1 = Z @ model.weights[0].T + model.biases[0]
    H1 = np.maximum(A1, 0.0)
    A2 = H1 @ model.weights[1].T + model.biases[1]
    H2 = np.maximum(A2, 0.0)
    out = H2 @ model.weights[2].T + model.biases[2]
    return out[:, 0], (Z, A1, H1, A2, H2)


def ref_backward(model, cache, up):
    """Parameter gradients over every row of the cache, active or not, with
    the ReLU masks taken from the pre-activations."""
    gw1, gw2, gw3 = [np.empty_like(w) for w in model.weights]
    gb1, gb2, gb3 = [np.empty_like(b) for b in model.biases]
    Z, A1, H1, A2, H2 = cache
    np.matmul(up[None, :], H2, out=gw3)
    gb3[0] = up.sum()
    d2 = up[:, None] * model.weights[2][0] * (A2 > 0.0)
    np.matmul(d2.T, H1, out=gw2)
    np.sum(d2, axis=0, out=gb2)
    d1 = (d2 @ model.weights[1]) * (A1 > 0.0)
    np.matmul(d1.T, Z, out=gw1)
    np.sum(d1, axis=0, out=gb1)
    return [gw1, gw2, gw3], [gb1, gb2, gb3]


def random_model(dim, hidden, seed):
    """A surrogate with nonzero biases and input standardization."""
    rng = np.random.default_rng(seed)
    m = init_surrogate(dim, hidden, seed=seed)
    for b in m.biases:
        b += rng.normal(size=b.shape)
    m.set_input_standardization(rng.normal(size=dim), rng.uniform(0.5, 2.0, size=dim))
    return m


def pair_upstream(scores, margin):
    """The pairwise trainers' upstream gradient for pairs (row i, row k + i):
    zero for every pair past the margin, -0.0 on its preferred row."""
    k = len(scores) // 2
    g_pref, g_other = margin_rank_loss_grad(scores[:k], scores[k:], margin)
    return np.concatenate([g_pref, g_other]) / k


def ref_input_gradient_batch(model, X):
    _, (_, A1, _, A2, _) = ref_forward_cache(model, X)
    v2 = model.weights[2][0][None, :] * (A2 > 0.0)
    v1 = (v2 @ model.weights[1]) * (A1 > 0.0)
    return (v1 @ model.weights[0]) / model.x_std


def min_preactivation_magnitude(model, x):
    """Smallest |pre-activation| at one design; small values flag
    kink-adjacent inputs."""
    _, (_, A1, _, A2, _) = ref_forward_cache(model, np.atleast_2d(x))
    return float(min(np.abs(A1).min(), np.abs(A2).min()))


def make_linear_chain(weight=1.0):
    """1-1-1-1 net computing weight * x for positive activations."""
    return MlpSurrogate(
        weights=[np.array([[weight]]), np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.zeros(1), np.zeros(1)],
    )


class TestInit:
    def test_deterministic(self):
        a = init_surrogate(3, 8, seed=42)
        b = init_surrogate(3, 8, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_bias_zero_and_shapes(self):
        m = init_surrogate(5, 16, seed=0)
        assert m.layer_sizes == [5, 16, 16, 1]
        for b in m.biases:
            assert np.all(b == 0.0)
        assert m.weights[0].shape == (16, 5)
        assert m.weights[1].shape == (16, 16)
        assert m.weights[2].shape == (1, 16)

    def test_param_count_minimal_net(self):
        m = init_surrogate(1, 1, seed=0)
        assert m.num_params == 6

    def test_init_scale_bounds(self):
        m = init_surrogate(4, 32, seed=1)
        assert np.max(np.abs(m.weights[0])) <= 1.0 / np.sqrt(4)
        assert np.max(np.abs(m.weights[1])) <= 1.0 / np.sqrt(32)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_surrogate(0, 8, seed=0)

    def test_model_owns_its_parameters(self):
        a = init_surrogate(3, 8, seed=0)
        before = [p.copy() for p in a.weights + a.biases]
        b = MlpSurrogate(a.weights, a.biases)
        for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
            assert not np.shares_memory(pa, pb)
        opt = _Optimizer(b, TrainConfig(learning_rate=0.1))
        b.loss_and_grads(np.ones((4, 3)), lambda s: (0.0, np.ones(4)), out=opt.grads)
        assert opt.step()
        assert not all(np.array_equal(p, q) for p, q in zip(b.weights + b.biases, before))
        for p, q in zip(a.weights + a.biases, before):
            assert np.array_equal(p, q)


class TestForward:
    def test_zero_model_outputs_zero(self):
        m = init_surrogate(3, 4, seed=0)
        m.weights = [np.zeros_like(w) for w in m.weights]
        assert score(m, [1.0, -2.0, 3.0]) == 0.0

    def test_positive_passthrough(self):
        assert score(make_linear_chain(), [2.0]) == 2.0

    def test_relu_kills_negative(self):
        assert score(make_linear_chain(), [-2.0]) == 0.0

    def test_batch_matches_single(self):
        m = init_surrogate(2, 8, seed=3)
        X = np.random.default_rng(0).normal(size=(10, 2))
        batch = m.forward_batch(X)
        singles = np.array([score(m, x) for x in X])
        assert np.allclose(batch, singles, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_activation_raises_with_layer(self):
        m = make_linear_chain()
        m.weights[1][0, 0] = 1e308
        with pytest.raises(FloatingPointError, match="layer 2"):
            m.forward_batch(np.array([[1e5]]))


class TestForwardCache:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 8),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        kinks=st.booleans(),
    )
    def test_matches_five_array_reference(self, dim, hidden, n, seed, kinks):
        rng = np.random.default_rng(seed)
        m = init_surrogate(dim, hidden, seed=seed)
        X = rng.normal(scale=3.0, size=(n, dim))
        if kinks:
            # zero biases and zero rows put pre-activations exactly at the
            # ReLU kink, where the masks from H > 0 and A > 0 must agree
            X[rng.random(n) < 0.5] = 0.0
        else:
            for b in m.biases:
                b += rng.normal(size=b.shape)
            m.set_input_standardization(rng.normal(size=dim), rng.uniform(0.5, 2.0, size=dim))
        up = rng.normal(size=n)
        ref_scores, cache = ref_forward_cache(m, X)
        ref_grads = ref_backward(m, cache, up)
        assert np.array_equal(m.forward_batch(X), ref_scores)
        opt = _Optimizer(m, TrainConfig())
        _, fused = m.loss_and_grads(X, lambda s: (float(np.dot(up, s)), up), out=opt.grads)
        for grads in (m.param_gradients(X, up), fused):
            for a, b in zip(grads[0] + grads[1], ref_grads[0] + ref_grads[1]):
                assert np.array_equal(a, b)
        assert np.array_equal(m.input_gradient_batch(X), ref_input_gradient_batch(m, X))

    def test_forward_batch_peak_memory(self):
        # one cached array per hidden layer peaks at about 2.1 n x hidden
        # arrays; caching each pre-activation as well takes about 4
        n, hidden = 4000, 256
        m = init_surrogate(2, hidden, seed=0)
        X = np.random.default_rng(0).normal(size=(n, 2))
        tracemalloc.start()
        try:
            m.forward_batch(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * hidden * 8

    def test_large_pool_peak_memory_is_bounded_by_the_block(self):
        # one pass over 200 000 rows would hold two 200 000 x 64 arrays
        # (205 MB); 4096-row blocks hold 4 MiB of them beside the scores
        n, hidden = 200_000, 64
        m = init_surrogate(2, hidden, seed=0)
        X = np.random.default_rng(0).normal(size=(n, 2))
        m.adapt_output(X[:1000])
        tracemalloc.start()
        try:
            m.predict_adapted_batch(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the autouse fixture patches the same block size for every example
blocked_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestBlockedScoring:
    """``forward_batch`` over fixed ``_SCORE_ROWS`` blocks, shrunk to BLOCK
    rows so that small inputs span several blocks."""

    BLOCK = 64

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(surrogate, "_SCORE_ROWS", self.BLOCK)

    @blocked_settings
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 16),
        n=st.integers(1, BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_block_is_one_pass(self, dim, hidden, n, seed):
        m = random_model(dim, hidden, seed)
        X = np.random.default_rng(seed).normal(scale=3.0, size=(n, dim))
        assert same_bits(m.forward_batch(X), m._forward_cache(X)[0])

    @blocked_settings
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 16),
        n=st.integers(BLOCK + 1, 6 * BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_many_rows_are_the_fixed_blocks_concatenated(self, dim, hidden, n, seed):
        m = random_model(dim, hidden, seed)
        X = np.random.default_rng(seed).normal(scale=3.0, size=(n, dim))
        blocks = [m._forward_cache(X[s : s + self.BLOCK])[0] for s in range(0, n, self.BLOCK)]
        assert same_bits(m.forward_batch(X), np.concatenate(blocks))

    @pytest.mark.filterwarnings("ignore:overflow")
    @blocked_settings
    @given(layer=st.integers(1, 3), n=st.integers(BLOCK + 1, 4 * BLOCK), data=st.data())
    def test_nonfinite_in_last_block_raises_with_layer(self, layer, n, data):
        m = make_linear_chain()
        m.weights[layer - 1][0, 0] = 1e308
        X = np.zeros((n, 1))
        last = (n - 1) // self.BLOCK * self.BLOCK
        X[data.draw(st.integers(last, n - 1))] = 1e5
        with pytest.raises(FloatingPointError, match=f"layer {layer}"):
            m.forward_batch(X)

    def test_bad_shape_rejected(self):
        m = init_surrogate(2, 4, seed=0)
        for X in (np.zeros(3 * self.BLOCK), np.zeros((3 * self.BLOCK, 3))):
            with pytest.raises(ValueError, match="expected inputs of shape"):
                m.forward_batch(X)


class TestScoreWorkspace:
    """``forward_batch`` passes one workspace to every block; each pass
    written into it must equal the allocating pass over the same block."""

    BLOCK = 64

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(surrogate, "_SCORE_ROWS", self.BLOCK)

    @blocked_settings
    @given(
        dim=st.integers(1, 4),
        hidden=st.sampled_from([1, 2, 7, 16]),
        hidden2=st.sampled_from([1, 3, 16]),
        n=st.integers(BLOCK + 1, 5 * BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_workspace_passes_equal_allocating_passes(self, dim, hidden, hidden2, n, seed):
        rng = np.random.default_rng(seed)
        m = random_model(dim, hidden, seed)
        # unequal hidden widths, so the finite mask is sliced per layer
        m.weights[1] = rng.normal(size=(hidden2, hidden))
        m.biases[1] = rng.normal(size=hidden2)
        m.weights[2] = rng.normal(size=(1, hidden2))
        X = rng.normal(scale=3.0, size=(n, dim))
        work = m._score_workspace(self.BLOCK)
        blocks = []
        for start in range(0, n, self.BLOCK):
            block = X[start : start + self.BLOCK]
            ref_scores, ref_cache = m._forward_cache(block)
            scores, cache = m._forward_cache(block, work)
            assert same_bits(scores, ref_scores)
            for a, b in zip(cache, ref_cache):
                assert same_bits(a, b)
            blocks.append(ref_scores)
        assert same_bits(m.forward_batch(X), np.concatenate(blocks))

    @pytest.mark.filterwarnings("ignore:overflow")
    @blocked_settings
    @given(
        widths=st.sampled_from([(1, 4), (4, 1), (3, 3)]),
        layer=st.integers(1, 3),
        n=st.integers(BLOCK + 1, 4 * BLOCK),
        data=st.data(),
    )
    def test_nonfinite_in_any_row_raises_with_layer(self, widths, layer, n, data):
        # each layer's finite check reuses the one mask, so a row the check
        # failed to write would keep the previous layer's verdict
        h1, h2 = widths
        m = MlpSurrogate(
            [np.ones((h1, 1)), np.ones((h2, h1)), np.ones((1, h2))],
            [np.zeros(h1), np.zeros(h2), np.zeros(1)],
        )
        m.weights[layer - 1][0, 0] = 1e308
        X = np.zeros((n, 1))
        X[data.draw(st.integers(0, n - 1))] = 1e5
        with pytest.raises(FloatingPointError, match=f"layer {layer}"):
            m.forward_batch(X)

    def test_one_workspace_per_call(self, monkeypatch):
        m = init_surrogate(2, 4, seed=0)
        X = np.random.default_rng(0).normal(size=(5 * self.BLOCK + 3, 2))
        sizes = []
        allocate = m._score_workspace

        def counted(rows):
            sizes.append(rows)
            return allocate(rows)

        monkeypatch.setattr(m, "_score_workspace", counted)
        m.forward_batch(X)
        m.forward_batch(X[: self.BLOCK])  # one block: the allocating pass
        assert sizes == [self.BLOCK]


class TestParameterLayout:
    def test_parameters_are_c_contiguous(self):
        w = [np.asfortranarray(a) for a in init_surrogate(3, 5, seed=0).weights]
        m = MlpSurrogate(w, [np.zeros(5), np.zeros(5), np.zeros(1)])
        for p in m.weights + m.biases:
            assert p.flags.c_contiguous

    def test_fortran_ordered_weights_train_bit_identically(self):
        # 41201 parameters, so Adam's blocks split a weight matrix
        ref = init_surrogate(3, 200, seed=1)
        fortran = MlpSurrogate(
            [np.asfortranarray(w) for w in ref.weights],
            [b.copy() for b in ref.biases],
            seed=1,
        )
        cfg = TrainConfig(learning_rate=1e-2)
        rng = np.random.default_rng(4)
        opts = [_Optimizer(model, cfg) for model in (ref, fortran)]
        for _ in range(6):
            X = rng.normal(size=(16, 3))
            up = rng.normal(size=16)
            for model, opt in zip((ref, fortran), opts):
                model.loss_and_grads(X, lambda s: (0.0, up), out=opt.grads)
                assert opt.step()
        assert not np.array_equal(ref.weights[1], init_surrogate(3, 200, seed=1).weights[1])
        for a, b in zip(fortran.weights + fortran.biases, ref.weights + ref.biases):
            assert same_bits(a, b)

    def test_optimizer_rejects_rebound_parameters(self):
        # Adam updates model.params, which a rebound array no longer is
        for group, index in (("weights", 0), ("biases", 2)):
            m = init_surrogate(2, 4, seed=0)
            getattr(m, group)[index] = getattr(m, group)[index].copy()
            with pytest.raises(ValueError, match="view of model.params"):
                _Optimizer(m, TrainConfig())

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 16),
        n=st.integers(1, 8),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_params_is_the_flat_layout(self, dim, hidden, n, fortran, seed):
        rng = np.random.default_rng(seed)
        shapes = [(hidden, dim), (hidden, hidden), (1, hidden)]
        weights = [rng.normal(size=s) for s in shapes]
        if fortran:
            weights = [np.asfortranarray(w) for w in weights]
        biases = [rng.normal(size=s[0]) for s in shapes]
        m = MlpSurrogate(weights, biases)
        flat = np.concatenate([a.flatten(order="C") for a in weights + biases])
        assert same_bits(m.params, flat)
        base, offset = m.params.__array_interface__["data"][0], 0
        for p, a in zip(m.weights + m.biases, weights + biases):
            assert p.base is m.params and p.shape == a.shape and p.flags.c_contiguous
            assert p.__array_interface__["data"][0] == base + 8 * offset
            offset += a.size
        assert m.num_params == m.params.size == offset
        opt = _Optimizer(m, TrainConfig())
        X = rng.normal(size=(n, dim))
        up = rng.normal(size=n)
        m.loss_and_grads(X, lambda s: (0.0, up), out=opt.grads)
        gw, gb = m.param_gradients(X, up)
        assert same_bits(opt.grad, np.concatenate([g.flatten() for g in gw + gb]))


class TestParamGradients:
    def test_zero_upstream_gives_zero(self):
        m = init_surrogate(2, 4, seed=1)
        X = np.random.default_rng(1).normal(size=(3, 2))
        gw, gb = m.param_gradients(X, np.zeros(3))
        assert all(np.all(g == 0.0) for g in gw + gb)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        m = init_surrogate(3, 6, seed=7)
        X = rng.normal(size=(2, 3))
        upstream = rng.normal(size=2)
        gw, gb = m.param_gradients(X, upstream)
        fw, fb = finite_difference_param_grads(m, X, upstream)
        for a, b in zip(gw + gb, fw + fb):
            assert max_rel_err(a, b) < 1e-4

    def test_batch_additivity(self):
        rng = np.random.default_rng(9)
        m = init_surrogate(2, 5, seed=9)
        X = rng.normal(size=(2, 2))
        up = rng.normal(size=2)
        gw, gb = m.param_gradients(X, up)
        gw0, gb0 = m.param_gradients(X[:1], up[:1])
        gw1, gb1 = m.param_gradients(X[1:], up[1:])
        for total, a, b in zip(gw + gb, gw0 + gb0, gw1 + gb1):
            assert np.allclose(total, a + b, atol=1e-12)

    def test_upstream_length_mismatch(self):
        m = init_surrogate(2, 4, seed=0)
        with pytest.raises(ValueError):
            m.param_gradients(np.zeros((3, 2)), np.zeros(2))


class TestLossAndGrads:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 8),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_forward_then_param_gradients(self, dim, hidden, n, seed):
        rng = np.random.default_rng(seed)
        m = init_surrogate(dim, hidden, seed=seed)
        for b in m.biases:
            b += rng.normal(size=b.shape)
        m.set_input_standardization(rng.normal(size=dim), rng.uniform(0.5, 2.0, size=dim))
        X = rng.normal(scale=3.0, size=(n, dim))
        up = rng.normal(size=n)
        seen = []

        def loss_fn(scores):
            seen.append(scores)
            return float(np.dot(up, scores)), up

        loss, (gw, gb) = m.loss_and_grads(X, loss_fn)
        scores = m.forward_batch(X)
        rw, rb = m.param_gradients(X, up)
        assert len(seen) == 1 and np.array_equal(seen[0], scores)
        assert loss == float(np.dot(up, scores))
        for a, b in zip(gw + gb, rw + rb):
            assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 8),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_out_views_filled_in_place(self, dim, hidden, n, seed):
        rng = np.random.default_rng(seed)
        m = init_surrogate(dim, hidden, seed=seed)
        for b in m.biases:
            b += rng.normal(size=b.shape)
        X = rng.normal(scale=3.0, size=(n, dim))
        up = rng.normal(size=n)

        def loss_fn(scores):
            return float(np.dot(up, scores)), up

        views = _Optimizer(m, TrainConfig()).grads
        _, ref = m.loss_and_grads(X, loss_fn)
        _, got = m.loss_and_grads(X, loss_fn, out=views)
        assert got is views
        assert all(a is b for a, b in zip(got[0] + got[1], views[0] + views[1]))
        for a, b in zip(got[0] + got[1], ref[0] + ref[1]):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_nonfinite_loss_skips_backward(self):
        m = init_surrogate(2, 4, seed=0)
        # an upstream of the wrong length would raise if the backward pass ran
        loss, grads = m.loss_and_grads(
            np.zeros((3, 2)), lambda s: (float("inf"), np.zeros(len(s) + 1))
        )
        assert loss == float("inf") and grads is None

    def test_upstream_length_mismatch(self):
        m = init_surrogate(2, 4, seed=0)
        with pytest.raises(ValueError):
            m.loss_and_grads(np.zeros((3, 2)), lambda s: (0.0, np.zeros(2)))


class TestActiveRowBackward:
    """The backward pass skips rows whose upstream gradient is exactly zero."""

    @staticmethod
    def all_grads(m, X, up):
        """The gradients of ``param_gradients``, of ``loss_and_grads`` and of
        ``loss_and_grads`` into the optimizer's views, each as one flat list."""

        def loss_fn(scores):
            return float(np.dot(up, scores)), up

        _, fused = m.loss_and_grads(X, loss_fn)
        _, views = m.loss_and_grads(X, loss_fn, out=_Optimizer(m, TrainConfig()).grads)
        return [g[0] + g[1] for g in (m.param_gradients(X, up), fused, views)]

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 8),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_all_active_is_bit_identical_to_dense(self, dim, hidden, n, seed):
        rng = np.random.default_rng(seed)
        m = random_model(dim, hidden, seed)
        X = rng.normal(scale=3.0, size=(n, dim))
        up = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.01, 2.0, size=n)
        ref_w, ref_b = ref_backward(m, ref_forward_cache(m, X)[1], up)
        for grads in self.all_grads(m, X, up):
            for a, b in zip(grads, ref_w + ref_b):
                assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 8),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        quantile=st.floats(0.0, 1.0),
    )
    def test_mixed_batch_matches_dense(self, dim, hidden, k, seed, quantile):
        rng = np.random.default_rng(seed)
        m = random_model(dim, hidden, seed)
        X = rng.normal(scale=3.0, size=(2 * k, dim))
        scores, cache = ref_forward_cache(m, X)
        # a margin inside the range of the score gaps leaves some pairs past it
        margin = float(np.quantile(scores[:k] - scores[k:], quantile))
        up = pair_upstream(scores, margin)
        active = up != 0.0  # -0.0 == 0.0, so an inactive preferred row is out
        ref_w, ref_b = ref_backward(m, cache, up)
        gathered_w, gathered_b = ref_backward(m, [a[active] for a in cache], up[active])
        for grads in self.all_grads(m, X, up):
            for a, b, g in zip(grads, ref_w + ref_b, gathered_w + gathered_b):
                assert max_rel_err(a, b) < 1e-12
                assert np.array_equal(a, g)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_upstream_gives_exact_zeros(self, zero):
        m = random_model(3, 5, seed=4)
        X = np.random.default_rng(4).normal(size=(6, 3))
        up = np.full(6, zero)
        for grads in self.all_grads(m, X, up):
            for g in grads:
                # +0.0 everywhere: no row is backpropagated
                assert np.all(g == 0.0) and not np.any(np.signbit(g))

    def test_mixed_upstream_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        m = random_model(3, 6, seed=11)
        X = rng.normal(size=(5, 3))
        upstream = np.array([0.7, 0.0, -1.3, -0.0, 0.4])
        gw, gb = m.param_gradients(X, upstream)
        fw, fb = finite_difference_param_grads(m, X, upstream)
        for a, b in zip(gw + gb, fw + fb):
            assert max_rel_err(a, b) < 1e-4


class _PerLayerOptimizer:
    """Per-layer Adam update, the reference for the flat-moment optimizer."""

    def __init__(self, model, config):
        self.config = config
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in model.weights]
        self.v_w = [np.zeros_like(w) for w in model.weights]
        self.m_b = [np.zeros_like(b) for b in model.biases]
        self.v_b = [np.zeros_like(b) for b in model.biases]

    def step(self, model, grads_w, grads_b):
        cfg = self.config
        self.t += 1
        corr1 = 1.0 - cfg.adam_beta1**self.t
        corr2 = 1.0 - cfg.adam_beta2**self.t
        for i in range(3):
            self.m_w[i] = cfg.adam_beta1 * self.m_w[i] + (1 - cfg.adam_beta1) * grads_w[i]
            self.v_w[i] = cfg.adam_beta2 * self.v_w[i] + (1 - cfg.adam_beta2) * grads_w[i] ** 2
            model.weights[i] -= cfg.learning_rate * (self.m_w[i] / corr1) / (
                np.sqrt(self.v_w[i] / corr2) + cfg.adam_eps
            )
            self.m_b[i] = cfg.adam_beta1 * self.m_b[i] + (1 - cfg.adam_beta1) * grads_b[i]
            self.v_b[i] = cfg.adam_beta2 * self.v_b[i] + (1 - cfg.adam_beta2) * grads_b[i] ** 2
            model.biases[i] -= cfg.learning_rate * (self.m_b[i] / corr1) / (
                np.sqrt(self.v_b[i] / corr2) + cfg.adam_eps
            )


def assert_matches_per_layer_reference(hidden, steps=40):
    """Train with _Optimizer and the per-layer reference side by side; the
    parameters must agree bit for bit and stay the arrays the model held."""
    cfg = TrainConfig(learning_rate=1e-2)
    rng = np.random.default_rng(3)
    model, ref = init_surrogate(3, hidden, seed=1), init_surrogate(3, hidden, seed=1)
    held = model.weights + model.biases
    opt, ref_opt = _Optimizer(model, cfg), _PerLayerOptimizer(ref, cfg)
    for _ in range(steps):
        X = rng.normal(size=(8, 3))
        up = rng.normal(size=8)
        model.loss_and_grads(X, lambda s: (0.0, up), out=opt.grads)
        assert opt.step()
        ref_opt.step(ref, *ref.param_gradients(X, up))
    trained = ref.weights + ref.biases
    assert not np.array_equal(trained[0], init_surrogate(3, hidden, seed=1).weights[0])
    for a, b, h in zip(model.weights + model.biases, trained, held):
        assert a is h
        assert np.array_equal(h, b)


class TestOptimizer:
    def test_matches_per_layer_reference(self):
        assert_matches_per_layer_reference(6)

    def test_multi_block_matches_per_layer_reference(self):
        # 41201 parameters: one full block and a partial last one
        n = init_surrogate(3, 200, seed=1).num_params
        assert n > _BLOCK and n % _BLOCK != 0
        assert_matches_per_layer_reference(200, steps=10)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_moment_overflow_in_last_block_leaves_model_untouched(self):
        model = init_surrogate(3, 200, seed=1)
        opt = _Optimizer(model, TrainConfig())
        gw, gb = model.param_gradients(np.ones((2, 3)), np.ones(2))
        # b3 is the last flat entry, so its moment sits in the partial last block
        gb[2][0] = 1e200
        for g, dst in zip(gw + gb, opt.grads[0] + opt.grads[1]):
            np.copyto(dst, g)
        before = [p.copy() for p in model.weights + model.biases]
        assert not opt.step()
        assert not np.isfinite(opt.v[-1]) and np.isfinite(opt.v[:-1]).all()
        for p, b in zip(model.weights + model.biases, before):
            assert np.array_equal(p, b)


class TestInputGradient:
    def test_zero_model(self):
        m = init_surrogate(4, 4, seed=0)
        m.weights = [np.zeros_like(w) for w in m.weights]
        assert np.array_equal(input_grad(m, np.ones(4)), np.zeros(4))

    def test_linear_region_chain_rule(self):
        m = make_linear_chain(weight=3.0)
        assert input_grad(m, [5.0]) == pytest.approx(3.0)

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(30):
            m = init_surrogate(3, 8, seed=100 + trial)
            x = rng.normal(size=3)
            if min_preactivation_magnitude(m, x) < 1e-6:
                continue
            fd = finite_difference_input_grad(m, x)
            assert max_rel_err(input_grad(m, x), fd) < 1e-4
            checked += 1
        assert checked >= 25

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_activation_raises_with_layer(self):
        m = make_linear_chain()
        m.weights[1][0, 0] = 1e308
        with pytest.raises(FloatingPointError, match="layer"):
            m.input_gradient_batch(np.array([[1e5]]))

    def test_relu_subgradient_zero_at_kink(self):
        # bias places the first pre-activation exactly at 0
        m = make_linear_chain()
        assert input_grad(m, [0.0]) == pytest.approx(0.0)


class TestAdaptation:
    def test_constant_model_is_degenerate(self):
        m = init_surrogate(2, 4, seed=0)
        m.weights = [np.zeros_like(w) for w in m.weights]
        m.adapt_output(np.random.default_rng(0).normal(size=(10, 2)))
        assert m.adapt_degenerate
        assert m.adapt_std == 1.0
        assert m.predict_adapted_batch(np.zeros((1, 2)))[0] == 0.0

    def test_two_point_zscore(self):
        m = make_linear_chain()
        m.adapt_output(np.array([[1.0], [3.0]]))
        assert m.adapt_mean == pytest.approx(2.0)
        assert m.adapt_std == pytest.approx(1.0)
        assert m.predict_adapted_batch(np.array([[1.0], [3.0]])) == pytest.approx([-1.0, 1.0])

    def test_adapted_predictions_have_zero_mean_unit_std(self):
        rng = np.random.default_rng(5)
        m = init_surrogate(3, 16, seed=5)
        X = rng.normal(size=(50, 3))
        zscore_adapt(m, X)
        preds = m.predict_adapted_batch(X)
        assert abs(preds.mean()) < 1e-9
        assert abs(preds.std() - 1.0) < 1e-9

    def test_unadapted_predict_raises(self):
        m = init_surrogate(2, 4, seed=0)
        with pytest.raises(RuntimeError):
            m.predict_adapted_batch(np.zeros((1, 2)))

    def test_argmax_and_full_ranking_preserved(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            m = init_surrogate(2, 8, seed=trial)
            X = rng.normal(size=(30, 2))
            zscore_adapt(m, X)
            cands = rng.normal(size=(15, 2))
            adapted = m.predict_adapted_batch(cands)
            raw = m.forward_batch(cands)
            assert np.argmax(adapted) == np.argmax(raw)
            assert np.array_equal(np.argsort(adapted), np.argsort(raw))


class TestPersistence:
    def test_json_roundtrip_bit_exact(self, tmp_path):
        m = init_surrogate(3, 8, seed=13)
        m.set_input_standardization(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 2.0]))
        m.adapt_output(np.random.default_rng(0).normal(size=(20, 3)))
        m.objective = "dar"
        m.train_config = TrainConfig(seed=13).to_dict()
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        for a, b in zip(loaded.weights, m.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, m.biases):
            assert np.array_equal(a, b)
        assert loaded.adapt_mean == m.adapt_mean
        assert loaded.adapt_std == m.adapt_std
        assert loaded.objective == "dar"
        assert loaded.seed == 13
        X = np.random.default_rng(1).normal(size=(5, 3))
        assert np.array_equal(loaded.predict_adapted_batch(X), m.predict_adapted_batch(X))

    def test_json_contains_contract_fields(self, tmp_path):
        m = init_surrogate(2, 4, seed=3)
        save_model(m, tmp_path / "m.json")
        data = json.loads((tmp_path / "m.json").read_text())
        for key in ("layer_sizes", "weights", "biases", "seed", "x_mean", "x_std"):
            assert key in data

    # any finite float64, with the edge cases drawn often: signed zeros,
    # subnormals and the largest magnitudes
    FINITE = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 4), hidden=st.integers(1, 6), data=st.data())
    def test_random_parameters_roundtrip_bit_identical_and_writable(self, dim, hidden, data):
        shapes = [(hidden, dim), (hidden, hidden), (1, hidden)]
        weights = [data.draw(hnp.arrays(np.float64, s, elements=self.FINITE)) for s in shapes]
        biases = [data.draw(hnp.arrays(np.float64, s[:1], elements=self.FINITE)) for s in shapes]
        m = MlpSurrogate(weights, biases, seed=7)
        with tempfile.TemporaryDirectory() as d:
            save_model(m, Path(d) / "model.json")
            loaded = load_model(Path(d) / "model.json")
        for a, b in zip(loaded.weights + loaded.biases, m.weights + m.biases):
            assert a.dtype == np.float64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()  # bit for bit, -0.0 included
            assert a.flags.writeable and a.base is loaded.params

    def test_arrays_stored_as_little_endian_float64_base64(self, tmp_path):
        m = init_surrogate(2, 3, seed=1)
        save_model(m, tmp_path / "m.json")
        data = json.loads((tmp_path / "m.json").read_text())
        raw = base64.b64decode(data["weights"][1])
        assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(3, 3), m.weights[1])
        assert data["layer_sizes"] == [2, 3, 3, 1]

    @pytest.mark.parametrize(
        "key, index, entry, match",
        [
            # the right byte count once the stray "*" is skipped, as a
            # non-validating decoder would
            (
                "weights",
                1,
                "*" + base64.b64encode(np.zeros(9)).decode(),
                r"weights\[1\]: invalid base64",
            ),
            ("biases", 0, base64.b64encode(np.zeros(2)).decode(), r"biases\[0\]: 16 bytes"),
            ("weights", 0, np.zeros((3, 2)).tolist(), r"weights\[0\]: expected a base64 string"),
        ],
        ids=["invalid_base64", "byte_length", "list_form"],
    )
    def test_malformed_array_rejected_naming_field(self, tmp_path, key, index, entry, match):
        save_model(init_surrogate(2, 3, seed=1), tmp_path / "m.json")
        data = json.loads((tmp_path / "m.json").read_text())
        data[key][index] = entry
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match=match):
            load_model(tmp_path / "m.json")


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
