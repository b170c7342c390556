import base64
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankmbo import surrogate
from rankmbo.artifacts import write_json
from rankmbo.objectives import _pairwise_loss
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
    return _pairwise_loss(scores, margin)[1]


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


def chunked_backward(model, opt, X, up, sink=None):
    """The trainer's backward pass: the gradients go into
    ``opt.chunked_grads``, and W2's goes to the optimizer chunk by chunk,
    through ``sink`` when given.  Returns ``opt.chunked_grads``."""
    return model.loss_and_grads(
        X, lambda s: (0.0, up), out=opt.chunked_grads, w2_sink=sink or opt.take_w2
    )[1]


def chunked_step(model, opt, X, up, sink=None):
    """One training step as the trainer takes it: ``chunked_backward``, then
    ``opt.step()``."""
    chunked_backward(model, opt, X, up, sink)
    return opt.step()


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
        assert chunked_step(b, opt, np.ones((4, 3)), np.ones(4))
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
        fused = chunked_backward(m, _Optimizer(m, TrainConfig()), X, up)
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


def assert_pass_equals_reference(m, X, work):
    """The pass over ``X`` written into ``work`` gives the scores and the
    ``(Z, H1, H2)`` of ``ref_forward_cache`` bit for bit."""
    scores, (Z, H1, H2) = m._forward_cache(X, work)
    ref_scores, (ref_Z, _, ref_H1, _, ref_H2) = ref_forward_cache(m, X)
    for a, b in zip((scores, Z, H1, H2), (ref_scores, ref_Z, ref_H1, ref_H2)):
        assert same_bits(a, b)


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
        assert same_bits(m.forward_batch(X), ref_forward_cache(m, X)[0])
        assert_pass_equals_reference(m, X, m._score_workspace(n))

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
        blocks = [X[s : s + self.BLOCK] for s in range(0, n, self.BLOCK)]
        assert same_bits(
            m.forward_batch(X), np.concatenate([ref_forward_cache(m, b)[0] for b in blocks])
        )
        work = m._score_workspace(self.BLOCK)
        for block in blocks:
            assert_pass_equals_reference(m, block, work)

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
    written into it must equal the reference's allocating pass over the same
    block."""

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
        # unequal hidden widths, so H1 and H2 have their own shapes
        m.weights[1] = rng.normal(size=(hidden2, hidden))
        m.biases[1] = rng.normal(size=hidden2)
        m.weights[2] = rng.normal(size=(1, hidden2))
        X = rng.normal(scale=3.0, size=(n, dim))
        work = m._score_workspace(self.BLOCK)
        blocks = []
        for start in range(0, n, self.BLOCK):
            block = X[start : start + self.BLOCK]
            assert_pass_equals_reference(m, block, work)
            blocks.append(ref_forward_cache(m, block)[0])
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
        for rows in (len(X), self.BLOCK, 5):
            m.forward_batch(X[:rows])
        assert sizes == [self.BLOCK, self.BLOCK, 5]


class TestByteCappedBlocks:
    """``forward_batch`` caps its block at ``_SCORE_BYTES`` of the widest
    hidden array as well as at ``_SCORE_ROWS`` rows."""

    @staticmethod
    def block_rows(m, X):
        """Row counts of the workspaces ``forward_batch`` allocates, and its
        scores."""
        sizes = []
        allocate = m._score_workspace
        m._score_workspace = lambda rows: sizes.append(rows) or allocate(rows)
        try:
            return sizes, m.forward_batch(X)
        finally:
            del m._score_workspace

    def test_narrow_layers_keep_the_row_cap(self):
        m = init_surrogate(2, 64, seed=0)
        X = np.random.default_rng(0).normal(size=(5000, 2))
        assert self.block_rows(m, X)[0] == [surrogate._SCORE_ROWS]

    def test_wide_layer_block_equals_row_cap_blocks_across_edges(self, monkeypatch):
        # hidden 1024: 1024-row blocks, so 2600 rows take two full blocks and
        # a partial one, where 4096-row blocks take one pass
        m = random_model(2, 1024, 7)
        X = np.random.default_rng(7).normal(scale=3.0, size=(2600, 2))
        sizes, capped = self.block_rows(m, X)
        assert sizes == [surrogate._SCORE_BYTES // (8 * 1024)] == [1024]
        monkeypatch.setattr(surrogate, "_SCORE_BYTES", 2**40)
        sizes, whole = self.block_rows(m, X)
        assert sizes == [len(X)]
        assert same_bits(capped, whole)

    def test_the_widest_hidden_layer_sets_the_block(self, monkeypatch):
        m = MlpSurrogate(
            [np.ones((3, 1)), np.ones((5, 3)), np.ones((1, 5))],
            [np.zeros(3), np.zeros(5), np.zeros(1)],
        )
        X = np.zeros((100, 1))
        monkeypatch.setattr(surrogate, "_SCORE_BYTES", 8 * 5 * 7)
        assert self.block_rows(m, X)[0] == [7]
        # a layer wider than the budget is still scored, one row at a time
        monkeypatch.setattr(surrogate, "_SCORE_BYTES", 8)
        sizes, scores = self.block_rows(m, X)
        assert sizes == [1] and np.array_equal(scores, np.zeros(100))


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
                assert chunked_step(model, opt, X, up)
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
        chunked_backward(m, opt, X, up)
        gw, gb = m.param_gradients(X, up)
        assert same_bits(opt._chunked, np.concatenate([g.flatten() for g in gw + gb]))


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

        opt = _Optimizer(m, TrainConfig())
        views = opt.chunked_grads
        _, ref = m.loss_and_grads(X, loss_fn)
        _, got = m.loss_and_grads(X, loss_fn, out=views, w2_sink=opt.take_w2)
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

    def test_out_and_sink_are_given_together(self):
        # an out without a sink has nowhere to send W2's chunks, and a sink
        # without an out would be ignored by the allocating pass
        m = init_surrogate(2, 4, seed=0)
        opt = _Optimizer(m, TrainConfig())
        for kwargs in ({"out": opt.chunked_grads}, {"w2_sink": opt.take_w2}):
            with pytest.raises(ValueError, match="given together"):
                m.loss_and_grads(np.zeros((3, 2)), lambda s: (0.0, np.ones(3)), **kwargs)


class TestTrainingWorkspace:
    """``loss_and_grads(..., work=)`` writes the forward pass into a reused
    workspace and the backward pass consumes it; every call must equal the
    allocating call bit for bit, whatever the previous call left in it."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 8),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(st.sampled_from(["all", "some", "none"]), min_size=3, max_size=6),
        data=st.data(),
    )
    def test_reused_workspace_equals_allocating_pass(self, dim, hidden, rows, seed, calls, data):
        rng = np.random.default_rng(seed)
        m = random_model(dim, hidden, seed)
        work = m._score_workspace(rows)
        for active in calls:
            n = data.draw(st.integers(1, rows))
            X = rng.normal(scale=3.0, size=(n, dim))
            up = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.01, 2.0, size=n)
            if active == "some":
                up[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
            elif active == "none":
                up[:] = 0.0
            seen = []

            def loss_fn(scores):
                seen.append(scores.copy())
                return float(np.dot(up, scores)), up

            ref_loss, (ref_w, ref_b) = m.loss_and_grads(X, loss_fn)
            loss, (gw, gb) = m.loss_and_grads(X, loss_fn, work=work)
            assert same_bits(seen[1], seen[0]) and loss == ref_loss
            for a, b in zip(gw + gb, ref_w + ref_b):
                assert same_bits(a, b)


class TestActiveRowBackward:
    """The backward pass skips rows whose upstream gradient is exactly zero."""

    @staticmethod
    def all_grads(m, X, up):
        """The gradients of ``param_gradients``, of ``loss_and_grads`` and of
        ``loss_and_grads`` into the optimizer's views, each as one flat list."""

        def loss_fn(scores):
            return float(np.dot(up, scores)), up

        _, fused = m.loss_and_grads(X, loss_fn)
        views = chunked_backward(m, _Optimizer(m, TrainConfig()), X, up)
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
        assert chunked_step(model, opt, X, up)
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

    def test_step_allocates_no_parameter_sized_array(self):
        # 41201 parameters; a whole-buffer finite check of v takes 41 kB
        model = init_surrogate(3, 200, seed=1)
        opt = _Optimizer(model, TrainConfig())
        assert chunked_step(model, opt, np.ones((2, 3)), np.ones(2))
        tracemalloc.start()
        try:
            assert opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_moment_overflow_in_last_block_leaves_model_untouched(self):
        model = init_surrogate(3, 200, seed=1)
        opt = _Optimizer(model, TrainConfig())
        _, gb = chunked_backward(model, opt, np.ones((2, 3)), np.ones(2))
        # b3 is the last flat entry, so its moment sits in the partial last block
        gb[2][0] = 1e200
        before = [p.copy() for p in model.weights + model.biases]
        assert not opt.step()
        assert not np.isfinite(opt.v[-1]) and np.isfinite(opt.v[:-1]).all()
        for p, b in zip(model.weights + model.biases, before):
            assert np.array_equal(p, b)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    @settings(max_examples=60, deadline=None)
    @given(
        # 41201 parameters: a full block and a partial last one
        i=st.integers(0, 41200),
        # a NaN or infinite gradient entry, or one whose square overflows,
        # puts NaN or inf into v; v, a sum of squares, never holds -inf
        poison=st.sampled_from(
            [
                ("grad", np.nan),
                ("grad", np.inf),
                ("grad", -np.inf),
                ("grad", 1e200),
                ("v", np.nan),
                ("v", np.inf),
            ]
        ),
    )
    def test_nonfinite_second_moment_in_any_block_leaves_model_untouched(self, i, poison):
        model = init_surrogate(3, 200, seed=1)
        opt = _Optimizer(model, TrainConfig())
        assert chunked_step(model, opt, np.ones((2, 3)), np.ones(2))
        chunked_backward(model, opt, np.ones((2, 3)), np.ones(2))
        # at hidden 200 W2 is one chunk, so the chunked buffer is laid out as
        # the parameters and step() reads all of it
        target, value = poison
        {"grad": opt._chunked, "v": opt.v}[target][i] = value
        before = model.params.copy()
        assert not opt.step()
        assert not np.isfinite(opt.v[i])
        assert same_bits(model.params, before)


class TestChunkedW2Moments:
    """The trainer's step: ``_backward`` hands W2's gradient to Adam's first
    pass in ``_W2_ROWS``-row chunks.  At hidden 600 W2 has two full chunks
    and a partial one of 88 rows."""

    HIDDEN = 600

    def test_width_spans_three_chunks_with_a_partial_last(self):
        assert self.HIDDEN // surrogate._W2_ROWS == 2 and self.HIDDEN % surrogate._W2_ROWS

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(5, 7),
        pairs=st.integers(2, 12),
        partly_active=st.booleans(),
    )
    def test_equals_per_layer_reference(self, seed, steps, pairs, partly_active):
        cfg = TrainConfig(learning_rate=1e-2)
        rng = np.random.default_rng(seed)
        model = random_model(3, self.HIDDEN, seed % 1000)
        ref = random_model(3, self.HIDDEN, seed % 1000)
        opt, ref_opt = _Optimizer(model, cfg), _PerLayerOptimizer(ref, cfg)
        for _ in range(steps):
            X = rng.normal(scale=3.0, size=(2 * pairs, 3))
            scores, cache = ref_forward_cache(ref, X)
            if partly_active:
                margin = float(np.quantile(scores[:pairs] - scores[pairs:], 0.5))
                up = pair_upstream(scores, margin)
            else:
                up = rng.normal(size=2 * pairs)
            active = up != 0.0
            assert chunked_step(model, opt, X, up)
            # one whole W2 product over the active rows, as the parent took it
            ref_opt.step(ref, *ref_backward(ref, [a[active] for a in cache], up[active]))
        assert same_bits(model.params, ref.params)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("poisoned_row", [3, 300, 590], ids=["first", "middle", "last"])
    def test_overflow_in_any_w2_chunk_leaves_every_parameter_unchanged(self, poisoned_row):
        model = random_model(3, self.HIDDEN, 1)
        opt = _Optimizer(model, TrainConfig())
        X = np.random.default_rng(1).normal(size=(8, 3))
        up = np.random.default_rng(2).normal(size=8)
        assert chunked_step(model, opt, X, up)
        first = poisoned_row // surrogate._W2_ROWS * surrogate._W2_ROWS
        taken = []

        def poison(row, chunk):
            taken.append(row)
            if row == first:
                chunk[poisoned_row - row, 5] = 1e200
            opt.take_w2(row, chunk)

        before = model.params.copy()
        assert not chunked_step(model, opt, X, up, poison)
        assert taken == [0, 256, 512]
        assert same_bits(model.params, before)
        w2_start = model.weights[0].size
        assert not np.isfinite(opt.v[w2_start + poisoned_row * self.HIDDEN + 5])
        # the next step starts clean: a finite gradient updates the model
        opt.v[:] = 0.0
        assert chunked_step(model, opt, X, up)
        assert not same_bits(model.params, before)

    def test_training_step_allocates_no_w2_sized_gradient(self):
        model = random_model(3, self.HIDDEN, 2)
        opt = _Optimizer(model, TrainConfig())
        rng = np.random.default_rng(2)
        X = rng.normal(scale=3.0, size=(16, 3))
        work = model._score_workspace(len(X))
        scores = ref_forward_cache(model, X)[0]
        up = pair_upstream(scores, float(np.median(scores[:8] - scores[8:])))
        assert 0 < np.count_nonzero(up) < len(up)

        def step():
            model.loss_and_grads(
                X, lambda s: (0.0, up), out=opt.chunked_grads, work=work, w2_sink=opt.take_w2
            )
            return opt.step()

        assert step()
        tracemalloc.start()
        try:
            assert step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.weights[1].nbytes / 4
        # the one gradient buffer holds a single chunk of W2
        assert opt.chunked_grads[0][1].shape == (surrogate._W2_ROWS, self.HIDDEN)

    def test_one_chunk_buffer_has_the_parameter_shapes(self):
        # at hidden 256 or less the chunked buffer is laid out as the params
        for hidden in (1, 64, 256):
            model = init_surrogate(2, hidden, seed=0)
            opt = _Optimizer(model, TrainConfig())
            views = opt.chunked_grads[0] + opt.chunked_grads[1]
            assert [g.shape for g in views] == [p.shape for p in model.weights + model.biases]
            assert all(g.base is opt._chunked for g in views)
            assert opt._chunked.size == model.num_params

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pairs=st.integers(1, 12),
        active=st.sampled_from(["all", "some", "none"]),
    )
    def test_whole_gradients_equal_the_reference(self, seed, pairs, active):
        # param_gradients and loss_and_grads without out build a whole W2
        # from its chunks: two full ones and one of 88 rows
        rng = np.random.default_rng(seed)
        m = random_model(3, self.HIDDEN, seed % 1000)
        X = rng.normal(scale=3.0, size=(2 * pairs, 3))
        scores, cache = ref_forward_cache(m, X)
        if active == "all":
            up = rng.choice([-1.0, 1.0], size=2 * pairs) * rng.uniform(0.01, 2.0, size=2 * pairs)
        elif active == "some":
            up = pair_upstream(scores, float(np.quantile(scores[:pairs] - scores[pairs:], 0.5)))
        else:
            up = np.zeros(2 * pairs)
        rows = up != 0.0
        ref_w, ref_b = ref_backward(m, [a[rows] for a in cache], up[rows])
        _, fused = m.loss_and_grads(X, lambda s: (float(np.dot(up, s)), up))
        for grads in (m.param_gradients(X, up), fused):
            assert [g.shape for g in grads[0]] == [w.shape for w in m.weights]
            for a, b in zip(grads[0] + grads[1], ref_w + ref_b):
                assert same_bits(a, b)


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
        m.task = {"name": "branin", "pool_size": 5000, "keep_fraction": 0.6}
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
        assert loaded.task == m.task
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


class TestStreamedModelJson:
    """``save_model`` streams each array's base64 in ``_B64_PIECE``-byte
    pieces and must write exactly what ``write_json(path, to_dict())``
    writes."""

    @staticmethod
    def both_files(m, directory):
        save_model(m, directory / "streamed.json")
        write_json(directory / "whole.json", m.to_dict())
        return (directory / "streamed.json").read_bytes(), (directory / "whole.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        hidden=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        # pieces shorter than, equal to and longer than an array's bytes
        piece=st.sampled_from([3, 6, 24, 99, surrogate._B64_PIECE]),
        adapted=st.booleans(),
        tagged=st.booleans(),
    )
    def test_bytes_equal_the_whole_document(self, dim, hidden, seed, piece, adapted, tagged):
        m = random_model(dim, hidden, seed)
        if adapted:
            m.adapt_output(np.random.default_rng(seed).normal(size=(5, dim)))
        if tagged:
            m.objective = "dar"
            m.train_config = {**TrainConfig(seed=3).to_dict(), "nested": {"a": [1, 2.5]}, "empty": {}}
            m.task = {"name": "branin", "pool_size": 5000}
        with mock.patch.object(surrogate, "_B64_PIECE", piece), tempfile.TemporaryDirectory() as d:
            streamed, whole = self.both_files(m, Path(d))
        assert streamed == whole

    def test_hidden_512_spans_several_pieces(self, tmp_path):
        m = random_model(2, 512, 5)
        assert m.weights[1].nbytes > 2 * surrogate._B64_PIECE
        streamed, whole = self.both_files(m, tmp_path)
        assert streamed == whole

    def test_peak_memory_stays_below_w2(self, tmp_path):
        m = random_model(2, 1024, 6)
        tracemalloc.start()
        try:
            save_model(m, tmp_path / "model.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.weights[1].nbytes
        assert np.array_equal(load_model(tmp_path / "model.json").params, m.params)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
