"""Two-hidden-layer ReLU surrogate with exact reverse-mode gradients.

The network computes ``W3 @ relu(W2 @ relu(W1 z + b1) + b2) + b3`` on
standardized inputs ``z = (x - x_mean) / x_std``; its ``weights`` and
``biases`` are views of one flat float64 buffer, ``params``, laid out W1, W2,
W3, b1, b2, b3.  Gradients are given for the parameters (training) and the raw
input (design search).  The ReLU subgradient at exactly 0 is defined as 0,
which keeps all gradients deterministic.

One method, ``MlpSurrogate._forward_cache``, runs the hidden layers for
scoring, training and the input gradient alike, and it always writes into a
workspace from ``_score_workspace``: ``Z``, ``H1``, ``H2`` and the output
column.  Each layer's matmul output gets its bias added and, after a check
that it is finite, its ReLU applied in place, so the cache is
``(Z, H1, H2)``.  The backward passes take each ReLU mask from ``H > 0``,
which equals ``A > 0`` for the pre-activation ``A``.  ``forward_batch``
runs it over fixed blocks with one workspace of at most one block, allocated
once per call, writing each block's scores into one output vector.  A block
is ``_SCORE_ROWS`` (4096) rows, or fewer where a block's widest hidden array
would pass ``_SCORE_BYTES`` (8 MiB): 512 rows at hidden 2048.  So scoring n
rows peaks at two block x hidden float64 arrays plus the n scores, and a
large call does not map and fault in fresh pages per block.
``input_gradient_batch`` allocates one for its rows.  In a call of more
than one block a score's last bit can depend on its block, which the row's
position fixes: OpenBLAS rounds the output product, and for blocks of 16
rows or fewer the hidden products, differently at different row counts.
At hidden 2048, blocks of 16, 32, 100, 512 and 1024 rows gave the scores of
4096-row blocks bit for bit, with 1 and 2 BLAS threads.

Design search takes its input gradients from ``_trajectory_gradient``, and
``input_gradient_batch`` stays its stateless reference.  Wherever the first
layer's ReLU mask holds, the network is linear up to its second ReLU, so the
function keeps each trajectory's local map ``W2 diag(m1) [W1 | b1]``: built
with dim + 1 products at the first step, then updated by the units whose
mask flipped, a few per row and step.  A paper-width step then costs
O(rows x hidden x (dim + flips)), not two 128 x 2048 x 2048 products.

A training step is fused: ``MlpSurrogate.loss_and_grads`` runs the forward
pass once, hands the scores to the trainer's loss function and backpropagates
its upstream gradients through the cached activations, writing them straight
into the optimizer's gradient buffer.  The trainer passes one
workspace, sized for its batch, to every step, and the backward pass consumes
the cache: each hidden layer's deltas overwrite its activations once its ReLU
mask is taken.  So a step after the first allocates no activation-sized
float array, and a fresh process does not map and fault in new pages for
its activations and deltas on every iteration.  The backward pass runs on
the rows with nonzero upstream gradient only: a margin-loss pair past the
margin has exactly zero gradient, and most pairs are past it after the first
iterations.  Those rows are gathered into new arrays, whose deltas overwrite
them in turn; when every row is active, as in every mse step, the cached
arrays are used as they are.  The one optimizer is Adam with fixed constants
and no weight decay.  It keeps its moments as flat buffers too and runs its
update over fixed cache-sized blocks of them: each block's update goes into
a block-sized scratch and is subtracted in place from the same slice of the
model's flat buffer, and the finite check of the second moment reads each
block's maximum.  Every backward pass computes W2's gradient in chunks of
``_W2_ROWS`` (256) rows, each written into one chunk-sized buffer and handed
to a sink before the next; W2 is one chunk at hidden 256 or less.  In
training the sink is Adam's first pass, the moment update and the check, so
no step holds a whole W2 gradient; ``param_gradients`` and ``loss_and_grads``
without ``out`` use a sink that copies each chunk into a whole W2.  At paper
width (4.2M parameters, nearly all in W2) a step therefore allocates nothing
and holds a 4 MiB gradient chunk and no parameter-sized gradient, update
buffer or mask, and the arithmetic, operation for operation, is that of the
plain whole-buffer expression, so results are bit-identical to it.

After training, a z-score output adaptation can be attached: predictions are
shifted and scaled by their mean and standard deviation over the training
designs, so gradient magnitudes during design search are comparable across
training objectives whose raw output scales differ.

``save_model`` writes ``model.json``.  Each weight and bias array is one
base64 string of its little-endian float64 bytes in C order; the shapes follow
from ``layer_sizes``.  Everything else (``layer_sizes``, the input
standardization, the adaptation constants, ``objective``, ``train_config``,
``seed``) is plain JSON.  The arrays round-trip bit for bit, and encoding skips
the per-float text conversion that made a list-of-floats file of the 4.2M
paper-width parameters take seconds to write and read.  ``save_model``
streams each array's base64 into the file in pieces, so writing never holds
a whole array's text.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import _atomic_open
from .tasks import ValidationError, _check_non_negative, _check_seed

__all__ = [
    "TrainConfig",
    "MlpSurrogate",
    "init_surrogate",
    "zscore_adapt",
    "save_model",
    "load_model",
]

ADAPT_STD_FLOOR = 1e-12
# ``forward_batch`` scores at most this many rows per forward pass, and no
# more than keep its widest hidden array within _SCORE_BYTES: 4096 rows (two
# 2 MiB arrays) at hidden 64, 512 rows (two 8 MiB arrays) at hidden 2048
_SCORE_ROWS = 4096
_SCORE_BYTES = 2**23
# ``_backward`` computes W2's gradient in chunks of this many rows; at hidden
# 256 or less W2 is one chunk
_W2_ROWS = 256


@dataclass
class TrainConfig:
    """Optimization hyperparameters shared by all training objectives; the
    defaults are the desk-scale values of the config's ``[train]`` section."""

    iterations: int = 5000
    batch_size: int = 256
    learning_rate: float = 3e-4
    # constants, not options; fields so that ``to_dict`` echoes them
    optimizer: str = field(default="adam", init=False)
    adam_beta1: float = field(default=0.9, init=False)
    adam_beta2: float = field(default=0.999, init=False)
    adam_eps: float = field(default=1e-8, init=False)
    weight_decay: float = field(default=0.0, init=False)
    weight_init_scale: float = field(default=1.0, init=False)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValidationError("iterations", "must be at least 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size", "must be at least 1")
        _check_non_negative("learning_rate", self.learning_rate)
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


class MlpSurrogate:
    """MLP scoring model with layer sizes [dim, hidden, hidden, 1]."""

    def __init__(
        self,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        seed: int | None = None,
    ):
        if len(weights) != 3 or len(biases) != 3:
            raise ValueError("expected exactly three linear layers")
        arrays = [np.asarray(a, dtype=float) for a in [*weights, *biases]]
        sizes = [arrays[0].shape[-1], *(w.shape[0] for w in arrays[:3])]
        self._shapes = [(o, i) for i, o in zip(sizes, sizes[1:])] + [(o,) for o in sizes[1:]]
        if sizes[3] != 1 or [a.shape for a in arrays] != self._shapes:
            raise ValueError(f"shapes {[a.shape for a in arrays]} are not a [dim, h1, h2, 1] net")
        # the one copy of the parameters, in the order W1, W2, W3, b1, b2, b3
        self.params = np.concatenate([a.ravel() for a in arrays])
        if not np.isfinite(self.params).all():
            raise ValueError("parameters must be finite")
        self.weights, self.biases = self.param_views(self.params)
        self.seed = seed
        self.x_mean = np.zeros(self.dim)
        self.x_std = np.ones(self.dim)
        self.adapt_mean: float | None = None
        self.adapt_std: float | None = None
        self.adapt_degenerate: bool = False
        self.objective: str | None = None
        self.train_config: dict | None = None
        self.task: dict | None = None

    @property
    def dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.dim, self.weights[0].shape[0], self.weights[1].shape[0], 1]

    @property
    def num_params(self) -> int:
        return self.params.size

    def param_views(
        self, flat: np.ndarray, w2_rows: int | None = None
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(weights, biases)``-shaped views of a flat buffer laid out as
        ``params``, or, given ``w2_rows``, as ``params`` with W2 cut to that
        many rows."""
        shapes = list(self._shapes)
        if w2_rows is not None:
            shapes[1] = (w2_rows, shapes[1][1])
        ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        views = [v.reshape(shape) for v, shape in zip(np.split(flat, ends), shapes)]
        return views[:3], views[3:]

    @property
    def is_adapted(self) -> bool:
        return self.adapt_mean is not None and self.adapt_std is not None

    def set_input_standardization(self, mean: np.ndarray, std: np.ndarray) -> None:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        if mean.shape != (self.dim,) or std.shape != (self.dim,):
            raise ValueError("standardization constants must have shape (dim,)")
        if not np.isfinite(mean).all():
            raise ValueError("x_mean: must be finite")
        if not (np.isfinite(std).all() and (std > 0.0).all()):
            raise ValueError("x_std: must be finite and positive")
        self.x_mean = mean
        self.x_std = std

    # -- forward and gradients ------------------------------------------------

    def _first_layer(self, X: np.ndarray, work):
        """The standardized rows of ``X`` and their first pre-activations,
        written into the leading ``len(X)`` rows of ``work``'s ``Z`` and
        ``H1`` and checked finite; returns those views."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected inputs of shape (n, {self.dim})")
        Z, A1 = work[0][: len(X)], work[1][: len(X)]
        np.divide(np.subtract(X, self.x_mean, out=Z), self.x_std, out=Z)
        np.matmul(Z, self.weights[0].T, out=A1)
        A1 += self.biases[0]
        _check_finite(A1, 1)
        return Z, A1

    def _forward_cache(self, X: np.ndarray, work):
        """Scores and the ``(Z, H1, H2)`` cache of the rows of ``X``, written
        into the leading ``len(X)`` rows of ``work``, a ``_score_workspace``
        of at least that many rows; the returned arrays are views of it."""
        Z, H1 = self._first_layer(X, work)
        H2, col = (a[: len(Z)] for a in work[2:])
        np.maximum(H1, 0.0, out=H1)
        np.matmul(H1, self.weights[1].T, out=H2)
        H2 += self.biases[1]
        _check_finite(H2, 2)
        np.maximum(H2, 0.0, out=H2)
        np.matmul(H2, self.weights[2].T, out=col)
        col += self.biases[2]
        _check_finite(col, 3)
        return col[:, 0], (Z, H1, H2)

    def _score_workspace(self, rows: int):
        """``Z``, ``H1``, ``H2`` and the output column for forward passes of
        up to ``rows`` rows."""
        h1, h2 = self.layer_sizes[1:3]
        return (
            np.empty((rows, self.dim)),
            np.empty((rows, h1)),
            np.empty((rows, h2)),
            np.empty((rows, 1)),
        )

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """Scores of the rows of ``X``, one forward pass per fixed block of
        ``_SCORE_ROWS`` rows, or fewer for a hidden layer so wide that a
        block's array of it would pass ``_SCORE_BYTES``; so memory beyond
        the scores is bounded by the block at any pool size.  The blocks
        share one workspace, allocated once per call."""
        X = np.asarray(X, dtype=float)
        rows = max(1, min(_SCORE_ROWS, _SCORE_BYTES // (8 * max(self.layer_sizes[1:3]))))
        work = self._score_workspace(min(len(X), rows))
        out = np.empty(len(X))
        # an empty X still runs one pass, which checks its shape
        for start in range(0, len(X) or 1, rows):
            block = slice(start, start + rows)
            out[block] = self._forward_cache(X[block], work)[0]
        return out

    def param_gradients(
        self, batch_inputs: np.ndarray, upstream_grads: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of sum_i upstream_i * h(x_i) w.r.t. every weight and bias."""
        return self.loss_and_grads(batch_inputs, lambda _: (0.0, upstream_grads))[1]

    def loss_and_grads(self, X: np.ndarray, loss_fn, out=None, work=None, w2_sink=None):
        """Loss and parameter gradients of one batch from a single forward pass.

        ``loss_fn(scores) -> (loss, upstream)`` receives the network outputs for
        the rows of ``X`` and returns the scalar loss and its derivative with
        respect to each score.  Returns ``(loss, (grads_w, grads_b))``; when the
        loss is not finite the backward pass is skipped and the gradients are
        ``None``.  ``work``, when given, is a ``_score_workspace`` of at least
        ``len(X)`` rows that the forward pass writes into and the backward
        pass consumes, so ``scores`` is a view of it that the next call
        overwrites; it is allocated for the call when not given.

        ``out`` and ``w2_sink`` are given together or not at all.  Given,
        they are as in ``_backward``: ``out`` is shaped like the parameters
        but for W2's entry, a buffer of ``min(h2, _W2_ROWS)`` rows, and
        ``w2_sink`` takes W2's gradient chunk by chunk; ``out`` itself is
        returned.  Otherwise whole gradient arrays are allocated, and a sink
        copies each chunk into its rows of W2's.
        """
        if (out is None) != (w2_sink is None):
            raise ValueError("out and w2_sink are given together")
        if work is None:
            work = self._score_workspace(len(X))
        scores, cache = self._forward_cache(X, work)
        loss, upstream = loss_fn(scores)
        if not np.isfinite(loss):
            return loss, None
        up = np.asarray(upstream, dtype=float).reshape(-1)
        if len(up) != len(scores):
            raise ValueError("need one upstream gradient per batch input")
        if out is not None:
            return loss, self._backward(cache, up, out, w2_sink)
        grads = self.param_views(np.empty(self.params.size))
        (gw1, gw2, gw3), gb = grads

        def copy_chunk(row, chunk):
            gw2[row : row + len(chunk)] = chunk

        out = [gw1, np.empty((min(len(gw2), _W2_ROWS), gw2.shape[1])), gw3], gb
        self._backward(cache, up, out, copy_chunk)
        return loss, grads

    def _backward(self, cache, up: np.ndarray, out, w2_sink):
        """Parameter gradients of ``sum_i up_i * h(x_i)`` from a forward
        cache, which the pass consumes: each hidden layer's deltas are
        written over its activations once its ReLU mask and its last read
        are done, so afterwards ``H1`` and ``H2`` hold deltas, not
        activations.  The operations are those of the allocating expressions
        ``d2 = up[:, None] * w3 * (H2 > 0)`` and ``d1 = (d2 @ W2) * (H1 > 0)``,
        in the same order, so the gradients are bit-identical to them.  The
        gradients are written into ``out``, a ``(grads_w, grads_b)`` pair
        shaped like the parameters, except that its W2 entry is a buffer of
        ``min(h2, _W2_ROWS)`` rows.

        W2's gradient ``d2.T @ H1`` is one product per chunk of ``_W2_ROWS``
        of its rows; each of its entries is the same sum over the batch as in
        one whole product, and OpenBLAS rounds it the same.  Each chunk is
        written into the last rows of ``out``'s W2 buffer and handed to
        ``w2_sink(first_row, chunk)`` before the next chunk overwrites it."""
        (gw1, gw2, gw3), (gb1, gb2, gb3) = out
        Z, H1, H2 = cache
        # a row with zero upstream gradient adds exactly zero to every sum
        # below, so only the active rows are backpropagated
        rows = np.flatnonzero(up)
        if len(rows) < len(up):
            up, Z, H1, H2 = up[rows], Z[rows], H1[rows], H2[rows]
        np.matmul(up[None, :], H2, out=gw3)
        gb3[0] = up.sum()
        mask = H2 > 0.0
        d2 = np.multiply(up[:, None], self.weights[2][0], out=H2)
        d2 *= mask
        for start in range(0, d2.shape[1], _W2_ROWS):
            cols = d2[:, start : start + _W2_ROWS]
            chunk = gw2[len(gw2) - cols.shape[1] :]
            np.matmul(cols.T, H1, out=chunk)
            w2_sink(start, chunk)
        np.sum(d2, axis=0, out=gb2)
        mask = H1 > 0.0
        d1 = np.matmul(d2, self.weights[1], out=H1)
        d1 *= mask
        np.matmul(d1.T, Z, out=gw1)
        np.sum(d1, axis=0, out=gb1)
        return out

    def input_gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact gradient of h at each row, w.r.t. the raw (unstandardized)
        input, from one forward pass into a workspace of the call's own;
        each hidden layer's deltas overwrite its activations, as in
        ``_backward``.  The stateless reference of ``_trajectory_gradient``."""
        _, (_, H1, H2) = self._forward_cache(X, self._score_workspace(len(X)))
        mask = H2 > 0.0
        v2 = np.multiply(self.weights[2][0], mask, out=H2)
        mask = H1 > 0.0
        v1 = np.matmul(v2, self.weights[1], out=H1)
        v1 *= mask
        return (v1 @ self.weights[0]) / self.x_std

    def _trajectory_gradient(self):
        """A function ``gradient(X)`` that returns ``input_gradient_batch(X)``
        up to rounding, through each row's local linear map; it serves the
        iterates of one ascent, a call per step, all with the first call's
        row count.

        Up to its second ReLU the network is linear wherever the first
        layer's ReLU mask ``m1`` holds: row i's second pre-activation is
        ``R_i [z_i; 1] + b2``, with ``R_i = W2 diag(m1_i) [W1 | b1]`` of
        h2 x (dim + 1) entries, and its input gradient is
        ``R_i[:, :dim]^T (m2_i * w3) / x_std`` for the second mask ``m2``.
        The first call builds every ``R_i`` with dim + 1 products.  Every
        call runs the first layer as ``_forward_cache`` does, so ``m1`` is
        the reference's bit for bit; a later call then adds ``+-W2[:, j] (x) [W1_j, b1_j]`` to ``R_i``
        for each unit j whose mask flipped in row i, as one small product per
        row with flips.  An ascent step flips few units (4.8 of 2048 per row
        at paper width), so a step costs O(rows x hidden x (dim + flips))
        instead of two rows x h1 x h2 products.  The finite checks are
        ``_forward_cache``'s three, layer 2's on ``R_i [z_i; 1] + b2``.  The
        building call allocates every array of rows x hidden entries, and
        the function keeps one contiguous copy of ``W2^T``, whose rows the
        flips gather, so a later call allocates none."""
        dim, h1, h2 = self.layer_sizes[:3]
        W1b = np.column_stack([self.weights[0], self.biases[0]])
        W2T = np.ascontiguousarray(self.weights[1].T)
        W3, b2, b3 = self.weights[2], self.biases[1], self.biases[2]
        update = np.empty((dim + 1, h2))
        work = masks = None

        def gradient(X: np.ndarray) -> np.ndarray:
            nonlocal work, masks
            X = np.asarray(X, dtype=float)
            # masks are set once the maps are built: a check that fails
            # during the build leaves the next call to build them again
            built = masks is not None
            if not built:
                # Z, A1, A2 and the output column; the maps R; a scratch;
                # the second mask
                work = self._score_workspace(len(X)) + (
                    np.empty((len(X), dim + 1, h2)),
                    np.empty((len(X), h2)),
                    np.empty((len(X), h2), dtype=bool),
                )
            Z, A1 = self._first_layer(X, work)
            _, _, A2, col, R, T, m2 = work
            if built:
                # a spare for this call's m1, the last call's, and a scratch
                m1, last, flipped = masks
                np.greater(A1, 0.0, out=m1)
                flips = np.flatnonzero(np.not_equal(m1, last, out=flipped))
                # T holds the W2^T rows of len(T) flips at a time, in row order
                for start in range(0, len(flips), len(T)):
                    rows, units = np.divmod(flips[start : start + len(T)], h1)
                    coef = W1b[units]
                    coef[~m1[rows, units]] *= -1.0  # the units that turned off
                    # units < h1, so mode="clip" clips nothing; the default
                    # "raise" would buffer out in a fresh array of its size
                    G = np.take(W2T, units, axis=0, out=T[: len(units)], mode="clip")
                    runs = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(rows)]
                    for a, b in zip(runs, runs[1:]):
                        R[rows[a]] += np.matmul(coef[a:b].T, G[a:b], out=update)
                masks[:2] = last, m1
            else:
                m1 = A1 > 0.0
                for k in range(dim + 1):
                    np.matmul(np.multiply(m1, W1b[:, k], out=A1), W2T, out=R[:, k])
                masks = [np.empty_like(m1), m1, np.empty_like(m1)]
            np.multiply(R[:, 0], Z[:, :1], out=A2)
            for k in range(1, dim):
                A2 += np.multiply(R[:, k], Z[:, k : k + 1], out=T)
            A2 += R[:, dim]
            A2 += b2
            _check_finite(A2, 2)
            np.maximum(A2, 0.0, out=A2)
            np.matmul(A2, W3.T, out=col)
            col += b3
            _check_finite(col, 3)
            # m2 * w3, with the subgradient 0 at 0
            v = np.multiply(np.greater(A2, 0.0, out=m2), W3[0], out=T)
            g = np.einsum("ikj,ij->ik", R[:, :dim], v)
            g /= self.x_std
            return g

        return gradient

    # -- output adaptation ----------------------------------------------------

    def adapt_output(self, designs: np.ndarray) -> "MlpSurrogate":
        """Attach z-score output constants computed over the given designs."""
        designs = np.atleast_2d(np.asarray(designs, dtype=float))
        if len(designs) < 1:
            raise ValueError("adaptation needs a non-empty design set")
        preds = self.forward_batch(designs)
        self.adapt_mean = float(preds.mean())
        std = float(preds.std())
        if std < ADAPT_STD_FLOOR:
            self.adapt_std = 1.0
            self.adapt_degenerate = True
        else:
            self.adapt_std = std
            self.adapt_degenerate = False
        return self

    def predict_adapted_batch(self, X: np.ndarray) -> np.ndarray:
        if not self.is_adapted:
            raise RuntimeError("output adaptation has not been performed")
        return (self.forward_batch(X) - self.adapt_mean) / self.adapt_std

    # -- persistence ----------------------------------------------------------

    def to_dict(self, encode=None) -> dict:
        """The JSON fields of ``model.json``; each weight and bias array is
        given as ``encode(array)``, by default its base64 string."""
        encode = encode or _encode_array
        return {
            "layer_sizes": self.layer_sizes,
            "weights": [encode(w) for w in self.weights],
            "biases": [encode(b) for b in self.biases],
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "adapt_mean": self.adapt_mean,
            "adapt_std": self.adapt_std,
            "adapt_degenerate": self.adapt_degenerate,
            "objective": self.objective,
            "train_config": self.train_config,
            "task": self.task,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MlpSurrogate":
        """Inverse of ``to_dict``; a malformed array or constant raises
        ``ValueError`` naming its field, such as ``weights[1]`` or
        ``adapt_std``."""
        sizes = data["layer_sizes"]
        if not (
            isinstance(sizes, list)
            and len(sizes) == 4
            and all(type(n) is int and n >= 1 for n in sizes)
        ):
            raise ValueError(f"layer_sizes: expected four positive integers, got {sizes!r}")
        fan = list(zip(sizes[1:], sizes[:-1]))
        model = cls(
            weights=_decode_arrays(data, "weights", fan),
            biases=_decode_arrays(data, "biases", [(out,) for out, _ in fan]),
            seed=data.get("seed"),
        )
        model.set_input_standardization(
            np.array(data["x_mean"], dtype=float), np.array(data["x_std"], dtype=float)
        )
        # both null (an unadapted model), or both finite with adapt_std > 0
        mean, std = data.get("adapt_mean"), data.get("adapt_std")
        if mean is not None or std is not None:
            for key, value in (("adapt_mean", mean), ("adapt_std", std)):
                if type(value) not in (int, float) or not math.isfinite(value):
                    raise ValueError(
                        f"{key}: expected a finite number, or null with the other, got {value!r}"
                    )
            if std <= 0:
                raise ValueError(f"adapt_std: must be positive, got {std!r}")
        model.adapt_mean, model.adapt_std = mean, std
        model.adapt_degenerate = data.get("adapt_degenerate", False)
        if type(model.adapt_degenerate) is not bool:
            raise ValueError(
                f"adapt_degenerate: expected true or false, got {model.adapt_degenerate!r}"
            )
        model.objective = data.get("objective")
        model.train_config = data.get("train_config")
        model.task = data.get("task")
        return model


def _check_finite(A: np.ndarray, layer: int) -> None:
    """Raises FloatingPointError naming ``layer`` unless ``A`` is finite."""
    if not np.isfinite(A).all():
        raise FloatingPointError(f"non-finite activation in layer {layer}")


def _encode_array(a: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 bytes in C order, taken
    from its buffer directly."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode("ascii")


def _decode_arrays(data: dict, key: str, shapes: list[tuple]) -> list[np.ndarray]:
    """Read-only float64 views of ``shapes`` over the bytes of ``data[key]``;
    the model constructor copies them."""
    entries = data[key]
    if not isinstance(entries, list) or len(entries) != len(shapes):
        raise ValueError(f"{key}: expected a list of {len(shapes)} base64 strings")
    arrays = []
    for i, (entry, shape) in enumerate(zip(entries, shapes)):
        name = f"{key}[{i}]"
        if not isinstance(entry, str):
            raise ValueError(
                f"{name}: expected a base64 string of float64 bytes, "
                f"got {type(entry).__name__}"
            )
        try:
            raw = base64.b64decode(entry, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise ValueError(f"{name}: invalid base64 ({exc})") from None
        expected = 8 * math.prod(shape)
        if len(raw) != expected:
            raise ValueError(
                f"{name}: {len(raw)} bytes, but layer_sizes give shape {shape} "
                f"({expected} bytes)"
            )
        arrays.append(np.frombuffer(raw, dtype="<f8").reshape(shape))
    return arrays


def init_surrogate(dim: int, hidden: int, seed: int) -> MlpSurrogate:
    """Fresh surrogate with uniform(+-1/sqrt(fan_in)) weights and zero biases;
    the scale is the ``weight_init_scale`` constant that ``TrainConfig``
    echoes."""
    if dim < 1 or hidden < 1:
        raise ValueError("dim and hidden must be positive")
    rng = np.random.default_rng(seed)
    sizes = [dim, hidden, hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpSurrogate(weights, biases, seed=seed)


def zscore_adapt(model: MlpSurrogate, dataset) -> MlpSurrogate:
    """Attach output adaptation constants from a dataset (or raw design array)."""
    designs = getattr(dataset, "designs", dataset)
    return model.adapt_output(designs)


def save_model(model: MlpSurrogate, path: str | Path) -> None:
    """Write ``model.to_dict()`` atomically, byte for byte as
    ``artifacts.write_json`` would, but with each array's base64 streamed
    into the file piece by piece, so that no whole-array string is built (at
    paper width W2's took three 45 MB strings).  The other values are
    ``json.dumps`` at ``indent=2``, indented one more level."""
    with _atomic_open(path) as fh:
        fh.write("{")
        for i, (key, value) in enumerate(model.to_dict(encode=lambda a: a).items()):
            fh.write(f"{',' if i else ''}\n  {json.dumps(key)}: ")
            if key in ("weights", "biases"):
                for j, a in enumerate(value):
                    fh.write(f"{',' if j else '['}\n    \"")
                    _write_base64(fh, a)
                    fh.write('"')
                fh.write("\n  ]")
            else:
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        fh.write("\n}\n")


# ``save_model`` encodes an array's bytes this many at a time (1 MiB of
# base64); a multiple of 3, so the pieces' base64 joins into the whole's
_B64_PIECE = 3 * 2**18


def _write_base64(fh, a: np.ndarray) -> None:
    """Writes ``_encode_array(a)`` to the text file ``fh``, encoded
    ``_B64_PIECE`` bytes at a time."""
    raw = memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B")
    for start in range(0, len(raw), _B64_PIECE):
        fh.write(base64.b64encode(raw[start : start + _B64_PIECE]).decode("ascii"))


def load_model(path: str | Path) -> MlpSurrogate:
    with open(path) as fh:
        return MlpSurrogate.from_dict(json.load(fh))


# Adam works through the flat buffers in blocks of this many float64 entries
# (256 KiB), so each block's operands and scratch stay in L2 cache instead of
# streaming a whole paper-width buffer (33.6 MB) through memory once per
# operation.
_BLOCK = 32768


class _Optimizer:
    """Adam over the surrogate parameters.

    Adam's two moments are flat buffers laid out as ``model.params``.  A step
    runs in two passes over fixed ``_BLOCK`` slices of them: the first
    updates the moments from the gradient and checks each block of ``v`` by
    its maximum, and only when every block is finite does the second compute
    each block's update into a block-sized scratch and subtract it in place
    from the same slice of ``model.params``.

    The optimizer holds no whole W2 gradient, which is nearly all of the 4.2M
    parameters at paper width.  A trainer passes ``chunked_grads`` as ``out``
    and ``take_w2`` as ``w2_sink`` to ``MlpSurrogate.loss_and_grads``, then
    calls ``step``.  ``chunked_grads`` views one flat buffer laid out as
    ``model.params`` with W2 cut to ``min(h2, _W2_ROWS)`` rows, and
    ``take_w2`` runs the first pass over each chunk of W2's gradient as the
    backward pass writes it, except the last chunk.  That one fills the end
    of W2's rows, where the W3 gradient begins, so ``step`` runs the first
    pass over it and all later gradients as one stretch, and over W1's as
    another.  At hidden 256 or less W2 is one chunk, the buffer is laid out
    exactly as ``model.params``, and a step is one first pass over it.  So a
    step allocates no array, and at paper width it keeps a 4 MiB chunk and
    the small gradients beside the model and the two moments.
    """

    def __init__(self, model: MlpSurrogate, config: TrainConfig):
        if not all(p.base is model.params for p in model.weights + model.biases):
            raise ValueError("every parameter must be a view of model.params")
        self.config = config
        self.t = 0
        n = model.params.size
        h2, h1 = model.weights[1].shape
        self._chunked = np.empty(n - (h2 - min(h2, _W2_ROWS)) * h1)
        self.m, self.v = np.zeros(n), np.zeros(n)
        update, self._scratch = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
        self._updates = [
            (m, v, update[: len(m)], self._scratch[: len(m)], p)
            for m, v, p in zip(
                *(np.split(a, range(_BLOCK, n, _BLOCK)) for a in (self.m, self.v, model.params))
            )
        ]
        self._w2_start = model.weights[0].size
        self._w2_last = (h2 - 1) // _W2_ROWS * _W2_ROWS  # first row of W2's last chunk
        self.chunked_grads = model.param_views(self._chunked, w2_rows=min(h2, _W2_ROWS))
        if self._w2_last == 0:
            self._chunked_blocks = self._blocks(0, self._chunked)
        else:
            # W1's gradient, then W2's last chunk and all later gradients
            tail = n - self._w2_start - self._w2_last * h1
            self._chunked_blocks = self._blocks(0, self._chunked[: self._w2_start])
            self._chunked_blocks += self._blocks(n - tail, self._chunked[-tail:])
        self._w2_finite = True

    def _blocks(self, start: int, g: np.ndarray) -> list:
        """``(g, m, v, scratch)`` views of each ``_BLOCK`` slice of the flat
        gradient ``g``, whose entries are those of the parameters from
        ``start`` on."""
        return [
            (g[i : i + _BLOCK], self.m[sl], self.v[sl], self._scratch[: sl.stop - sl.start])
            for i in range(0, g.size, _BLOCK)
            for sl in [slice(start + i, start + min(i + _BLOCK, g.size))]
        ]

    def _moments(self, blocks: list) -> bool:
        """Adam's first pass over ``_blocks``; True when ``v`` is finite in
        every block.  ``v`` is a sum of squares, so a block is finite exactly
        when its maximum, which propagates NaN, is below inf."""
        b1, b2 = self.config.adam_beta1, self.config.adam_beta2
        finite = True
        for g, m, v, s in blocks:
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.square(g, out=s)
            v += np.multiply(1 - b2, s, out=s)
            finite &= bool(v.max() < math.inf)
        return finite

    def take_w2(self, first_row: int, chunk: np.ndarray) -> None:
        """``w2_sink`` of ``loss_and_grads``: the first pass over a chunk of
        W2's gradient, except the last, which ``step`` takes."""
        if first_row < self._w2_last:
            start = self._w2_start + first_row * chunk.shape[1]
            self._w2_finite &= self._moments(self._blocks(start, chunk.reshape(-1)))

    def step(self) -> bool:
        """Apply one update to the parameters of the model the optimizer was
        built for, from ``chunked_grads`` and the chunks ``take_w2`` took
        during the last backward pass.  Return False, leaving the parameters
        untouched, when the second moment has overflowed (an inf entry would
        freeze its parameter silently)."""
        cfg = self.config
        self.t += 1
        corr1 = 1.0 - cfg.adam_beta1**self.t
        corr2 = 1.0 - cfg.adam_beta2**self.t
        finite = self._moments(self._chunked_blocks) & self._w2_finite
        self._w2_finite = True
        if not finite:
            return False
        for m, v, u, s, p in self._updates:
            np.divide(m, corr1, out=u)
            u *= cfg.learning_rate
            np.divide(v, corr2, out=s)
            np.sqrt(s, out=s)
            s += cfg.adam_eps
            u /= s
            p -= u
        return True
