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
runs it over fixed blocks of ``_SCORE_ROWS`` (4096) rows with one workspace
of at most one block, allocated once per call, writing each block's scores
into one output vector; so scoring n rows peaks at two block x hidden
float64 arrays plus the n scores, and a large call does not map and fault
in fresh pages per block.  A caller that scores once, such as
``input_gradient_batch``, allocates a workspace for its rows.  In a call of
more than one block a score's last bit can depend on its block, which the
row's position fixes: OpenBLAS rounds the output product, and for blocks of
16 rows or fewer the hidden products, differently at different row counts.

A training step is fused: ``MlpSurrogate.loss_and_grads`` runs the forward
pass once, hands the scores to the trainer's loss function and backpropagates
its upstream gradients through the cached activations, writing them straight
into views of the optimizer's flat gradient buffer.  The trainer passes one
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
block's maximum.  At paper width (4.2M parameters) a step therefore
allocates nothing and holds no parameter-sized update buffer or mask, and the
arithmetic, operation for operation, is that of the plain whole-buffer
expression, so results are bit-identical to it.

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
paper-width parameters take seconds to write and read.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_json
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
# ``forward_batch`` scores at most this many rows per forward pass; at hidden
# 64 a block's two cached arrays take 4 MiB
_SCORE_ROWS = 4096


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

    def param_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(weights, biases)``-shaped views of a flat buffer laid out as
        ``params``."""
        ends = np.cumsum([math.prod(shape) for shape in self._shapes])[:-1]
        views = [v.reshape(shape) for v, shape in zip(np.split(flat, ends), self._shapes)]
        return views[:3], views[3:]

    @property
    def is_adapted(self) -> bool:
        return self.adapt_mean is not None and self.adapt_std is not None

    def set_input_standardization(self, mean: np.ndarray, std: np.ndarray) -> None:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        if mean.shape != (self.dim,) or std.shape != (self.dim,):
            raise ValueError("standardization constants must have shape (dim,)")
        if np.any(std <= 0.0):
            raise ValueError("x_std must be positive")
        self.x_mean = mean
        self.x_std = std

    # -- forward and gradients ------------------------------------------------

    def _forward_cache(self, X: np.ndarray, work):
        """Scores and the ``(Z, H1, H2)`` cache of the rows of ``X``, written
        into the leading ``len(X)`` rows of ``work``, a ``_score_workspace``
        of at least that many rows; the returned arrays are views of it."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected inputs of shape (n, {self.dim})")
        Z, H1, H2, col = (a[: len(X)] for a in work)
        np.divide(np.subtract(X, self.x_mean, out=Z), self.x_std, out=Z)
        np.matmul(Z, self.weights[0].T, out=H1)
        H1 += self.biases[0]
        _check_finite(H1, 1)
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
        ``_SCORE_ROWS`` rows, so memory beyond the scores is bounded by the
        block at any pool size.  The blocks share one workspace, allocated
        once per call."""
        X = np.asarray(X, dtype=float)
        work = self._score_workspace(min(len(X), _SCORE_ROWS))
        out = np.empty(len(X))
        # an empty X still runs one pass, which checks its shape
        for start in range(0, len(X) or 1, _SCORE_ROWS):
            block = slice(start, start + _SCORE_ROWS)
            out[block] = self._forward_cache(X[block], work)[0]
        return out

    def param_gradients(
        self, batch_inputs: np.ndarray, upstream_grads: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of sum_i upstream_i * h(x_i) w.r.t. every weight and bias."""
        return self.loss_and_grads(batch_inputs, lambda _: (0.0, upstream_grads))[1]

    def loss_and_grads(self, X: np.ndarray, loss_fn, out=None, work=None):
        """Loss and parameter gradients of one batch from a single forward pass.

        ``loss_fn(scores) -> (loss, upstream)`` receives the network outputs for
        the rows of ``X`` and returns the scalar loss and its derivative with
        respect to each score.  Returns ``(loss, (grads_w, grads_b))``; when the
        loss is not finite the backward pass is skipped and the gradients are
        ``None``.  ``out``, when given, is a ``(grads_w, grads_b)`` pair shaped
        like the parameters, such as ``param_views`` of a flat buffer; the
        gradients are written into it and ``out`` itself is returned.
        ``work``, when given, is a ``_score_workspace`` of at least ``len(X)``
        rows that the forward pass writes into and the backward pass consumes,
        so ``scores`` is a view of it that the next call overwrites.  Either
        one is allocated for the call when not given.
        """
        if work is None:
            work = self._score_workspace(len(X))
        scores, cache = self._forward_cache(X, work)
        loss, upstream = loss_fn(scores)
        if not np.isfinite(loss):
            return loss, None
        up = np.asarray(upstream, dtype=float).reshape(-1)
        if len(up) != len(scores):
            raise ValueError("need one upstream gradient per batch input")
        if out is None:
            out = self.param_views(np.empty(self.params.size))
        return loss, self._backward(cache, up, out)

    def _backward(self, cache, up: np.ndarray, out):
        """Parameter gradients of ``sum_i up_i * h(x_i)`` from a forward
        cache, which the pass consumes: each hidden layer's deltas are
        written over its activations once its ReLU mask and its last read
        are done, so afterwards ``H1`` and ``H2`` hold deltas, not
        activations.  The operations are those of the allocating expressions
        ``d2 = up[:, None] * w3 * (H2 > 0)`` and ``d1 = (d2 @ W2) * (H1 > 0)``,
        in the same order, so the gradients are bit-identical to them.  The
        gradients are written into ``out``, a ``(grads_w, grads_b)`` pair."""
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
        np.matmul(d2.T, H1, out=gw2)
        np.sum(d2, axis=0, out=gb2)
        mask = H1 > 0.0
        d1 = np.matmul(d2, self.weights[1], out=H1)
        d1 *= mask
        np.matmul(d1.T, Z, out=gw1)
        np.sum(d1, axis=0, out=gb1)
        return out

    def input_gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact gradient of h at each row, w.r.t. the raw (unstandardized) input."""
        _, (_, H1, H2) = self._forward_cache(X, self._score_workspace(len(X)))
        v2 = self.weights[2][0][None, :] * (H2 > 0.0)
        v1 = (v2 @ self.weights[1]) * (H1 > 0.0)
        return (v1 @ self.weights[0]) / self.x_std

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

    def to_dict(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "weights": [_encode_array(w) for w in self.weights],
            "biases": [_encode_array(b) for b in self.biases],
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
        """Inverse of ``to_dict``; a malformed array raises ``ValueError``
        naming its field, such as ``weights[1]``."""
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
        model.adapt_mean = data.get("adapt_mean")
        model.adapt_std = data.get("adapt_std")
        model.adapt_degenerate = bool(data.get("adapt_degenerate", False))
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
    write_json(path, model.to_dict())


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

    The optimizer owns one flat gradient buffer laid out as ``model.params``;
    Adam's two moments are flat buffers in the same order.  ``grads`` is
    ``model.param_views`` of the gradient buffer; the caller fills it, through
    ``MlpSurrogate.loss_and_grads(..., out=opt.grads)``, before each
    ``step``, which reads nothing else.  A step runs in two passes over fixed
    ``_BLOCK`` slices of the buffers: the first updates the moments and
    checks each block of ``v`` by its maximum, and only when every block is
    finite does the second compute each block's update into a block-sized
    scratch and subtract it in place from the same slice of
    ``model.params``.  There is no parameter-sized update buffer or mask, so
    a step at paper width allocates nothing and keeps only the gradient and
    the two moments beside the model.
    """

    def __init__(self, model: MlpSurrogate, config: TrainConfig):
        if not all(p.base is model.params for p in model.weights + model.biases):
            raise ValueError("every parameter must be a view of model.params")
        self.config = config
        self.t = 0
        n = model.params.size
        self.grad, self.m, self.v = np.empty(n), np.zeros(n), np.zeros(n)
        self.grads = model.param_views(self.grad)
        update, scratch = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
        self._blocks = []
        for start in range(0, n, _BLOCK):
            sl, k = slice(start, start + _BLOCK), min(_BLOCK, n - start)
            self._blocks.append(
                (self.grad[sl], self.m[sl], self.v[sl], update[:k], scratch[:k], model.params[sl])
            )

    def step(self) -> bool:
        """Apply one update from the gradients in ``grads`` to the parameters
        of the model the optimizer was built for; return False, leaving them
        untouched, when the second moment has overflowed (an inf entry would
        freeze its parameter silently).  ``v`` is a sum of squares, so a
        block is finite exactly when its maximum, which propagates NaN, is
        below inf."""
        cfg = self.config
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        self.t += 1
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        finite = True
        for g, m, v, _, s, _ in self._blocks:
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.square(g, out=s)
            v += np.multiply(1 - b2, s, out=s)
            finite &= bool(v.max() < math.inf)
        if not finite:
            return False
        for _, m, v, u, s, p in self._blocks:
            np.divide(m, corr1, out=u)
            u *= cfg.learning_rate
            np.divide(v, corr2, out=s)
            np.sqrt(s, out=s)
            s += cfg.adam_eps
            u /= s
            p -= u
        return True
