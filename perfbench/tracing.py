"""In-memory span tracing of the rankmbo public API, from outside the package.

``instrument`` replaces every public function of the traced modules at each
name where callers look it up (the defining module, every sibling module that
imported it, and the package namespace), and every public method on the
classes those modules define.  Each call then records one span: name, start,
end, parent span, op id and an optional size tuple taken from the arguments.
Nothing is written while tracing; ``write_spans`` dumps the spans at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

TRACED_MODULES = ("tasks", "surrogate", "objectives", "search", "diagnostics", "harness")

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Collects spans while ``op`` is not None; calls pass straight through otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            size = size_of(args, kwargs) if size_of is not None else None
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, size]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[START] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = tracer.clock()
                tracer._stack.pop()

        return traced


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans.

    Children of one parent are merged as intervals and clipped to the parent,
    so overlapping siblings are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


def _sizer(fn, extract):
    """Size function over a call's bound arguments (defaults applied)."""
    sig = inspect.signature(fn)

    def size_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return extract(bound.arguments)

    return size_of


def _mlp_flop(model, rows: int, kind: str) -> float:
    """Matmul flops of one surrogate call, from the layer shapes."""
    d, h = model.layer_sizes[0], model.layer_sizes[1]
    forward = d * h + h * h + h
    macs = {
        "forward_batch": forward,
        # forward, then gw3, gw2 = d2.T @ H1, d1 = d2 @ W2 and gw1 = d1.T @ Z
        "param_gradients": forward + h + 2 * h * h + h * d,
        # layers 1-2 forward, then v2 @ W2 and v1 @ W1
        "input_gradient_batch": 2 * d * h + 2 * h * h,
    }[kind]
    return 2.0 * rows * macs


def _mlp_sizer(kind, arg):
    return lambda a: (len(a[arg]), _mlp_flop(a["self"], len(a[arg]), kind))


def _ranking_pairs(diagnostics):
    def extract(a):
        n = len(a["near"]) * len(a["sub"])
        cap = a.get("pair_cap", getattr(diagnostics, "PAIR_CAP", None))
        exact = cap is None or n <= cap
        return (n if exact else cap, int(exact))

    return extract


def _size_rules(diagnostics) -> dict:
    return {
        "surrogate.MlpSurrogate.forward_batch": _mlp_sizer("forward_batch", "X"),
        "surrogate.MlpSurrogate.param_gradients": _mlp_sizer(
            "param_gradients", "batch_inputs"
        ),
        "surrogate.MlpSurrogate.input_gradient_batch": _mlp_sizer(
            "input_gradient_batch", "X"
        ),
        "tasks.TaskSpec.evaluate_batch": lambda a: (len(a["X"]),),
        "objectives.sample_dar_pairs": lambda a: (a["count"],),
        "objectives.sample_ranked_pairs": lambda a: (a["count"],),
        "diagnostics.ranking_error": _ranking_pairs(diagnostics),
        "diagnostics.manifold_distances": lambda a: (len(a["X"]) * len(a["manifold"]),),
        "diagnostics.wasserstein1_assignment": lambda a: (len(a["A"]) * len(a["B"]),),
        "search.propose_candidates": lambda a: (
            a["config"].num_candidates * a["config"].steps,
            a["config"].steps,
        ),
    }


def instrument(tracer: Tracer, package: str = "rankmbo"):
    """Wrap the public API of the traced modules; returns an undo function."""
    pkg = importlib.import_module(package)
    modules = {m: importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES}
    namespaces = [pkg, *modules.values()]
    rules = _size_rules(modules["diagnostics"])
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrapped(fn, name):
        rule = rules.get(name)
        return tracer.wrap(fn, name, _sizer(fn, rule) if rule else None)

    for short, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                new = wrapped(obj, f"{short}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            patch(ns, key, new)
            elif inspect.isclass(obj):
                for key, value in list(vars(obj).items()):
                    if not key.startswith("_") and inspect.isfunction(value):
                        patch(obj, key, wrapped(value, f"{short}.{attr}.{key}"))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def write_spans(spans, path) -> None:
    """One CSV line per span: name,start,end,parent,op,size."""
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,op,size\n")
        for s in spans:
            size = "" if s[SIZE] is None else " ".join(str(v) for v in s[SIZE])
            fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{size}\n")
