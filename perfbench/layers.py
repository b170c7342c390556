"""Per-layer metrics derived from the spans of a traced run.

Every count and time is a total over the traced ops divided by their number,
so a run over whole rotations of a workload's inputs gives per-op figures.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from tracing import END, NAME, OP, PARENT, SIZE, START, TRACED_MODULES, self_times

MLP = "surrogate.MlpSurrogate."
MLP_METHODS = ("forward_batch", "param_gradients", "input_gradient_batch")
TRAINERS = {"objectives.train_mse", "objectives.train_rank_global", "objectives.train_dar"}
# surrogate methods a trainer may call that run no forward pass
NO_FORWARD = {MLP + "set_input_standardization", MLP + "to_dict"}
# trainer self time plus the loss functions they call: loss, Adam step and loop glue
TRAIN_GROUP = TRAINERS | {
    "objectives.mse_loss",
    "objectives.mse_loss_grad",
    "objectives.margin_rank_loss",
    "objectives.margin_rank_loss_grad",
}
SAMPLERS = {"objectives.sample_dar_pairs", "objectives.sample_ranked_pairs"}
STAGES = {
    "data": "harness.build_dataset",
    "train": "harness.train_model",
    "search": "harness.run_search",
    "diagnostics": "harness.run_diagnostics",
}
# spans whose sizes must repeat exactly when an op is repeated on the same input
COUNTED = (
    *(MLP + m for m in MLP_METHODS),
    *sorted(SAMPLERS),
    "diagnostics.ranking_error",
    "diagnostics.manifold_distances",
    "diagnostics.wasserstein1_assignment",
    "search.propose_candidates",
    "tasks.TaskSpec.evaluate_batch",
)


def blas_peak_gflops(n: int = 2048, repeats: int = 3) -> float:
    """Best rate of a plain n x n float64 matmul, after one untimed call."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def op_counts(spans, op) -> dict:
    """Calls and summed sizes per counted span name within one op."""
    out = {}
    for s in spans:
        if s[OP] == op and s[NAME] in COUNTED:
            size = tuple(s[SIZE] or ())
            calls, total = out.get(s[NAME], (0, None))
            if total is not None:
                size = tuple(a + b for a, b in zip(total, size))
            out[s[NAME]] = (calls + 1, size)
    return out


def layer_metrics(spans, op_seconds: dict, iterations: dict, write_bytes: dict,
                  blas_peak: float, overhead_s: float) -> dict:
    """name -> (value, unit) over the traced ops listed in ``op_seconds``."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    own = defaultdict(float)
    incl = defaultdict(float)
    size = defaultdict(lambda: [0.0, 0.0])
    module_self = defaultdict(float)
    train_forwards = 0
    write_s = 0.0
    for span, self_s in zip(spans, selfs):
        if span[OP] not in op_seconds:
            continue
        name = span[NAME]
        calls[name] += 1
        own[name] += self_s
        incl[name] += span[END] - span[START]
        module_self[name.split(".", 1)[0]] += self_s
        for i, v in enumerate(span[SIZE] or ()):
            size[name][i] += v
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        if parent in TRAINERS and name.startswith(MLP) and name not in NO_FORWARD:
            train_forwards += 1
        if parent == "harness.run" and name not in STAGES.values():
            write_s += span[END] - span[START]

    n = len(op_seconds)
    m = {}

    def put(name, total, unit):
        m[name] = (total / n, unit)

    flop = mlp_self = 0.0
    for meth in MLP_METHODS:
        key = MLP + meth
        put(f"surrogate.{meth}.calls", calls[key], "count")
        put(f"surrogate.{meth}.rows", size[key][0], "count")
        put(f"surrogate.{meth}.self_s", own[key], "s")
        flop += size[key][1]
        mlp_self += own[key]
    put("surrogate.gflop_computed", flop / 1e9, "GFLOP")
    gflops = flop / 1e9 / mlp_self if mlp_self else 0.0
    m["surrogate.gflops"] = (gflops, "GFLOP/s")
    m["blas.peak_gflops"] = (blas_peak, "GFLOP/s")
    m["surrogate.peak_share"] = (gflops / blas_peak, "share")

    total_iters = sum(iterations.values())
    m["objectives.forwards_per_iter"] = (
        train_forwards / total_iters if total_iters else 0.0,
        "1/iter",
    )
    put("objectives.train.self_s", sum(own[k] for k in TRAIN_GROUP), "s")
    put("objectives.sample_pairs.calls", sum(calls[k] for k in SAMPLERS), "count")
    put("objectives.sample_pairs.pairs", sum(size[k][0] for k in SAMPLERS), "count")
    put("objectives.sample_pairs.self_s", sum(own[k] for k in SAMPLERS), "s")

    prop = "search.propose_candidates"
    put("search.propose_candidates.self_s", own[prop], "s")
    steps = size[prop][1]
    m["search.step_ms"] = (1000.0 * incl[prop] / steps if steps else 0.0, "ms")
    put("search.candidate_steps", size[prop][0], "count")

    rank = "diagnostics.ranking_error"
    put("diagnostics.ranking_error.calls", calls[rank], "count")
    put("diagnostics.ranking_error.pairs_compared", size[rank][0], "count")
    m["diagnostics.ranking_error.exact_share"] = (
        size[rank][1] / calls[rank] if calls[rank] else 0.0,
        "share",
    )
    put("diagnostics.ranking_error.self_s", own[rank], "s")
    nn = "diagnostics.manifold_distances"
    put(f"{nn}.distances", size[nn][0], "count")
    put(f"{nn}.self_s", own[nn], "s")
    w1 = "diagnostics.wasserstein1_assignment"
    put("diagnostics.wasserstein1_assignment.calls", calls[w1], "count")
    put("diagnostics.wasserstein1_assignment.cost_entries", size[w1][0], "count")
    put("diagnostics.wasserstein1_assignment.self_s", own[w1], "s")
    for fn in (
        "manifold_diameter",
        "audit_mse_to_rank",
        "audit_marginal_decomposition",
        "make_eval_pool",
    ):
        put(f"diagnostics.{fn}.self_s", own[f"diagnostics.{fn}"], "s")

    ev = "tasks.TaskSpec.evaluate_batch"
    put("tasks.evaluate_batch.calls", calls[ev], "count")
    put("tasks.evaluate_batch.rows", size[ev][0], "count")
    put("tasks.evaluate_batch.self_s", own[ev], "s")

    for stage, fn in STAGES.items():
        put(f"harness.stage.{stage}_s", incl[fn], "s")
    put("harness.stage.write_s", write_s, "s")
    put("harness.write.bytes", sum(write_bytes.values()), "B")
    put("harness.run.self_s", own["harness.run"], "s")

    op_total = sum(op_seconds.values())
    for mod in TRACED_MODULES:
        m[f"{mod}.self_share"] = (module_self[mod] / op_total, "share")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
