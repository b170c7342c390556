#!/usr/bin/env python3
"""Benchmark of the rankmbo pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload desk_pipeline --seed 0 --seconds 25 --trace 0

Workloads: desk_pipeline, paper_width, diagnostics_large_pool (see
``workloads.py`` for what each op is and why it was chosen).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it runs
one untraced rotation of the workload's inputs and two traced ones, and prints
the per-layer metrics from the spans, which it also writes to
``.perfbench_out/spans-<workload>-seed<n>.csv``.  The last line of standard
output is the result as JSON; the lines before it give the environment and a
table with notes.  ``--out FILE`` appends the run (environment included) as
one JSON line, the input of ``perfbench/diff.py``.

The BLAS thread variables are capped at the number of usable CPUs before
numpy is imported.  ``harness.sweep`` is not measured: its worker threads on
top of the BLAS threads would oversubscribe the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# the keys of workloads.WORKLOADS, listed here so that arguments are parsed
# before anything imports numpy
WORKLOAD_NAMES = ("desk_pipeline", "paper_width", "diagnostics_large_pool")
TRACED_ROTATIONS = 2

NOTES = {
    "setup_s": "imports + warm-up + median of the repeated set-up work",
    "paper_run_s_est": "extrapolation: op_s_p50 + (5000 - N) x train_iter_ms",
    "op_ok_share": "1 - failed/attempted",
}


def cap_blas_threads() -> None:
    """Sets every BLAS/OpenMP thread variable to at most the usable CPU count,
    and to that count when unset, before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= ncpu:
            os.environ[var] = str(ncpu)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run as one JSON line to this file")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _run_op(wl, key, op_id):
    from workloads import OpResult

    wl.op_id = op_id
    try:
        result = wl.op(key)
    except Exception as exc:  # counted as a failed op; the run goes on
        problem = f"{type(exc).__name__}: {exc}"
        result = OpResult(key=key, seconds=wl.last_seconds, problems=[problem])
    for problem in result.problems:
        print(f"op {op_id} ({key}): {problem}", file=sys.stderr)
    print(f"op {op_id} {key} {result.seconds:.4f} s{' FAILED' if result.problems else ''}")
    return result


def _rotation(wl, results) -> float:
    """One op per input key, appended to ``results``; returns its seconds."""
    start = time.perf_counter()
    results += [_run_op(wl, key, len(results) + i) for i, key in enumerate(wl.keys)]
    return time.perf_counter() - start


def end_to_end(wl, results, setup_s):
    import workloads as w

    seconds = [r.seconds for r in results]
    train_iter_ms = wl.train_iter_ms([r for r in results if r.train_s is not None])
    op_p50 = w.median(seconds)
    op_tail, tail_note = w.tail(seconds)
    n_iter = w.median([r.iterations for r in results])
    failed = sum(1 for r in results if r.problems)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (op_p50, "s"),
        "op_s_tail": (op_tail, "s"),
        "train_iter_ms": (train_iter_ms, "ms"),
        "paper_run_s_est": (op_p50 + (w.PAPER_LENGTH - n_iter) * train_iter_ms / 1000.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "best_normalized": (wl.best_normalized(results), "score"),
        "op_ok_share": (1.0 - failed / len(results), "share"),
    }
    notes = dict(NOTES, op_s_tail=tail_note)
    notes["paper_run_s_est"] += f", N={n_iter:g}"
    notes["op_ok_share"] += f" (op_fail_share {failed / len(results):g})"
    return metrics, notes


def per_layer(wl, results, tracer, blas_peak):
    import layers

    untraced = results[: len(wl.keys)]
    traced = results[len(wl.keys):]
    rotations = len(traced) // len(wl.keys)
    traced_s = sum(r.seconds for r in traced) / rotations
    overhead = (traced_s - sum(r.seconds for r in untraced)) / len(wl.keys)
    ops = range(len(untraced), len(results))
    first = {}
    for r, op in zip(traced, ops):
        counts = layers.op_counts(tracer.spans, op)
        if first.setdefault(r.key, counts) != counts:
            r.problems.append("span counts differ from the first traced op with the same input")
            print(f"op {op} ({r.key}): span counts differ", file=sys.stderr)
    metrics = layers.layer_metrics(
        tracer.spans,
        {op: r.seconds for op, r in zip(ops, traced)},
        {op: r.iterations for op, r in zip(ops, traced)},
        {op: r.write_bytes for op, r in zip(ops, traced)},
        blas_peak,
        overhead,
    )
    errors = [r.rank_error for r in traced if r.rank_error is not None]
    metrics["diagnostics.rank_error"] = (sum(errors) / len(errors), "share")
    notes = {
        "surrogate.gflop_computed": "computed from matmul shapes, not measured",
        "trace.overhead_s": "per op: traced minus untraced op time",
    }
    return metrics, notes


def run(args, import_s):
    import tracing
    import workloads as w

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    store = w.DigestStore(OUT_DIR / "digests.json", w.source_digest(ROOT))
    wl = w.WORKLOADS[args.workload](args.seed, workdir, store)
    try:
        start = time.perf_counter()
        wl.warm_up()
        warmup_s = time.perf_counter() - start
        prepare_s = []
        for repeat in range(wl.prepare_repeats):
            start = time.perf_counter()
            wl.prepare(repeat)
            prepare_s.append(time.perf_counter() - start)
        setup_s = import_s + warmup_s + w.median(prepare_s)

        results = []
        if not args.trace:
            begin = time.perf_counter()
            while True:
                rotation_s = _rotation(wl, results)
                if time.perf_counter() - begin + rotation_s > args.seconds:
                    break
            metrics, notes = end_to_end(wl, results, setup_s)
        else:
            import layers

            blas_peak = layers.blas_peak_gflops()
            _rotation(wl, results)
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
            wl.tracer = tracer
            try:
                for _ in range(TRACED_ROTATIONS):
                    _rotation(wl, results)
            finally:
                restore()
            metrics, notes = per_layer(wl, results, tracer, blas_peak)
            spans_csv = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracing.write_spans(tracer.spans, spans_csv)
        store.save()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in results if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    args = _parse(argv)
    cap_blas_threads()
    src = ROOT / "src"
    if not (src / "rankmbo" / "__init__.py").is_file():
        print(f"perfbench: no rankmbo sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401

    import rankmbo
    import rankmbo.harness  # noqa: F401

    import_s = time.perf_counter() - start
    if Path(rankmbo.__file__).resolve().parent != (src / "rankmbo").resolve():
        print(f"perfbench: rankmbo imported from {rankmbo.__file__}, not {src}", file=sys.stderr)
        return 2

    env = environment()
    print(json.dumps({"env": env}))
    result, notes = run(args, import_s)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']:8s} {notes.get(name, '')}")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
