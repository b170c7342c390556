#!/usr/bin/env python3
"""Before/after view of two result files written by ``run.py --out``.

    python3 perfbench/diff.py BASE.jsonl NEW.jsonl

For each workload and metric it prints the median and quartiles of each side
and the ratio new/base with its base.  An end-to-end metric whose new median
is worse than the base median by more than its bound in BENCHMARK.json is
flagged WORSE; one whose spread (quartile distance over median) on either
side exceeds the bound is flagged UNRESOLVED.  Count metrics must repeat
exactly for every seed that both files ran, and for repeats of one seed in
one file; a difference is flagged COUNT-DIFF.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

COUNT_SUFFIXES = (
    ".calls",
    ".rows",
    ".pairs",
    ".pairs_compared",
    ".distances",
    ".cost_entries",
    ".candidate_steps",
    ".gflop_computed",
    ".forwards_per_iter",
)


def load(path) -> dict:
    """(workload, trace) -> metric -> list of (seed, value)."""
    out = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out[(rec["workload"], rec["trace"])][name].append((rec["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def count_diffs(base, new) -> list:
    """Seeds whose count values differ, within or across the two sides."""
    seen = defaultdict(set)
    for seed, value in base + new:
        seen[seed].add(value)
    return sorted(seed for seed, values in seen.items() if len(values) > 1)


def diff(base: dict, new: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    lines = []
    for group in sorted(set(base) | set(new)):
        workload, trace = group
        lines.append(f"== {workload} (trace {trace})")
        lines.append(
            f"   {'metric':44s} {'base q1 / median / q3':>33s}"
            f" {'new q1 / median / q3':>33s}  new/base"
        )
        for name in sorted(set(base[group]) | set(new[group])):
            b, n = base[group].get(name, []), new[group].get(name, [])
            if not b or not n:
                lines.append(f"   {name:44s} only in {'new' if n else 'base'}")
                continue
            bq, nq = quartiles([v for _, v in b]), quartiles([v for _, v in n])
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            flags = []
            spec_m = bounds.get(name)
            if spec_m:
                worse = ratio - 1.0 if spec_m["better"] == "lower" else 1.0 - ratio
                spreads = [(q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (bq, nq)]
                if max(spreads) > spec_m["bound"] and name != "setup_s":
                    flags.append("UNRESOLVED")
                elif worse > spec_m["bound"]:
                    flags.append("WORSE")
            if is_count(name):
                seeds = count_diffs(b, n)
                if seeds:
                    flags.append(f"COUNT-DIFF seeds {seeds}")
            lines.append(
                f"   {name:44s} {bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g} "
                f"{nq[0]:10.4g} {nq[1]:10.4g} {nq[2]:10.4g}  "
                f"{ratio:.4f} of {bq[1]:.6g} (n={len(b)}/{len(n)}) {' '.join(flags)}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else {}
    print("\n".join(diff(load(argv[0]), load(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
