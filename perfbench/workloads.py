"""The benchmark's three workloads and the output checks of each operation.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations go through the public API of
``rankmbo.harness`` only, looked up at call time so a tracer can wrap it.

- ``desk_pipeline``: one op is ``harness.run`` of a shipped desk preset, the
  three presets in rotation.  Training is more than 90% of it, limited by
  per-call Python and dispatch overhead on 512 x 64 matrices.
- ``paper_width``: one op is ``harness.run`` of the DAR preset under the
  paper profile (hidden 2048) with PAPER_ITERATIONS training iterations.
  BLAS-bound; training, search, diagnostics and the 128 MB ``model.json``
  write each take a visible share.
- ``diagnostics_large_pool``: LARGE_POOL_MODELS desk DAR surrogates are
  trained in set-up (the repeated set-up work whose median is reported); one
  op is ``harness.run_diagnostics`` of one of them on a pool of LARGE_POOL
  designs, so the subsampled ranking-error branch runs, with both audits on.
  No training happens in an op.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rankmbo import config, diagnostics, harness, tasks

import oracle

# The cheapest preset goes first: a slow first op then sets neither the
# median (rank_global) nor the tail (dar) of a three-op rotation.
PRESETS = ("branin_mse_desk", "branin_rank_global_desk", "branin_dar_desk")
PAPER_ITERATIONS = 10
PAPER_LENGTH = 5000  # training iterations of a paper-length run
LARGE_POOL = 100_000
LARGE_POOL_MODELS = 2
AUDIT_TRIALS = 2
WARMUP_ITERATIONS = 500
PREPARE_REPEATS = 3


@dataclass
class OpResult:
    key: str
    seconds: float
    train_s: float | None = None
    iterations: int = 0
    best_normalized: float | None = None
    rank_error: float | None = None
    write_bytes: int = 0
    problems: list[str] = field(default_factory=list)


class TrainProbe:
    """Times each ``harness.train_model`` call and keeps the model it returns."""

    def __init__(self):
        self.seconds = None
        self.model = None
        self._inner = harness.train_model

        @functools.wraps(self._inner)
        def probed(cfg, dataset):
            start = time.perf_counter()
            model, trace = self._inner(cfg, dataset)
            self.seconds = time.perf_counter() - start
            self.model = model
            return model, trace

        harness.train_model = probed

    def close(self):
        harness.train_model = self._inner


def source_digest(root: Path) -> str:
    """Hash of the package sources and presets, so stored digests follow the code."""
    h = hashlib.sha256()
    pkg = root / "src" / "rankmbo"
    for path in sorted([*pkg.rglob("*.py"), *pkg.rglob("*.cfg")]):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of each op's numeric outputs, keyed by workload, input and seed.

    The first op with a key records its digests; every later op with the same
    key, in this run or a later run of the same sources, must reproduce them.
    """

    def __init__(self, path: Path, tag: str):
        self.path = path
        self.tag = tag
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digests: dict[str, str]) -> list[str]:
        key = f"{key}@{self.tag}"
        first = self.data.setdefault(key, digests)
        return [
            f"{name} differs from the first op with the same input"
            for name in sorted(set(first) | set(digests))
            if first.get(name) != digests.get(name)
        ]

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _preset(name: str, seed: int, profile: str | None = None):
    cfg = config.load_config(config.preset_path(name))
    config.apply_profile(cfg, profile)
    return config.reseed(cfg, seed)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _radius_rows_csv(path: Path):
    rows = []
    for line in path.read_text().splitlines()[1:]:
        d, n, err = line.split(",")
        rows.append((float(d), int(n), float(err) if err else None))
    return rows


def check_run_dir(out: Path, cfg, manifest: dict, model) -> list[str]:
    """Output checks of one ``harness.run``; returns the problems found."""
    expected = (*harness.RUN_ARTIFACTS, *manifest["artifacts"])
    missing = [a for a in expected if not (out / a).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    problems = []
    loss = np.loadtxt(out / "loss_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    if len(loss) != cfg.train.iterations or not np.all(np.isfinite(loss)):
        problems.append("loss trace is short or not finite")

    task = tasks.get_task(cfg.task.name)
    header = (out / "search.csv").read_text().split("\n", 1)[0].split(",")
    cols = [i for i, h in enumerate(header) if h.startswith("xfinal_")]
    final = np.loadtxt(out / "search.csv", delimiter=",", skiprows=1, ndmin=2)[:, cols]
    if not (np.all(final >= task.lower) and np.all(final <= task.upper)):
        problems.append("a candidate lies outside the box")

    d = cfg.diagnostics
    pool = diagnostics.make_eval_pool(
        task, d.eval_pool_size, d.eval_near_fraction, cfg.resolved_seeds()["diagnostics"]
    )
    manifold = np.loadtxt(out / "dataset.csv", delimiter=",", skiprows=1, ndmin=2)[:, :-1]
    problems += oracle.check_radius_report(
        model.predict_adapted_batch,
        _radius_rows_csv(out / "diagnostics.csv"),
        manifest["diagnostics"]["overall_error"],
        pool.near_designs,
        pool.sub_designs,
        manifold,
        getattr(diagnostics, "PAIR_CAP", None),
    )
    for name in manifest["artifacts"]:
        if name.startswith("audit_"):
            lines = (out / name).read_text().splitlines()[1:]
            holds = [line.rsplit(",", 1)[1] for line in lines]
            if "0" in holds:
                problems.append(f"{name}: an applicable bound does not hold")
    return problems


class Workload:
    """Set-up, warm-up and the ops of one workload for one seed."""

    keys: tuple[str, ...] = ()
    prepare_repeats = PREPARE_REPEATS

    def __init__(self, seed: int, workdir: Path, store: DigestStore):
        self.seed = seed
        self.workdir = workdir
        self.store = store
        self.probe = TrainProbe()
        self.tracer = None  # set for a traced run; spans carry ``op_id``
        self.op_id = None
        self.last_seconds = math.nan

    def _timed(self, fn, *args):
        """Calls fn, timing it and tracing only the call itself, not the checks."""
        if self.tracer is not None:
            self.tracer.op = self.op_id
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.last_seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None

    def prepare(self, repeat: int) -> None:
        """Set-up work, called ``prepare_repeats`` times and timed per call."""

    def warm_up(self) -> None:
        """Pays first-call costs (allocator, BLAS threads, imports inside
        numpy and scipy) with a short desk run before anything is timed."""
        cfg = _preset("branin_dar_desk", self.seed)
        cfg.train.iterations = WARMUP_ITERATIONS
        out = self.workdir / "warmup"
        harness.run(cfg, out)
        shutil.rmtree(out)

    def op(self, key: str) -> OpResult:
        raise NotImplementedError

    def train_iter_ms(self, results: list[OpResult]) -> float:
        return median([1000.0 * r.train_s / r.iterations for r in results])

    def best_normalized(self, results: list[OpResult]) -> float:
        """Best normalized score of the workload's DAR surrogate(s)."""
        dar = [r.best_normalized for r in results if r.key.startswith("branin_dar_desk")]
        return next((v for v in dar if v is not None), math.nan)

    def close(self) -> None:
        self.probe.close()


class PipelineWorkload(Workload):
    """Ops are full ``harness.run`` calls of one config per key; ``prepare``
    sets ``configs``."""

    def op(self, key: str) -> OpResult:
        cfg = self.configs[key]
        out = self.workdir / f"op{self.op_id}"
        manifest = self._timed(harness.run, cfg, out)
        result = OpResult(
            key=key,
            seconds=self.last_seconds,
            train_s=self.probe.seconds,
            iterations=cfg.train.iterations,
            best_normalized=manifest["search"]["best_normalized"],
            rank_error=manifest["diagnostics"]["overall_error"],
            write_bytes=sum(p.stat().st_size for p in out.iterdir()),
        )
        result.problems = check_run_dir(out, cfg, manifest, self.probe.model)
        numeric = sorted(set(manifest["artifacts"]) - {"manifest.json"})
        result.problems += self.store.check(
            f"{key}/seed{self.seed}", {a: _sha(out / a) for a in numeric if (out / a).is_file()}
        )
        shutil.rmtree(out)
        return result


class DeskPipeline(PipelineWorkload):
    """The shipped desk presets as they are, reseeded."""

    keys = PRESETS

    def prepare(self, repeat: int) -> None:
        self.configs = {name: _preset(name, self.seed) for name in PRESETS}


class PaperWidth(PipelineWorkload):
    """The DAR preset under the paper profile, cut to PAPER_ITERATIONS."""

    keys = ("branin_dar_desk@paper",)

    def prepare(self, repeat: int) -> None:
        cfg = _preset("branin_dar_desk", self.seed, "paper")
        cfg.train.iterations = PAPER_ITERATIONS
        self.configs = {self.keys[0]: cfg}


class DiagnosticsLargePool(Workload):
    keys = tuple(f"model{k}" for k in range(LARGE_POOL_MODELS))
    prepare_repeats = LARGE_POOL_MODELS

    def __init__(self, seed, workdir, store):
        super().__init__(seed, workdir, store)
        self.models = {}
        self.iter_ms = []  # training ms per iteration of each model
        self.verified = set()

    def prepare(self, repeat: int) -> None:
        """Trains model ``repeat``; its seed is offset so the models differ."""
        cfg = _preset("branin_dar_desk", self.seed + 1_000_003 * repeat)
        cfg.diagnostics.eval_pool_size = LARGE_POOL
        cfg.diagnostics.mse_rank_audit_trials = AUDIT_TRIALS
        cfg.diagnostics.marginal_audit_trials = AUDIT_TRIALS
        _, dataset = harness.build_dataset(cfg)
        model, _ = harness.train_model(cfg, dataset)
        self.iter_ms.append(1000.0 * self.probe.seconds / cfg.train.iterations)
        self.models[self.keys[repeat]] = (cfg, model, dataset)

    def train_iter_ms(self, results):
        return median(self.iter_ms)

    def op(self, key: str) -> OpResult:
        cfg, model, dataset = self.models[key]
        report, audits = self._timed(harness.run_diagnostics, cfg, model, dataset)
        result = OpResult(key=key, seconds=self.last_seconds, rank_error=report.overall_error)
        rows = [(r.radius, r.n_restricted, r.error) for r in report.rows]
        reports = [r for reps in audits.values() for r in reps]
        if len(reports) != 2 * AUDIT_TRIALS:
            result.problems.append(f"expected {2 * AUDIT_TRIALS} audit reports")
        result.problems += [
            f"audit {name} trial {t}: bound does not hold"
            for name, reps in audits.items()
            for t, r in enumerate(reps)
            if r.applicable and not r.holds
        ]
        summary = json.dumps(
            [report.overall_error, rows, [(r.lhs, r.rhs, r.holds) for r in reports]]
        )
        result.problems += self.store.check(
            f"{key}/seed{self.seed}", {"report": hashlib.sha256(summary.encode()).hexdigest()}
        )
        if key not in self.verified:
            # later ops of this model must reproduce this one, checked by digest
            pool = diagnostics.make_eval_pool(
                dataset.task,
                cfg.diagnostics.eval_pool_size,
                cfg.diagnostics.eval_near_fraction,
                cfg.resolved_seeds()["diagnostics"],
            )
            result.problems += oracle.check_radius_report(
                model.predict_adapted_batch,
                rows,
                report.overall_error,
                pool.near_designs,
                pool.sub_designs,
                dataset.designs,
                getattr(diagnostics, "PAIR_CAP", None),
            )
            self.verified.add(key)
        return result

    def best_normalized(self, results):
        """Mean over the models, each searched once as a desk run would."""
        return float(np.mean([
            harness.run_search(cfg, model, dataset).best_normalized
            for cfg, model, dataset in self.models.values()
        ]))


WORKLOADS = {
    "desk_pipeline": DeskPipeline,
    "paper_width": PaperWidth,
    "diagnostics_large_pool": DiagnosticsLargePool,
}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label;
    the maximum when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan
