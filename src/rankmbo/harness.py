"""Experiment pipeline: generate data, train, search, score, diagnose.

``run`` wires the full pipeline for one config and writes a fixed set of seven
artifacts (dataset.csv, model.json, loss_trace.csv, search.csv, search.json,
diagnostics.csv, manifest.json) plus one audit CSV per enabled audit.  Given
the same config the numeric artifacts are byte-identical across runs; only the
manifest differs (its timings, peak memory and page faults).  Every artifact,
the ``sweep`` summary and the ``compare`` table included, is written
atomically by ``artifacts.write_csv`` or ``artifacts.write_json``, so all CSV
files share one cell format.  ``save_training`` and ``save_diagnostics`` are
the writers of the train and diagnostics stages; ``run`` and the staged
``train`` and ``diagnose`` commands both call them, so the files a stage
writes are named here alone.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import write_csv, write_json
from .config import ExperimentConfig, ValidationError, reseed, set_by_path, validate
from .diagnostics import (
    audit_marginal_decomposition,
    audit_mse_to_rank,
    build_ranking_report,
    make_eval_pool,
    report_summary,
    save_bound_reports,
    save_radius_rows,
)
from .objectives import TrainingDiverged, get_objective, partition, save_loss_trace
from .search import propose_candidates, save_search_result, score_candidates
from .surrogate import init_surrogate, save_model
from .tasks import get_task, make_offline_dataset, normalized_score, save_dataset

__all__ = [
    "RUN_ARTIFACTS",
    "build_dataset",
    "train_model",
    "run_search",
    "run_diagnostics",
    "save_training",
    "save_diagnostics",
    "run",
    "sweep",
    "compare",
    "save_compare_rows",
    "error_record",
]

RUN_ARTIFACTS = (
    "dataset.csv",
    "model.json",
    "loss_trace.csv",
    "search.csv",
    "search.json",
    "diagnostics.csv",
    "manifest.json",
)

# the thread-count variables of the BLAS builds numpy may use, recorded in the
# manifest as the environment set them (None when unset)
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def build_dataset(cfg: ExperimentConfig):
    task = get_task(cfg.task.name)
    dataset = make_offline_dataset(
        task,
        pool_size=cfg.task.pool_size,
        keep_fraction=cfg.task.keep_fraction,
        seed=cfg.resolved_seeds()["task"],
        noise_std=cfg.task.noise_std,
    )
    return task, dataset


def train_model(cfg: ExperimentConfig, dataset):
    """Train the configured objective; every trainer returns a model adapted
    for the search stage.  The model records the config's ``[task]`` section,
    which names the data it was trained on."""
    config_cls, trainer = get_objective(cfg.train.objective)
    config = cfg.train_config(config_cls)
    model = init_surrogate(dataset.task.dim, cfg.train.hidden, config.seed)
    model, trace = trainer(model, dataset, config)
    model.task = cfg.to_dict()["task"]
    return model, trace


def run_search(cfg: ExperimentConfig, model, dataset):
    part = partition(dataset, cfg.train.near_fraction)
    result = propose_candidates(model, dataset, part, cfg.search_config())
    return score_candidates(result, dataset)


def run_diagnostics(cfg: ExperimentConfig, model, dataset):
    d = replace(cfg.diagnostics)  # the rebuild runs every diagnostics rule
    seed = cfg.resolved_seeds()["diagnostics"]
    pool = make_eval_pool(dataset.task, d.eval_pool_size, d.eval_near_fraction, seed)
    report = build_ranking_report(
        model.predict_adapted_batch,
        pool,
        dataset,
        d.radii,
        w1_sample_size=d.w1_sample_size,
        seed=seed,
    )
    audits = {}
    if d.mse_rank_audit_trials > 0:
        audits["mse_rank"] = _mse_rank_audits(
            pool, d.mse_rank_audit_trials, seed, dataset.task.dim
        )
    if d.marginal_audit_trials > 0:
        audits["marginal"] = _marginal_audits(
            pool, dataset, d.marginal_audit_trials, seed
        )
    return report, audits


def _mse_rank_audits(pool, trials, seed, dim):
    sides = (
        pool.near_designs,
        pool.sub_designs,
        pool.true_scores[pool.near_idx],
        pool.true_scores[pool.sub_idx],
    )
    return [
        audit_mse_to_rank(init_surrogate(dim, 16, seed * 100_003 + t).forward_batch, *sides)
        for t in range(trials)
    ]


def _marginal_audits(pool, dataset, trials, seed, n=16):
    rng = np.random.default_rng(seed + 7)
    reports = []
    for _ in range(trials):
        near = pool.designs[pool.near_idx[rng.choice(len(pool.near_idx), n, replace=True)]]
        sub = pool.designs[pool.sub_idx[rng.choice(len(pool.sub_idx), n, replace=True)]]
        mu = dataset.designs[rng.choice(len(dataset), n, replace=True)]
        nu = dataset.designs[rng.choice(len(dataset), n, replace=True)]
        reports.append(audit_marginal_decomposition(near, sub, mu, nu))
    return reports


def save_training(out: Path, model, trace) -> None:
    """Write the train stage's artifacts into ``out``: model.json and
    loss_trace.csv."""
    save_model(model, out / "model.json")
    save_loss_trace(trace, out / "loss_trace.csv")


def save_diagnostics(out: Path, report, audits: dict) -> list[str]:
    """Write the diagnostics stage's artifacts into ``out``: diagnostics.csv
    and one audit_<name>.csv per audit; returns the audit file names."""
    save_radius_rows(report.rows, out / "diagnostics.csv")
    names = []
    for name, reports in audits.items():
        names.append(f"audit_{name}.csv")
        save_bound_reports(reports, out / names[-1])
    return names


@contextmanager
def _timed(stage_s: dict, stage_peak: dict, stage: str):
    """Adds the wall time of the block to ``stage_s[stage]`` and sets
    ``stage_peak[stage]`` to the peak RSS when it ends; the peak never
    falls, so for a repeated stage that is its largest.  An exception that
    leaves the block gets ``stage`` as its ``run_stage``, which
    ``error_record`` reports."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        exc.run_stage = stage
        raise
    stage_s[stage] += time.perf_counter() - start
    stage_peak[stage] = _peak_rss_mb()


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes / KiB


def _minor_page_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _artifact_ids(out: Path) -> dict:
    """(device, inode) of each of ``RUN_ARTIFACTS`` present in ``out``.  The
    artifact writers replace a file by renaming a new one over it, so a file
    whose id changed was written after the ids were taken."""
    ids = {}
    for name in RUN_ARTIFACTS:
        try:
            st = (out / name).stat()
        except FileNotFoundError:
            continue
        ids[name] = (st.st_dev, st.st_ino)
    return ids


def run(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute the full pipeline and write all artifacts; returns the manifest.

    The config is validated before anything is written, so a bad value raises
    ValidationError naming its field and leaves no directory behind.  The
    manifest's ``stage_s`` times the data, train, search and diagnostics
    stages and, under ``write``, every artifact write but the manifest's own;
    ``stage_peak_rss_mb`` gives the process's peak RSS as each of them
    ended (for ``write``, the last one), so a stage that raised the peak
    reads higher than the stage run before it.
    ``minor_page_faults`` counts the process's minor faults over the run:
    they depend on the heap the process already holds, so a first run in a
    fresh process can take more than a later one.

    A run that fails raises its exception with the stage it failed in as
    ``run_stage`` (one of the ``stage_s`` keys), after removing every one of
    ``RUN_ARTIFACTS`` it wrote; other files in ``out_dir``, and artifacts of
    an earlier call that it did not overwrite, stay as they were.
    """
    started = time.perf_counter()
    faults_before = _minor_page_faults()
    validate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    before = _artifact_ids(out)
    try:
        return _run_stages(cfg, out, started, faults_before)
    except Exception:
        for name, ident in _artifact_ids(out).items():
            if before.get(name) != ident:
                (out / name).unlink()
        raise


def _run_stages(cfg, out: Path, started: float, faults_before: int) -> dict:
    stage_s = dict.fromkeys(("data", "train", "search", "diagnostics", "write"), 0.0)
    stage_peak = dict.fromkeys(stage_s, 0.0)

    with _timed(stage_s, stage_peak, "data"):
        _, dataset = build_dataset(cfg)
    with _timed(stage_s, stage_peak, "write"):
        save_dataset(dataset, out / "dataset.csv")

    with _timed(stage_s, stage_peak, "train"):
        model, trace = train_model(cfg, dataset)
    with _timed(stage_s, stage_peak, "write"):
        save_training(out, model, trace)

    with _timed(stage_s, stage_peak, "search"):
        result = run_search(cfg, model, dataset)
    with _timed(stage_s, stage_peak, "write"):
        save_search_result(result, out / "search.csv", out / "search.json")

    with _timed(stage_s, stage_peak, "diagnostics"):
        report, audits = run_diagnostics(cfg, model, dataset)
    with _timed(stage_s, stage_peak, "write"):
        audit_files = save_diagnostics(out, report, audits)
    audit_summary = {
        name: {
            "trials": len(reports),
            "violations": sum(1 for r in reports if r.applicable and not r.holds),
            "inapplicable": sum(1 for r in reports if not r.applicable),
        }
        for name, reports in audits.items()
    }

    manifest = {
        "version": f"rankmbo-{__version__}",
        "objective": cfg.train.objective,
        "config": cfg.to_dict(),
        "seeds": cfg.resolved_seeds(),
        "dataset": {"y_min_full": dataset.y_min_full, "y_max_full": dataset.y_max_full},
        "dataset_best_normalized": normalized_score(float(dataset.scores.max()), dataset),
        "search": {
            "best_true": result.best_true,
            "best_normalized": result.best_normalized,
        },
        "diagnostics": {**report_summary(report), "audits": audit_summary},
        "artifacts": sorted([*RUN_ARTIFACTS, *audit_files]),
        "stage_s": stage_s,
        "peak_rss_mb": _peak_rss_mb(),
        "stage_peak_rss_mb": stage_peak,
        "minor_page_faults": _minor_page_faults() - faults_before,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "wall_clock_s": time.perf_counter() - started,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def error_record(exc: Exception, stage: str) -> dict:
    """The JSON diagnostic of a failure: exception type, message, the stage
    it failed in (the ``run`` stage for an exception ``run`` raised from one,
    else ``stage``) and, for a ValidationError, the config field it names or,
    for a TrainingDiverged, the iteration it diverged at."""
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "stage": getattr(exc, "run_stage", stage),
    }
    if isinstance(exc, ValidationError):
        record["field"] = exc.field
    if isinstance(exc, TrainingDiverged):
        record["iteration"] = exc.iteration
    return record


def sweep(
    cfg: ExperimentConfig,
    grid: dict[str, list],
    seeds: list[int],
    out_dir: str | Path,
) -> list[dict]:
    """One run per grid cell per seed, one after another; cells are isolated
    subdirectories.

    Per-cell failures do not stop the sweep: each failed job is counted in
    the summary and recorded in failures.json as its cell index and seed plus
    its ``error_record``, and its ``cell_<i>/seed_<s>`` directory, then its
    ``cell_<i>`` directory, is removed when the failure left it empty.
    Returns (and writes to summary.csv) one row per cell with the mean and
    standard deviation of the best normalized score across usable seeds.

    Each job reseeds the config from its seed, then sets its cell's grid
    values, so a grid axis over a seed key (``task.seed``) wins over the
    base seed for that key.  Every job config is built before the sweep
    directory is made: an empty, negative or repeated ``seeds``, a grid axis
    with no values and a grid value that cannot be set raise ValidationError
    and leave nothing behind.
    """
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValidationError("seeds", f"must be one or more distinct seeds >= 0, got {seeds}")
    for path, values in grid.items():
        if not values:
            raise ValidationError(path, "a grid axis needs one or more values")
    out = Path(out_dir)
    axes = list(grid.items())
    cells = list(itertools.product(*(values for _, values in axes)))

    jobs = []
    for ci, cell in enumerate(cells):
        for seed in seeds:
            job_cfg = reseed(copy.deepcopy(cfg), seed)
            for (path, _), value in zip(axes, cell):
                set_by_path(job_cfg, path, value)
            jobs.append((ci, cell, seed, job_cfg, out / f"cell_{ci:03d}" / f"seed_{seed}"))
    out.mkdir(parents=True, exist_ok=True)

    def _one(job):
        ci, cell, seed, job_cfg, job_dir = job
        try:
            manifest = run(job_cfg, job_dir)
            return ci, seed, manifest["search"]["best_normalized"], None
        except Exception as exc:  # recorded, sweep continues
            for path in (job_dir, job_dir.parent):
                try:
                    path.rmdir()  # only when the failed run left it empty
                except OSError:
                    break
            return ci, seed, None, {"cell": ci, "seed": seed, **error_record(exc, "run")}

    outcomes = [_one(job) for job in jobs]

    rows = []
    for ci, cell in enumerate(cells):
        scores = [s for c, _, s, _ in outcomes if c == ci and s is not None]
        failures = [e for c, _, _, e in outcomes if c == ci and e is not None]
        row = {path: value for (path, _), value in zip(axes, cell)}
        row.update(
            n_seeds=len(seeds),
            n_failed=len(failures),
            mean_best_normalized=float(np.mean(scores)) if scores else None,
            std_best_normalized=float(np.std(scores)) if scores else None,
        )
        rows.append(row)

    header = [path for path, _ in axes] + [
        "n_seeds",
        "n_failed",
        "mean_best_normalized",
        "std_best_normalized",
    ]
    write_csv(out / "summary.csv", header, ([row[k] for k in header] for row in rows))
    write_json(out / "failures.json", [e for _, _, _, e in outcomes if e is not None])
    return rows


def compare(run_dirs: list[str | Path]) -> list[dict]:
    """Join manifests from several runs into a method comparison table,
    sorted by best normalized score descending."""
    rows = []
    for run_dir in run_dirs:
        manifest_path = Path(run_dir) / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no manifest found in {run_dir}")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        row = {
            "run": str(run_dir),
            "objective": manifest["objective"],
            "best_true": manifest["search"]["best_true"],
            "best_normalized": manifest["search"]["best_normalized"],
            "overall_rank_error": manifest["diagnostics"]["overall_error"],
        }
        for entry in manifest["diagnostics"]["radius_errors"]:
            row[_radius_column(entry["d"])] = entry["rank_error"]
        rows.append(row)
    rows.sort(key=lambda r: -(r["best_normalized"] if r["best_normalized"] is not None else -np.inf))
    return rows


_RADIUS_PREFIX = "rank_error@d="


def _radius_column(d: float) -> str:
    """Compare column of radius ``d``: ``{d:g}`` when that text reads back as
    ``d``, else ``repr(d)``, so distinct radii never share a column."""
    text = f"{d:g}"
    return _RADIUS_PREFIX + (text if float(text) == d else repr(d))


def save_compare_rows(rows: list[dict], path: str | Path) -> None:
    """Write the compare table; its header is every row's fixed keys, then
    every radius column of any row in ascending radius, so runs with
    different radii keep all their columns (a row without a column gets an
    empty cell)."""
    if not rows:
        raise ValueError("nothing to compare")
    keys = dict.fromkeys(key for row in rows for key in row)
    radii = [key for key in keys if key.startswith(_RADIUS_PREFIX)]
    radii.sort(key=lambda key: float(key[len(_RADIUS_PREFIX):]))
    header = [key for key in keys if key not in radii] + radii
    write_csv(path, header, ([row.get(k) for k in header] for row in rows))
