"""Experiment pipeline: generate data, train, search, score, diagnose.

``run`` wires the full pipeline for one config and writes a fixed set of seven
artifacts (dataset.csv, model.json, loss_trace.csv, search.csv, search.json,
diagnostics.csv, manifest.json) plus one audit CSV per enabled audit.  Given
the same config the numeric artifacts are byte-identical across runs; only the
manifest differs (wall clock).
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, reseed, set_by_path, validate
from .diagnostics import (
    audit_marginal_decomposition,
    audit_mse_to_rank,
    build_ranking_report,
    make_eval_pool,
    save_bound_reports,
    save_radius_rows,
)
from .objectives import get_objective, partition, save_loss_trace
from .search import propose_candidates, save_search_result, score_candidates
from .surrogate import init_surrogate, save_model
from .tasks import (
    dataset_sidecar,
    get_task,
    make_offline_dataset,
    normalized_score,
    save_dataset,
)

__all__ = [
    "RUN_ARTIFACTS",
    "build_dataset",
    "train_model",
    "run_search",
    "run_diagnostics",
    "run",
    "sweep",
    "compare",
    "save_compare_rows",
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
    for the search stage."""
    config_cls, trainer = get_objective(cfg.train.objective)
    config = cfg.train_config(config_cls)
    model = init_surrogate(
        dataset.task.dim, cfg.train.hidden, config.seed, config.weight_init_scale
    )
    return trainer(model, dataset, config)


def run_search(cfg: ExperimentConfig, model, dataset):
    part = partition(dataset, cfg.train.near_fraction)
    result = propose_candidates(model, dataset, part, cfg.search_config())
    return score_candidates(result, dataset)


def run_diagnostics(cfg: ExperimentConfig, model, dataset):
    d = cfg.diagnostics
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
    reports = []
    for t in range(trials):
        probe = init_surrogate(dim, 16, seed * 100_003 + t)
        reports.append(
            audit_mse_to_rank(
                probe.forward_batch,
                pool.near_designs,
                pool.sub_designs,
                pool.true_scores[pool.near_idx],
                pool.true_scores[pool.sub_idx],
            )
        )
    return reports


def _marginal_audits(pool, dataset, trials, seed, n=16):
    rng = np.random.default_rng(seed + 7)
    reports = []
    for _ in range(trials):
        near = pool.near_designs[rng.choice(len(pool.near_idx), n, replace=True)]
        sub = pool.sub_designs[rng.choice(len(pool.sub_idx), n, replace=True)]
        mu = dataset.designs[rng.choice(len(dataset), n, replace=True)]
        nu = dataset.designs[rng.choice(len(dataset), n, replace=True)]
        reports.append(audit_marginal_decomposition(near, sub, mu, nu))
    return reports


def run(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    profile: str | None = None,
    threads: int = 1,
) -> dict:
    """Execute the full pipeline and write all artifacts; returns the manifest.

    The config is validated before anything is written, so a bad value raises
    ValidationError naming its field and leaves no directory behind.
    """
    started = time.perf_counter()
    validate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _, dataset = build_dataset(cfg)
    save_dataset(dataset, out / "dataset.csv")

    model, trace = train_model(cfg, dataset)
    save_model(model, out / "model.json")
    save_loss_trace(trace, out / "loss_trace.csv")

    result = run_search(cfg, model, dataset)
    save_search_result(result, out / "search.csv", out / "search.json")

    report, audits = run_diagnostics(cfg, model, dataset)
    save_radius_rows(report.rows, out / "diagnostics.csv")
    artifacts = list(RUN_ARTIFACTS)
    audit_summary = {}
    for name, reports in audits.items():
        fname = f"audit_{name}.csv"
        save_bound_reports(reports, out / fname)
        artifacts.append(fname)
        audit_summary[name] = {
            "trials": len(reports),
            "violations": sum(
                1 for r in reports if r.applicable and not r.holds
            ),
            "inapplicable": sum(1 for r in reports if not r.applicable),
        }

    manifest = {
        "version": f"rankmbo-{__version__}",
        "profile": profile,
        "threads": threads,
        "objective": cfg.train.objective,
        "config": cfg.to_dict(),
        "seeds": cfg.resolved_seeds(),
        "dataset": dataset_sidecar(dataset),
        "dataset_best_normalized": normalized_score(float(dataset.scores.max()), dataset),
        "search": {
            "best_true": result.best_true,
            "best_normalized": result.best_normalized,
        },
        "diagnostics": {
            "overall_error": report.overall_error,
            "value_gap": report.value_gap,
            "w1_near": report.w1_near,
            "mean_dist_to_manifold": report.mean_dist_to_manifold,
            "manifold_diameter": report.manifold_diameter,
            "radius_errors": [
                {"d": r.radius, "n_restricted": r.n_restricted, "rank_error": r.error}
                for r in report.rows
            ],
            "audits": audit_summary,
        },
        "artifacts": sorted(artifacts),
        "wall_clock_s": time.perf_counter() - started,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def _clone(cfg: ExperimentConfig) -> ExperimentConfig:
    return ExperimentConfig(
        task=replace(cfg.task),
        train=replace(cfg.train),
        search=replace(cfg.search),
        diagnostics=replace(cfg.diagnostics),
    )


def sweep(
    cfg: ExperimentConfig,
    grid: dict[str, list],
    seeds: list[int],
    out_dir: str | Path,
    threads: int = 1,
) -> list[dict]:
    """One run per grid cell per seed; cells are isolated subdirectories.

    Per-cell failures are recorded in the summary and do not stop the sweep.
    Returns (and writes to summary.csv) one row per cell with the mean and
    standard deviation of the best normalized score across usable seeds.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    axes = list(grid.items())
    cells = list(itertools.product(*(values for _, values in axes))) or [()]

    jobs = []
    for ci, cell in enumerate(cells):
        for seed in seeds:
            job_cfg = _clone(cfg)
            for (path, _), value in zip(axes, cell):
                set_by_path(job_cfg, path, value)
            reseed(job_cfg, seed)
            jobs.append((ci, cell, seed, job_cfg, out / f"cell_{ci:03d}" / f"seed_{seed}"))

    def _one(job):
        ci, cell, seed, job_cfg, job_dir = job
        try:
            manifest = run(job_cfg, job_dir)
            return ci, seed, manifest["search"]["best_normalized"], None
        except Exception as exc:  # recorded, sweep continues
            return ci, seed, None, f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_one, jobs))
    else:
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
    with open(out / "summary.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join("" if row[k] is None else str(row[k]) for k in header) + "\n"
            )
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
            row[f"rank_error@d={entry['d']:g}"] = entry["rank_error"]
        rows.append(row)
    rows.sort(key=lambda r: -(r["best_normalized"] if r["best_normalized"] is not None else -np.inf))
    return rows


def save_compare_rows(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValueError("nothing to compare")
    header = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if row.get(k) is None else str(row.get(k)) for k in header) + "\n")
