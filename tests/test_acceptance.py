"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-8 share one execution of the preset desk-scale protocol
(worst-60% offline dataset, three training objectives, five base seeds) via a
module-scoped fixture; everything else runs standalone and fast.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import spearmanr

from rankmbo.config import load_config, preset_path, reseed
from rankmbo.diagnostics import (
    audit_marginal_decomposition,
    audit_mse_to_rank,
    make_eval_pool,
    ranking_error,
    ranking_error_vs_radius,
    wasserstein1_assignment,
    wasserstein1_sorted,
)
from rankmbo.harness import RUN_ARTIFACTS, build_dataset, run_search, train_model
from rankmbo.objectives import (
    margin_rank_loss,
    partition_scores,
    zero_one_rank_loss,
)
from rankmbo.search import project_box
from rankmbo.surrogate import init_surrogate, zscore_adapt
from rankmbo.tasks import normalized_score, quadratic_bowl_task

SEEDS = (0, 1, 2, 3, 4)
METHODS = ("mse", "rank_global", "dar")


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


# -- criterion 1: gradient correctness -----------------------------------------


def _fd_param_grads(model, X, upstream, step):
    def objective():
        return float(np.dot(upstream, model.forward_batch(X)))

    out = []
    for arr in model.weights + model.biases:
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = objective()
            flat[k] = orig - step
            lo = objective()
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * step)
        out.append(g)
    return out


def _min_preactivation(model, x):
    """Smallest |pre-activation| at one design, from a one-row batch; small
    values flag kink-adjacent inputs."""
    z = (np.atleast_2d(x) - model.x_mean) / model.x_std
    a1 = z @ model.weights[0].T + model.biases[0]
    a2 = np.maximum(a1, 0.0) @ model.weights[1].T + model.biases[1]
    return float(min(np.abs(a1).min(), np.abs(a2).min()))


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    step = 1e-5
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 400, "too many kink-adjacent draws"
        dim = int(rng.integers(1, 5))
        hidden = int(rng.integers(4, 13))
        model = init_surrogate(dim, hidden, seed=int(rng.integers(1 << 31)))
        X = rng.normal(size=(3, dim))
        if min(_min_preactivation(model, x) for x in X) < 1e-6:
            continue
        upstream = rng.normal(size=3)
        analytic = model.param_gradients(X, upstream)
        fd = _fd_param_grads(model, X, upstream, step)
        for a, b in zip(analytic[0] + analytic[1], fd):
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
        x = X[:1]  # one design per call, so each score is a one-row batch
        fd_in = np.array(
            [
                (model.forward_batch(x + step * e)[0] - model.forward_batch(x - step * e)[0])
                / (2 * step)
                for e in np.eye(dim)
            ]
        )
        a_in = model.input_gradient_batch(x)[0]
        worst = max(worst, float(np.max(np.abs(a_in - fd_in) / np.maximum(1.0, np.abs(fd_in)))))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (gradient correctness)",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e} over {checked} draws in {elapsed:.1f}s",
    )


# -- criterion 2: partition oracle ----------------------------------------------


def test_criterion_02_partition_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 201))
        scores = (
            rng.normal(size=m)
            if rng.random() < 0.5
            else rng.integers(0, 8, size=m).astype(float)
        )
        eps = float(rng.uniform(0.02, 0.98))
        k = math.ceil(eps * m)
        threshold = sorted(scores, reverse=True)[k - 1]
        near = {i for i, v in enumerate(scores) if v >= threshold}
        if len(near) == m:
            try:
                partition_scores(scores, eps)
                mismatches += 1
            except ValueError:
                pass
            continue
        part = partition_scores(scores, eps)
        if (
            part.threshold != threshold
            or set(part.near_idx) != near
            or set(part.sub_idx) != set(range(m)) - near
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (partition oracle)",
        mismatches == 0 and elapsed < 5.0,
        f"1000 datasets, {mismatches} mismatches, {elapsed:.1f}s",
    )


# -- criterion 3: optimal-transport oracle equivalence ---------------------------


def _enumerate_w1(A, B, metric="euclidean"):
    A, B = np.asarray(A, float), np.asarray(B, float)
    n = len(A)
    best = math.inf
    for perm in permutations(range(n)):
        if metric == "euclidean":
            total = sum(np.linalg.norm(A[i] - B[perm[i]]) for i in range(n))
        else:
            total = sum(
                np.linalg.norm(A[i, 0] - B[perm[i], 0])
                + np.linalg.norm(A[i, 1] - B[perm[i], 1])
                for i in range(n)
            )
        best = min(best, total)
    return best / n


def test_criterion_03_transport_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_sorted = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 64))
        a, b = rng.normal(size=n), rng.normal(size=n)
        worst_sorted = max(
            worst_sorted, abs(wasserstein1_assignment(a, b) - wasserstein1_sorted(a, b))
        )
    worst_enum = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        A, B = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        worst_enum = max(
            worst_enum, abs(wasserstein1_assignment(A, B) - _enumerate_w1(A, B))
        )
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (transport oracle equivalence)",
        worst_sorted <= 1e-12 and worst_enum <= 1e-9 and elapsed < 30.0,
        f"sorted gap {worst_sorted:.1e}, enumeration gap {worst_enum:.1e}, {elapsed:.1f}s",
    )


# -- criterion 4: squared-error-to-ranking bound audit ----------------------------


def test_criterion_04_mse_to_rank_audit():
    start = time.perf_counter()
    task = quadratic_bowl_task(dim=2)
    rng = np.random.default_rng(17)
    designs = rng.uniform(task.lower, task.upper, size=(500, 2))
    truth = task.evaluate_batch(designs)
    part = partition_scores(truth, 0.2)
    near, sub = designs[part.near_idx], designs[part.sub_idx]
    f_near, f_sub = truth[part.near_idx], truth[part.sub_idx]
    violations = 0
    for trial in range(200):
        probe = init_surrogate(2, 16, seed=trial)
        rep = audit_mse_to_rank(probe.forward_batch, near, sub, f_near, f_sub)
        if not rep.applicable or not rep.holds:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (mse-to-rank bound audit)",
        violations == 0 and elapsed < 60.0,
        f"200 random surrogates, {violations} violations, {elapsed:.1f}s",
    )


# -- criterion 5: marginal transport decomposition audit ---------------------------


def test_criterion_05_marginal_decomposition_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    violations = 0
    for _ in range(100):
        samples = [rng.normal(scale=rng.uniform(0.5, 2.0), size=(16, 2)) for _ in range(4)]
        rep = audit_marginal_decomposition(*samples)
        if not rep.holds:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (marginal decomposition audit)",
        violations == 0 and elapsed < 60.0,
        f"100 trials at n=16, {violations} violations, {elapsed:.1f}s",
    )


# -- criteria 6-8: desk-scale protocol ---------------------------------------------


@dataclass
class SeedOutcome:
    overall: dict
    radius_errors: dict
    dar_best_normalized: float
    dataset_best_normalized: float
    radii: tuple


@pytest.fixture(scope="module")
def protocol():
    """Run the preset protocol: 5 seeds x 3 objectives on the worst-60% task."""
    start = time.perf_counter()
    outcomes = []
    for seed in SEEDS:
        cfg = load_config(preset_path("branin_dar_desk"))
        reseed(cfg, seed)
        task, dataset = build_dataset(cfg)
        pool = make_eval_pool(
            task,
            cfg.diagnostics.eval_pool_size,
            cfg.diagnostics.eval_near_fraction,
            cfg.resolved_seeds()["diagnostics"],
        )
        overall = {}
        radius_errors = {}
        dar_best = None
        for method in METHODS:
            cfg.train.objective = method
            model, _ = train_model(cfg, dataset)
            overall[method] = ranking_error(
                model.predict_adapted_batch, pool.near_designs, pool.sub_designs
            )
            rows = ranking_error_vs_radius(
                model.predict_adapted_batch, pool, dataset.designs, cfg.diagnostics.radii
            )
            radius_errors[method] = [r.error for r in rows]
            if method == "dar":
                result = run_search(cfg, model, dataset)
                dar_best = result.best_normalized
        outcomes.append(
            SeedOutcome(
                overall=overall,
                radius_errors=radius_errors,
                dar_best_normalized=dar_best,
                dataset_best_normalized=normalized_score(float(dataset.scores.max()), dataset),
                radii=cfg.diagnostics.radii,
            )
        )
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] protocol fixture: 5 seeds x 3 methods in {elapsed/60:.1f} min")
    assert elapsed < 600.0, "protocol exceeded its 10 minute budget"
    return outcomes


def test_criterion_06_method_ordering(protocol):
    wins = 0
    lines = []
    for seed, out in zip(SEEDS, protocol):
        e = out.overall
        ok = e["dar"] < e["mse"] and e["dar"] <= e["rank_global"] + 0.02
        wins += ok
        lines.append(
            f"seed {seed}: mse={e['mse']:.4f} rank={e['rank_global']:.4f} "
            f"dar={e['dar']:.4f} {'ok' if ok else 'miss'}"
        )
    report(
        "criterion 6 (method ordering, seed majority)",
        wins >= 4,
        f"{wins}/5 seeds | " + " | ".join(lines),
    )


def test_criterion_07_radius_trend(protocol):
    mean_rho = {}
    for method in METHODS:
        rhos = []
        for out in protocol:
            pairs = [
                (r, e) for r, e in zip(out.radii, out.radius_errors[method]) if e is not None
            ]
            assert len(pairs) >= 5, "need at least five non-null radii"
            rhos.append(spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic)
        mean_rho[method] = float(np.mean(rhos))
    report(
        "criterion 7 (radius trend)",
        all(v > 0.0 for v in mean_rho.values()),
        " ".join(f"{m}:{v:.3f}" for m, v in mean_rho.items()),
    )


def test_criterion_08_search_improvement(protocol):
    wins = sum(
        out.dar_best_normalized > out.dataset_best_normalized for out in protocol
    )
    detail = " | ".join(
        f"seed {s}: {o.dar_best_normalized:.4f} vs {o.dataset_best_normalized:.4f}"
        for s, o in zip(SEEDS, protocol)
    )
    report("criterion 8 (search beats dataset best)", wins >= 4, f"{wins}/5 | {detail}")


# -- criterion 9: invariance suite ---------------------------------------------------


def test_criterion_09_invariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    failures = 0

    for trial in range(100):  # z-score argmax invariance
        model = init_surrogate(2, 8, seed=trial)
        X = rng.normal(size=(20, 2))
        zscore_adapt(model, X)
        cands = rng.normal(size=(10, 2))
        if np.argmax(model.predict_adapted_batch(cands)) != np.argmax(
            model.forward_batch(cands)
        ):
            failures += 1

    for _ in range(100):  # margin-loss shift invariance
        s1, s2, c = rng.normal(size=3)
        beta = abs(rng.normal())
        if abs(
            margin_rank_loss(s1 + c, s2 + c, beta) - margin_rank_loss(s1, s2, beta)
        ) > 1e-9:
            failures += 1

    for _ in range(100):  # 0-1 loss monotone-transform invariance
        s1, s2 = rng.normal(size=2)
        a, b = abs(rng.normal()) + 0.1, rng.normal()
        base = zero_one_rank_loss(s1, s2)
        if base != zero_one_rank_loss(a * s1 + b, a * s2 + b):
            failures += 1
        if base != zero_one_rank_loss(np.exp(s1), np.exp(s2)):
            failures += 1

    for _ in range(100):  # projection idempotence
        x = rng.normal(scale=5.0, size=4)
        lo = -np.abs(rng.normal(size=4)) - 0.1
        hi = np.abs(rng.normal(size=4)) + 0.1
        once = project_box(x, lo, hi)
        if not np.array_equal(project_box(once, lo, hi), once):
            failures += 1

    elapsed = time.perf_counter() - start
    report(
        "criterion 9 (invariance suite)",
        failures == 0 and elapsed < 10.0,
        f"4 x 100 trials, {failures} failures, {elapsed:.1f}s",
    )


# -- criterion 10: byte-level reproducibility ------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    for sub in ("a", "b"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "rankmbo", "run",
                "--config", str(preset_path("branin_dar_desk")),
                "--out", str(tmp_path / sub),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
    differing = [
        name
        for name in RUN_ARTIFACTS
        if name != "manifest.json"
        and (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    report(
        "criterion 10 (byte reproducibility)",
        not differing,
        f"numeric artifacts identical ({', '.join(n for n in RUN_ARTIFACTS if n != 'manifest.json')})"
        if not differing
        else f"differs: {differing}",
    )
