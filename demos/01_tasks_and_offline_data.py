"""Walkthrough: synthetic tasks and the worst-fraction offline protocol.

The offline optimization setting starts from a fixed dataset of evaluated
designs.  To make the problem genuinely hard we keep only the worst-scoring
fraction of a uniform pool, so the region of the true optima is unobserved.
"""

import numpy as np

from rankmbo import branin_task, make_offline_dataset, normalized_score
from rankmbo.tasks import BRANIN_MAXIMIZERS, eval_branin

task = branin_task()
print(f"task: {task.name}, box {task.lower} .. {task.upper}")

# The negated Branin function has three global maximizers with equal value.
for x in BRANIN_MAXIMIZERS:
    print(f"  value at {np.round(x, 5)}: {eval_branin(np.array(x)):+.6f}")

# Build the offline dataset: sample 5000 designs uniformly, keep the worst 60%.
dataset = make_offline_dataset(task, pool_size=5000, keep_fraction=0.6, seed=0)
# The dataset records the true-score extrema of the pool it was kept from.
print(f"\npool extrema: [{dataset.y_min_full:.3f}, {dataset.y_max_full:.3f}]")
print(f"offline dataset: {len(dataset)} designs")
print(f"  best retained score: {dataset.scores.max():.3f}")
print(f"  worst retained score: {dataset.scores.min():.3f}")

# Normalized scores place everything on the pool scale: 0 = pool worst,
# 1 = pool best.  The dataset best lands well below 1 by construction.
best_norm = normalized_score(float(dataset.scores.max()), dataset)
print(f"  normalized dataset best: {best_norm:.4f}")

# The true optima live far above anything the training data contains.
gap = dataset.y_max_full - dataset.scores.max()
print(f"  score gap between pool best and dataset best: {gap:.3f}")

# How far is the nearest retained design from each true maximizer?
for x in BRANIN_MAXIMIZERS:
    d = np.linalg.norm(dataset.designs - np.array(x), axis=1).min()
    print(f"  nearest data point to maximizer {np.round(x, 3)}: distance {d:.3f}")
