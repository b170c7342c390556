"""Walkthrough: the three surrogate training objectives.

Trains the same network under squared-error regression, global pairwise
ranking, and distribution-aware ranking (DAR), then compares how well each
trained surrogate orders near-optimal versus suboptimal designs from a fresh
evaluation pool.  Uses a shortened protocol so the script finishes in about
half a minute; the shipped presets run the full desk-scale version.
"""

import numpy as np

from rankmbo import (
    DarConfig,
    RankConfig,
    TrainConfig,
    branin_task,
    init_surrogate,
    make_eval_pool,
    make_offline_dataset,
    partition,
    ranking_error,
    train_dar,
    train_mse,
    train_rank_global,
)

task = branin_task()
dataset = make_offline_dataset(task, pool_size=5000, keep_fraction=0.6, seed=0)
print(f"offline dataset: worst 60% of the pool, {len(dataset)} designs")

part = partition(dataset, 0.2)
print(f"near/sub split at score {part.threshold:.3f}: {part.n_near} / {part.n_sub}")

shared = dict(iterations=1500, seed=1)  # batch 256, learning rate 3e-4 by default
models = {}

# every trainer ends with z-score output adaptation over the dataset, so the
# regression model lands on the same scale as the ranking models
models["mse"], _ = train_mse(init_surrogate(2, 64, 1), dataset, TrainConfig(**shared))

models["rank_global"], _ = train_rank_global(
    init_surrogate(2, 64, 1), dataset, RankConfig(margin=0.4, **shared)
)

models["dar"], _ = train_dar(
    init_surrogate(2, 64, 1),
    dataset,
    DarConfig(margin=0.4, near_fraction=0.2, intra_ratio=0.1, **shared),
)

# Evaluate: what fraction of (top-5%, rest) pairs from an unseen pool does each
# surrogate rank incorrectly?
pool = make_eval_pool(task, size=4000, near_fraction=0.05, seed=99)
print(f"\nranking error on a fresh pool ({len(pool.near_idx)} near, {len(pool.sub_idx)} sub):")
for name, model in models.items():
    err = ranking_error(model.predict_adapted_batch, pool.near_designs, pool.sub_designs)
    print(f"  {name:12s} {err:.4f}")

# The adapted outputs all have mean 0 / std 1 over the training designs, so
# the three surrogates expose comparable gradient scales to the search stage.
for name, model in models.items():
    preds = model.predict_adapted_batch(dataset.designs)
    print(f"  {name:12s} adapted output: mean {preds.mean():+.2e}, std {preds.std():.3f}")
