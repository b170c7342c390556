"""Walkthrough: projected gradient-ascent design search.

First on a closed-form concave objective, where the ascent provably contracts
to the maximizer, then on the Branin task with a DAR-trained surrogate, where
candidates initialized at the best visible designs climb past everything the
offline dataset contains.
"""

import numpy as np

from rankmbo import (
    DarConfig,
    SearchConfig,
    ascend,
    branin_task,
    init_surrogate,
    make_offline_dataset,
    normalized_score,
    partition,
    propose_candidates,
    score_candidates,
    train_dar,
)


class ExactBowl:
    """-||x - center||^2 wrapped with the interface the ascent loop expects."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)
        self.x_mean = np.zeros_like(self.center)
        self.x_std = np.ones_like(self.center)

    def value_batch(self, X):
        return -np.sum((np.atleast_2d(X) - self.center) ** 2, axis=1)

    def gradient_batch(self, X):
        return -2.0 * (np.atleast_2d(X) - self.center)


center = np.array([1.5, -0.5])
# ascend runs every start at once: one trajectory of steps+1 iterates per row
paths = ascend(
    ExactBowl(center),
    X0=np.array([[4.0, 4.0], [-4.0, -3.0]]),
    lower=np.full(2, -5.0),
    upper=np.full(2, 5.0),
    config=SearchConfig(step_size=0.1, steps=60),
)
print("bowl ascent: each step contracts the distance to the maximizer by 0.8")
for k, traj in enumerate(paths):
    for t in (0, 10, 30, 60):
        d = np.linalg.norm(traj[t] - center)
        print(f"  start {k} step {t:3d}: x = {np.round(traj[t], 4)}, distance {d:.5f}")

# Now the real pipeline: DAR surrogate on the worst-60% Branin dataset.
task = branin_task()
dataset = make_offline_dataset(task, pool_size=5000, keep_fraction=0.6, seed=0)
model, _ = train_dar(
    init_surrogate(2, 64, seed=1),
    dataset,
    DarConfig(iterations=1500, batch_size=256, learning_rate=3e-4, seed=1),
)
part = partition(dataset, 0.2)
result = propose_candidates(
    model, dataset, part, SearchConfig(step_size=0.05, steps=200, num_candidates=32, seed=2)
)
result = score_candidates(result, dataset)

dataset_best = normalized_score(float(dataset.scores.max()), dataset)
print(f"\nBranin search from the top of the visible data ({result.config.num_candidates} candidates):")
print(f"  dataset best (normalized):  {dataset_best:.4f}")
print(f"  search best (normalized):   {result.best_normalized:.4f}")
print(f"  search best (raw score):    {result.best_true:.4f}")
moved = np.linalg.norm(result.candidates - result.init_designs, axis=1)
print(f"  mean displacement of candidates: {moved.mean():.3f}")
