#!/usr/bin/env python3
"""Project the wall time of the paper-default structure search.

The paper picks features and network structure by exhaustive
cross-validation: every subset of 4-7 of the 13 features with 1-4 hidden
nodes that passes the weight-count bound, each scored by 10-fold CV with 5
LM restarts of up to 500 iterations. This script plants a network on an
80-row synthetic feature table, times `cross_validate` on a fixed random
sample of those structures, and prints the mean time per structure times
the number of structures. It also prints how many damped systems that
serial pass solved: a count that repeats exactly, where the timings vary
with the host. It then times the same sample through the search's worker
processes, at 1 worker and at one per CPU, and projects each wall time
the same way. The table, sample and seeds are fixed, so runs on different
commits are comparable.

    python3 scripts/project_paper_search.py
"""

import os
import time

import numpy as np

from jerkmeter import (
    FEATURE_NAMES,
    SearchConfig,
    TrainingSample,
    cross_validate,
)
from jerkmeter import training
from jerkmeter.pool import _claimed_map, _worker_count
from jerkmeter.training import enumerate_combinations

ROWS = 80
SAMPLE = 24
SEED = 0


def planted_table(rows, seed):
    """Feature rows with DMOS from a 2-hidden-node net over 5 features."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, len(FEATURE_NAMES)))
    weights = rng.normal(size=(5, 2))
    hidden = np.tanh(x[:, :5] @ weights)
    dmos = 3.0 + hidden @ np.array([1.0, -0.7]) + rng.normal(0.0, 0.05, rows)
    return [TrainingSample(features=dict(zip(FEATURE_NAMES, row)), dmos=float(d),
                           source_id=f"src{i % 8}", sample_id=f"s{i:03d}")
            for i, (row, d) in enumerate(zip(x, dmos))]


def main():
    samples = planted_table(ROWS, SEED)
    config = SearchConfig()
    combos = enumerate_combinations(config)
    rng = np.random.default_rng(SEED)
    picked = sorted(rng.choice(len(combos), size=SAMPLE, replace=False))
    times, errors, systems = [], [], []
    solve = training._solve

    def counted_solve(a, b):
        systems.append(len(b))
        return solve(a, b)

    training._solve = counted_solve
    for i in picked:
        subset, m = combos[i]
        start = time.perf_counter()
        errors.append(cross_validate(samples, subset, m, config))
        times.append(time.perf_counter() - start)
        print(f"{times[-1]:7.2f} s  cv {errors[-1]:.5f}  M={m}  {'+'.join(subset)}")
    training._solve = solve
    mean = sum(times) / len(times)
    print(f"mean {mean:.3f} s per structure (min {min(times):.2f}, "
          f"max {max(times):.2f}) x {len(combos):,} structures "
          f"= {mean * len(combos) / 3600:.1f} h projected")
    print(f"damped systems solved: {sum(systems):,} in {len(systems):,} solve calls")

    def evaluate(k):
        subset, m = combos[picked[k]]
        return cross_validate(samples, subset, m, config)

    for workers in sorted({1, _worker_count(os.cpu_count() or 1, SAMPLE)}):
        start = time.perf_counter()
        if _claimed_map(evaluate, SAMPLE, workers) != errors:
            raise SystemExit(f"{workers} workers gave other CV errors")
        wall = time.perf_counter() - start
        print(f"{workers} worker(s): {wall:.1f} s for {SAMPLE} structures "
              f"= {wall / SAMPLE * len(combos) / 3600:.1f} h projected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
