#!/usr/bin/env python3
"""Project the wall time of the paper-default structure search.

The paper picks features and network structure by exhaustive
cross-validation: every subset of 4-7 of the 13 features with 1-4 hidden
nodes that passes the weight-count bound, each scored by 10-fold CV with 5
LM restarts of up to 500 iterations. This script plants a network on an
80-row synthetic feature table, times `cross_validate` on a fixed random
sample of those structures, and prints the mean time per structure times
the number of structures. The table, sample and seeds are fixed, so
runs on different commits are comparable.

    python3 scripts/project_paper_search.py
"""

import time

import numpy as np

from jerkmeter import (
    FEATURE_NAMES,
    SearchConfig,
    TrainingSample,
    cross_validate,
)
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
    times = []
    for i in picked:
        subset, m = combos[i]
        start = time.perf_counter()
        error = cross_validate(samples, subset, m, config)
        times.append(time.perf_counter() - start)
        print(f"{times[-1]:7.2f} s  cv {error:.5f}  M={m}  {'+'.join(subset)}")
    mean = sum(times) / len(times)
    print(f"mean {mean:.3f} s per structure (min {min(times):.2f}, "
          f"max {max(times):.2f}) x {len(combos):,} structures "
          f"= {mean * len(combos) / 3600:.1f} h projected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
