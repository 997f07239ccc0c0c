"""Seed sweep of the end-to-end experiment (opt-in; pytest does not collect it).

Runs the acceptance experiment of criteria 6 and 7 for each seed: the
perspective arm, then the orthographic arm reusing its stage-1 image branch.
Prints one JSON line per seed, then the mean and the min-max of every number
over the seeds. The acceptance tests and their seed-0 gates are unchanged.

    PYTHONPATH=src python tests/seed_sweep.py          # seeds 0 1 2 3
    PYTHONPATH=src python tests/seed_sweep.py 0 5      # chosen seeds
"""

import json
import sys
import time
from dataclasses import replace

import numpy as np

from harness import ExperimentConfig, recall_between, run_experiment


def sweep_seed(seed: int) -> dict:
    t0 = time.time()
    cfg = ExperimentConfig(seed=seed)
    persp = run_experiment(cfg)
    ortho = run_experiment(replace(cfg, projection="orthographic"), stage1=persp.stage1)
    history = persp.stage2.history
    final_mean = np.mean([l for e, _, l in history if e == cfg.stage2_epochs - 1])
    return {
        "seed": seed,
        "stage2_drop": round(float(1.0 - final_mean / history[0][2]), 4),
        "r1_2d3d": recall_between(persp.held_2d, persp.held_3d, "t1", "t0"),
        "r1_2d2d": recall_between(persp.held_2d, persp.held_2d, "t1", "t0"),
        "r1_3d3d": recall_between(persp.held_3d, persp.held_3d, "t1", "t0"),
        "r1pct_perspective": recall_between(persp.held_2d, persp.held_3d, "t1", "t0",
                                            one_percent=True),
        "r1pct_orthographic": recall_between(persp.held_2d, ortho.held_3d, "t1", "t0",
                                             one_percent=True),
        "seconds": round(time.time() - t0, 1),
    }


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or [0, 1, 2, 3]
    rows = []
    for seed in seeds:
        rows.append(sweep_seed(seed))
        print(json.dumps(rows[-1]), flush=True)
    keys = [key for key in rows[0] if key != "seed"]
    print(json.dumps({"mean": {k: round(float(np.mean([r[k] for r in rows])), 4)
                               for k in keys}}))
    print(json.dumps({"min_max": {k: [min(r[k] for r in rows), max(r[k] for r in rows)]
                                  for k in keys}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
