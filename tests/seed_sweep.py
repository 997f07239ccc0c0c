"""Seed sweep of the end-to-end experiment (opt-in; pytest does not collect it).

Runs the acceptance experiment of criteria 6 and 7 for each seed: the
perspective arm, then the orthographic arm reusing its stage-1 image branch.
Prints one JSON line per seed, then the mean and the min-max of every number
over the seeds. Besides the recalls, each line holds the seconds of every
stage of both arms (`ExperimentResult.seconds`) and how many held-out 2D->3D
queries find their first true match at rank 0, at ranks 1-4 and at rank 5
or later. The acceptance tests and their seed-0 gates are unchanged.

The seeds run in two spawned worker processes with one OpenBLAS thread
each: on a 2-core host that beats one process with two threads, and two
processes with two threads each slow each other down many times over.
Results do not depend on the BLAS thread count (tests/test_blas_threads.py),
so every number but the seconds equals a serial run's. The seconds are
single-thread times of one seed while another seed runs alongside it.

    PYTHONPATH=src python tests/seed_sweep.py          # seeds 0 1 2 3
    PYTHONPATH=src python tests/seed_sweep.py 0 5      # chosen seeds
"""

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from harness import ExperimentConfig, recall_between, run_experiment, split_by_run
from vxp import retrieval


def first_match_counts(query_bundle, db_bundle, query_run, db_run) -> dict:
    """Queries by the rank of their first true match: 0, 1-4 and >= 5."""
    q_desc, q_pos = split_by_run(query_bundle, query_run)
    db_desc, db_pos = split_by_run(db_bundle, db_run)
    index = retrieval.build_index(db_desc, np.arange(len(db_desc), dtype=np.uint64),
                                  db_pos)
    ranks = retrieval.first_match_ranks(retrieval.QuerySet(q_desc, q_pos), index,
                                        retrieval.EvalProtocol().success_radius_m, cap=5)
    return {"0": int(np.sum(ranks == 0)), "1-4": int(np.sum((ranks >= 1) & (ranks < 5))),
            ">=5": int(np.sum(ranks == 5))}


def rounded(seconds: dict) -> dict:
    return {stage: round(value, 2) for stage, value in seconds.items()}


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
        "first_match_2d3d": first_match_counts(persp.held_2d, persp.held_3d, "t1", "t0"),
        "perspective_s": rounded(persp.seconds),
        "orthographic_s": rounded(ortho.seconds),
        "seconds": round(time.time() - t0, 1),
    }


def numbers(row: dict) -> dict:
    """A row's numbers, with nested ones under 'outer.inner' keys."""
    out = {}
    for key, value in row.items():
        if isinstance(value, dict):
            out.update((f"{key}.{inner}", v) for inner, v in value.items())
        elif key != "seed":
            out[key] = value
    return out


def sweep(seeds: list[int]):
    """sweep_seed of every seed, in seed order."""
    # OpenBLAS reads its thread count when numpy loads, and a spawned worker
    # loads numpy afresh with this process's environment.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    with ProcessPoolExecutor(min(2, len(seeds)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(sweep_seed, seeds)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="seed sweep of the acceptance experiment")
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 1, 2, 3])
    args = parser.parse_args(argv)
    t0 = time.time()
    rows = []
    for row in sweep(args.seeds):
        rows.append(row)
        print(json.dumps(row), flush=True)
    flat = [numbers(row) for row in rows]
    keys = list(flat[0])
    print(json.dumps({"mean": {k: round(float(np.mean([r[k] for r in flat])), 4)
                               for k in keys}}))
    print(json.dumps({"min_max": {k: [min(r[k] for r in flat), max(r[k] for r in flat)]
                                  for k in keys}}))
    print(json.dumps({"wall_s": round(time.time() - t0, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
