"""vxp benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload {train_small,encode_db,retrieve}
                             --seed N --seconds S --trace {0,1}

Set-up makes the inputs from the seed, a short warm-up runs untimed, then
passes of identical work repeat until S seconds have passed, each followed
by another set-up; setup_s is the median set-up time. With --trace 0 the
last stdout line is a JSON object with every end-to-end metric; with
--trace 1 traced and untraced passes alternate and the metrics are the
per-layer ones (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("train_small", "encode_db", "retrieve")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters and the values they are pinned to.
MALLOPT = {"trim_threshold": (-1, 1 << 30), "mmap_threshold": (-3, 32 << 20)}

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"),
    ("phase1_per_s", "items/s"), ("phase2_per_s", "items/s"), ("phase3_per_s", "items/s"),
    ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
]


def _pin_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _pin_malloc() -> dict | str:
    """Fix glibc's heap trim and mmap thresholds, which it otherwise adjusts
    as the process runs. Left dynamic, retrieve passes flipped between about
    10 k and 1 M page faults (heap top trimmed and refaulted every query),
    and kNN p50 between 2 and 6-8 ms, depending on allocation history."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "not pinned (no glibc mallopt)"
    return {name: value if mallopt(param, value) == 1 else "not pinned"
            for name, (param, value) in MALLOPT.items()}


def _git_sha(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_vendor(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):  # numpy builds differ in what they report
        return "unknown"


def _tail_quantile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, capped at p90:
    p99 of query_knn moved by up to 50 % between runs on a shared 2-core
    machine, with stalls of a few milliseconds, so it is printed, unbounded,
    on the run line instead."""
    return min(0.90, max(0.5, 1.0 - 10.0 / n))


def _end_to_end(np, setup_times, passes) -> tuple[dict, dict]:
    op_ms = np.asarray([t for p in passes for t in p.op_s]) * 1e3
    q = _tail_quantile(op_ms.size)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": statistics.median(p.seconds for p in passes),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_tail": float(np.percentile(op_ms, 100 * q)),
    }
    for k in range(3):  # median over passes, so one stalled pass does not move it
        values[f"phase{k + 1}_per_s"] = statistics.median(
            p.phase_items[k] / p.phase_s[k] for p in passes)
    info = {"op_samples": int(op_ms.size), "op_tail_percentile": round(100 * q, 1),
            "op_ms_p99_unbounded": float(np.percentile(op_ms, 99)),
            "op_ms_max_unbounded": float(op_ms.max())}
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = _pin_blas_threads()
    malloc = _pin_malloc()
    root = Path.cwd()
    src = root / "src"
    if not (src / "vxp" / "__init__.py").is_file():
        print(f"perfbench: no vxp sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import vxp
    if Path(vxp.__file__).resolve().parent != (src / "vxp").resolve():
        print(f"perfbench: imported vxp from {vxp.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, np, spans, workloads, root, workdir, threads, malloc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()


def _run(args, np, spans, workloads, root, workdir, threads, malloc) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None

    def traced(phase, fn):
        if tracer is None:
            return fn()
        tracer.phase = phase
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()
            tracer.phase = None

    setup_times, setup_phases = [], []

    def set_up():
        setup_phases.append(f"setup{len(setup_phases)}")
        t0 = time.perf_counter()
        traced(setup_phases[-1], wl.setup)
        setup_times.append(time.perf_counter() - t0)

    # Set-up runs before the warm-up and again after every pass, so its
    # samples span the run as the passes do; set-ups in a row would all
    # land within one second of this shared machine's drifting speed.
    set_up()
    wl.warmup()

    plain, traced_passes, traced_phases = [], [], []
    faults = 0
    start = time.perf_counter()
    while True:
        i = len(plain) + len(traced_passes)
        faults -= resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if tracer is not None and i % 2 == 1:
            traced_phases.append(f"pass{i}")
            traced_passes.append(traced(traced_phases[-1], wl.run_pass))
        else:
            plain.append(wl.run_pass())
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        set_up()
        done = time.perf_counter() - start >= args.seconds
        ops = sum(len(p.op_s) for p in plain)
        if done and ops >= wl.min_ops and (tracer is None or traced_passes):
            break

    results = [(label, ok) for p in plain + traced_passes for label, ok in p.checks]
    results += wl.check()

    end_to_end, op_info = _end_to_end(np, setup_times, plain)
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_vendor(np), "blas_threads": threads, "nproc": threads,
        "malloc": malloc,
        "page_faults_per_pass": faults // (len(plain) + len(traced_passes)),
        "sizes": wl.sizes(), "passes": len(plain), "traced_passes": len(traced_passes),
        "op": wl.op_name, **op_info,
    }
    print("# run " + json.dumps(header))
    print("# quality (not bounded) " + json.dumps(wl.quality()))

    if tracer is None:
        units = dict(END_TO_END)
        metrics = {name: {"value": end_to_end[name], "unit": units[name]}
                   for name, _ in END_TO_END}
    else:
        layer, problems = spans.per_layer_metrics(
            tracer, setup_phases, traced_phases)
        untraced = statistics.median(p.seconds for p in plain)
        with_trace = statistics.median(p.seconds for p in traced_passes)
        layer["trace.overhead_pct"] = 100.0 * (with_trace - untraced) / untraced
        layer["trace.spans"] = len(tracer.spans)
        results += [(f"span {name} recorded calls on {args.workload}",
                     layer[f"{name}_calls"] > 0) for name in spans.REQUIRED_ON[args.workload]]
        results += [(text, False) for text in problems]
        trace_path = root / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print("# trace " + json.dumps({
            "overhead": f"traced pass median {with_trace:.4f} s vs untraced "
                        f"{untraced:.4f} s ({layer['trace.overhead_pct']:+.1f} %)",
            "counts": "computed from the inputs; flops and bytes are computed, not "
                      "measured; a rerun on the same seed reproduces every count "
                      "bit for bit",
            "spans_file": str(trace_path.relative_to(root))}))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.metric_names()}

    failed = [label for label, ok in results if not ok]
    for label in failed:
        print(f"perfbench: check failed: {label}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
