"""Outside-in tracing of vxp layers for the benchmark's traced run.

The tracer swaps each layer's public function for a timing wrapper at every
place the function object is bound (its defining module and every vxp module
that imported it by name), plus ``Tape.backward`` on the class. Spans are kept
in memory as (id, parent, name, start, end, phase) and written out once, when
the run ends. A span's self time is its duration minus its children's.

Count hooks (voxels, active sites, pair fill, flops, bytes) run after the
wrapped call returns; their own cost is excluded from every span that is open
while they run, so they do not inflate a parent's busy time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from itertools import product

import numpy as np

# (module, attribute, span name). Only the innermost function of a call chain
# that shares one span name is listed (image_encode calls encode_image_batch,
# recall_at_one_percent calls recall_at_k, synthetic_training_set calls
# generate_synthetic_scene, plan_backbone calls plan_sparse_conv), so no span
# nests inside another span of the same name.
TARGETS = [
    ("vxp.autodiff", "Tape.backward", "autodiff.backward"),
    ("vxp.geometry", "voxelize", "geometry.voxelize"),
    ("vxp.geometry", "project_voxels", "geometry.project"),
    ("vxp.geometry", "orthographic_project", "geometry.project"),
    ("vxp.sparse3d", "plan_sparse_conv", "sparse3d.plan"),
    ("vxp.sparse3d", "vfe_encode", "sparse3d.vfe"),
    ("vxp.sparse3d", "apply_sparse_conv", "sparse3d.conv"),
    ("vxp.sparse3d", "point_cloud_backbone", "sparse3d.backbone"),
    ("vxp.heads", "encode_image_batch", "heads.image_encoder"),
    ("vxp.heads", "gem_pool", "heads.gem"),
    ("vxp.heads", "gem_pool_segments", "heads.gem"),
    ("vxp.heads", "fcn_project", "heads.fc"),
    ("vxp.losses", "triplet_loss_batch_hard", "losses.triplet"),
    ("vxp.losses", "local_descriptor_loss", "losses.local"),
    ("vxp.losses", "global_descriptor_loss", "losses.global"),
    ("vxp.trainer", "adam_step", "trainer.adam"),
    ("vxp.retrieval", "query_knn", "retrieval.knn"),
    ("vxp.retrieval", "build_index", "retrieval.build_index"),
    ("vxp.retrieval", "recall_at_k", "retrieval.recall"),
    ("vxp.retrieval", "recall_curve", "retrieval.curve"),
    ("vxp.retrieval", "kitti_revisit_eval", "retrieval.kitti"),
    ("vxp.retrieval", "oxford_pairwise_eval", "retrieval.oxford"),
    ("vxp.dataio", "read_descriptors", "dataio.vxpd_read"),
    ("vxp.dataio", "write_descriptors", "dataio.vxpd_write"),
    ("vxp.dataio", "read_checkpoint", "dataio.vxpc_read"),
    ("vxp.dataio", "write_checkpoint", "dataio.vxpc_write"),
    ("vxp.dataio", "load_point_cloud_bin", "dataio.cloud_read"),
    ("vxp.dataio", "write_point_cloud_bin", "dataio.cloud_write"),
    ("vxp.dataio", "load_image_raw", "dataio.image_read"),
    ("vxp.dataio", "write_image_raw", "dataio.image_write"),
    ("vxp.dataio", "parse_manifest", "dataio.manifest"),
    ("vxp.dataio", "write_manifest", "dataio.manifest"),
    ("vxp.synthetic", "generate_synthetic_scene", "synthetic.generate"),
]

# Binding sites outside the defining module that must be wrapped; if one is
# missing the traced run would silently miss calls made through it.
REQUIRED_BINDINGS = [
    ("vxp.heads", "voxelize"),
    ("vxp.heads", "point_cloud_backbone"),
    ("vxp.trainer", "voxelize"),
    ("vxp.trainer", "project_voxels"),
    ("vxp.trainer", "orthographic_project"),
    ("vxp.trainer", "write_checkpoint"),
]

# Spans that must record calls on a workload (the "on" column of the
# interaction table); a traced run that sees zero calls there fails.
REQUIRED_ON = {
    "train_small": [
        "autodiff.backward", "geometry.voxelize", "geometry.project",
        "sparse3d.plan", "sparse3d.vfe", "sparse3d.conv", "sparse3d.backbone",
        "heads.image_encoder", "heads.gem", "heads.fc", "losses.triplet",
        "losses.local", "losses.global", "trainer.adam", "synthetic.generate"],
    "encode_db": [
        "geometry.voxelize", "sparse3d.plan", "sparse3d.vfe", "sparse3d.conv",
        "sparse3d.backbone", "heads.image_encoder", "heads.gem", "heads.fc",
        "dataio.vxpd_write", "dataio.vxpc_read",
        "dataio.vxpc_write", "dataio.cloud_read", "dataio.cloud_write",
        "dataio.image_read", "dataio.image_write", "dataio.manifest",
        "synthetic.generate"],
    "retrieve": [
        "retrieval.knn", "retrieval.build_index", "retrieval.recall",
        "retrieval.curve", "retrieval.kitti", "retrieval.oxford",
        "dataio.vxpd_read", "dataio.vxpd_write", "dataio.manifest"],
}

# Input-grid extents of the two conv layers of the default backbone; counts
# per layer are keyed by the extent of the grid the layer reads.
CONV_INPUT_EXTENTS = (110, 55)

COUNTS = [  # name, unit
    ("autodiff.tape_entries", "count"), ("geometry.voxels", "count"),
    *[(f"sparse3d.active_sites.in{e}", "count") for e in CONV_INPUT_EXTENTS],
    *[(f"sparse3d.pair_fill.in{e}", "ratio") for e in CONV_INPUT_EXTENTS],
    ("sparse3d.im2col_flops", "flop"), ("sparse3d.useful_flops", "flop"),
    ("losses.active_triplet_frac", "ratio"), ("trainer.steps", "count"),
    ("dataio.bytes_read", "B"), ("dataio.bytes_written", "B"),
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
]


def span_names() -> list[str]:
    return sorted({name for _, _, name in TARGETS})


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for name in span_names():
        out += [(f"{name}_s", "s"), (f"{name}_self_s", "s"), (f"{name}_calls", "count")]
    return out + COUNTS


def _flat(coords: np.ndarray, dims: np.ndarray) -> np.ndarray:
    return (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]


def occupied_pairs(in_coords, in_dims, out_coords, kernel_size, stride) -> int:
    """Number of (output site, kernel offset) pairs whose input cell is
    occupied, found from the coordinates alone (no conv plan involved)."""
    dims = np.asarray(in_dims, dtype=np.int64)
    keys = np.sort(_flat(np.asarray(in_coords, dtype=np.int64), dims))
    base = np.asarray(out_coords, dtype=np.int64) * stride - (kernel_size - 1) // 2
    total = 0
    for offset in product(range(kernel_size), repeat=3):
        cand = base + np.asarray(offset)
        inside = np.all((cand >= 0) & (cand < dims), axis=1)
        flat = _flat(cand[inside], dims)
        pos = np.minimum(np.searchsorted(keys, flat), keys.shape[0] - 1)
        total += int(np.count_nonzero(keys[pos] == flat))
    return total


class Tracer:
    """In-memory span and counter recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase: str | None = None
        self._stack: list[tuple[int, float, float]] = []
        self._excluded = 0.0  # seconds spent in count hooks so far
        self._pair_memo: dict[bytes, int] = {}
        self._swaps: list[tuple[object, str, object]] = []

    # --- recording ---

    def _call(self, name, fn, hook, args, kwargs):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, time.perf_counter(), self._excluded))
        try:
            out = fn(*args, **kwargs)
        finally:
            _, t0, excl0 = self._stack.pop()
            t1 = time.perf_counter()
            t1 -= self._excluded - excl0
            self.spans.append((sid, parent, name, t0, t1, self.phase))
        if hook is not None:
            h0 = time.perf_counter()
            hook(self.counts[self.phase], args, kwargs, out)
            self._excluded += time.perf_counter() - h0
        return out

    def _wrapper(self, fn, name, attr):
        hook = _HOOKS.get(attr)
        if hook is not None:
            hook = functools.partial(hook, self)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, hook, args, kwargs)
        return wrapper

    # --- install / uninstall ---

    def install(self) -> None:
        """Wrap every binding of every target across the loaded vxp modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "vxp" or n.startswith("vxp.")) and m is not None]
        bound_sites = set()
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:  # a method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._swap(cls, meth, original, self._wrapper(original, name, attr))
                bound_sites.add((mod_name, attr))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrapper(original, name, attr)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, key, original, wrapped)
                        bound_sites.add((m.__name__, key))
        missing = [site for site in REQUIRED_BINDINGS if site not in bound_sites]
        if missing:
            raise RuntimeError(f"trace would miss calls through {missing}")

    def _swap(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._swaps.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._swaps):
            setattr(owner, key, original)
        self._swaps.clear()

    # --- aggregation ---

    def phase_totals(self) -> dict[str, dict[str, list[float]]]:
        """phase -> span name -> [total_s, self_s, calls]."""
        child = defaultdict(float)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for sid, _, name, t0, t1, phase in self.spans:
            acc = out[phase][name]
            acc[0] += t1 - t0
            acc[1] += (t1 - t0) - child[sid]
            acc[2] += 1
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "phase"],
                       "spans": self.spans}, fh)


def _median_over(phases, values_of) -> float:
    vals = [values_of(p) for p in phases]
    return statistics.median(vals) if vals else 0.0


def per_layer_metrics(tracer: Tracer, setup_phases: list[str],
                      pass_phases: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values: median over set-ups plus median over traced passes.

    Returns (metrics, problems); a problem is a count or a call count that
    differed between repetitions of identical work, which must not happen.
    """
    totals = tracer.phase_totals()
    metrics: dict[str, float] = {}
    for name in span_names():
        for i, suffix in enumerate(("_s", "_self_s", "_calls")):
            value = sum(_median_over(group, lambda p: totals[p][name][i])
                        for group in (setup_phases, pass_phases))
            metrics[f"{name}{suffix}"] = int(value) if suffix == "_calls" else value

    def counted(phase):
        return dict(tracer.counts[phase]), {n: acc[2] for n, acc in totals[phase].items()}

    problems = []
    raw: dict[str, float] = defaultdict(float)
    for group in (setup_phases, pass_phases):
        if not group:
            continue
        first = counted(group[0])
        for p in group[1:]:
            if counted(p) != first:
                problems.append(f"counts or calls differ between {group[0]} and {p}")
        for key, value in first[0].items():
            raw[key] += value
    steps = raw["backward_calls"]
    metrics["autodiff.tape_entries"] = raw["tape_entries"] / steps if steps else 0
    metrics["geometry.voxels"] = int(raw["voxels"])
    for e in CONV_INPUT_EXTENTS:
        sites = raw[f"sites.in{e}"]
        metrics[f"sparse3d.active_sites.in{e}"] = int(sites)
        slots = raw[f"slots.in{e}"]
        metrics[f"sparse3d.pair_fill.in{e}"] = raw[f"pairs.in{e}"] / slots if slots else 0
    metrics["sparse3d.im2col_flops"] = int(raw["im2col_flops"])
    metrics["sparse3d.useful_flops"] = int(raw["useful_flops"])
    anchors = raw["anchors"]
    metrics["losses.active_triplet_frac"] = raw["active_anchors"] / anchors if anchors else 0
    metrics["trainer.steps"] = int(raw["steps"])
    metrics["dataio.bytes_read"] = int(raw["bytes_read"])
    metrics["dataio.bytes_written"] = int(raw["bytes_written"])
    return metrics, problems


# --- count hooks: (tracer, counts, args, kwargs, result) ---

def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _hook_backward(tracer, counts, args, kwargs, out):
    counts["tape_entries"] += len(args[0].entries)
    counts["backward_calls"] += 1


def _hook_voxelize(tracer, counts, args, kwargs, grid):
    counts["voxels"] += grid.num_voxels


def _hook_conv(tracer, counts, args, kwargs, out):
    fmap, layer = args[0], args[1]
    k, stride = layer.kernel_size, layer.stride
    key = hashlib.sha1(fmap.coords.tobytes() + out.coords.tobytes()
                       + bytes([k, stride])).digest()
    pairs = tracer._pair_memo.get(key)
    if pairs is None:
        pairs = occupied_pairs(fmap.coords, fmap.grid_dims, out.coords, k, stride)
        tracer._pair_memo[key] = pairs
    tag = f"in{fmap.grid_dims[0]}"
    t_out = out.coords.shape[0]
    counts[f"sites.{tag}"] += t_out
    counts[f"pairs.{tag}"] += pairs
    counts[f"slots.{tag}"] += t_out * k ** 3
    counts["im2col_flops"] += 2 * t_out * k ** 3 * layer.c_in * layer.c_out
    counts["useful_flops"] += 2 * pairs * layer.c_in * layer.c_out


def _hook_triplet(tracer, counts, args, kwargs, result):
    size = args[0].size
    counts["anchors"] += size
    counts["active_anchors"] += size - result.zero_triplets


def _hook_adam(tracer, counts, args, kwargs, out):
    counts["steps"] += 1


def _hook_read(tracer, counts, args, kwargs, out):
    counts["bytes_read"] += os.path.getsize(_path_arg(args, kwargs))


def _hook_write(tracer, counts, args, kwargs, out):
    counts["bytes_written"] += os.path.getsize(_path_arg(args, kwargs))


_HOOKS = {  # keyed by the wrapped attribute
    "Tape.backward": _hook_backward,
    "voxelize": _hook_voxelize,
    "apply_sparse_conv": _hook_conv,
    "triplet_loss_batch_hard": _hook_triplet,
    "adam_step": _hook_adam,
    "read_descriptors": _hook_read,
    "read_checkpoint": _hook_read,
    "load_point_cloud_bin": _hook_read,
    "load_image_raw": _hook_read,
    "parse_manifest": _hook_read,
    "write_descriptors": _hook_write,
    "write_checkpoint": _hook_write,
    "write_point_cloud_bin": _hook_write,
    "write_image_raw": _hook_write,
    "write_manifest": _hook_write,
}
