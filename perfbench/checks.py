"""Independent oracles the benchmark checks vxp's outputs against.

Each oracle is written from plain numpy or Python and shares no code path
with the function it judges: a strided dense convolution for sparse3d, a
Python sort on (distance, id) for kNN, and a recount of recall@1.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from vxp import sparse3d
from vxp.autodiff import Tensor


def dense_window_conv(dense: np.ndarray, kernel: np.ndarray, kernel_size: int,
                      stride: int, window: int) -> np.ndarray:
    """Dense conv of a (S, S, S, C) block whose cell j holds input cell
    origin + j, where origin = o0 * stride - pad; returns the (window,) * 3
    outputs starting at output site o0. Kernel rows are offset-major."""
    k = kernel_size
    c_in = dense.shape[3]
    weights = kernel.reshape(k, k, k, c_in, kernel.shape[1])
    out = np.zeros((window, window, window, kernel.shape[1]))
    span = stride * (window - 1) + 1
    for dx, dy, dz in product(range(k), repeat=3):
        block = dense[dx:dx + span:stride, dy:dy + span:stride, dz:dz + span:stride]
        out += block @ weights[dx, dy, dz]
    return out


def conv_window_error(in_map, out_map, layer, window: int = 12) -> float:
    """Largest |sparse - dense| over a window of output sites, relative to
    the largest dense value; inf if the active sets disagree.

    out_map is the layer's output before the ReLU. The window is centred on
    the output site nearest the per-axis median, so it holds at least that
    site; the per-axis median itself can lie in empty space.
    """
    k, stride = layer.kernel_size, layer.stride
    pad = (k - 1) // 2
    out_dims = np.asarray(out_map.grid_dims)
    mid = np.median(out_map.coords, axis=0)
    centre = out_map.coords[np.argmin(np.abs(out_map.coords - mid).sum(axis=1))]
    o0 = np.clip(centre.astype(np.int64) - window // 2, 0, np.maximum(out_dims - window, 0))
    origin = o0 * stride - pad
    size = stride * (window - 1) + k
    rel_in = in_map.coords - origin
    keep = np.all((rel_in >= 0) & (rel_in < size), axis=1)
    crop = sparse3d.SparseFeatureMap(
        coords=rel_in[keep], feats=Tensor(in_map.feats.values[keep]),
        grid_dims=(size, size, size),
        effective_voxel_size=in_map.effective_voxel_size, range_min=in_map.range_min)
    want = dense_window_conv(sparse3d.sparse_to_dense(crop), layer.kernel.values,
                             k, stride, window)

    rel_out = out_map.coords - o0
    inside = np.all((rel_out >= 0) & (rel_out < window), axis=1)
    if not inside.any():
        return math.inf
    local = rel_out[inside]
    got = out_map.feats.values[inside] - layer.bias.values
    active = np.zeros((window,) * 3, dtype=bool)
    active[local[:, 0], local[:, 1], local[:, 2]] = True
    if np.any(want[~active] != 0.0):  # a site the sparse conv dropped
        return math.inf
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want[local[:, 0], local[:, 1], local[:, 2]]).max()) / scale


def brute_force_topk(db: np.ndarray, ids: np.ndarray, query: np.ndarray,
                     k: int) -> list[int]:
    """Ids of the k nearest rows by L2, ties to the lowest id, by Python sort."""
    dists = np.sqrt(((db - query) ** 2).sum(axis=1)).tolist()
    ranked = sorted(zip(dists, ids.tolist()))
    return [i for _, i in ranked[:k]]


def brute_force_recall_at_1(db, db_ids, db_pos, queries, q_pos, radius) -> float:
    """Share of queries whose nearest row lies within radius; queries with
    no row in radius are left out, as the protocol defines."""
    hits = valid = 0
    for q, p in zip(queries, q_pos):
        near = np.sqrt(((db_pos - p) ** 2).sum(axis=1)) <= radius
        if not near.any():
            continue
        valid += 1
        dists = np.sqrt(((db - q) ** 2).sum(axis=1)).tolist()
        ids = db_ids.tolist()
        best = min(range(len(dists)), key=lambda r: (dists[r], ids[r]))
        hits += bool(near[best])
    return hits / valid if valid else math.nan


def same_tensors(a: dict, b: dict) -> bool:
    """Bit-exact equality of two name -> Tensor dicts."""
    return a.keys() == b.keys() and all(
        a[n].values.shape == b[n].values.shape
        and a[n].values.tobytes() == b[n].values.tobytes() for n in a)
