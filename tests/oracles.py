"""Independent reference implementations used only to verify the library.

Everything here is written from first principles with scalar math or plain
dense numpy, deliberately sharing no code with the package under test. The
exceptions are sparse_conv3d, the plan-then-apply composition that tests
use as a one-call sparse convolution (it is checked against dense_conv3d),
and the autodiff ops l2norm, the gradient suite's scalarizer,
smooth_l1_composed, the composition ad.smooth_l1 must match bit for bit, and
the row-op references segment_max_reduceat, segment_sum_reduceat,
gather_rows_fancy and rulebook_matmul_fancy (the last two move rows with
fancy indexing and indexed +=, the spelling the library's take-based ops
must match bit for bit).
"""

import math
import struct

import numpy as np

from vxp import autodiff as ad
from vxp import sparse3d


def scalar_pinhole(coord, eff_size, range_min, extrinsic, fx_n, fy_n, cx_n, cy_n,
                   width, height):
    """Project one voxel coordinate with scalar arithmetic.

    Returns (u_cont, v_cont, depth, visible) where visible already includes
    the depth and bounds culls, with pixel indices by floor.
    """
    px = coord[0] * eff_size[0] + eff_size[0] / 2.0 + range_min[0]
    py = coord[1] * eff_size[1] + eff_size[1] / 2.0 + range_min[1]
    pz = coord[2] * eff_size[2] + eff_size[2] / 2.0 + range_min[2]

    cx_ = extrinsic[0][0] * px + extrinsic[0][1] * py + extrinsic[0][2] * pz + extrinsic[0][3]
    cy_ = extrinsic[1][0] * px + extrinsic[1][1] * py + extrinsic[1][2] * pz + extrinsic[1][3]
    cz_ = extrinsic[2][0] * px + extrinsic[2][1] * py + extrinsic[2][2] * pz + extrinsic[2][3]

    if cz_ <= 0.0:
        return 0.0, 0.0, cz_, False
    u = fx_n * width * (cx_ / cz_) + cx_n * width
    v = fy_n * height * (cy_ / cz_) + cy_n * height
    ui = math.floor(u)
    vi = math.floor(v)
    visible = 0 <= ui < width and 0 <= vi < height
    return u, v, cz_, visible


def dense_conv3d(dense, kernel, kernel_size, stride):
    """Dense strided 3D convolution with zero padding (k-1)//2.

    dense: (X, Y, Z, C_in); kernel: (k^3*C_in, C_out) with offset-major rows.
    Returns (out_dims..., C_out) with out = ceil(in/stride).
    """
    k = kernel_size
    pad = (k - 1) // 2
    xd, yd, zd, c_in = dense.shape
    c_out = kernel.shape[1]
    out_dims = tuple(-(-d // stride) for d in (xd, yd, zd))
    padded = np.zeros((xd + 2 * pad, yd + 2 * pad, zd + 2 * pad, c_in))
    padded[pad:pad + xd, pad:pad + yd, pad:pad + zd] = dense

    out = np.zeros((*out_dims, c_out))
    for ox in range(out_dims[0]):
        for oy in range(out_dims[1]):
            for oz in range(out_dims[2]):
                acc = np.zeros(c_out)
                for dx in range(k):
                    for dy in range(k):
                        for dz in range(k):
                            vec = padded[ox * stride + dx, oy * stride + dy, oz * stride + dz]
                            d_flat = (dx * k + dy) * k + dz
                            acc += vec @ kernel[d_flat * c_in:(d_flat + 1) * c_in]
                out[ox, oy, oz] = acc
    return out


def receptive_field_mask(occupancy, kernel_size, stride):
    """Output sites whose receptive field overlaps any occupied input cell."""
    ones = np.ones((kernel_size ** 3, 1))
    hits = dense_conv3d(occupancy[..., None].astype(float), ones, kernel_size, stride)
    return hits[..., 0] > 0.0


def occupied_pair_count(in_coords, out_coords, kernel_size, stride):
    """Number of (output site, kernel offset) pairs whose input cell
    o*stride + d - pad is occupied, by a Python set lookup per pair."""
    pad = (kernel_size - 1) // 2
    occupied = {tuple(int(v) for v in c) for c in in_coords}
    count = 0
    for o in out_coords:
        for dx in range(kernel_size):
            for dy in range(kernel_size):
                for dz in range(kernel_size):
                    cell = (int(o[0]) * stride + dx - pad, int(o[1]) * stride + dy - pad,
                            int(o[2]) * stride + dz - pad)
                    count += cell in occupied
    return count


def plan_nonzero_unique(in_coords, in_dims, kernel_size, stride):
    """(out_coords, rules) of a sparse conv plan, from the (k^3, T) pair mask
    by a 2-D np.nonzero and the output keys by np.unique(return_inverse)."""
    k, pad = kernel_size, (kernel_size - 1) // 2
    out_dims = tuple(-(-int(d) // stride) for d in in_dims)
    offsets = np.stack(np.meshgrid(*[np.arange(k)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    reach = np.asarray(in_coords, dtype=np.int64)[None, :, :] + pad - offsets[:, None, :]
    out = reach // stride
    fit = np.all((reach % stride == 0) & (out >= 0) & (out < out_dims), axis=2)
    key = (out[..., 0] * out_dims[1] + out[..., 1]) * out_dims[2] + out[..., 2]
    offset_idx, in_rows = np.nonzero(fit)
    active, out_rows = np.unique(key[fit], return_inverse=True)
    rules = [(in_rows[offset_idx == d], out_rows[offset_idx == d]) for d in range(k ** 3)]
    out_coords = np.stack(np.unravel_index(active, out_dims), axis=1).astype(np.int64)
    return out_coords, rules


def voxelize_per_voxel(points, range_min, range_max, voxel_size, dims, max_points, seed):
    """Voxelization with one Python iteration per voxel.

    Returns (blocks, valid_counts, coords). Points are ordered by a stable
    np.argsort of their flat voxel index, so each voxel's rows keep their
    input order. Overfull voxels draw their kept points with rng.choice in
    ascending flat-index order.
    """
    lo = np.asarray(range_min, dtype=float)
    hi = np.asarray(range_max, dtype=float)
    size = np.asarray(voxel_size, dtype=float)
    dims = np.asarray(dims, dtype=np.int64)
    idx = np.floor((points - lo) / size).astype(np.int64)
    keep = (np.all(points >= lo, axis=1) & np.all(points < hi, axis=1)
            & np.all(idx >= 0, axis=1) & np.all(idx < dims, axis=1))
    pts, idx = points[keep], idx[keep]
    flat = (idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2]
    order = np.argsort(flat, kind="stable")
    uniq, starts, counts = np.unique(flat[order], return_index=True, return_counts=True)
    rng = np.random.default_rng(seed)
    blocks = np.zeros((uniq.shape[0], max_points, 3))
    for v in range(uniq.shape[0]):
        rows = order[starts[v]:starts[v] + counts[v]]
        if counts[v] > max_points:
            rows = rows[np.sort(rng.choice(counts[v], size=max_points, replace=False))]
        blocks[v, :rows.shape[0]] = pts[rows]
    coords = np.stack([uniq // (dims[1] * dims[2]), (uniq // dims[2]) % dims[1],
                       uniq % dims[2]], axis=1)
    return blocks, np.minimum(counts, max_points), coords


def brute_force_mining(descriptors, positive_mask, negative_mask):
    """Per-anchor hardest positive / negative by exhaustive pair search."""
    n = descriptors.shape[0]
    pos_idx = np.full(n, -1)
    neg_idx = np.full(n, -1)
    for a in range(n):
        best_pos, best_pos_d = -1, -np.inf
        best_neg, best_neg_d = -1, np.inf
        for b in range(n):
            if a == b:
                continue
            diff = descriptors[a] - descriptors[b]
            d = float(np.sqrt((diff ** 2).sum()))
            if positive_mask[a, b] and d > best_pos_d:
                best_pos, best_pos_d = b, d
            if negative_mask[a, b] and d < best_neg_d:
                best_neg, best_neg_d = b, d
        pos_idx[a] = best_pos
        neg_idx[a] = best_neg
    return pos_idx, neg_idx


def brute_force_knn(db, ids, query, k):
    """Exact k nearest neighbors by L2 distance, ties resolved by lowest id."""
    dists = np.sqrt(((db - query) ** 2).sum(axis=1))
    order = sorted(range(db.shape[0]), key=lambda i: (dists[i], ids[i]))
    sel = order[:k]
    return np.asarray([ids[i] for i in sel]), dists[sel]


def brute_force_recall_at_k(query_desc, query_pos, db_desc, db_pos, db_ids,
                            radius, k):
    """Fraction of valid queries with an in-radius entry in their top-k."""
    hits = 0
    valid = 0
    for q in range(query_desc.shape[0]):
        gt = np.sqrt(((db_pos - query_pos[q]) ** 2).sum(axis=1)) <= radius
        if not gt.any():
            continue
        valid += 1
        top_ids, _ = brute_force_knn(db_desc, db_ids, query_desc[q], k)
        id_to_row = {int(i): r for r, i in enumerate(db_ids)}
        if any(gt[id_to_row[int(i)]] for i in top_ids):
            hits += 1
    if valid == 0:
        return None
    return hits / valid


def write_descriptors_per_record(path, ids, descriptors):
    """VXPD writer with one struct call per record: magic, version u16,
    dim u32, count u32, then (id u64, dim f32) per record."""
    payload = np.asarray(descriptors).astype("<f4")
    count, dim = payload.shape
    out = bytearray(b"VXPD")
    out += struct.pack("<HII", 1, dim, count)
    for i in range(count):
        out += struct.pack("<Q", int(ids[i]))
        out += payload[i].tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def patch_indices_3x3_s2(height, width):
    """Flat indices of 3x3 stride-2 patches, 9 consecutive rows per output
    pixel; out-of-bounds cells point at the zero pad row (height*width).

    Output dims are exactly (height//2, width//2): centers sit at even
    pixels, and for odd extents the trailing row/column is cropped.
    """
    oh, ow = height // 2, width // 2
    pad = height * width
    oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    rows = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            iy = 2 * oy + dy
            ix = 2 * ox + dx
            inside = (iy >= 0) & (iy < height) & (ix >= 0) & (ix < width)
            rows.append(np.where(inside, iy * width + ix, pad))
    return np.stack(rows, axis=-1).reshape(-1)


def patches_by_gather(values, batch, height, width):
    """3x3 stride-2 patches of (batch*height*width, c) rows by a row gather
    from a matrix with one appended zero pad row.

    Returns the (batch*oh*ow, 9*c) patches and a function taking their
    gradient to the input's: a float64 bincount scatter-add over the same
    gather indices, with the pad row's share dropped.
    """
    n, c = values.shape
    idx = patch_indices_3x3_s2(height, width)
    per_img = height * width
    # per-image offset, except pad cells which map to the shared pad row
    all_idx = np.where(idx[None, :] == per_img, n,
                       idx[None, :] + (np.arange(batch) * per_img)[:, None]).reshape(-1)
    padded = np.vstack([values, np.zeros((1, c), dtype=values.dtype)])
    patches = padded[all_idx].reshape(-1, 9 * c)

    def backward(grad):
        flat = (all_idx[:, None] * c + np.arange(c)).ravel()
        summed = np.bincount(flat, weights=grad.reshape(-1), minlength=(n + 1) * c)
        return summed.reshape(n + 1, c)[:n]

    return patches, backward


def sparse_conv3d(feature_map, layer):
    """Standard sparse 3D convolution over the active set: plan, then apply."""
    plan = sparse3d.plan_sparse_conv(feature_map.coords, feature_map.grid_dims,
                                     layer.kernel_size, layer.stride)
    return sparse3d.apply_sparse_conv(feature_map, layer, plan)


def segment_max_reduceat(a, segment_ids, num_segments):
    """Per-segment column-wise max by np.maximum.reduceat, as an autodiff op.

    The gradient goes to the lowest-index maximal row per segment and
    column, found by a np.minimum.reduceat over an (n, d) row-index array.
    """
    seg = np.asarray(segment_ids, dtype=np.intp)
    av = a.values
    starts = np.searchsorted(seg, np.arange(num_segments))
    out = np.maximum.reduceat(av, starts, axis=0)

    def grad_fn(g):
        eq = av == out[seg]
        rows = np.where(eq, np.arange(av.shape[0])[:, None], av.shape[0])
        winner = np.minimum.reduceat(rows, starts, axis=0)
        buf = np.zeros_like(av)
        buf[winner, np.arange(av.shape[1])] = g
        return (buf,)

    return ad._finish(out, (a,), grad_fn)


def l2norm(a):
    """Euclidean norm of all elements as an autodiff op; subgradient 0 at
    the origin. The gradient tests reduce a tensor to a scalar with it."""
    n = float(np.sqrt(np.sum(a.values ** 2)))
    av = a.values
    denom = n if n > 0.0 else 1.0
    return ad._finish(np.asarray(n, dtype=av.dtype), (a,), lambda g: (g * av / denom,))


def smooth_l1_composed(x, beta):
    """Elementwise smooth-L1 from six recorded ops: |x| (gradient sign(x)),
    0.5 x * x / beta and |x| - beta / 2, each branch multiplied by a constant
    0/1 mask of its region and the two products added."""
    sign = np.sign(x.values)
    absx = ad._finish(np.abs(x.values), (x,), lambda g: (g * sign,))
    quad_region = (absx.values < beta).astype(absx.values.dtype)
    quad = ad.smul(ad.mul(x, x), 0.5 / beta)
    lin = ad.add_scalar(absx, -0.5 * beta)
    return ad.add(ad.mul(quad, ad.Tensor(quad_region)),
                  ad.mul(lin, ad.Tensor(1.0 - quad_region)))


def segment_sum_reduceat(a, segment_ids, num_segments):
    """Per-segment column-wise sum by np.add.reduceat; the gradient is the
    segment's output gradient, read by fancy indexing."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    starts = np.searchsorted(seg, np.arange(num_segments))
    out = np.add.reduceat(a.values, starts, axis=0)
    return ad._finish(out, (a,), lambda g: (g[seg],))


def gather_rows_fancy(a, idx):
    """Rows of a by fancy indexing; the gradient is the library's row
    scatter-add, which sums repeats."""
    idx = np.asarray(idx, dtype=np.intp)
    n = a.shape[0]
    return ad._finish(a.values[idx], (a,), lambda g: (ad._scatter_add_rows(g, idx, n),))


def rulebook_matmul_fancy(a, kernel, rules, num_rows):
    """Sum over offsets d of a[in_d] @ W_d added into rows out_d, with fancy
    indexing and indexed += in the forward and both gradients."""
    av, kv = a.values, kernel.values
    c_in = av.shape[1]
    blocks = [kv[d * c_in:(d + 1) * c_in] for d in range(len(rules))]
    out = np.zeros((num_rows, kv.shape[1]), dtype=av.dtype)
    for (i, o), w in zip(rules, blocks):
        out[o] += av[i] @ w

    def grad_fn(g):
        ga = np.zeros_like(av)
        gk = np.empty_like(kv)
        for d, ((i, o), w) in enumerate(zip(rules, blocks)):
            go = g[o]
            ga[i] += go @ w.T
            gk[d * c_in:(d + 1) * c_in] = av[i].T @ go
        return ga, gk

    return ad._finish(out, (a, kernel), grad_fn)


def fc_rounding_bound(pooled, fc_w, fc_b):
    """Elementwise bound on how far two floating-point evaluations of
    pooled @ fc_w + fc_b (numpy arrays, in pooled's dtype) can differ,
    whatever their summation orders: each is a sum of F + 1 terms, so it lies
    within gamma_{F+1} (|pooled| @ |fc_w| + |fc_b|) of the exact value, with
    gamma_n = n u / (1 - n u) and u half the machine epsilon (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., section 3.1).
    The bound is worked out in float64."""
    n_u = (fc_w.shape[0] + 1) * np.finfo(pooled.dtype).eps / 2
    magnitude = np.abs(pooled.astype(np.float64)) @ np.abs(fc_w.astype(np.float64))
    return 2 * n_u / (1 - n_u) * (magnitude + np.abs(fc_b.astype(np.float64)))
