"""Voxel feature encoding and sparse 3D convolution.

The encoder turns a VoxelGrid into per-voxel descriptors: a per-point
linear + ReLU over its flat voxel-sorted points, max-pooled over each
voxel's run of rows. A stack of standard (non-submanifold) sparse
convolutions then coarsens the grid; with the default two stride-2 layers
the 110^3 input grid becomes 55^3 then 28^3.

Sparse convolution semantics match a dense convolution with zero padding
(k-1)//2 and output dims ceil(in/stride), restricted to output sites whose
receptive field touches at least one non-empty input. Coordinate planning is
separated from the numeric pass so per-sample plans can be reused across
training steps (active sites depend only on occupancy, never on weights).
A plan is a rulebook: for each of the k^3 kernel offsets, the (input row,
output row) pairs that exist, found from the input side without looking up
any coordinate. The numeric pass multiplies only those pairs, one matmul per
offset, so empty neighbours cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ChannelMismatch, EmptyGrid, TooLarge
from .geometry import VoxelGrid, stable_key_order

# sparse_to_dense refuses to allocate more than this many float64 values
DENSE_CELL_CAP = 64_000_000


@dataclass
class SparseFeatureMap:
    """Sparse 3D feature map: unique integer coords with one descriptor each.

    effective_voxel_size is the input voxel size multiplied by the strides
    applied so far; together with range_min it places coarse voxel centers
    back into the sensor frame for projection.
    """

    coords: np.ndarray  # (T, 3) int64, unique, 0 <= c < grid_dims
    feats: Tensor       # (T, D)
    grid_dims: tuple[int, int, int]
    effective_voxel_size: tuple[float, float, float]
    range_min: tuple[float, float, float]

    @property
    def num_voxels(self) -> int:
        return self.coords.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.feats.shape[1]


@dataclass
class VFEParams:
    """Per-point encoder weights: 3 -> dim."""

    w1: Tensor  # (3, dim)
    b1: Tensor  # (dim,)

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    def named(self, prefix: str = "vfe") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.w1", self.w1
        yield f"{prefix}.b1", self.b1


def init_vfe_params(dim: int, rng: np.random.Generator) -> VFEParams:
    w1 = rng.normal(0.0, np.sqrt(2.0 / 3), size=(3, dim))
    return VFEParams(w1=Tensor(w1, requires_grad=True),
                     b1=Tensor(np.zeros(dim), requires_grad=True))


def vfe_encode(grid: VoxelGrid, params: VFEParams) -> SparseFeatureMap:
    """Encode each voxel's kept points into one descriptor.

    The voxel-sorted points go through the linear layer as one matrix, and
    each voxel's run of rows is max-pooled.
    """
    t = grid.num_voxels
    if t == 0:
        raise EmptyGrid("voxel grid has no voxels")

    seg_ids = np.repeat(np.arange(t), grid.valid_counts)
    h = ad.linear_relu(Tensor(grid.points), params.w1, params.b1)
    pooled = ad.segment_max(h, seg_ids, t)

    cfg = grid.config
    return SparseFeatureMap(
        coords=grid.coords.copy(),
        feats=pooled,
        grid_dims=cfg.grid_dims,
        effective_voxel_size=cfg.voxel_size,
        range_min=cfg.range_min,
    )


@dataclass
class SparseConvLayer:
    kernel: Tensor  # (k^3 * c_in, c_out), offset-major rows
    bias: Tensor    # (c_out,)
    kernel_size: int
    stride: int

    def __post_init__(self):
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel size must be odd")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        k3 = self.kernel_size ** 3
        if self.kernel.shape[0] % k3 != 0:
            raise ValueError("kernel row count must be k^3 * c_in")

    @property
    def c_in(self) -> int:
        return self.kernel.shape[0] // self.kernel_size ** 3

    @property
    def c_out(self) -> int:
        return self.kernel.shape[1]


def init_conv_layer(c_in: int, c_out: int, kernel_size: int, stride: int,
                    rng: np.random.Generator) -> SparseConvLayer:
    fan_in = kernel_size ** 3 * c_in
    kernel = Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, c_out)),
                    requires_grad=True)
    bias = Tensor(np.zeros(c_out), requires_grad=True)
    return SparseConvLayer(kernel=kernel, bias=bias,
                           kernel_size=kernel_size, stride=stride)


@dataclass
class ConvPlan:
    """Reusable coordinate routing for one layer applied to one active set.

    rules[d] = (in_rows, out_rows) lists every pair in which input row
    in_rows[j] feeds output row out_rows[j] through kernel offset d
    (offset-major, d = (dx * k + dy) * k + dz). Within one offset each input
    row and each output row appears at most once; empty neighbours have no
    pair at all.
    """

    out_coords: np.ndarray
    out_dims: tuple[int, int, int]
    rules: list[tuple[np.ndarray, np.ndarray]]


def plan_sparse_conv(in_coords: np.ndarray, in_dims, kernel_size: int,
                     stride: int) -> ConvPlan:
    """Determine active output sites and the per-offset rulebook.

    Planned from the input side: input site i feeds output site o through
    kernel offset d when i = o*stride + d - pad on every axis. An output site
    is active when at least one such pair exists, which is exactly the
    dense-conv receptive-field criterion. No input coordinate is looked up.

    Order: output rows are numbered by ascending flat output key, and within
    each offset in_rows ascend. The pairs' output keys are ordered with
    geometry.stable_key_order, so the output grid's cell count times the
    number of pairs must stay below 2**63 (TooLarge otherwise).
    """
    in_coords = np.asarray(in_coords, dtype=np.int64)
    k, pad = kernel_size, (kernel_size - 1) // 2
    out_dims = tuple(int(-(-int(d) // stride)) for d in in_dims)
    place = (out_dims[1] * out_dims[2], out_dims[2], 1)

    # per axis, the output coordinate each input reaches through each tap;
    # broadcasting the three axes gives (k, k, k, T) fits and flat output keys
    fit, key = True, 0
    for axis in range(3):
        reach = in_coords[:, axis] + pad - np.arange(k)[:, None]  # (k, T)
        o = reach // stride
        shape = [1, 1, 1, -1]
        shape[axis] = k
        fit = fit & ((o * stride == reach) & (o >= 0) & (o < out_dims[axis])).reshape(shape)
        key = key + (o * place[axis]).reshape(shape)

    # pairs in offset-major order, so in_rows ascend within each offset
    pairs = np.flatnonzero(fit)
    offset_idx, in_rows = np.divmod(pairs, in_coords.shape[0])
    order, sorted_keys = stable_key_order(
        key.ravel()[pairs], math.prod(out_dims),
        f"conv plan from grid {tuple(map(int, in_dims))} to {out_dims}")
    # output rows count the distinct keys, in ascending key order
    run_start = np.empty(sorted_keys.shape[0], dtype=bool)
    run_start[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_start[1:])
    out_rows = np.empty_like(order)
    out_rows[order] = np.cumsum(run_start) - 1
    active_flat = sorted_keys[run_start]
    bounds = np.searchsorted(offset_idx, np.arange(k ** 3 + 1))
    rules = [(in_rows[a:b], out_rows[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    out_coords = np.stack(np.unravel_index(active_flat, out_dims), axis=1).astype(np.int64)
    return ConvPlan(out_coords=out_coords, out_dims=out_dims, rules=rules)


def apply_sparse_conv(feature_map: SparseFeatureMap, layer: SparseConvLayer,
                      plan: ConvPlan) -> SparseFeatureMap:
    """Numeric pass of a planned sparse convolution.

    Each kernel offset multiplies only the input rows its rulebook lists and
    adds the products into the output rows it lists, so no empty neighbour
    is ever multiplied.
    """
    c_in = feature_map.feature_dim
    if c_in != layer.c_in:
        raise ChannelMismatch(f"layer expects {layer.c_in} channels, map has {c_in}")
    t_out = plan.out_coords.shape[0]
    out_feats = ad.add_rowvec(
        ad.rulebook_matmul(feature_map.feats, layer.kernel, plan.rules, t_out),
        layer.bias)
    return SparseFeatureMap(
        coords=plan.out_coords,
        feats=out_feats,
        grid_dims=plan.out_dims,
        effective_voxel_size=_strided_voxel_size(feature_map.effective_voxel_size,
                                                 layer.stride),
        range_min=feature_map.range_min,
    )


def _strided_voxel_size(voxel_size, stride: int) -> tuple[float, float, float]:
    """Voxel size of a conv's output sites: the input size times the stride."""
    return tuple(float(s) * stride for s in voxel_size)


def sparse_to_dense(feature_map: SparseFeatureMap) -> np.ndarray:
    """Densify to a (X, Y, Z, D) array of feature values; zeros elsewhere."""
    dims = feature_map.grid_dims
    cells = int(np.prod(dims)) * feature_map.feature_dim
    if cells > DENSE_CELL_CAP:
        raise TooLarge(f"dense tensor would hold {cells} values")
    dense = np.zeros((*dims, feature_map.feature_dim))
    c = feature_map.coords
    dense[c[:, 0], c[:, 1], c[:, 2]] = feature_map.feats.values
    return dense


@dataclass
class BackboneParams:
    """VFE followed by a conv stack; ReLU after every convolution."""

    vfe: VFEParams
    layers: list[SparseConvLayer]

    def named(self, prefix: str = "backbone") -> Iterator[tuple[str, Tensor]]:
        yield from self.vfe.named(f"{prefix}.vfe")
        for i, layer in enumerate(self.layers):
            yield f"{prefix}.conv{i}.kernel", layer.kernel
            yield f"{prefix}.conv{i}.bias", layer.bias


def init_backbone_params(rng: np.random.Generator, vfe_dim: int = 32,
                         feature_dim: int = 64,
                         channels: tuple[int, ...] | None = None) -> BackboneParams:
    """Default stack: two kernel-3 stride-2 layers, so 110^3 -> 55^3 -> 28^3."""
    if channels is None:
        channels = (feature_dim, feature_dim)
    vfe = init_vfe_params(vfe_dim, rng)
    layers = []
    c_prev = vfe_dim
    for c_out in channels:
        layers.append(init_conv_layer(c_prev, c_out, kernel_size=3, stride=2, rng=rng))
        c_prev = c_out
    return BackboneParams(vfe=vfe, layers=layers)


@dataclass
class BackbonePlans:
    """Per-sample conv routing, reusable while the input occupancy is fixed.

    out_coords, out_dims and out_voxel_size place the backbone's output
    sites, so they can be projected before any feature is computed.
    """

    plans: list[ConvPlan]
    out_coords: np.ndarray  # (T_out, 3) int64
    out_dims: tuple[int, int, int]
    out_voxel_size: tuple[float, float, float]


def plan_backbone(grid: VoxelGrid, params: BackboneParams) -> BackbonePlans:
    coords, dims, size = grid.coords, grid.config.grid_dims, grid.config.voxel_size
    plans = []
    for layer in params.layers:
        plan = plan_sparse_conv(coords, dims, layer.kernel_size, layer.stride)
        plans.append(plan)
        coords, dims = plan.out_coords, plan.out_dims
        size = _strided_voxel_size(size, layer.stride)
    return BackbonePlans(plans=plans, out_coords=coords, out_dims=dims,
                         out_voxel_size=tuple(size))


def point_cloud_backbone(grid: VoxelGrid, params: BackboneParams,
                         plans: BackbonePlans | None = None) -> SparseFeatureMap:
    """Full voxel branch: VFE then the sparse conv stack with ReLUs."""
    fmap = vfe_encode(grid, params.vfe)
    if plans is None:
        plans = plan_backbone(grid, params)
    for layer, plan in zip(params.layers, plans.plans):
        fmap = apply_sparse_conv(fmap, layer, plan)
        fmap.feats = ad.relu(fmap.feats)
    return fmap
