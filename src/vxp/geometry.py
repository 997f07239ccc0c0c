"""Point cloud voxelization and voxel-to-pixel projection.

Coordinate frames: raw points live in the sensor (LiDAR) frame {P}; voxel
coordinates live in the grid frame {V}; projection maps voxel centers
{V} -> {P} -> camera frame {C} -> pixel indices on a feature map whose
intrinsics are the normalized intrinsics scaled by the feature-map size.

Voxel intervals are half-open [min, max) per axis, so boundary points are
assigned unambiguously. Voxels holding more than the configured maximum
keep a seeded uniform subsample (not first-come) to avoid acquisition-order
bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import AllPointsCulled, EmptyCloud, NonFinite, NoVisibleVoxels

# tolerance absorbing float rounding in (max-min)/size when the ratio is an
# exact integer (44/0.4 evaluates to 110.00000000000001)
_DIM_EPS = 1e-9


@dataclass(frozen=True)
class VoxelGridConfig:
    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]
    voxel_size: tuple[float, float, float]
    max_points_per_voxel: int
    grid_dims: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        lo, hi, size = map(np.asarray, (self.range_min, self.range_max, self.voxel_size))
        if not np.all(hi > lo):
            raise ValueError("range_max must exceed range_min on every axis")
        if not np.all(size > 0.0):
            raise ValueError("voxel_size must be positive")
        if self.max_points_per_voxel < 1:
            raise ValueError("max_points_per_voxel must be >= 1")
        dims = tuple(int(math.ceil(s - _DIM_EPS)) for s in (hi - lo) / size)
        object.__setattr__(self, "grid_dims", dims)


def default_grid_config(max_points_per_voxel: int = constants.MAX_POINTS_PER_VOXEL) -> VoxelGridConfig:
    """The standard crop box / voxel size, giving a (110, 110, 110) grid."""
    return VoxelGridConfig(
        range_min=constants.VOXEL_RANGE_MIN,
        range_max=constants.VOXEL_RANGE_MAX,
        voxel_size=constants.VOXEL_SIZE,
        max_points_per_voxel=max_points_per_voxel,
    )


@dataclass
class PointCloud:
    points: np.ndarray  # (N, 3) float64, meters, sensor frame {P}
    sample_id: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {self.points.shape}")


@dataclass
class VoxelGrid:
    """Non-empty voxels: their kept points, sorted by voxel, plus grid coords.

    Voxel v owns rows starts[v] : starts[v] + valid_counts[v] of points, with
    starts the exclusive cumulative sum of valid_counts, in input order (for
    an overfull voxel, the order of its drawn subset).
    """

    points: np.ndarray        # (N_kept, 3) float64, voxel-sorted
    valid_counts: np.ndarray  # (T,) int64, 1 <= count <= M, summing to N_kept
    coords: np.ndarray        # (T, 3) int64, unique, within grid dims
    config: VoxelGridConfig

    @property
    def num_voxels(self) -> int:
        return self.coords.shape[0]


def voxelize(cloud: PointCloud, config: VoxelGridConfig, seed: int) -> VoxelGrid:
    """Assign in-range points to voxels; subsample overfull voxels.

    Points inside the half-open box [range_min, range_max) go to the voxel
    floor((p - min) / size); everything else is discarded. Voxels are in
    ascending flat-index order. Deterministic given (cloud, config, seed).
    A non-finite coordinate raises NonFinite naming its point.
    """
    pts = cloud.points
    if pts.shape[0] == 0:
        raise EmptyCloud("point cloud has no points")
    finite = np.isfinite(pts)
    if not finite.all():
        point = int(np.argmin(finite.all(axis=1)))
        raise NonFinite(f"cloud {cloud.sample_id!r}: point {point} is not finite")
    lo = np.asarray(config.range_min)
    hi = np.asarray(config.range_max)
    size = np.asarray(config.voxel_size)
    dims = np.asarray(config.grid_dims)

    idx = np.floor((pts - lo) / size).astype(np.int64)
    # pts >= lo already gives idx >= 0; idx < dims guards rounding at hi
    keep = np.all(pts >= lo, axis=1) & np.all(pts < hi, axis=1) & np.all(idx < dims, axis=1)
    if not keep.any():
        raise AllPointsCulled("no point inside the configured range")
    pts = pts[keep]
    idx = idx[keep]

    flat = (idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2]
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    # voxel runs of the sorted keys
    starts = np.flatnonzero(np.r_[True, flat_sorted[1:] != flat_sorted[:-1]])
    counts = np.diff(np.r_[starts, flat_sorted.shape[0]])
    uniq = flat_sorted[starts]

    m = config.max_points_per_voxel
    rng = np.random.default_rng(seed)
    taken = np.ones(order.shape[0], dtype=bool)
    # overfull voxels draw a subset, in ascending voxel order
    for v in np.flatnonzero(counts > m):
        pick = np.sort(rng.choice(counts[v], size=m, replace=False))
        taken[starts[v]:starts[v] + counts[v]] = False
        taken[starts[v] + pick] = True

    coords = np.stack(np.unravel_index(uniq, config.grid_dims), axis=1).astype(np.int64)
    return VoxelGrid(points=pts[order[taken]], valid_counts=np.minimum(counts, m),
                     coords=coords, config=config)


def voxel_center_to_lidar(coords: np.ndarray, voxel_size, range_min) -> np.ndarray:
    """Voxel center(s) in the sensor frame: diag(size) @ c + size/2 + min."""
    coords = np.asarray(coords, dtype=np.float64)
    single = coords.ndim == 1
    size = np.asarray(voxel_size, dtype=np.float64)
    lo = np.asarray(range_min, dtype=np.float64)
    centers = np.atleast_2d(coords) * size + size / 2.0 + lo
    return centers[0] if single else centers


@dataclass
class ProjectionModel:
    """Normalized pinhole intrinsics + rigid sensor-to-camera extrinsic."""

    fx_n: float
    fy_n: float
    cx_n: float
    cy_n: float
    extrinsic: np.ndarray  # (4, 4), maps {P} homogeneous coords into {C}

    def __post_init__(self):
        self.extrinsic = np.asarray(self.extrinsic, dtype=np.float64)
        if self.extrinsic.shape != (4, 4):
            raise ValueError("extrinsic must be 4x4")
        if self.fx_n <= 0.0 or self.fy_n <= 0.0:
            raise ValueError("normalized focal lengths must be positive")
        rot = self.extrinsic[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
            raise ValueError("extrinsic rotation block is not orthonormal")

    def intrinsics_for(self, width: int, height: int) -> tuple[float, float, float, float]:
        """(fx, fy, cx, cy) in pixels of a width x height feature map."""
        return (self.fx_n * width, self.fy_n * height,
                self.cx_n * width, self.cy_n * height)


@dataclass
class ProjectedFeatureMap:
    """Voxels landed on a feature-map pixel grid, with collision bookkeeping.

    Parallel arrays describe one projected entry each; entries sharing a
    pixel form a collision set. All depths are strictly positive.
    """

    width: int
    height: int
    pixel_u: np.ndarray       # (K,) int64, 0 <= u < width
    pixel_v: np.ndarray       # (K,) int64, 0 <= v < height
    voxel_index: np.ndarray   # (K,) int64, row of the projected coords
    depth: np.ndarray         # (K,) float64, meters
    inverse_depth: np.ndarray  # (K,) float64, 1/depth
    u_continuous: np.ndarray | None = None  # pre-floor pixel coordinates
    v_continuous: np.ndarray | None = None

    @property
    def num_entries(self) -> int:
        return self.pixel_u.shape[0]

    def pixel_flat(self) -> np.ndarray:
        """Row-major flat pixel index per entry."""
        return self.pixel_v * self.width + self.pixel_u


def pinhole(points: np.ndarray, proj: ProjectionModel, width: int, height: int
            ) -> tuple[np.ndarray, ...]:
    """(u, v, u_continuous, v_continuous, depth, visible) of (N, 3) sensor-frame
    points on a width x height pixel grid: u, v are the floored int64 pixels;
    visible is depth > 0 with the pixel on the grid."""
    rot = proj.extrinsic[:3, :3]
    trans = proj.extrinsic[:3, 3]
    cam = points @ rot.T + trans
    depth = cam[:, 2]
    visible = depth > 0.0
    fx, fy, cx, cy = proj.intrinsics_for(width, height)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_cont = fx * cam[:, 0] / depth + cx
        v_cont = fy * cam[:, 1] / depth + cy
        u = np.floor(u_cont).astype(np.int64)
        v = np.floor(v_cont).astype(np.int64)
    visible &= (u >= 0) & (u < width) & (v >= 0) & (v < height)
    return u, v, u_cont, v_cont, depth, visible


def project_voxels(coords: np.ndarray, voxel_size, range_min, proj: ProjectionModel,
                   feat_dims: tuple[int, int]) -> ProjectedFeatureMap:
    """Perspective-project voxel centers onto a feature grid.

    coords are (T, 3) grid indices of voxels of edge voxel_size (the coarse,
    strided size for a backbone's output) whose grid starts at range_min.
    Their centers go through pinhole on a feat_dims = (width, height) grid;
    every visible voxel is kept, including pixel collisions (no
    z-buffering). voxel_index refers to rows of coords.
    """
    width, height = int(feat_dims[0]), int(feat_dims[1])
    if width < 1 or height < 1:
        raise ValueError("feature map dims must be >= 1")
    centers = voxel_center_to_lidar(coords, voxel_size, range_min)
    u, v, u_cont, v_cont, depth, visible = pinhole(centers, proj, width, height)

    if not visible.any():
        raise NoVisibleVoxels("every voxel was culled during projection")
    sel = np.nonzero(visible)[0]
    return ProjectedFeatureMap(
        width=width, height=height,
        pixel_u=u[sel], pixel_v=v[sel],
        voxel_index=sel.astype(np.int64),
        depth=depth[sel], inverse_depth=1.0 / depth[sel],
        u_continuous=u_cont[sel], v_continuous=v_cont[sel],
    )


def orthographic_project(coords: np.ndarray, grid_dims, voxel_size,
                         feat_dims: tuple[int, int]) -> ProjectedFeatureMap:
    """Ablation variant: drop the forward grid axis instead of projecting.

    The lateral (axis 1) and vertical (axis 2) grid coordinates of the
    (T, 3) coords in a grid of grid_dims are linearly rescaled to the
    feature grid; pixels are independent of depth. Depth is recorded as the
    distance from the grid's near face, in units of voxel_size, so collision
    weights stay well-defined and positive.
    """
    width, height = int(feat_dims[0]), int(feat_dims[1])
    if width < 1 or height < 1:
        raise ValueError("feature map dims must be >= 1")
    if coords.shape[0] == 0:
        raise NoVisibleVoxels("no voxel to project")
    dims = np.asarray(grid_dims)
    u = np.floor(coords[:, 1] * (width / dims[1])).astype(np.int64)
    v = np.floor(coords[:, 2] * (height / dims[2])).astype(np.int64)
    depth = (coords[:, 0].astype(np.float64) + 0.5) * float(voxel_size[0])
    return ProjectedFeatureMap(
        width=width, height=height,
        pixel_u=u, pixel_v=v,
        voxel_index=np.arange(coords.shape[0], dtype=np.int64),
        depth=depth, inverse_depth=1.0 / depth,
    )
