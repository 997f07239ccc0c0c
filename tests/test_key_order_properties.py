"""Voxel grids and conv plans equal, order for order, the stable-argsort
and np.nonzero + np.unique references they replaced."""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import plan_nonzero_unique, voxelize_per_voxel
from vxp import geometry as geo
from vxp import sparse3d as s3

SETTINGS = settings(max_examples=150, deadline=None, database=None)

dims3 = st.tuples(*[st.integers(1, 9)] * 3)


@st.composite
def occupancies(draw):
    """Grid dims and distinct occupied coords, in any order."""
    dims = draw(dims3)
    cells = int(np.prod(dims))
    flat = draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=min(cells, 80),
                         unique=True))
    return np.stack(np.unravel_index(flat, dims), axis=1).astype(np.int64), dims


@seed(16)
@SETTINGS
@given(occupancy=occupancies(), kernel_size=st.sampled_from([1, 3, 5]),
       stride=st.sampled_from([1, 2, 3]))
def test_plan_matches_nonzero_unique_reference(occupancy, kernel_size, stride):
    coords, dims = occupancy
    plan = s3.plan_sparse_conv(coords, dims, kernel_size, stride)
    out_coords, rules = plan_nonzero_unique(coords, dims, kernel_size, stride)
    assert plan.out_coords.dtype == np.int64
    assert np.array_equal(plan.out_coords, out_coords)
    assert len(plan.rules) == len(rules)
    for (in_rows, out_rows), (want_in, want_out) in zip(plan.rules, rules):
        assert in_rows.dtype == out_rows.dtype == np.intp
        assert np.array_equal(in_rows, want_in)
        assert np.array_equal(out_rows, want_out)


@st.composite
def clouds(draw):
    """A small grid and a cloud piling 1-12 points into each of a few voxels
    (so some voxels overflow max_points), plus points outside the box and on
    its faces, shuffled."""
    dims = draw(dims3)
    size = draw(st.sampled_from([0.25, 0.4, 1.0]))
    lo = draw(st.sampled_from([(0.0, 0.0, 0.0), (-1.0, -0.3, 0.7)]))
    hi = tuple(a + d * size for a, d in zip(lo, dims))
    config = geo.VoxelGridConfig(lo, hi, (size,) * 3, draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = np.stack(np.unravel_index(rng.integers(0, np.prod(config.grid_dims),
                                                   size=draw(st.integers(1, 6))),
                                      config.grid_dims), axis=1)
    piles = [cell + rng.uniform(0.0, 1.0, size=(draw(st.integers(1, 12)), 3)) for cell in cells]
    pts = np.asarray(lo) + np.concatenate(piles) * size
    edges = rng.choice(np.array([lo, hi]), size=draw(st.integers(0, 4)))  # on a face
    stray = np.asarray(lo) + rng.uniform(-2.0, 2.0, size=(draw(st.integers(0, 6)), 3)) * hi
    pts = rng.permutation(np.concatenate([pts, edges.reshape(-1, 3), stray]))
    return geo.PointCloud(pts), config


@seed(16)
@SETTINGS
@given(sample=clouds(), voxel_seed=st.integers(0, 2 ** 32 - 1))
def test_voxelize_matches_stable_argsort_reference(sample, voxel_seed):
    cloud, cfg = sample
    grid = geo.voxelize(cloud, cfg, seed=voxel_seed)
    blocks, counts, coords = voxelize_per_voxel(
        cloud.points, cfg.range_min, cfg.range_max, cfg.voxel_size, cfg.grid_dims,
        cfg.max_points_per_voxel, voxel_seed)
    kept = np.concatenate([blocks[v, :c] for v, c in enumerate(counts)])
    assert np.array_equal(grid.points, kept)
    assert np.array_equal(grid.valid_counts, counts)
    assert np.array_equal(grid.coords, coords)
    assert grid.valid_counts.dtype == grid.coords.dtype == np.int64
