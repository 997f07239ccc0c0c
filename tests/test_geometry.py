"""Voxelization and projection against hand values and the scalar oracle."""

import numpy as np
import pytest

from oracles import scalar_pinhole, voxelize_per_voxel
from vxp import geometry as geo
from vxp.errors import AllPointsCulled, EmptyCloud, NoVisibleVoxels


def identity_projection(fx=0.5, fy=0.5, cx=0.5, cy=0.5):
    return geo.ProjectionModel(fx_n=fx, fy_n=fy, cx_n=cx, cy_n=cy,
                               extrinsic=np.eye(4))


class TestVoxelGridConfig:
    def test_standard_grid_dims(self):
        cfg = geo.default_grid_config()
        assert cfg.grid_dims == (110, 110, 110)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            geo.VoxelGridConfig((0, 0, 0), (0, 1, 1), (0.1, 0.1, 0.1), 4)
        with pytest.raises(ValueError):
            geo.VoxelGridConfig((0, 0, 0), (1, 1, 1), (0.1, -0.1, 0.1), 4)


class TestVoxelize:
    def test_single_point_standard_config(self):
        cfg = geo.default_grid_config()
        grid = geo.voxelize(geo.PointCloud(np.array([[0.5, 0.0, 0.0]])), cfg, seed=0)
        assert grid.num_voxels == 1
        assert tuple(grid.coords[0]) == (1, 55, 20)

    def test_half_open_upper_boundary_discarded(self):
        cfg = geo.default_grid_config()
        cloud = geo.PointCloud(np.array([[44.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
        grid = geo.voxelize(cloud, cfg, seed=0)
        assert grid.valid_counts.sum() == 1

    def test_overflow_subsampled(self):
        cfg = geo.VoxelGridConfig((0, 0, 0), (1, 1, 1), (1, 1, 1), max_points_per_voxel=2)
        cloud = geo.PointCloud(np.array([[0.5, 0.5, 0.5]] * 3))
        grid = geo.voxelize(cloud, cfg, seed=0)
        assert grid.num_voxels == 1
        assert grid.valid_counts[0] == 2
        assert grid.points.shape == (2, 3)

    def test_empty_cloud_and_all_culled(self):
        cfg = geo.default_grid_config()
        with pytest.raises(EmptyCloud):
            geo.voxelize(geo.PointCloud(np.zeros((0, 3))), cfg, seed=0)
        with pytest.raises(AllPointsCulled):
            geo.voxelize(geo.PointCloud(np.array([[99.0, 99.0, 99.0]])), cfg, seed=0)

    def test_partition_against_per_point_oracle(self):
        cfg = geo.VoxelGridConfig((0, -2, -2), (4, 2, 2), (0.5, 0.5, 0.5),
                                  max_points_per_voxel=64)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 5, size=(500, 3))
        grid = geo.voxelize(geo.PointCloud(pts), cfg, seed=3)

        # oracle: per-point assignment
        expected = {}
        kept = 0
        for p in pts:
            if np.all(p >= cfg.range_min) and np.all(p < cfg.range_max):
                c = tuple(int(np.floor((p[i] - cfg.range_min[i]) / cfg.voxel_size[i]))
                          for i in range(3))
                expected.setdefault(c, []).append(p)
                kept += 1
        assert grid.valid_counts.sum() == kept
        assert grid.num_voxels == len(expected)
        starts = np.cumsum(grid.valid_counts) - grid.valid_counts
        for v in range(grid.num_voxels):
            c = tuple(grid.coords[v])
            got = grid.points[starts[v]:starts[v] + grid.valid_counts[v]]
            want = np.asarray(expected[c])
            assert sorted(map(tuple, got)) == sorted(map(tuple, want))

    @pytest.mark.parametrize("m", [1, 4, 32])
    def test_matches_per_voxel_loop(self, m):
        cfg = geo.VoxelGridConfig((0, -2, -2), (4, 2, 2), (0.5, 0.5, 0.5),
                                  max_points_per_voxel=m)
        for seed in range(9):
            rng = np.random.default_rng(seed)
            # dense clusters make overfull voxels at every m
            centers = rng.uniform(-0.5, 4.5, size=(6, 3)) - (0, 2, 2)
            pts = np.concatenate([c + rng.normal(0, 0.15, size=(200, 3)) for c in centers])
            grid = geo.voxelize(geo.PointCloud(pts), cfg, seed=seed)
            blocks, counts, coords = voxelize_per_voxel(
                pts, cfg.range_min, cfg.range_max, cfg.voxel_size, cfg.grid_dims, m, seed)
            inside = np.all((pts >= cfg.range_min) & (pts < cfg.range_max), axis=1)
            assert counts.sum() < inside.sum()  # some voxel was subsampled
            # the oracle's valid rows, voxel after voxel, in order
            kept = np.concatenate([blocks[v, :c] for v, c in enumerate(counts)])
            assert np.array_equal(grid.points, kept)
            assert np.array_equal(grid.valid_counts, counts)
            assert np.array_equal(grid.coords, coords)

    def test_deterministic_given_seed(self):
        cfg = geo.VoxelGridConfig((0, 0, 0), (1, 1, 1), (1, 1, 1), max_points_per_voxel=3)
        pts = np.random.default_rng(5).uniform(0, 1, size=(20, 3))
        a = geo.voxelize(geo.PointCloud(pts), cfg, seed=9)
        b = geo.voxelize(geo.PointCloud(pts), cfg, seed=9)
        assert np.array_equal(a.points, b.points)
        c = geo.voxelize(geo.PointCloud(pts), cfg, seed=10)
        assert not np.array_equal(a.points, c.points)


class TestVoxelCenter:
    def test_fine_grid_origin_cell(self):
        center = geo.voxel_center_to_lidar((0, 0, 0), (0.4, 0.4, 0.2), (0, -22, -4))
        assert np.allclose(center, (0.2, -21.8, -3.9))

    def test_coarse_grid_origin_cell(self):
        center = geo.voxel_center_to_lidar((0, 0, 0), (1.6, 1.6, 0.8), (0, -22, -4))
        assert np.allclose(center, (0.8, -21.2, -3.6))

    def test_round_trip_through_voxelize(self):
        cfg = geo.default_grid_config()
        rng = np.random.default_rng(2)
        coords = np.stack([rng.integers(0, d, size=1000) for d in cfg.grid_dims], axis=1)
        centers = geo.voxel_center_to_lidar(coords, cfg.voxel_size, cfg.range_min)
        grid = geo.voxelize(geo.PointCloud(centers), cfg, seed=0)
        expected = np.unique(coords, axis=0)
        assert np.array_equal(grid.coords, expected)


class TestProjectVoxels:
    def test_principal_axis_point(self):
        # one voxel whose center lands at camera-frame (0, 0, 10)
        proj = identity_projection()
        out = geo.project_voxels(np.array([[0, 0, 0]]), (1, 1, 20), (-0.5, -0.5, 0.0),
                                 proj, (28, 28))
        assert out.num_entries == 1
        assert (out.pixel_u[0], out.pixel_v[0]) == (14, 14)
        assert out.depth[0] == 10.0
        assert out.inverse_depth[0] == 0.1

    def test_behind_camera_culled(self):
        with pytest.raises(NoVisibleVoxels):
            geo.project_voxels(np.array([[0, 0, 0]]), (1, 1, 10), (-0.5, -0.5, -10.0),
                               identity_projection(), (28, 28))

    def test_collision_set_keeps_both_depths(self):
        out = geo.project_voxels(np.array([[0, 0, 0], [0, 0, 1]]), (1, 1, 5),
                                 (-0.5, -0.5, 2.5), identity_projection(), (4, 4))
        flat = out.pixel_flat()
        assert flat.shape == (2,) and flat[0] == flat[1]
        assert np.allclose(sorted(out.inverse_depth), [0.1, 0.2])
        assert sorted(out.voxel_index) == [0, 1]

    def test_matches_scalar_oracle_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            dims = rng.integers(2, 12, size=3)
            coords = np.unique(
                np.stack([rng.integers(0, d, size=30) for d in dims], axis=1), axis=0)
            eff = rng.uniform(0.2, 3.0, size=3)
            lo = rng.uniform(-10, 2, size=3)
            angle = rng.uniform(-0.4, 0.4)
            rot = np.array([[np.cos(angle), -np.sin(angle), 0],
                            [np.sin(angle), np.cos(angle), 0],
                            [0, 0, 1.0]])
            ext = np.eye(4)
            ext[:3, :3] = rot
            ext[:3, 3] = rng.uniform(-2, 2, size=3)
            proj = geo.ProjectionModel(
                fx_n=rng.uniform(0.3, 1.5), fy_n=rng.uniform(0.3, 1.5),
                cx_n=rng.uniform(0.3, 0.7), cy_n=rng.uniform(0.3, 0.7),
                extrinsic=ext)
            w, h = int(rng.integers(4, 40)), int(rng.integers(4, 40))
            try:
                out = geo.project_voxels(coords, eff, lo, proj, (w, h))
                visible = {int(i) for i in out.voxel_index}
            except NoVisibleVoxels:
                visible = set()

            entry_by_voxel = {int(v): e for e, v in enumerate(getattr(out, "voxel_index", []))} \
                if visible else {}
            for i, c in enumerate(coords):
                u, v, lam, vis = scalar_pinhole(
                    c, eff, lo, ext, proj.fx_n, proj.fy_n, proj.cx_n, proj.cy_n, w, h)
                assert vis == (i in visible)
                if vis:
                    e = entry_by_voxel[i]
                    assert out.depth[e] == lam
                    assert out.pixel_u[e] == np.floor(u)
                    assert out.pixel_v[e] == np.floor(v)

    def test_inverse_depths_positive(self):
        rng = np.random.default_rng(3)
        coords = np.unique(rng.integers(0, 6, size=(40, 3)), axis=0)
        out = geo.project_voxels(coords, (1, 1, 1), (-3, -3, 0.5),
                                 identity_projection(), (16, 16))
        assert np.all(out.inverse_depth > 0)


class TestOrthographicProject:
    def test_forward_axis_dropped(self):
        for k in (0, 5, 27):
            out = geo.orthographic_project(np.array([[k, 0, 0]]), (28, 28, 28),
                                           (1.6, 1.6, 0.8), (28, 28))
            assert (out.pixel_u[0], out.pixel_v[0]) == (0, 0)

    def test_extremal_coordinate(self):
        out = geo.orthographic_project(np.array([[3, 27, 27]]), (28, 28, 28),
                                       (1.6, 1.6, 0.8), (28, 28))
        assert (out.pixel_u[0], out.pixel_v[0]) == (27, 27)

    def test_pixels_invariant_to_forward_permutation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            coords = np.unique(rng.integers(0, 10, size=(30, 3)), axis=0)
            out = geo.orthographic_project(coords, (10, 10, 10), (1, 1, 1), (14, 7))
            permuted = coords.copy()
            permuted[:, 0] = (permuted[:, 0] + 3) % 10
            out2 = geo.orthographic_project(permuted, (10, 10, 10), (1, 1, 1), (14, 7))
            assert np.array_equal(out.pixel_u, out2.pixel_u)
            assert np.array_equal(out.pixel_v, out2.pixel_v)

    def test_depths_positive_for_bookkeeping(self):
        out = geo.orthographic_project(np.array([[0, 1, 1]]), (4, 4, 4), (1, 1, 1), (4, 4))
        assert np.all(out.depth > 0)


def test_effective_output_size_covers_range():
    # two stride-2 layers coarsen (0.4, 0.4, 0.2) to (1.6, 1.6, 0.8)
    eff = tuple(v * 4 for v in geo.default_grid_config().voxel_size)
    assert eff == (1.6, 1.6, 0.8)
    assert 28 * eff[0] >= 44.0
