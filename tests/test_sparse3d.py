"""VFE encoding and sparse convolution against the dense oracle."""

import numpy as np
import pytest

from oracles import (dense_conv3d, l2norm, occupied_pair_count, receptive_field_mask,
                     sparse_conv3d, voxelize_per_voxel)
from vxp import autodiff as ad
from vxp import sparse3d as s3
from vxp.autodiff import Tensor
from vxp.errors import ChannelMismatch, EmptyGrid, TooLarge
from vxp.geometry import PointCloud, VoxelGrid, VoxelGridConfig, default_grid_config, voxelize


def small_grid(points, lo=(0, 0, 0), hi=(4, 4, 4), size=(1, 1, 1), m=8):
    cfg = VoxelGridConfig(lo, hi, size, max_points_per_voxel=m)
    return voxelize(PointCloud(np.asarray(points, dtype=float)), cfg, seed=0)


def random_map(rng, dims, t, d):
    all_cells = np.stack(np.meshgrid(*[np.arange(x) for x in dims], indexing="ij"),
                         axis=-1).reshape(-1, 3)
    pick = rng.choice(all_cells.shape[0], size=min(t, all_cells.shape[0]), replace=False)
    coords = all_cells[np.sort(pick)].astype(np.int64)
    feats = Tensor(rng.normal(size=(coords.shape[0], d)))
    return s3.SparseFeatureMap(coords=coords, feats=feats, grid_dims=tuple(dims),
                               effective_voxel_size=(1.0, 1.0, 1.0),
                               range_min=(0.0, 0.0, 0.0))


class TestVfe:
    def test_singleton_voxel_equals_linear_relu(self):
        grid = small_grid([[0.3, 0.7, 0.2]])
        rng = np.random.default_rng(0)
        params = s3.init_vfe_params(5, rng)
        out = s3.vfe_encode(grid, params)
        expected = np.maximum(grid.points[0] @ params.w1.values + params.b1.values, 0.0)
        assert np.allclose(out.feats.values[0], expected)

    def test_permutation_invariance(self):
        pts = [[0.1, 0.2, 0.3], [0.8, 0.1, 0.9], [0.4, 0.6, 0.5]]
        rng = np.random.default_rng(1)
        params = s3.init_vfe_params(6, rng)
        a = s3.vfe_encode(small_grid(pts), params)
        b = s3.vfe_encode(small_grid(pts[::-1]), params)
        assert np.allclose(a.feats.values, b.feats.values)

    def test_hand_set_identity_weights(self):
        # identity rows into 2 channels, max over {(1,0,0),(0,2,0)} -> (1, 2)
        grid = small_grid([[1.0, 0.25, 0.25], [0.25, 2.0, 0.25]],
                          hi=(3, 3, 3), size=(3, 3, 3))
        w = np.zeros((3, 2))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        params = s3.VFEParams(w1=Tensor(w), b1=Tensor(np.zeros(2)))
        out = s3.vfe_encode(grid, params)
        assert np.allclose(out.feats.values, [[1.0, 2.0]])

    @pytest.mark.parametrize("m", [1, 4, 32])
    def test_matches_per_voxel_max_over_oracle_rows(self, m):
        # each voxel's feature is the max of relu(linear) over the oracle's
        # valid rows of that voxel, overfull voxels included
        cfg = VoxelGridConfig((0, -2, -2), (4, 2, 2), (0.5, 0.5, 0.5), m)
        rng = np.random.default_rng(m)
        centers = rng.uniform(-0.5, 4.5, size=(6, 3)) - (0, 2, 2)
        pts = np.concatenate([c + rng.normal(0, 0.15, size=(200, 3)) for c in centers])
        params = s3.init_vfe_params(8, rng)
        got = s3.vfe_encode(voxelize(PointCloud(pts), cfg, seed=m), params).feats.values
        blocks, counts, _ = voxelize_per_voxel(
            pts, cfg.range_min, cfg.range_max, cfg.voxel_size, cfg.grid_dims, m, m)
        rows = np.concatenate([blocks[v, :c] for v, c in enumerate(counts)])
        h = np.maximum(rows @ params.w1.values + params.b1.values, 0.0)
        ends = np.cumsum(counts)
        want = np.stack([h[e - c:e].max(axis=0) for e, c in zip(ends, counts)])
        assert np.array_equal(got, want)

    def test_empty_grid_rejected(self):
        cfg = VoxelGridConfig((0, 0, 0), (1, 1, 1), (1, 1, 1), 2)
        grid = VoxelGrid(points=np.zeros((0, 3)), valid_counts=np.zeros(0, dtype=int),
                         coords=np.zeros((0, 3), dtype=np.int64), config=cfg)
        with pytest.raises(EmptyGrid):
            s3.vfe_encode(grid, s3.init_vfe_params(4, np.random.default_rng(0)))


class TestSparseConv:
    def test_identity_kernel_stride1(self):
        rng = np.random.default_rng(4)
        fmap = random_map(rng, (5, 5, 5), 12, 3)
        kernel = np.zeros((1 * 3, 3))
        kernel[:3, :3] = np.eye(3)
        layer = s3.SparseConvLayer(kernel=Tensor(kernel), bias=Tensor(np.zeros(3)),
                                   kernel_size=1, stride=1)
        out = sparse_conv3d(fmap, layer)
        assert np.array_equal(out.coords, fmap.coords)
        assert np.allclose(out.feats.values, fmap.feats.values)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(5)
        fmap = random_map(rng, (4, 4, 4), 6, 3)
        layer = s3.init_conv_layer(5, 4, 3, 1, rng)
        with pytest.raises(ChannelMismatch):
            sparse_conv3d(fmap, layer)

    def test_grid_dims_reduce_110_55_28(self):
        rng = np.random.default_rng(6)
        cfg = default_grid_config()
        pts = np.column_stack([
            rng.uniform(0, 44, 200), rng.uniform(-22, 22, 200), rng.uniform(-4, 18, 200)])
        grid = voxelize(PointCloud(pts), cfg, seed=0)
        params = s3.init_backbone_params(rng, vfe_dim=4, feature_dim=4)
        fmap = s3.vfe_encode(grid, params.vfe)
        assert fmap.grid_dims == (110, 110, 110)
        fmap = sparse_conv3d(fmap, params.layers[0])
        assert fmap.grid_dims == (55, 55, 55)
        fmap = sparse_conv3d(fmap, params.layers[1])
        assert fmap.grid_dims == (28, 28, 28)
        assert np.all(fmap.coords >= 0) and np.all(fmap.coords < 28)
        assert fmap.effective_voxel_size == (1.6, 1.6, 0.8)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_dense_oracle(self, stride):
        worst = 0.0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            dims = tuple(int(x) for x in rng.integers(3, 9, size=3))
            fmap = random_map(rng, dims, int(rng.integers(1, 20)), 3)
            layer = s3.init_conv_layer(3, 4, 3, stride, rng)
            layer.bias.values[:] = rng.normal(size=4)
            out = sparse_conv3d(fmap, layer)

            dense = s3.sparse_to_dense(fmap)
            expect = dense_conv3d(dense, layer.kernel.values, 3, stride)
            expect += layer.bias.values
            occupancy = np.zeros(dims, dtype=bool)
            occupancy[fmap.coords[:, 0], fmap.coords[:, 1], fmap.coords[:, 2]] = True
            mask = receptive_field_mask(occupancy, 3, stride)

            got_mask = np.zeros(out.grid_dims, dtype=bool)
            got_mask[out.coords[:, 0], out.coords[:, 1], out.coords[:, 2]] = True
            assert np.array_equal(got_mask, mask)
            got_dense = s3.sparse_to_dense(out)
            diff = np.abs(got_dense[mask] - expect[mask]).max()
            worst = max(worst, diff)
        assert worst < 1e-6

    def test_output_coords_unique_and_bounded(self):
        rng = np.random.default_rng(7)
        fmap = random_map(rng, (9, 7, 5), 30, 2)
        layer = s3.init_conv_layer(2, 2, 3, 2, rng)
        out = sparse_conv3d(fmap, layer)
        assert np.unique(out.coords, axis=0).shape == out.coords.shape
        assert out.grid_dims == (5, 4, 3)
        assert np.all(out.coords < np.array(out.grid_dims))

    @pytest.mark.parametrize("kernel_size,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_rulebook_pairs_match_brute_force(self, kernel_size, stride):
        pad = (kernel_size - 1) // 2
        offsets = np.stack(np.meshgrid(*[np.arange(kernel_size)] * 3, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dims = tuple(int(x) for x in rng.integers(3, 9, size=3))
            coords = random_map(rng, dims, int(rng.integers(1, 40)), 1).coords
            plan = s3.plan_sparse_conv(coords, dims, kernel_size, stride)
            assert len(plan.rules) == kernel_size ** 3
            for (in_rows, out_rows), offset in zip(plan.rules, offsets):
                assert np.unique(in_rows).size == in_rows.size
                assert np.unique(out_rows).size == out_rows.size
                assert np.array_equal(coords[in_rows],
                                      plan.out_coords[out_rows] * stride + offset - pad)
            total = sum(in_rows.size for in_rows, _ in plan.rules)
            assert total == occupied_pair_count(coords, plan.out_coords, kernel_size, stride)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_shift_into_large_grid(self, stride):
        # interior cells of a 9^3 grid, moved by a multiple of the stride into
        # a 300^3 grid, must give the same sites (shifted) and the same features
        rng = np.random.default_rng(20 + stride)
        small = random_map(rng, (7, 7, 7), 40, 3)
        small.coords += 1
        small.grid_dims = (9, 9, 9)
        shift = 50 * stride
        large = s3.SparseFeatureMap(coords=small.coords + shift, feats=small.feats,
                                    grid_dims=(300, 300, 300),
                                    effective_voxel_size=small.effective_voxel_size,
                                    range_min=small.range_min)
        layer = s3.init_conv_layer(3, 4, 3, stride, rng)
        a = sparse_conv3d(small, layer)
        b = sparse_conv3d(large, layer)
        assert np.array_equal(b.coords, a.coords + shift // stride)
        assert np.array_equal(b.feats.values, a.feats.values)

    def test_gradient_wrt_kernel(self):
        rng = np.random.default_rng(8)
        fmap = random_map(rng, (4, 4, 4), 8, 2)
        layer = s3.init_conv_layer(2, 3, 3, 2, rng)

        def f(k):
            probe = s3.SparseConvLayer(kernel=k, bias=layer.bias,
                                       kernel_size=3, stride=2)
            return l2norm(sparse_conv3d(fmap, probe).feats)

        assert ad.check_gradient(f, layer.kernel) < 1e-4


class TestDense:
    def test_single_voxel_round_trip(self):
        fmap = s3.SparseFeatureMap(
            coords=np.array([[0, 0, 0]], dtype=np.int64), feats=Tensor([[1.0]]),
            grid_dims=(2, 2, 2), effective_voxel_size=(1, 1, 1), range_min=(0, 0, 0))
        dense = s3.sparse_to_dense(fmap)
        assert dense.shape == (2, 2, 2, 1)
        assert np.count_nonzero(dense) == 1

    def test_memory_cap(self):
        fmap = s3.SparseFeatureMap(
            coords=np.array([[0, 0, 0]], dtype=np.int64), feats=Tensor([[1.0] * 64]),
            grid_dims=(1100, 1100, 1100), effective_voxel_size=(1, 1, 1),
            range_min=(0, 0, 0))
        with pytest.raises(TooLarge):
            s3.sparse_to_dense(fmap)

    def test_round_trip_random_maps(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            fmap = random_map(rng, (5, 6, 4), 15, 3)
            # guarantee no all-zero feature rows
            fmap.feats.values[np.all(fmap.feats.values == 0, axis=1), 0] = 1.0
            dense = s3.sparse_to_dense(fmap)
            # back to sparse: the cells with a nonzero feature, in C order
            coords = np.stack(np.nonzero(np.any(dense != 0.0, axis=3)), axis=1)
            assert np.array_equal(coords, fmap.coords)
            assert np.array_equal(dense[tuple(coords.T)], fmap.feats.values)


class TestBackbone:
    def test_standard_config_output(self):
        rng = np.random.default_rng(9)
        cfg = default_grid_config()
        pts = np.column_stack([
            rng.uniform(0, 44, 300), rng.uniform(-22, 22, 300), rng.uniform(-4, 18, 300)])
        grid = voxelize(PointCloud(pts), cfg, seed=1)
        params = s3.init_backbone_params(rng, vfe_dim=8, feature_dim=16)
        out = s3.point_cloud_backbone(grid, params)
        assert out.grid_dims == (28, 28, 28)
        assert out.feature_dim == 16
        assert out.num_voxels >= 1

    def test_single_voxel_input(self):
        grid = small_grid([[0.5, 0.5, 0.5]], hi=(8, 8, 8))
        params = s3.init_backbone_params(np.random.default_rng(10), vfe_dim=4,
                                         feature_dim=4)
        out = s3.point_cloud_backbone(grid, params)
        assert out.num_voxels >= 1
        assert np.all(out.coords < np.array(out.grid_dims))

    def test_plans_reusable_and_equal(self):
        grid = small_grid(np.random.default_rng(11).uniform(0, 4, (30, 3)))
        params = s3.init_backbone_params(np.random.default_rng(12), vfe_dim=4,
                                         feature_dim=6)
        plans = s3.plan_backbone(grid, params)
        a = s3.point_cloud_backbone(grid, params, plans)
        b = s3.point_cloud_backbone(grid, params, plans)
        assert np.array_equal(a.feats.values, b.feats.values)
        c = s3.point_cloud_backbone(grid, params)
        assert np.array_equal(a.feats.values, c.feats.values)
        # the plans place the output sites without running the backbone
        assert np.array_equal(plans.out_coords, a.coords)
        assert plans.out_dims == a.grid_dims
        assert plans.out_voxel_size == a.effective_voxel_size

    def test_gradient_of_readout_wrt_vfe_weights(self):
        grid = small_grid(np.random.default_rng(13).uniform(0.1, 3.9, (10, 3)))
        params = s3.init_backbone_params(np.random.default_rng(14), vfe_dim=3,
                                         feature_dim=3)

        def f(w):
            probe = s3.BackboneParams(
                vfe=s3.VFEParams(w1=w, b1=params.vfe.b1), layers=params.layers)
            return l2norm(s3.point_cloud_backbone(grid, probe).feats)

        assert ad.check_gradient(f, params.vfe.w1) < 1e-4
