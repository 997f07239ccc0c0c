"""Image encoder geometry, GeM pooling properties, descriptor projection."""

import numpy as np
import pytest

from oracles import l2norm
from vxp import autodiff as ad
from vxp import heads
from vxp.autodiff import Tensor
from vxp.errors import EmptyInput, NonPositiveP, ShapeMismatch, TooSmall
from vxp.geometry import PointCloud, default_grid_config
from vxp.sparse3d import init_backbone_params


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestImageEncode:
    @pytest.mark.parametrize("h,w,eh,ew", [(224, 224, 28, 28), (64, 64, 8, 8), (30, 30, 3, 3)])
    def test_output_geometry(self, rng, h, w, eh, ew):
        params = heads.init_image_encoder_params(1, rng, channels=(4, 4, 6))
        fmap = heads.image_encode(rng.uniform(0, 1, size=(h, w, 1)), params)
        assert (fmap.height, fmap.width, fmap.channels) == (eh, ew, 6)
        assert fmap.feats.shape == (eh * ew, 6)

    def test_too_small_rejected(self, rng):
        params = heads.init_image_encoder_params(1, rng, channels=(2, 2, 2))
        with pytest.raises(TooSmall):
            heads.image_encode(np.zeros((7, 16, 1)), params)

    def test_batch_matches_single(self, rng):
        params = heads.init_image_encoder_params(1, rng, channels=(3, 4, 5))
        imgs = rng.uniform(0, 1, size=(3, 16, 16, 1))
        batched, ow, oh = heads.encode_image_batch(imgs, params)
        per_img = oh * ow
        for i in range(3):
            single = heads.image_encode(imgs[i], params)
            assert np.allclose(batched.values[i * per_img:(i + 1) * per_img],
                               single.feats.values)

    def test_gradient_wrt_block_weights(self, rng):
        params = heads.init_image_encoder_params(1, rng, channels=(2, 3, 3))
        img = rng.uniform(0.1, 1.0, size=(8, 8, 1))

        def f(w):
            probe = heads.ImageEncoderParams(
                block_w=[w, params.block_w[1], params.block_w[2]],
                block_b=params.block_b)
            return l2norm(heads.image_encode(img, probe).feats)

        assert ad.check_gradient(f, params.block_w[0]) < 1e-4


def test_encode_images_matches_per_image_gem_and_fc(rng):
    encoder = heads.init_image_encoder_params(1, rng, channels=(3, 4, 5))
    head = heads.init_gem_fcn_params(5, 7, rng)
    imgs = rng.uniform(0, 1, size=(3, 24, 16, 1))
    batched = heads.encode_images(imgs, encoder, head).values
    assert batched.shape == (3, 7)
    for i in range(3):
        single = heads.image_global_descriptor(imgs[i], encoder, head, "s").numpy()
        fmap = heads.image_encode(imgs[i], encoder)
        plain = heads.fcn_project(heads.gem_pool(fmap.feats, head.p), head, "image").numpy()
        assert np.allclose(batched[i], single, rtol=1e-12, atol=0.0)
        assert np.allclose(batched[i], plain, rtol=1e-12, atol=1e-15)


class TestGemPool:
    def test_p_one_is_arithmetic_mean(self, rng):
        feats = rng.uniform(0.1, 2.0, size=(7, 5))
        out = heads.gem_pool(Tensor(feats), Tensor(1.0))
        assert np.allclose(out.values, feats.mean(axis=0))

    def test_two_point_p2(self):
        out = heads.gem_pool(Tensor([[1.0], [3.0]]), Tensor(2.0))
        assert np.allclose(out.values, np.sqrt(5.0))

    def test_large_p_approaches_max(self):
        out = heads.gem_pool(Tensor([[1.0], [3.0]]), Tensor(100.0))
        assert abs(out.values[0] - 3.0) / 3.0 < 0.03

    def test_monotone_in_p_and_bounded(self, rng):
        for seed in range(100):
            r = np.random.default_rng(seed)
            feats = r.uniform(0.0, 3.0, size=(6, 4))
            p1, p2 = sorted(r.uniform(1.0, 8.0, size=2))
            g1 = heads.gem_pool(Tensor(feats), Tensor(p1)).values
            g2 = heads.gem_pool(Tensor(feats), Tensor(p2)).values
            assert np.all(g1 <= g2 + 1e-12)
            assert np.all(feats.mean(axis=0) <= g1 + 1e-9)
            assert np.all(g2 <= feats.max(axis=0) + 1e-9)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            heads.gem_pool(Tensor(np.zeros((0, 3))), Tensor(2.0))
        with pytest.raises(NonPositiveP):
            heads.gem_pool(Tensor([[1.0]]), Tensor(0.0))

    def test_gradient_wrt_inputs_and_p(self, rng):
        feats = rng.uniform(0.2, 2.0, size=(5, 3))

        def f_feats(t):
            return l2norm(heads.gem_pool(t, Tensor(3.0)))

        def f_p(t):
            return l2norm(heads.gem_pool(Tensor(feats), t))

        assert ad.check_gradient(f_feats, Tensor(feats)) < 1e-4
        assert ad.check_gradient(f_p, Tensor(3.0)) < 1e-4

    @pytest.mark.parametrize("segments", [False, True])
    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_float32_zero_channel_keeps_finite_gradients(self, p, segments):
        # an all-zero channel's mean power (GEM_EPS^p) underflows float32 above p 3.7
        with ad.precision(np.float32):
            x = Tensor(np.c_[np.zeros(6), np.linspace(0.5, 1.0, 6)], requires_grad=True)
            exponent = Tensor(p, requires_grad=True)
            with ad.Tape() as tape:
                if segments:
                    pooled = heads.gem_pool_segments(x, np.zeros(6, dtype=np.intp), 1,
                                                     exponent)
                else:
                    pooled = heads.gem_pool(x, exponent)
                tape.backward(ad.tsum(pooled))
        assert np.isfinite(pooled.values).all()
        assert np.isfinite(x.grad).all() and np.isfinite(exponent.grad).all()

    def test_segments_match_loop(self, rng):
        feats = rng.uniform(0.1, 1.0, size=(10, 4))
        seg = np.array([0] * 4 + [1] * 6)
        p = Tensor(2.5)
        batched = heads.gem_pool_segments(Tensor(feats), seg, 2, p)
        a = heads.gem_pool(Tensor(feats[:4]), p)
        b = heads.gem_pool(Tensor(feats[4:]), p)
        assert np.allclose(batched.values, np.stack([a.values, b.values]))


class TestFcnProject:
    def test_identity_weights(self):
        params = heads.GemFcnParams(p=Tensor(3.0), fc_w=Tensor(np.eye(4)),
                                    fc_b=Tensor(np.zeros(4)))
        desc = heads.fcn_project(Tensor([1.0, 2.0, 3.0, 4.0]), params, "image", "s0")
        assert np.array_equal(desc.numpy(), [1.0, 2.0, 3.0, 4.0])
        assert desc.source_modality == "image"

    def test_zero_weights_yield_bias(self, rng):
        bias = rng.normal(size=3)
        params = heads.GemFcnParams(p=Tensor(3.0), fc_w=Tensor(np.zeros((5, 3))),
                                    fc_b=Tensor(bias))
        desc = heads.fcn_project(Tensor(rng.normal(size=5)), params, "image")
        assert np.allclose(desc.numpy(), bias)

    def test_shape_mismatch(self, rng):
        params = heads.init_gem_fcn_params(4, 6, rng)
        with pytest.raises(ShapeMismatch):
            heads.fcn_project(Tensor(np.zeros(5)), params, "image")

    def test_gradient_wrt_weights(self, rng):
        pooled = rng.uniform(0.1, 1.0, size=6)
        params = heads.init_gem_fcn_params(6, 4, rng)

        def f(w):
            probe = heads.GemFcnParams(p=params.p, fc_w=w, fc_b=params.fc_b)
            return l2norm(heads.fcn_project(Tensor(pooled), probe, "image").vector)

        assert ad.check_gradient(f, params.fc_w) < 1e-4


class TestPointCloudEncode:
    def make_cloud(self, rng, n=300):
        pts = np.column_stack([rng.uniform(2, 40, n), rng.uniform(-15, 15, n),
                               rng.uniform(-2, 10, n)])
        return PointCloud(pts, sample_id="c0")

    def test_deterministic(self, rng):
        cfg = default_grid_config()
        backbone = init_backbone_params(rng, vfe_dim=4, feature_dim=8)
        head = heads.init_gem_fcn_params(8, 16, rng)
        cloud = self.make_cloud(np.random.default_rng(42))
        _, d1 = heads.point_cloud_encode(cloud, backbone, head, cfg, seed=7)
        _, d2 = heads.point_cloud_encode(cloud, backbone, head, cfg, seed=7)
        assert np.array_equal(d1.numpy(), d2.numpy())

    def test_descriptor_dim_independent_of_voxel_count(self, rng):
        cfg = default_grid_config()
        backbone = init_backbone_params(rng, vfe_dim=4, feature_dim=8)
        head = heads.init_gem_fcn_params(8, 16, rng)
        small = self.make_cloud(np.random.default_rng(1), n=50)
        large = self.make_cloud(np.random.default_rng(2), n=800)
        _, d_small = heads.point_cloud_encode(small, backbone, head, cfg, seed=0)
        _, d_large = heads.point_cloud_encode(large, backbone, head, cfg, seed=0)
        assert d_small.dim == d_large.dim == 16

    def test_duplicated_points_leave_descriptor_unchanged(self, rng):
        # doubling every point preserves voxel occupancy, hence the output
        cfg = default_grid_config()
        backbone = init_backbone_params(rng, vfe_dim=4, feature_dim=8)
        head = heads.init_gem_fcn_params(8, 16, rng)
        base = self.make_cloud(np.random.default_rng(3), n=100)
        doubled = PointCloud(np.repeat(base.points, 2, axis=0), sample_id="c1")

        # voxel occupancy oracle: the voxel sets must agree
        from vxp.geometry import voxelize
        ga = voxelize(base, cfg, seed=0)
        gb = voxelize(doubled, cfg, seed=0)
        assert np.array_equal(ga.coords, gb.coords)

        _, da = heads.point_cloud_encode(base, backbone, head, cfg, seed=0)
        _, db = heads.point_cloud_encode(doubled, backbone, head, cfg, seed=0)
        assert np.allclose(da.numpy(), db.numpy())


def test_end_to_end_descriptor_gradient(rng):
    # descriptor norm gradient w.r.t. gem exponent and fc weights
    backbone = init_backbone_params(rng, vfe_dim=3, feature_dim=4)
    head = heads.init_gem_fcn_params(4, 5, rng)
    encoder = heads.init_image_encoder_params(1, rng, channels=(2, 3, 4))
    img = rng.uniform(0.1, 1.0, size=(8, 8, 1))

    def f_p(p):
        probe = heads.GemFcnParams(p=p, fc_w=head.fc_w, fc_b=head.fc_b)
        return l2norm(heads.encode_images(img[None], encoder, probe))

    assert ad.check_gradient(f_p, Tensor(2.3)) < 1e-4
