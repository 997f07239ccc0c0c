"""Loss functions: hand values, mining oracle, expansion arithmetic, gradients."""

import numpy as np
import pytest

from oracles import brute_force_mining
from vxp import autodiff as ad
from vxp import constants, losses
from vxp.autodiff import Tensor
from vxp.errors import NoCorrespondences, NoNegative, NoPositive, ShapeMismatch
from vxp.geometry import ProjectedFeatureMap
from vxp.heads import ImageFeatureMap


def entries_map(width, height, u, v, voxel_idx, depth):
    depth = np.asarray(depth, dtype=float)
    return ProjectedFeatureMap(
        width=width, height=height,
        pixel_u=np.asarray(u, dtype=np.int64), pixel_v=np.asarray(v, dtype=np.int64),
        voxel_index=np.asarray(voxel_idx, dtype=np.int64),
        depth=depth, inverse_depth=1.0 / depth)


def image_map(values):
    values = np.asarray(values, dtype=float)
    h, w, d = values.shape
    return ImageFeatureMap(width=w, height=h, channels=d,
                           feats=Tensor(values.reshape(h * w, d)))


class TestSmoothL1:
    def test_quadratic_branch(self):
        assert losses.smooth_l1(Tensor([0.5])).values == 0.125

    def test_linear_branch(self):
        assert losses.smooth_l1(Tensor([2.0])).values == 1.5

    def test_zero(self):
        assert losses.smooth_l1(Tensor([0.0])).values == 0.0

    def test_sums_over_elements(self):
        got = losses.smooth_l1(Tensor([0.5, 2.0, 0.0])).values
        assert got == pytest.approx(0.125 + 1.5)

    def test_gradient_both_branches(self):
        for x0 in (0.4, -0.3, 1.7, -2.5):
            err = ad.check_gradient(losses.smooth_l1, Tensor([x0]))
            assert err < 1e-6


def batch_from(rng, n, dim=4):
    """Random batch where every anchor has >=1 positive and >=1 negative:
    pairs of samples share a cluster, clusters sit 80 m apart."""
    n = n + n % 2
    desc = rng.normal(size=(n, dim))
    pos = np.zeros((n, 3))
    pos[:, 0] = 80.0 * (np.arange(n) // 2) + rng.uniform(-3, 3, size=n)
    return losses.TrainingBatch.from_positions(Tensor(desc), pos)


class TestMining:
    def test_hardest_positive_is_farthest(self):
        # anchors 0-2 share a cluster, 3-4 another; 1-D descriptors
        desc = Tensor([[0.0], [1.0], [2.0], [50.0], [60.0]])
        pos = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0],
                        [100, 0, 0], [101, 0, 0.0]])
        batch = losses.TrainingBatch.from_positions(desc, pos)
        pos_idx, neg_idx = losses.mine_hardest(batch)
        # anchor 0: positives at d = {1.0, 2.0} -> the 2.0 entry wins
        assert pos_idx[0] == 2
        # anchor 0: negatives at d = {50, 60} -> the 50 entry wins
        assert neg_idx[0] == 3

    def test_hardest_negative_is_closest(self):
        desc = Tensor([[0.0], [0.2], [0.5], [3.0], [10.0]])
        pos = np.array([[0, 0, 0], [5, 0, 0], [50, 0, 0],
                        [51, 0, 0], [52, 0, 0.0]])
        batch = losses.TrainingBatch.from_positions(desc, pos)
        _, neg_idx = losses.mine_hardest(batch)
        assert neg_idx[0] == 2  # d=0.5 beats d=3.0 and d=10.0

    def test_missing_positive_or_negative(self):
        desc = Tensor(np.zeros((2, 2)))
        batch = losses.TrainingBatch.from_positions(desc, np.array([[0, 0, 0], [100, 0, 0.0]]))
        with pytest.raises(NoPositive):
            losses.mine_hardest(batch)
        near = losses.TrainingBatch.from_positions(desc, np.array([[0, 0, 0], [1, 0, 0.0]]))
        with pytest.raises(NoNegative):
            losses.mine_hardest(near)

    @pytest.mark.parametrize("metric", ["L2"])
    def test_matches_exhaustive_oracle(self, metric):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 12))
            batch = batch_from(rng, n)
            if not (batch.positive_mask.any(axis=1).all()
                    and batch.negative_mask.any(axis=1).all()):
                continue
            got_p, got_n = losses.mine_hardest(batch)
            want_p, want_n = brute_force_mining(batch.descriptors.values,
                                                batch.positive_mask,
                                                batch.negative_mask)
            assert np.array_equal(got_p, want_p)
            assert np.array_equal(got_n, want_n)


class TestTripletLoss:
    @staticmethod
    def two_cluster_batch(descs):
        # rows 0,1 share a cluster; rows 2,3 another
        pos = np.array([[0, 0, 0], [5, 0, 0], [50, 0, 0], [55, 0, 0.0]])
        return losses.TrainingBatch.from_positions(Tensor(descs), pos)

    def test_margin_satisfied_gives_zero_term(self):
        # anchor 0: d(a,p)=1.0, d(a,n)=1.5 -> hinge(1.0 - 1.5 + 0.3) = 0
        batch = self.two_cluster_batch([[0.0], [1.0], [1.5], [9.0]])
        res = losses.triplet_loss_batch_hard(batch)
        d = losses.pairwise_l2(batch.descriptors.values)
        term0 = max(0.0, d[0, res.hardest_positive[0]] - d[0, res.hardest_negative[0]] + 0.3)
        assert term0 == 0.0

    def test_hinge_arithmetic(self):
        # anchor 0: d(a,p)=1.0, d(a,n)=1.1 -> hinge = 0.2
        batch = self.two_cluster_batch([[0.0], [1.0], [1.1], [9.0]])
        res = losses.triplet_loss_batch_hard(batch)
        d = losses.pairwise_l2(batch.descriptors.values)
        term0 = max(0.0, d[0, res.hardest_positive[0]] - d[0, res.hardest_negative[0]] + 0.3)
        assert term0 == pytest.approx(0.2)

    def test_loss_nonnegative_and_zero_triplets_counted(self):
        rng = np.random.default_rng(5)
        batch = batch_from(rng, 8)
        res = losses.triplet_loss_batch_hard(batch)
        assert res.loss.values >= 0.0
        assert 0 <= res.zero_triplets <= 8

    def test_gradient_away_from_kinks(self):
        checked = 0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            batch = batch_from(rng, 6, dim=3)
            res = losses.triplet_loss_batch_hard(batch)
            # skip batches where FD could flip mining or cross the hinge
            d = losses.pairwise_l2(batch.descriptors.values)
            hinges = (d[np.arange(6), res.hardest_positive]
                      - d[np.arange(6), res.hardest_negative] + constants.TRIPLET_MARGIN)
            if np.any(np.abs(hinges) < 1e-3):
                continue
            gaps = []
            for a in range(6):
                pd = d[a][batch.positive_mask[a]]
                nd = d[a][batch.negative_mask[a]]
                if len(pd) > 1:
                    gaps.append(np.diff(np.sort(pd))[-1])
                if len(nd) > 1:
                    gaps.append(np.diff(np.sort(nd))[0])
            if gaps and min(gaps) < 1e-3:
                continue

            def f(t):
                probe = losses.TrainingBatch(
                    descriptors=t, positions=batch.positions,
                    positive_mask=batch.positive_mask,
                    negative_mask=batch.negative_mask)
                return losses.triplet_loss_batch_hard(probe).loss

            assert ad.check_gradient(f, batch.descriptors) < 1e-4
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25


class TestExpansion:
    def test_trigger_cases(self):
        assert losses.zero_triplet_expansion(20, 64) == 90   # 31.25% -> ceil(89.6)
        assert losses.zero_triplet_expansion(19, 64) == 64   # 29.7%, strict >
        assert losses.zero_triplet_expansion(100, 200) == 256  # min(280, 256)

    def test_fixed_point_at_cap(self):
        assert losses.zero_triplet_expansion(256, 256) == 256

    def test_never_exceeds_cap(self):
        for b in range(1, 300):
            assert losses.zero_triplet_expansion(b, b) <= constants.MAX_BATCH_SIZE


class TestLocalLoss:
    def test_exact_cancellation_depth_scaled(self):
        proj = entries_map(1, 1, [0], [0], [0], [2.0])  # inverse depth 0.5
        voxel = Tensor([[2.0]])
        img = image_map([[[1.0]]])
        out = losses.local_descriptor_loss(proj, voxel, img, "depth_scaled")
        assert out.values == 0.0

    def test_branch_boundary_depth_scaled(self):
        proj = entries_map(1, 1, [0], [0], [0], [2.0])
        voxel = Tensor([[4.0]])
        img = image_map([[[1.0]]])
        out = losses.local_descriptor_loss(proj, voxel, img, "depth_scaled")
        assert out.values == pytest.approx(0.5)  # smooth_l1(1) on the linear edge

    def test_collision_weights_normalize(self):
        proj = entries_map(1, 1, [0, 0], [0, 0], [0, 1], [5.0, 10.0])
        voxel = Tensor([[3.0], [3.0]])
        img = image_map([[[1.0]]])
        # residual is 2.0 for both entries; huber(2) = 1.5 each
        out = losses.local_descriptor_loss(proj, voxel, img, "collision_normalized")
        weights = np.array([0.2, 0.1]) / 0.3
        assert np.allclose(weights, [2 / 3, 1 / 3])
        assert out.values == pytest.approx(1.5)  # convex combination of equal losses

    def test_collision_weights_differ_per_entry(self):
        proj = entries_map(1, 1, [0, 0], [0, 0], [0, 1], [5.0, 10.0])
        voxel = Tensor([[3.0], [0.5]])
        img = image_map([[[1.0]]])
        out = losses.local_descriptor_loss(proj, voxel, img, "collision_normalized")
        expected = (2 / 3) * 1.5 + (1 / 3) * 0.125
        assert out.values == pytest.approx(expected)

    def test_gradients_reach_all_colliding_voxels(self):
        proj = entries_map(1, 1, [0, 0], [0, 0], [0, 1], [5.0, 10.0])
        img = image_map([[[1.0]]])
        for mode in losses.LOCAL_LOSS_MODES:
            voxel = Tensor([[3.0], [0.5]], requires_grad=True)
            with ad.Tape() as tape:
                out = losses.local_descriptor_loss(proj, voxel, img, mode)
                tape.backward(out)
            assert voxel.grad is not None
            assert np.all(voxel.grad != 0.0)

    def test_no_correspondences(self):
        proj = entries_map(2, 2, [], [], [], [])
        with pytest.raises(NoCorrespondences):
            losses.local_descriptor_loss(proj, Tensor(np.zeros((1, 1))),
                                         image_map(np.zeros((2, 2, 1))))

    @pytest.mark.parametrize("mode", losses.LOCAL_LOSS_MODES)
    def test_gradient_vs_fd(self, mode):
        rng = np.random.default_rng(9)
        proj = entries_map(3, 2, [0, 1, 1, 2], [0, 0, 1, 1], [0, 1, 2, 3],
                           rng.uniform(2, 9, size=4))
        img = image_map(rng.normal(size=(2, 3, 4)))
        voxel0 = rng.normal(size=(4, 4)) + 3.0  # away from huber kink at |x|=1

        def f(t):
            return losses.local_descriptor_loss(proj, t, img, mode)

        assert ad.check_gradient(f, Tensor(voxel0)) < 1e-4


class TestGlobalLoss:
    def test_identical_descriptors_zero(self):
        v = Tensor(np.ones(8))
        assert losses.global_descriptor_loss(v, Tensor(np.ones(8))).values == 0.0

    def test_four_unit_differences(self):
        a = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        assert losses.global_descriptor_loss(a, b).values == pytest.approx(2.0)

    def test_composition_matches_elementwise(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.normal(size=(2, 10))
            got = losses.global_descriptor_loss(Tensor(a), Tensor(b)).values
            want = sum(0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5 for d in a - b)
            assert got == pytest.approx(want)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            losses.global_descriptor_loss(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_gradient(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=6) * 2.0

        def f(t):
            return losses.global_descriptor_loss(t, Tensor(b))

        x0 = rng.normal(size=6) * 2.0
        x0 = np.where(np.abs(x0 - b) < 0.05, x0 + 0.2, x0)  # keep off the kink
        assert ad.check_gradient(f, Tensor(x0)) < 1e-4
