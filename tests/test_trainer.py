"""Optimizer behavior, staged training contracts, freeze and determinism."""

import numpy as np
import pytest

from vxp import heads, losses, sparse3d, trainer
from vxp.autodiff import Tape, Tensor
from vxp.errors import DegenerateDataset
from vxp.geometry import VoxelGridConfig
from vxp.synthetic import SyntheticSceneParams, synthetic_training_set

# compact geometry keeps these tests fast: 20^3 grid, 12^3 feature grid
SMALL_VOXELS = VoxelGridConfig((0.0, -22.0, -4.0), (44.0, 22.0, 18.0),
                               (2.2, 2.2, 1.1), max_points_per_voxel=16)
SCENE = SyntheticSceneParams(points_per_cloud=256, image_width=32, image_height=32,
                             box_count_min=3, box_count_max=6)
# sparse single-pair scene keeps the overfit tests overparameterized
SCENE_SPARSE = SyntheticSceneParams(points_per_cloud=48, image_width=32,
                                    image_height=32, box_count_min=1, box_count_max=1)


def small_cfg(stage, **kw):
    base = dict(stage=stage, epochs=2, base_lr=1e-3, batch_size=8, seed=0,
                descriptor_dim=16, feature_dim=8, vfe_dim=6, image_channels=(4, 8))
    base.update(kw)
    return trainer.StageConfig(**base)


class TestAdam:
    def test_first_step_magnitude(self):
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        p["x"].grad = np.array([2.0])
        state = trainer.AdamState(p)
        trainer.adam_step(p, state, lr=0.1)
        assert p["x"].values[0] == pytest.approx(0.9, abs=1e-6)

    def test_zero_grad_keeps_parameter(self):
        p = {"x": Tensor(np.array([1.5]), requires_grad=True)}
        p["x"].grad = np.array([0.0])
        state = trainer.AdamState(p)
        trainer.adam_step(p, state, lr=0.1)
        assert p["x"].values[0] == 1.5

    def test_missing_grad_skipped(self):
        p = {"x": Tensor(np.array([1.5]), requires_grad=True)}
        state = trainer.AdamState(p)
        trainer.adam_step(p, state, lr=0.1)
        assert p["x"].values[0] == 1.5

    def test_descent_on_quadratic(self):
        import vxp.autodiff as ad
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        state = trainer.AdamState(p)
        values = []
        for _ in range(3):
            p["x"].grad = None
            with Tape() as tape:
                loss = ad.tsum(ad.mul(p["x"], p["x"]))
                tape.backward(loss)
            values.append(float(loss.values))
            trainer.adam_step(p, state, lr=0.1)
        assert values[0] > values[1] > values[2]


class TestLrSchedule:
    def test_epoch_zero_is_base(self):
        assert trainer.lr_schedule(0, 0.01) == 0.01

    def test_default_decay(self):
        assert trainer.lr_schedule(2, 1.0) == pytest.approx(0.81)

    def test_constant_fn(self):
        for e in range(5):
            assert trainer.lr_schedule(e, 0.5, decay=1.0) == 0.5


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthetic_training_set(SCENE, scene_seeds=range(6), traversals=2,
                                  voxel_config=SMALL_VOXELS)


@pytest.fixture(scope="module")
def stage1(tiny_dataset):
    return trainer.train_stage_image(tiny_dataset, small_cfg("image", epochs=3))


@pytest.fixture(scope="module")
def stage2(tiny_dataset, stage1):
    return trainer.train_stage_local(tiny_dataset, stage1.params,
                                     small_cfg("local", epochs=2))


class TestStageImage:
    def test_loss_history_finite_and_decreasing_tendency(self, stage1):
        values = [l for _, _, l in stage1.history]
        assert all(np.isfinite(values))
        assert values[-1] <= values[0]

    def test_deterministic_bitwise(self, tiny_dataset):
        cfg = small_cfg("image")
        a = trainer.train_stage_image(tiny_dataset, cfg)
        b = trainer.train_stage_image(tiny_dataset, cfg)
        assert trainer.params_digest(a.params) == trainer.params_digest(b.params)
        assert a.history == b.history

    def test_degenerate_dataset(self):
        lonely = synthetic_training_set(SCENE, scene_seeds=[0], traversals=1,
                                        voxel_config=SMALL_VOXELS)
        with pytest.raises(DegenerateDataset):
            trainer.train_stage_image(lonely, small_cfg("image"))

    def test_no_negatives_in_reach(self):
        # two traversals of one scene: positives exist, negatives never do
        single = synthetic_training_set(SCENE, scene_seeds=[0], traversals=2,
                                        voxel_config=SMALL_VOXELS)
        with pytest.raises(DegenerateDataset):
            trainer.train_stage_image(single, small_cfg("image"))


class TestStageLocal:
    def test_freeze_invariant_and_loss_drop(self, tiny_dataset, stage1):
        cfg = small_cfg("local", epochs=4)
        before = trainer.params_digest(stage1.params, "image.")
        out = trainer.train_stage_local(tiny_dataset, stage1.params, cfg)
        after = trainer.params_digest(out.params, "image.")
        assert before == after
        first = np.mean([l for e, _, l in out.history if e == 0])
        last = np.mean([l for e, _, l in out.history if e == cfg.epochs - 1])
        assert last < first

    def test_requires_image_params(self, tiny_dataset):
        with pytest.raises(DegenerateDataset):
            trainer.train_stage_local(tiny_dataset, {"pc.backbone.vfe.w1": Tensor(1.0)},
                                      small_cfg("local"))

    def test_single_pair_overfit(self, tiny_dataset, stage1):
        pair = synthetic_training_set(SCENE_SPARSE, scene_seeds=[3], traversals=1,
                                      voxel_config=SMALL_VOXELS)
        cfg = small_cfg("local", epochs=900, base_lr=5e-3, lr_decay=0.999,
                        batch_size=1)
        out = trainer.train_stage_local(pair, stage1.params, cfg)
        assert out.history[-1][2] < 1e-3

    def test_fresh_backbone_takes_crop_box_at_unit_scale(self):
        cfg = small_cfg("local")
        plain = sparse3d.init_backbone_params(
            np.random.default_rng(5), vfe_dim=cfg.vfe_dim,
            feature_dim=cfg.feature_dim, channels=cfg.conv_channels)
        params = {}
        scaled = trainer.init_backbone_into(params, cfg, np.random.default_rng(5),
                                            SMALL_VOXELS)
        # half of the 44 x 44 x 22 m crop box divides the rows of w1
        half = np.array([22.0, 22.0, 11.0])[:, None]
        assert np.allclose(scaled.vfe.w1.values * half, plain.vfe.w1.values)
        assert params["pc.backbone.vfe.w1"] is scaled.vfe.w1
        assert np.array_equal(scaled.layers[0].kernel.values,
                              plain.layers[0].kernel.values)

    def test_unexpected_voxelize_error_propagates(self, tiny_dataset, stage1,
                                                  monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in voxelize")

        monkeypatch.setattr(trainer, "voxelize", broken)
        with pytest.raises(RuntimeError, match="bug in voxelize"):
            trainer.train_stage_local(tiny_dataset, stage1.params,
                                      small_cfg("local", epochs=1))

    def test_orthographic_projection_mode_runs(self, tiny_dataset, stage1):
        cfg = small_cfg("local", epochs=1, projection="orthographic")
        out = trainer.train_stage_local(tiny_dataset, stage1.params, cfg)
        assert np.isfinite(out.history[-1][2])


class TestStageGlobal:
    def test_freeze_invariant(self, tiny_dataset, stage1, stage2):
        cfg = small_cfg("global", epochs=2)
        before = trainer.params_digest(stage1.params, "image.")
        out = trainer.train_stage_global(tiny_dataset, stage1.params,
                                         stage2.params, cfg)
        assert trainer.params_digest(out.params, "image.") == before
        assert any(k.startswith("pc.head.") for k in out.params)

    def test_head_starts_as_copy_of_image_head(self, stage1):
        params = dict(stage1.params)
        head = trainer.copy_image_head_into(params)
        for name, tensor in (("p", head.p), ("fc_w", head.fc_w), ("fc_b", head.fc_b)):
            image_tensor = stage1.params[f"image.head.{name}"]
            assert np.array_equal(tensor.values, image_tensor.values)
            assert tensor is not image_tensor
            assert params[f"pc.head.{name}"] is tensor
        before = trainer.params_digest(stage1.params, "image.")
        head.fc_w.values += 1.0
        assert trainer.params_digest(stage1.params, "image.") == before

    def test_missing_prerequisite_rejected(self, tiny_dataset, stage1):
        with pytest.raises(DegenerateDataset):
            trainer.train_stage_global(tiny_dataset, stage1.params,
                                       {"unrelated": Tensor(0.0)},
                                       small_cfg("global"))

    def test_single_pair_overfit(self, tiny_dataset, stage1, stage2):
        pair = synthetic_training_set(SCENE_SPARSE, scene_seeds=[4], traversals=1,
                                      voxel_config=SMALL_VOXELS)
        cfg = small_cfg("global", epochs=300, base_lr=3e-3, lr_decay=0.995,
                        batch_size=1)
        out = trainer.train_stage_global(pair, stage1.params, stage2.params, cfg)
        assert out.history[-1][2] < 1e-3

    def test_determinism(self, tiny_dataset, stage1, stage2):
        cfg = small_cfg("global", epochs=2)
        a = trainer.train_stage_global(tiny_dataset, stage1.params, stage2.params, cfg)
        b = trainer.train_stage_global(tiny_dataset, stage1.params, stage2.params, cfg)
        assert trainer.params_digest(a.params) == trainer.params_digest(b.params)


def test_loss_history_csv(tmp_path):
    path = tmp_path / "h.csv"
    trainer.write_loss_history(path, [(0, 0, 1.5), (0, 1, 0.25)])
    assert path.read_text().splitlines() == ["epoch,step,loss", "0,0,1.5", "0,1,0.25"]


def test_params_digest_sensitive_to_values():
    a = {"x": Tensor([1.0])}
    b = {"x": Tensor([1.0 + 1e-12])}
    assert trainer.params_digest(a) != trainer.params_digest(b)
    assert trainer.params_digest(a) == trainer.params_digest({"x": Tensor([1.0])})
