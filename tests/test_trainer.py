"""Optimizer behavior, staged training contracts, freeze and determinism."""

import dataclasses
import re

import numpy as np
import pytest

from vxp import autodiff as ad
from vxp import dataio, heads, losses, sparse3d, trainer
from vxp.autodiff import Tape, Tensor
from vxp.errors import DegenerateDataset, ShapeMismatch
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

    def test_float32_parameters_stay_float32(self):
        with ad.precision(np.float32):
            p = {"x": Tensor([1.0, -2.0], requires_grad=True)}
        p["x"].grad = np.array([0.5, 0.25], dtype=np.float32)
        state = trainer.AdamState(p)
        trainer.adam_step(p, state, lr=0.1)
        assert p["x"].values.dtype == np.float32
        assert {m.dtype for m in state.moments["x"]} == {np.dtype(np.float32)}

    def test_descent_on_quadratic(self):
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


@pytest.mark.parametrize("field", ["projection"])
def test_stage_config_rejects_an_unknown_choice(field):
    with pytest.raises(ValueError, match=f"unknown .*'foo'"):
        small_cfg("image", **{field: "foo"})


@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("base_lr", 0.0), ("base_lr", -1e-3), ("base_lr", float("nan")),
    ("base_lr", float("inf")), ("lr_decay", 0.0), ("lr_decay", float("nan")),
    ("lr_decay", float("inf")), ("descriptor_dim", 0), ("feature_dim", 0), ("vfe_dim", -1),
    ("conv_channels", (8, 0)), ("image_channels", (0, 8)), ("batch_size", 0),
    ("batch_size", -1), ("seed", -1),
    ("conv_channels", (6, 12)),  # the last width must be feature_dim (8)
])
def test_stage_config_rejects_values_training_cannot_use(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        small_cfg("image", **{field: value})


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

    def test_mixed_image_sizes_name_the_first_odd_sample(self, tiny_dataset):
        samples = list(tiny_dataset.samples)
        first, odd = samples[0], samples[3]
        samples[3] = dataclasses.replace(odd, image=odd.image[:-8])
        samples[5] = dataclasses.replace(samples[5], image=samples[5].image[:, :-8])
        mixed = dataclasses.replace(tiny_dataset, samples=samples)
        message = (f"sample {odd.sample_id!r}: image shape (24, 32) differs "
                   f"from (32, 32), the shape of first sample {first.sample_id!r}")
        with pytest.raises(DegenerateDataset, match=re.escape(message)):
            trainer.train_stage_image(mixed, small_cfg("image"))

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
        head = trainer.copy_image_head_into(params, trainer.image_branch_from(params)[1])
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


@pytest.mark.parametrize("stage", ["local", "global"])
def test_point_stages_encode_each_image_at_its_own_size(tiny_dataset, stage1, stage2,
                                                        stage):
    """The image targets are encoded in batches of one size; an odd-sized
    image between two such batches still gets its own target."""
    samples = list(tiny_dataset.samples)
    samples[3] = dataclasses.replace(samples[3], image=samples[3].image[:-8])  # 24 x 32
    mixed = dataclasses.replace(tiny_dataset, samples=samples)
    cfg = small_cfg(stage, epochs=1)
    encoder, head = trainer.image_branch_from(stage1.params)
    with ad.precision(trainer.TRAIN_DTYPE):
        prepared, skipped = trainer._prepare_point_samples(
            mixed, cfg, trainer.backbone_from(stage2.params), encoder, head)
    assert skipped == 0
    for s, prep in zip(mixed.samples, prepared):
        image = s.image[None, ..., None]
        if stage == "local":
            fmap = prep.target[1]
            feats, ow, oh = heads.encode_image_batch(image, encoder)
            assert (fmap.height, fmap.width) == (oh, ow) == (s.image.shape[0] // 8, 4)
            assert np.allclose(fmap.feats.values, feats.values, rtol=1e-5, atol=1e-6)
        else:
            assert np.allclose(prep.target,
                               heads.encode_images(image, encoder, head).values[0],
                               rtol=1e-5, atol=1e-6)
    if stage == "local":
        out = trainer.train_stage_local(mixed, stage1.params, cfg)
    else:
        out = trainer.train_stage_global(mixed, stage1.params, stage2.params, cfg)
    assert np.isfinite(out.history[-1][2])


@pytest.fixture(scope="module")
def stage3(tiny_dataset, stage1, stage2):
    return trainer.train_stage_global(tiny_dataset, stage1.params, stage2.params,
                                      small_cfg("global", epochs=1))


class TestFloat32Training:
    """Stages compute in float32 behind float64 stage results."""

    def test_stage_results_are_float64(self, stage1, stage2, stage3):
        for result in (stage1, stage2, stage3):
            assert {t.values.dtype for t in result.params.values()} == {np.dtype(np.float64)}

    def test_frozen_image_branch_returned_bit_identical(self, tiny_dataset):
        cfg = small_cfg("local", epochs=1)
        image = trainer.init_image_params(cfg, np.random.default_rng(3))
        # float64 values that float32 cannot hold, so rounding would show
        assert any(not np.array_equal(t.values.astype(np.float32), t.values)
                   for t in image.values())
        out = trainer.train_stage_local(tiny_dataset, image, cfg)
        for name, tensor in image.items():
            assert out.params[name].values.tobytes() == tensor.values.tobytes()
            assert out.params[name] is not tensor
        assert (trainer.params_digest(out.params, "image.")
                == trainer.params_digest(image, "image."))

    def test_vxpc_round_trip_of_stage3_is_bit_exact(self, tmp_path, stage3):
        path = tmp_path / "stage3.vxpc"
        dataio.write_checkpoint(path, stage3.params)
        back = dataio.read_checkpoint(path)
        assert back.keys() == stage3.params.keys()
        for name, tensor in stage3.params.items():
            assert back[name].values.tobytes() == tensor.values.tobytes()

    def test_every_primitive_stays_float32(self, tiny_dataset, stage1, monkeypatch):
        seen = []
        finish = ad._finish

        def recording(out_values, inputs, grad_fn):
            def checked(g):
                grads = grad_fn(g)
                seen.extend((grad_fn, np.asarray(x).dtype) for x in grads if x is not None)
                return grads
            seen.append((grad_fn, np.asarray(out_values).dtype))
            return finish(out_values, inputs, checked)

        monkeypatch.setattr(ad, "_finish", recording)
        trainer.train_stage_image(tiny_dataset, small_cfg("image", epochs=1))
        trainer.train_stage_local(tiny_dataset, stage1.params, small_cfg("local", epochs=1))
        assert seen
        promoted = {f.__qualname__ for f, dtype in seen if dtype != np.float32}
        assert not promoted


class TestImageBranchFrom:
    """The image branch comes out of a checkpoint in float32."""

    @staticmethod
    def branch_tensors(params):
        encoder, head = trainer.image_branch_from(params)
        out = dict(encoder.named("image.encoder"))
        out.update(head.named("image.head"))
        return out

    def test_float32_tensors_come_back_as_the_same_objects(self):
        with ad.precision(np.float32):
            params = trainer.init_image_params(small_cfg("image"), np.random.default_rng(0))
        got = self.branch_tensors(params)
        assert got.keys() == params.keys()
        assert all(got[name] is params[name] for name in params)

    def test_float64_tensors_are_copied_without_touching_the_dict(self):
        params = trainer.init_image_params(small_cfg("image"), np.random.default_rng(0))
        before = {name: (t, t.values.tobytes()) for name, t in params.items()}
        got = self.branch_tensors(params)
        assert got.keys() == params.keys()
        for name, tensor in got.items():
            assert tensor is not params[name]
            assert tensor.values.dtype == np.float32
            assert np.array_equal(tensor.values, params[name].values.astype(np.float32))
        assert params.keys() == before.keys()
        for name, (tensor, raw) in before.items():
            assert params[name] is tensor
            assert tensor.values.dtype == np.float64 and tensor.values.tobytes() == raw


def _cut(n):
    return lambda v: v[:n]


_MALFORMED = {  # id: (tensor, edit of its values)
    "block0_rows_not_9_per_channel": ("image.encoder.block0.w", _cut(8)),
    "block1_rows_against_block0": ("image.encoder.block1.w", _cut(-9)),
    "block1_bias_length": ("image.encoder.block1.b", _cut(-1)),
    "input_gain_not_scalar": ("image.encoder.input_gain", lambda v: np.r_[v, v]),
    "image_p_not_scalar": ("image.head.p", lambda v: np.r_[v, v]),
    "image_fc_w_rows_against_encoder": ("image.head.fc_w", _cut(5)),
    "image_fc_b_against_fc_w": ("image.head.fc_b", _cut(-1)),
    "vfe_w1_not_xyz_rows": ("pc.backbone.vfe.w1", _cut(2)),
    "vfe_b1_length": ("pc.backbone.vfe.b1", _cut(-1)),
    "conv0_meta_one_value": ("pc.backbone.conv0.meta", _cut(1)),
    "conv0_meta_even_kernel": ("pc.backbone.conv0.meta", lambda v: np.array([2.0, 2.0])),
    "conv1_meta_stride_0": ("pc.backbone.conv1.meta", lambda v: np.array([3.0, 0.0])),
    "conv1_meta_fractional_kernel": ("pc.backbone.conv1.meta", lambda v: np.array([1.5, 2.0])),
    "conv1_kernel_rows_against_conv0": ("pc.backbone.conv1.kernel", _cut(-1)),
    "conv0_bias_length": ("pc.backbone.conv0.bias", _cut(-1)),
    "pc_p_not_scalar": ("pc.head.p", lambda v: v.reshape(1, 1)),
    "pc_fc_w_rows_against_backbone": ("pc.head.fc_w", _cut(5)),
    "pc_fc_b_empty": ("pc.head.fc_b", lambda v: v[:0]),
}


@pytest.mark.parametrize("name,edit", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_checkpoint_tensor_is_named(stage3, name, edit):
    params = dict(stage3.params)
    params[name] = Tensor(edit(params[name].values))
    build = trainer.image_branch_from if name.startswith("image.") else trainer.pc_head_from
    with pytest.raises(ShapeMismatch, match=re.escape(f"checkpoint tensor {name!r}")):
        build(params)


def test_loss_history_csv(tmp_path):
    path = tmp_path / "h.csv"
    trainer.write_loss_history(path, [(0, 0, 1.5), (0, 1, 0.25)])
    assert path.read_text().splitlines() == ["epoch,step,loss", "0,0,1.5", "0,1,0.25"]


def test_params_digest_sensitive_to_values():
    a = {"x": Tensor([1.0])}
    b = {"x": Tensor([1.0 + 1e-12])}
    assert trainer.params_digest(a) != trainer.params_digest(b)
    assert trainer.params_digest(a) == trainer.params_digest({"x": Tensor([1.0])})
