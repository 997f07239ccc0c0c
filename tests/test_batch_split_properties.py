"""Descriptor rows do not depend on how a batch is split into calls.

`vxp extract` and stage 3 cut a manifest into consecutive runs of images
(heads.image_batches) and hand encode_clouds whatever it is given, so a
row's bytes should not depend on its neighbours. Any split into consecutive
chunks of two or more gives encode_images and encode_clouds rows bit-equal
to one batch: every such call does its FC product as one GEMM, which rounds
each row as the one-batch GEMM does. A chunk of one row is a one-row product
(numpy's gemv path), which rounds differently; those rows stay within
oracles.fc_rounding_bound of the batch's rows. Making chunks of one
bit-equal too waits for ROADMAP item 12 step 1 (one rule for the FC
product).
"""

import functools
import itertools

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import fc_rounding_bound
from vxp import heads, sparse3d, trainer
from vxp.geometry import default_grid_config, voxelize
from vxp.synthetic import SyntheticSceneParams, synthetic_training_set

SETTINGS = settings(max_examples=6, deadline=None, database=None)

# the harness's widths: 64 pooled features onto 256 descriptor dimensions
CFG = trainer.StageConfig(stage="global", descriptor_dim=256, feature_dim=64, vfe_dim=32,
                          conv_channels=(32, 64), image_gain=2.0)


@functools.cache
def model():
    """24 synthetic samples; the float32 image branch as a checkpoint hands it
    out, and a float64 voxel branch as `vxp extract --modality 3d` runs it."""
    rng = np.random.default_rng(11)
    params = trainer.init_image_params(CFG, rng)
    backbone = trainer.init_backbone_into(params, CFG, rng)
    head = trainer.init_pc_head_into(params, CFG, rng)
    encoder, image_head = trainer.image_branch_from(params)
    data = synthetic_training_set(SyntheticSceneParams(seed=11), range(12), 2,
                                  default_grid_config())
    images = np.stack([s.image for s in data.samples])[..., None]
    grids = [voxelize(s.cloud, data.voxel_config, 0) for s in data.samples]
    pairs = [(g, sparse3d.plan_backbone(g, backbone)) for g in grids]
    return {
        "images": (lambda lo, hi: heads.encode_images(images[lo:hi], encoder, image_head),
                   image_head, _image_pooled(images, encoder, image_head)),
        "clouds": (lambda lo, hi: heads.encode_clouds(pairs[lo:hi], backbone, head),
                   head, np.stack([heads.gem_pool(sparse3d.point_cloud_backbone(
                       g, backbone, p).feats, head.p).values for g, p in pairs])),
    }


def _image_pooled(images, encoder, head):
    """Each image's GeM-pooled feature row, as encode_images pools it."""
    with encoder.precision():
        feats, ow, oh = heads.encode_image_batch(images, encoder)
        b = images.shape[0]
        return heads.gem_pool_segments(feats, np.repeat(np.arange(b), oh * ow), b,
                                       head.p).values


def split(n: int, sizes: list[int]) -> list[list[int]]:
    """Consecutive [lo, hi) chunks of range(n) with the drawn sizes, cycled;
    a last chunk of one row joins the chunk before it."""
    bounds, lo = [], 0
    for size in itertools.cycle(sizes):
        if lo >= n:
            break
        bounds.append([lo, min(lo + size, n)])
        lo += size
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        last = bounds.pop()
        bounds[-1][1] = last[1]
    return bounds


def encoded(branch: str, bounds) -> np.ndarray:
    encode = model()[branch][0]
    return np.concatenate([encode(lo, hi).values for lo, hi in bounds])


@seed(12)
@SETTINGS
@given(branch=st.sampled_from(["images", "clouds"]),
       sizes=st.lists(st.integers(2, 24), min_size=1, max_size=6))
def test_chunks_of_two_or_more_are_bit_equal_to_one_batch(branch, sizes):
    whole = encoded(branch, [(0, 24)])
    assert all(hi - lo >= 2 for lo, hi in split(24, sizes))
    assert encoded(branch, split(24, sizes)).tobytes() == whole.tobytes()


def test_chunks_of_one_stay_within_fc_rounding():
    for branch in ("images", "clouds"):
        _, head, pooled = model()[branch]
        whole = encoded(branch, [(0, 24)])
        single = encoded(branch, [(i, i + 1) for i in range(24)])
        bound = fc_rounding_bound(pooled, head.fc_w.values, head.fc_b.values)
        assert np.all(np.abs(single.astype(np.float64) - whole) <= bound), branch
