"""Encoder heads producing global descriptors for both branches.

The image encoder is a small convolutional stack whose only hard contract is
the feature geometry: an H x W input yields an (H//8) x (W//8) x D map, which
the voxel-to-pixel projection and local loss rely on. Three overlapping
3x3 stride-2 patch convolutions (padding 1 on the low side only) realize
the exact floor division for odd sizes too. Pooling is generalized-mean
(learnable exponent) followed by a fully-connected projection to the shared
descriptor dimension.

Descriptors are intentionally NOT L2-normalized: the global alignment loss
regresses raw vectors, and retrieval uses the same raw geometry.

The image branch computes in the dtype of its encoder's weights: float32 for
the weights trainer.image_branch_from hands out (training and inference
alike), float64 for float64 weights such as the gradient tests build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import autodiff as ad
from . import constants
from .autodiff import Tensor
from .errors import EmptyInput, NonPositiveP, ShapeMismatch, TooSmall
from .geometry import PointCloud, VoxelGrid, VoxelGridConfig, voxelize
from .sparse3d import BackboneParams, BackbonePlans, SparseFeatureMap, point_cloud_backbone

GEM_EPS = 1e-12
GEM_INITIAL_P = 3.0


@dataclass
class ImageFeatureMap:
    """Dense 2-D feature grid, stored row-major as ((height*width), channels)."""

    width: int
    height: int
    channels: int
    feats: Tensor  # (height * width, channels), row-major by (v, u)


@dataclass
class GlobalDescriptor:
    vector: Tensor  # (descriptor_dim,), or (B, descriptor_dim) for B pooled rows
    source_modality: str  # "image" | "point_cloud"
    sample_id: str = ""

    def numpy(self) -> np.ndarray:
        return self.vector.values


@dataclass
class GemFcnParams:
    """Generalized-mean pooling exponent plus the descriptor projection."""

    p: Tensor     # scalar > 0
    fc_w: Tensor  # (feature_dim, descriptor_dim)
    fc_b: Tensor  # (descriptor_dim,)

    def named(self, prefix: str = "head") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.p", self.p
        yield f"{prefix}.fc_w", self.fc_w
        yield f"{prefix}.fc_b", self.fc_b


def init_gem_fcn_params(feature_dim: int, descriptor_dim: int,
                        rng: np.random.Generator) -> GemFcnParams:
    scale = np.sqrt(1.0 / feature_dim)
    return GemFcnParams(
        p=Tensor(GEM_INITIAL_P, requires_grad=True),
        fc_w=Tensor(rng.normal(0.0, scale, size=(feature_dim, descriptor_dim)),
                    requires_grad=True),
        fc_b=Tensor(np.zeros(descriptor_dim), requires_grad=True),
    )


@dataclass
class ImageEncoderParams:
    """Three overlapping 3x3 stride-2 conv blocks with ReLU; downsample 8.

    input_gain is a frozen scale applied to raw pixels before block 1 so
    datasets with small value ranges (inverse-depth grids) land in a healthy
    activation regime; it is serialized with the weights.
    """

    block_w: list[Tensor]  # each (9 * c_in, c_out)
    block_b: list[Tensor]
    input_gain: Tensor = None  # scalar, not trained

    def __post_init__(self):
        if self.input_gain is None:
            self.input_gain = Tensor(1.0)

    def precision(self):
        """The compute dtype of these weights, as an ad.precision block."""
        return ad.precision(self.block_w[0].values.dtype)

    def named(self, prefix: str = "encoder") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.input_gain", self.input_gain
        for i, (w, b) in enumerate(zip(self.block_w, self.block_b)):
            yield f"{prefix}.block{i}.w", w
            yield f"{prefix}.block{i}.b", b


def init_image_encoder_params(in_channels: int, rng: np.random.Generator,
                              channels: tuple[int, int, int] = (32, 64, 64),
                              input_gain: float = 1.0) -> ImageEncoderParams:
    ws, bs = [], []
    c_prev = in_channels
    for c_out in channels:
        fan_in = 9 * c_prev
        ws.append(Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, c_out)),
                         requires_grad=True))
        bs.append(Tensor(np.zeros(c_out), requires_grad=True))
        c_prev = c_out
    return ImageEncoderParams(block_w=ws, block_b=bs,
                              input_gain=Tensor(float(input_gain)))


def encode_image_batch(images: np.ndarray, params: ImageEncoderParams
                       ) -> tuple[Tensor, int, int]:
    """Encode a (B, H, W, C) batch; returns ((B*H//8*W//8), D) plus out dims.

    Rows are ordered sample-major then row-major by (v, u), so per-sample
    feature maps are contiguous row blocks. Computes in the weights' dtype.
    """
    b, h, w, c = images.shape
    if h < constants.IMAGE_DOWNSAMPLE or w < constants.IMAGE_DOWNSAMPLE:
        raise TooSmall(f"image {h}x{w} smaller than {constants.IMAGE_DOWNSAMPLE}")
    gain = float(params.input_gain.values.reshape(()))
    with params.precision():
        x = Tensor(images.reshape(b * h * w, c) * gain)
        ch, cw = h, w
        for wt, bt in zip(params.block_w, params.block_b):
            patches = ad.patches_3x3_s2(x, b, ch, cw)
            x = ad.linear_relu(patches, wt, bt)
            ch, cw = ch // 2, cw // 2
    return x, cw, ch


# Images per batch: the batch bounds memory on large manifests; a manifest
# this size or smaller is encoded as the test harness encodes a dataset, in
# one batch, so both get the same bytes.
IMAGE_BATCH = 256


def image_batches(images: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """(B, H, W, 1) batches, B <= IMAGE_BATCH, of consecutive (H, W) images of
    one size: the one image batching, for `vxp extract` and training targets."""
    batch = []
    for image in images:
        if batch and (len(batch) == IMAGE_BATCH or image.shape != batch[0].shape):
            yield np.stack(batch)[..., None]
            batch = []
        batch.append(image)
    if batch:
        yield np.stack(batch)[..., None]


def gem_pool(features: Tensor, p: Tensor) -> Tensor:
    """Generalized mean over rows: ((1/N) sum x^p)^(1/p), per channel.

    Inputs are clamped at a tiny floor so the fractional powers stay real for
    exactly-zero activations without affecting positive features.
    """
    if features.shape[0] == 0:
        raise EmptyInput("gem_pool needs at least one feature")
    if float(p.values.reshape(())) <= 0.0:
        raise NonPositiveP("gem exponent must be positive")
    n = features.shape[0]
    x = ad.clamp_min(features, GEM_EPS)
    powered = ad.power_t(x, p)
    mean_pow = ad.smul(ad.tsum(powered, axis=0), 1.0 / n)
    return _gem_root(mean_pow, p)


def gem_pool_segments(features: Tensor, segment_ids: np.ndarray, num_segments: int,
                      p: Tensor) -> Tensor:
    """Batched gem_pool over contiguous row segments -> (num_segments, D)."""
    if features.shape[0] == 0:
        raise EmptyInput("gem_pool needs at least one feature")
    if float(p.values.reshape(())) <= 0.0:
        raise NonPositiveP("gem exponent must be positive")
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    x = ad.clamp_min(features, GEM_EPS)
    powered = ad.power_t(x, p)
    mean_pow = ad.scale_rows(ad.segment_sum(powered, segment_ids, num_segments),
                             1.0 / counts)
    return _gem_root(mean_pow, p)


def _gem_root(mean_pow: Tensor, p: Tensor) -> Tensor:
    """mean_pow^(1/p). The floor at the dtype's smallest normal number keeps
    the root's gradient finite where a channel's mean power underflows to 0:
    an all-zero channel does so in float32 once p exceeds about 3.7. It never
    binds in float64 (GEM_EPS^p is far above it for any practical p)."""
    floor = float(np.finfo(mean_pow.values.dtype).tiny)
    return ad.power_t(ad.clamp_min(mean_pow, floor), ad.power(p, -1.0))


def fcn_project(pooled: Tensor, params: GemFcnParams, modality: str,
                sample_id: str = "") -> GlobalDescriptor:
    """Affine map of a pooled (F,) vector, or of (B, F) pooled rows in one
    product, to the descriptor space: the FC of both branches."""
    width = params.fc_w.shape[0]
    if pooled.values.ndim not in (1, 2) or pooled.shape[-1] != width:
        raise ShapeMismatch(f"pooled {pooled.shape} vs fc {params.fc_w.shape}")
    out = ad.add_rowvec(ad.matmul(ad.reshape(pooled, (-1, width)), params.fc_w),
                        params.fc_b)
    return GlobalDescriptor(vector=ad.reshape(out, (*pooled.shape[:-1], -1)),
                            source_modality=modality, sample_id=sample_id)


def encode_images(images: np.ndarray, encoder: ImageEncoderParams,
                  head: GemFcnParams) -> Tensor:
    """Descriptors of a (B, H, W, C) batch -> (B, descriptor_dim).

    The only image-descriptor path: each image's feature rows are GeM-pooled
    as one segment and put through the FC head, in training and inference,
    in the encoder weights' dtype.
    """
    with encoder.precision():
        feats, ow, oh = encode_image_batch(images, encoder)
        b = images.shape[0]
        pooled = gem_pool_segments(feats, np.repeat(np.arange(b), oh * ow), b, head.p)
        return fcn_project(pooled, head, "image").vector


def encode_clouds(grids: Iterable[tuple[VoxelGrid, BackbonePlans | None]],
                  backbone: BackboneParams, head: GemFcnParams) -> Tensor:
    """Descriptors of (grid, plans) pairs -> (B, descriptor_dim), the one voxel
    path: each grid is GeM-pooled as it arrives, so one feature map is alive
    at a time, and the pooled rows go through the FC in one product."""
    pooled = [gem_pool(point_cloud_backbone(grid, backbone, plans).feats, head.p)
              for grid, plans in grids]
    return fcn_project(ad.stack_rows(pooled), head, "point_cloud").vector


def image_global_descriptor(image: np.ndarray, encoder: ImageEncoderParams,
                            head: GemFcnParams, sample_id: str = "") -> GlobalDescriptor:
    """One (H, W, C) image's descriptor, as a batch of one for encode_images."""
    with encoder.precision():
        batch = np.asarray(image, dtype=np.float64)[None]
        vector = ad.reshape(encode_images(batch, encoder, head), (-1,))
    return GlobalDescriptor(vector=vector, source_modality="image", sample_id=sample_id)


def point_cloud_encode(cloud: PointCloud, backbone: BackboneParams,
                       head: GemFcnParams, config: VoxelGridConfig, seed: int,
                       plans: BackbonePlans | None = None,
                       ) -> tuple[SparseFeatureMap, GlobalDescriptor]:
    """One cloud's sparse map and descriptor, for the benchmark in perfbench/;
    vxp itself encodes clouds with encode_clouds. Goes with ROADMAP item 7.3."""
    grid = voxelize(cloud, config, seed)
    fmap = point_cloud_backbone(grid, backbone, plans)
    pooled = gem_pool(fmap.feats, head.p)
    return fmap, fcn_project(pooled, head, "point_cloud", cloud.sample_id)
