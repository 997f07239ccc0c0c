"""Training objectives: batch-hard triplet, local alignment, global alignment.

The local alignment loss compares projected voxel descriptors with image
features at the pixels they land on. Two interpretations of the inverse-depth
weighting are provided:

  * "collision_normalized" (default): inverse depths are normalized per pixel
    into convex weights applied to each entry's residual loss, so closer
    voxels dominate a collision while every colliding voxel still receives
    gradient. Each voxel feature is pulled toward the image feature itself,
    so voxel and image features share one space, as the global stage needs.
  * "depth_scaled": the inverse depth scales the voxel feature inside the
    residual, i.e. smooth_l1(d * voxel_feat - image_feat). Its minimum puts
    each voxel feature at depth times the image feature, 8-38x the image
    feature scale on the synthetic scenes, outside the image feature space.

Both keep all collision entries; nothing is z-buffered away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import constants
from .autodiff import Tensor
from .errors import (NoCorrespondences, NoNegative, NonPositiveBeta, NoPositive,
                     ShapeMismatch)
from .geometry import ProjectedFeatureMap
from .heads import ImageFeatureMap

LOCAL_LOSS_MODES = ("depth_scaled", "collision_normalized")


@dataclass(frozen=True)
class TripletConfig:
    margin: float = constants.TRIPLET_MARGIN
    distance: str = "L2"  # or "L1"
    zero_triplet_trigger: float = constants.ZERO_TRIPLET_TRIGGER
    expansion_rate: float = constants.BATCH_EXPANSION_RATE
    max_batch: int = constants.MAX_BATCH_SIZE

    def __post_init__(self):
        if self.margin <= 0.0:
            raise ValueError("margin must be positive")
        if not 0.0 < self.zero_triplet_trigger < 1.0:
            raise ValueError("trigger must be a fraction in (0, 1)")
        if self.expansion_rate <= 1.0:
            raise ValueError("expansion rate must exceed 1")
        if self.distance not in ("L2", "L1"):
            raise ValueError(f"unknown distance {self.distance!r}")


@dataclass
class TrainingBatch:
    """Descriptors with positive/negative pair masks derived from positions."""

    descriptors: Tensor       # (B, D_g)
    positions: np.ndarray     # (B, 3) meters
    positive_mask: np.ndarray = field(default=None)  # (B, B) bool, symmetric
    negative_mask: np.ndarray = field(default=None)

    @classmethod
    def from_positions(cls, descriptors: Tensor, positions: np.ndarray) -> "TrainingBatch":
        positions = np.asarray(positions, dtype=np.float64)
        dists = np.sqrt(((positions[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2))
        off_diag = ~np.eye(positions.shape[0], dtype=bool)
        return cls(
            descriptors=descriptors,
            positions=positions,
            positive_mask=(dists <= constants.POSITIVE_THRESHOLD_M) & off_diag,
            negative_mask=(dists > constants.NEGATIVE_THRESHOLD_M) & off_diag,
        )

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def descriptor_distances(values: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise distance matrix used for mining (plain numpy, no gradients)."""
    diff = values[:, None, :] - values[None, :, :]
    if metric == "L2":
        return np.sqrt((diff ** 2).sum(axis=2))
    return np.abs(diff).sum(axis=2)


def mine_hardest(batch: TrainingBatch, metric: str = "L2"
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Hardest positive (max distance) / negative (min distance) per anchor.

    Ties break toward the lowest index. Raises if any anchor lacks a
    positive or a negative candidate.
    """
    d = descriptor_distances(batch.descriptors.values, metric)
    for a in range(batch.size):
        if not batch.positive_mask[a].any():
            raise NoPositive(f"anchor {a} has no positive")
        if not batch.negative_mask[a].any():
            raise NoNegative(f"anchor {a} has no negative")
    pos_idx = np.where(batch.positive_mask, d, -np.inf).argmax(axis=1)
    neg_idx = np.where(batch.negative_mask, d, np.inf).argmin(axis=1)
    return pos_idx.astype(np.int64), neg_idx.astype(np.int64)


@dataclass
class TripletResult:
    loss: Tensor
    hardest_positive: np.ndarray
    hardest_negative: np.ndarray
    zero_triplets: int


def triplet_loss_batch_hard(batch: TrainingBatch, cfg: TripletConfig) -> TripletResult:
    """Sum over anchors of max(0, d(a,p*) - d(a,n*) + margin)."""
    pos_idx, neg_idx = mine_hardest(batch, cfg.distance)
    anchors = batch.descriptors
    idx = np.arange(batch.size)
    a = ad.gather_rows(anchors, idx)
    p = ad.gather_rows(anchors, pos_idx)
    n = ad.gather_rows(anchors, neg_idx)
    if cfg.distance == "L2":
        d_pos = ad.rownorm(ad.sub(a, p))
        d_neg = ad.rownorm(ad.sub(a, n))
    else:
        d_pos = ad.tsum(ad.absolute(ad.sub(a, p)), axis=1)
        d_neg = ad.tsum(ad.absolute(ad.sub(a, n)), axis=1)
    hinge = ad.relu(ad.add_scalar(ad.sub(d_pos, d_neg), cfg.margin))
    loss = ad.tsum(hinge)
    zero = int(np.count_nonzero(hinge.values == 0.0))
    return TripletResult(loss=loss, hardest_positive=pos_idx,
                         hardest_negative=neg_idx, zero_triplets=zero)


def zero_triplet_expansion(zero_count: int, batch_size: int,
                           cfg: TripletConfig) -> int:
    """Grow the batch when the zero-triplet fraction strictly exceeds the
    trigger; growth is by the expansion rate, capped at max_batch."""
    if not 0 <= zero_count <= batch_size:
        raise ValueError("zero_count must be within [0, batch_size]")
    if zero_count / batch_size > cfg.zero_triplet_trigger:
        return min(math.ceil(batch_size * cfg.expansion_rate), cfg.max_batch)
    return batch_size


def _huber_elements(x: Tensor, beta: float) -> Tensor:
    """Elementwise smooth-L1: 0.5 x^2/beta below beta, |x| - beta/2 above."""
    absx = ad.absolute(x)
    quad_region = (absx.values < beta).astype(absx.values.dtype)
    quad = ad.smul(ad.mul(x, x), 0.5 / beta)
    lin = ad.add_scalar(absx, -0.5 * beta)
    return ad.add(ad.cmul(quad, quad_region), ad.cmul(lin, 1.0 - quad_region))


def smooth_l1(x: Tensor, beta: float = constants.SMOOTH_L1_BETA) -> Tensor:
    """Smooth-L1 applied elementwise and summed over all elements."""
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta must be positive, got {beta}")
    return ad.tsum(_huber_elements(x, beta))


def local_descriptor_loss(projected: ProjectedFeatureMap, voxel_feats: Tensor,
                          image_map: ImageFeatureMap,
                          mode: str = "collision_normalized",
                          beta: float = constants.SMOOTH_L1_BETA) -> Tensor:
    """Alignment loss between projected voxel descriptors and image features.

    Gradients reach every projected voxel in both modes, including all
    members of a collision set.
    """
    if mode not in LOCAL_LOSS_MODES:
        raise ValueError(f"unknown local loss mode {mode!r}")
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta must be positive, got {beta}")
    if projected.num_entries == 0:
        raise NoCorrespondences("no projected entries")
    if projected.width != image_map.width or projected.height != image_map.height:
        raise ShapeMismatch("projected map and image map dims differ")

    v_feats = ad.gather_rows(voxel_feats, projected.voxel_index)
    i_feats = ad.gather_rows(image_map.feats, projected.pixel_flat())

    if mode == "depth_scaled":
        residual = ad.sub(ad.scale_rows(v_feats, projected.inverse_depth), i_feats)
        return smooth_l1(residual, beta)

    # collision_normalized: convex per-pixel weights from inverse depths
    flat = projected.pixel_flat()
    totals = np.zeros(image_map.width * image_map.height)
    np.add.at(totals, flat, projected.inverse_depth)
    weights = projected.inverse_depth / totals[flat]
    residual = ad.sub(v_feats, i_feats)
    return ad.tsum(ad.scale_rows(_huber_elements(residual, beta), weights))


def global_descriptor_loss(image_desc: Tensor, cloud_desc: Tensor,
                           beta: float = constants.SMOOTH_L1_BETA) -> Tensor:
    """Smooth-L1 between matched global descriptors, summed over the batch."""
    if image_desc.shape != cloud_desc.shape:
        raise ShapeMismatch(f"{image_desc.shape} vs {cloud_desc.shape}")
    return smooth_l1(ad.sub(image_desc, cloud_desc), beta)
