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
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import constants
from .autodiff import Tensor
from .errors import NoCorrespondences, NoNegative, NoPositive, ShapeMismatch
from .geometry import ProjectedFeatureMap
from .heads import ImageFeatureMap

LOCAL_LOSS_MODES = ("depth_scaled", "collision_normalized")


def pairwise_l2(values: np.ndarray) -> np.ndarray:
    """Pairwise L2 distances between rows (plain numpy, no gradients)."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def pair_masks(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) (B, B) masks: samples within POSITIVE_THRESHOLD_M,
    and beyond NEGATIVE_THRESHOLD_M, of each other; none pairs with itself."""
    dists = pairwise_l2(positions)
    off_diag = ~np.eye(dists.shape[0], dtype=bool)
    return ((dists <= constants.POSITIVE_THRESHOLD_M) & off_diag,
            (dists > constants.NEGATIVE_THRESHOLD_M) & off_diag)


@dataclass
class TrainingBatch:
    """Descriptors with positive/negative pair masks derived from positions."""

    descriptors: Tensor       # (B, D_g)
    positions: np.ndarray     # (B, 3) meters
    positive_mask: np.ndarray  # (B, B) bool, symmetric
    negative_mask: np.ndarray

    @classmethod
    def from_positions(cls, descriptors: Tensor, positions: np.ndarray) -> "TrainingBatch":
        positions = np.asarray(positions, dtype=np.float64)
        return cls(descriptors, positions, *pair_masks(positions))

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def mine_hardest(batch: TrainingBatch) -> tuple[np.ndarray, np.ndarray]:
    """Hardest positive (max L2 distance) / negative (min) per anchor.

    Ties break toward the lowest index. Raises if any anchor lacks a
    positive or a negative candidate.
    """
    d = pairwise_l2(batch.descriptors.values)
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


def triplet_loss_batch_hard(batch: TrainingBatch) -> TripletResult:
    """Sum over anchors of max(0, d(a,p*) - d(a,n*) + TRIPLET_MARGIN), L2."""
    pos_idx, neg_idx = mine_hardest(batch)
    anchors = batch.descriptors
    idx = np.arange(batch.size)
    a = ad.gather_rows(anchors, idx)
    p = ad.gather_rows(anchors, pos_idx)
    n = ad.gather_rows(anchors, neg_idx)
    d_pos = ad.rownorm(ad.sub(a, p))
    d_neg = ad.rownorm(ad.sub(a, n))
    hinge = ad.relu(ad.add_scalar(ad.sub(d_pos, d_neg), constants.TRIPLET_MARGIN))
    loss = ad.tsum(hinge)
    zero = int(np.count_nonzero(hinge.values == 0.0))
    return TripletResult(loss=loss, hardest_positive=pos_idx,
                         hardest_negative=neg_idx, zero_triplets=zero)


def zero_triplet_expansion(zero_count: int, batch_size: int) -> int:
    """Grow the batch when the zero-triplet fraction strictly exceeds
    ZERO_TRIPLET_TRIGGER; growth is by BATCH_EXPANSION_RATE, capped at
    MAX_BATCH_SIZE."""
    if not 0 <= zero_count <= batch_size:
        raise ValueError("zero_count must be within [0, batch_size]")
    if zero_count / batch_size > constants.ZERO_TRIPLET_TRIGGER:
        return min(math.ceil(batch_size * constants.BATCH_EXPANSION_RATE),
                   constants.MAX_BATCH_SIZE)
    return batch_size


def _huber_elements(x: Tensor) -> Tensor:
    """Elementwise smooth-L1: 0.5 x^2/beta below beta, |x| - beta/2 above,
    with beta = SMOOTH_L1_BETA."""
    beta = constants.SMOOTH_L1_BETA
    absx = ad.absolute(x)
    quad_region = (absx.values < beta).astype(absx.values.dtype)
    quad = ad.smul(ad.mul(x, x), 0.5 / beta)
    lin = ad.add_scalar(absx, -0.5 * beta)
    return ad.add(ad.cmul(quad, quad_region), ad.cmul(lin, 1.0 - quad_region))


def smooth_l1(x: Tensor) -> Tensor:
    """Smooth-L1 applied elementwise and summed over all elements."""
    return ad.tsum(_huber_elements(x))


def local_descriptor_loss(projected: ProjectedFeatureMap, voxel_feats: Tensor,
                          image_map: ImageFeatureMap,
                          mode: str = "collision_normalized") -> Tensor:
    """Alignment loss between projected voxel descriptors and image features.

    Gradients reach every projected voxel in both modes, including all
    members of a collision set.
    """
    if mode not in LOCAL_LOSS_MODES:
        raise ValueError(f"unknown local loss mode {mode!r}")
    if projected.num_entries == 0:
        raise NoCorrespondences("no projected entries")
    if projected.width != image_map.width or projected.height != image_map.height:
        raise ShapeMismatch("projected map and image map dims differ")

    v_feats = ad.gather_rows(voxel_feats, projected.voxel_index)
    i_feats = ad.gather_rows(image_map.feats, projected.pixel_flat())

    if mode == "depth_scaled":
        residual = ad.sub(ad.scale_rows(v_feats, projected.inverse_depth), i_feats)
        return smooth_l1(residual)

    # collision_normalized: convex per-pixel weights from inverse depths
    flat = projected.pixel_flat()
    totals = np.zeros(image_map.width * image_map.height)
    np.add.at(totals, flat, projected.inverse_depth)
    weights = projected.inverse_depth / totals[flat]
    residual = ad.sub(v_feats, i_feats)
    return ad.tsum(ad.scale_rows(_huber_elements(residual), weights))


def global_descriptor_loss(image_desc: Tensor, cloud_desc: Tensor) -> Tensor:
    """Smooth-L1 between matched global descriptors, summed over the batch."""
    if image_desc.shape != cloud_desc.shape:
        raise ShapeMismatch(f"{image_desc.shape} vs {cloud_desc.shape}")
    return smooth_l1(ad.sub(image_desc, cloud_desc))
