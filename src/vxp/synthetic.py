"""Seeded synthetic scenes for end-to-end verification.

A scene is a handful of axis-aligned boxes inside the standard crop box.
Each traversal of a scene resamples surface points with fresh noise and a
small sensor pose jitter, yielding a cloud in the sensor frame, a rendered
1-channel image (inverse depth splatted through the same projection model
the training pipeline uses), and a world position for ground truth.

Jitter is clipped so two traversals of one scene always stay within the
positive-pair threshold while distinct scenes (spaced far apart) remain
negatives: no dead-zone pairs exist by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import LoadedSample, TrainingSet
from .geometry import (PointCloud, ProjectionModel, VoxelGridConfig, default_grid_config,
                       pinhole)

SCENE_SPACING_M = 60.0
POSE_JITTER_CLIP_M = 4.0


@dataclass(frozen=True)
class SyntheticSceneParams:
    box_count_min: int = 5
    box_count_max: int = 15
    points_per_cloud: int = 2048
    image_width: int = 64
    image_height: int = 64
    pose_jitter_std_m: float = 0.75
    noise_std_m: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.box_count_min < 1 or self.box_count_max < self.box_count_min:
            raise ValueError("bad box count range")
        if self.points_per_cloud < 1 or self.image_width < 1 or self.image_height < 1:
            raise ValueError("sizes must be positive")
        if self.pose_jitter_std_m < 0 or self.noise_std_m < 0:
            raise ValueError("noise parameters must be non-negative")


def default_projection_model() -> ProjectionModel:
    """Forward-looking camera: sensor x becomes camera z (depth)."""
    rot = np.array([
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
    ])
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = rot
    return ProjectionModel(fx_n=1.0, fy_n=1.0, cx_n=0.5, cy_n=0.5,
                           extrinsic=extrinsic)


def _scene_boxes(params: SyntheticSceneParams, scene_seed: int) -> np.ndarray:
    """Axis-aligned boxes (n, 2, 3) in the sensor frame, inset so jittered
    traversals keep most geometry inside the crop box and camera frustum."""
    rng = np.random.default_rng(params.seed * 1_000_003 + scene_seed)
    n = int(rng.integers(params.box_count_min, params.box_count_max + 1))
    centers = np.column_stack([
        rng.uniform(8.0, 38.0, n),
        rng.uniform(-14.0, 14.0, n),
        rng.uniform(-1.0, 8.0, n),
    ])
    sizes = rng.uniform(1.0, 6.0, size=(n, 3))
    return np.stack([centers - sizes / 2.0, centers + sizes / 2.0], axis=1)


def _sample_box_surfaces(boxes: np.ndarray, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish surface sampling: random box, random face, uniform on face."""
    n = boxes.shape[0]
    box_pick = rng.integers(0, n, size=count)
    face_pick = rng.integers(0, 6, size=count)
    u = rng.uniform(0.0, 1.0, size=(count, 3))
    lo = boxes[box_pick, 0]
    hi = boxes[box_pick, 1]
    pts = lo + u * (hi - lo)
    axis = face_pick // 2
    side = face_pick % 2
    rows = np.arange(count)
    pts[rows, axis] = np.where(side == 0, lo[rows, axis], hi[rows, axis])
    return pts


def render_inverse_depth_image(points: np.ndarray, proj: ProjectionModel,
                               width: int, height: int) -> np.ndarray:
    """Splat inverse depth onto a pixel grid; max inverse depth wins a pixel."""
    u, v, _, _, depth, vis = pinhole(points, proj, width, height)
    image = np.zeros((height, width))
    np.maximum.at(image, (v[vis], u[vis]), 1.0 / depth[vis])
    return image


def generate_synthetic_scene(params: SyntheticSceneParams, scene_seed: int,
                             traversal: int = 0) -> LoadedSample:
    """One traversal of one scene, bitwise deterministic in all arguments: run
    t<traversal> at traversal * 10000 + scene_seed * 20 s."""
    boxes = _scene_boxes(params, scene_seed)
    rng = np.random.default_rng(
        (params.seed * 1_000_003 + scene_seed) * 97 + traversal + 1)

    offset = np.zeros(3)
    if traversal > 0:
        offset[:2] = rng.normal(0.0, params.pose_jitter_std_m, size=2)
        norm = np.linalg.norm(offset)
        if norm > POSE_JITTER_CLIP_M:
            offset *= POSE_JITTER_CLIP_M / norm

    world_pts = _sample_box_surfaces(boxes, params.points_per_cloud, rng)
    world_pts = world_pts + rng.normal(0.0, params.noise_std_m,
                                       size=world_pts.shape)
    sensor_pts = world_pts - offset

    image = render_inverse_depth_image(sensor_pts, default_projection_model(),
                                       params.image_width, params.image_height)
    base = np.array([SCENE_SPACING_M * scene_seed, 0.0, 0.0])
    position = tuple(float(x) for x in base + offset)
    sample_id = f"s{scene_seed:04d}_t{traversal}"
    return LoadedSample(
        sample_id=sample_id, timestamp_s=traversal * 10_000.0 + scene_seed * 20.0,
        position=position, run_id=f"t{traversal}", image=image,
        cloud=PointCloud(sensor_pts, sample_id=sample_id))


def synthetic_training_set(params: SyntheticSceneParams, scene_seeds,
                           traversals: int = 2,
                           voxel_config: VoxelGridConfig | None = None) -> TrainingSet:
    """In-memory dataset over the given scenes, one sample per traversal."""
    samples = [generate_synthetic_scene(params, scene, t)
               for scene in scene_seeds for t in range(traversals)]
    return TrainingSet(samples=samples, projection=default_projection_model(),
                       voxel_config=voxel_config or default_grid_config())
