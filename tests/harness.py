"""End-to-end synthetic experiment used by the acceptance suite."""

import time
from dataclasses import dataclass, field

import numpy as np

from vxp import heads, retrieval, trainer
from vxp.autodiff import Tensor
from vxp.geometry import default_grid_config
from vxp.synthetic import SyntheticSceneParams, synthetic_training_set
from vxp.trainer import StageConfig, sample_voxel_seed


@dataclass
class ExperimentConfig:
    seed: int = 0
    scenes: int = 128
    train_scenes: int = 96
    traversals: int = 2
    descriptor_dim: int = 256
    feature_dim: int = 64
    vfe_dim: int = 32
    conv_channels: tuple[int, int] = (32, 64)
    image_gain: float = 2.0
    augment_shift_px: int = 3
    stage1_epochs: int = 25
    stage2_epochs: int = 6
    stage3_epochs: int = 8
    stage1_batch: int = 32
    point_batch: int = 8
    stage1_lr: float = 1e-3
    stage2_lr: float = 2e-3
    stage3_lr: float = 1e-3
    projection: str = "perspective"
    scene_params: SyntheticSceneParams = field(default=None)

    def __post_init__(self):
        if self.scene_params is None:
            self.scene_params = SyntheticSceneParams(seed=self.seed)


@dataclass
class ExperimentResult:
    stage1: trainer.StageResult
    stage2: trainer.StageResult
    stage3: trainer.StageResult
    held_2d: dict[str, np.ndarray]  # descriptors/positions per traversal
    held_3d: dict[str, np.ndarray]
    seconds: dict[str, float]

    def epoch_means(self, stage_result):
        hist = stage_result.history
        epochs = sorted({e for e, _, _ in hist})
        return [float(np.mean([l for e, _, l in hist if e == ep])) for ep in epochs]


def extract_descriptors(dataset, params, cfg: ExperimentConfig):
    """Inference-mode descriptors for both branches over a dataset."""
    encoder, image_head = trainer.image_branch_from(params)
    backbone = trainer.backbone_from(params)
    pc_head = trainer.pc_head_from(params)
    voxel_config = dataset.voxel_config

    images = np.stack([s.image[..., None] for s in dataset.samples])
    img_desc = heads.encode_images(images, encoder, image_head).values
    pc_desc, positions, runs = [], [], []
    for s in dataset.samples:
        _, d3 = heads.point_cloud_encode(
            s.cloud, backbone, pc_head, voxel_config,
            sample_voxel_seed(s.sample_id, cfg.seed))
        pc_desc.append(d3.numpy())
        positions.append(s.position)
        runs.append(s.run_id)
    return (img_desc, np.asarray(pc_desc),
            np.asarray(positions), np.asarray(runs))


def run_experiment(cfg: ExperimentConfig,
                   stage1: trainer.StageResult | None = None) -> ExperimentResult:
    """Train all three stages and extract held-out descriptors.

    A given stage-1 result is reused instead of retraining the image branch,
    so ablation arms share one image branch and differ only in their config.
    """
    seconds = {}
    t0 = time.time()
    train_set = synthetic_training_set(cfg.scene_params, range(cfg.train_scenes),
                                       cfg.traversals, default_grid_config())
    held_set = synthetic_training_set(cfg.scene_params,
                                      range(cfg.train_scenes, cfg.scenes),
                                      cfg.traversals, default_grid_config())
    seconds["generate"] = time.time() - t0

    dims = dict(descriptor_dim=cfg.descriptor_dim, feature_dim=cfg.feature_dim,
                vfe_dim=cfg.vfe_dim, conv_channels=cfg.conv_channels,
                image_gain=cfg.image_gain)
    t0 = time.time()
    s1 = stage1 or trainer.train_stage_image(train_set, StageConfig(
        stage="image", epochs=cfg.stage1_epochs, base_lr=cfg.stage1_lr,
        batch_size=cfg.stage1_batch, seed=cfg.seed, lr_decay=0.97,
        augment_shift_px=cfg.augment_shift_px, **dims))
    seconds["stage1"] = time.time() - t0

    t0 = time.time()
    s2 = trainer.train_stage_local(train_set, s1.params, StageConfig(
        stage="local", epochs=cfg.stage2_epochs, base_lr=cfg.stage2_lr,
        batch_size=cfg.point_batch, seed=cfg.seed, projection=cfg.projection,
        **dims))
    seconds["stage2"] = time.time() - t0

    t0 = time.time()
    s3 = trainer.train_stage_global(train_set, s1.params, s2.params, StageConfig(
        stage="global", epochs=cfg.stage3_epochs, base_lr=cfg.stage3_lr,
        batch_size=cfg.point_batch, seed=cfg.seed, **dims))
    seconds["stage3"] = time.time() - t0

    t0 = time.time()
    img_desc, pc_desc, positions, runs = extract_descriptors(held_set, s3.params, cfg)
    seconds["extract"] = time.time() - t0

    held_2d = {"descriptors": img_desc, "positions": positions, "runs": runs}
    held_3d = {"descriptors": pc_desc, "positions": positions, "runs": runs}
    return ExperimentResult(stage1=s1, stage2=s2, stage3=s3,
                            held_2d=held_2d, held_3d=held_3d, seconds=seconds)


def split_by_run(bundle, run_id):
    keep = bundle["runs"] == run_id
    return bundle["descriptors"][keep], bundle["positions"][keep]


def recall_between(query_bundle, db_bundle, query_run, db_run, k=1,
                   one_percent=False):
    """Recall@k (or @1%) of one traversal's queries against the other's db."""
    q_desc, q_pos = split_by_run(query_bundle, query_run)
    db_desc, db_pos = split_by_run(db_bundle, db_run)
    index = retrieval.build_index(db_desc, np.arange(db_desc.shape[0], dtype=np.uint64),
                                  db_pos)
    queries = retrieval.QuerySet(q_desc, q_pos)
    protocol = retrieval.EvalProtocol()
    if one_percent:
        return retrieval.recall_at_one_percent(queries, index, protocol)
    return retrieval.recall_at_k(queries, index, protocol, k)
