"""Three-stage training orchestration.

Stage "image"  trains the image branch with batch-hard triplets.
Stage "local"  freezes the image branch and trains the voxel backbone so
               projected voxel descriptors match image features pixel-wise.
Stage "global" keeps the image branch frozen, gives the voxel branch a
               pooling/FC head copied from the image head and regresses
               image descriptors directly.

Checkpoints are flat name->tensor dicts with prefixes "image." and "pc.";
stage prerequisites are enforced by checking for those groups. Every stage
is bitwise deterministic given (config, seed): all randomness flows from one
generator, data order is fixed, and parameters update in sorted-name order.

Each stage computes in float32 and returns float64 parameters (widening is
exact); the frozen image branch of stages 2 and 3 is returned exactly as it
was given, never rounded through float32.
"""

from __future__ import annotations

import hashlib
import logging
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import constants, heads, losses, sparse3d
from .autodiff import Tape, Tensor
# write_checkpoint is bound here for the benchmark's tracer (perfbench/spans.py)
from .dataio import TrainingSet, write_checkpoint  # noqa: F401
from .errors import (AllPointsCulled, DegenerateDataset, EmptyCloud,
                     NoVisibleVoxels, ShapeMismatch)
from .geometry import (ProjectedFeatureMap, VoxelGrid, VoxelGridConfig,
                       default_grid_config, orthographic_project, project_voxels,
                       voxelize)
from .losses import TrainingBatch, TripletConfig

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Training computes in float32, as the paper's PyTorch setting does;
# checkpoints and inference stay float64.
TRAIN_DTYPE = np.float32


@dataclass
class StageConfig:
    stage: str  # "image" | "local" | "global"
    epochs: int = 10
    base_lr: float = 1e-3
    lr_decay: float = 0.9  # per-epoch multiplier is lr_decay ** epoch
    batch_size: int = 32
    seed: int = 0
    local_loss_mode: str = "collision_normalized"
    projection: str = "perspective"  # or "orthographic" (ablation)
    image_gain: float = 1.0
    augment_shift_px: int = 0  # stage 1 only: random +-px translations
    conv_channels: tuple[int, ...] | None = None  # default: (feature_dim, feature_dim)
    descriptor_dim: int = 256
    feature_dim: int = 64
    vfe_dim: int = 32
    image_channels: tuple[int, int] = (32, 64)

    def __post_init__(self):
        if self.stage not in ("image", "local", "global"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.epochs < 1 or self.base_lr <= 0:
            raise ValueError("epochs >= 1 and base_lr > 0 required")
        if self.projection not in ("perspective", "orthographic"):
            raise ValueError(f"unknown projection {self.projection!r}")


def lr_schedule(epoch: int, base_lr: float, decay: float = 0.9) -> float:
    """base_lr times decay**epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return base_lr * decay ** epoch


class AdamState:
    """Per-parameter moment buffers plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.moments = {name: (np.zeros_like(t.values), np.zeros_like(t.values))
                        for name, t in params.items()}
        self.step_count = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Standard bias-corrected update, applied in sorted-name order.

    Parameters with no gradient this step are left untouched.
    """
    state.step_count += 1
    t = state.step_count
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    for name in sorted(params):
        tensor = params[name]
        if tensor.grad is None:
            continue
        g = tensor.grad
        if g.shape != tensor.values.shape:
            raise ShapeMismatch(f"{name}: grad {g.shape} vs value {tensor.values.shape}")
        m, v = state.moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
        tensor.values = tensor.values - lr * update


def params_digest(params: dict[str, Tensor], prefix: str = "") -> str:
    """SHA-256 over names and raw float64 bytes; used for freeze checks."""
    h = hashlib.sha256()
    for name in sorted(params):
        if not name.startswith(prefix):
            continue
        h.update(name.encode())
        h.update(params[name].values.tobytes())
    return h.hexdigest()


def set_requires_grad(params: dict[str, Tensor], prefix: str, flag: bool) -> None:
    for name, tensor in params.items():
        if name.startswith(prefix):
            tensor.requires_grad = flag


def clear_grads(params: dict[str, Tensor]) -> None:
    for tensor in params.values():
        tensor.grad = None


def sample_voxel_seed(sample_id: str, run_seed: int) -> int:
    """Stable per-sample seed for voxel overflow subsampling."""
    return (zlib.crc32(sample_id.encode("utf-8")) + run_seed) % (2 ** 31)


# --- parameter (de)construction around flat checkpoint dicts ---

def init_image_params(cfg: StageConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    channels = (*cfg.image_channels, cfg.feature_dim)
    encoder = heads.init_image_encoder_params(1, rng, channels=channels,
                                              input_gain=cfg.image_gain)
    head = heads.init_gem_fcn_params(cfg.feature_dim, cfg.descriptor_dim, rng)
    params = dict(encoder.named("image.encoder"))
    params.update(head.named("image.head"))
    return params


def image_branch_from(params: dict[str, Tensor]
                      ) -> tuple[heads.ImageEncoderParams, heads.GemFcnParams]:
    blocks_w, blocks_b = [], []
    for i in range(16):
        key = f"image.encoder.block{i}.w"
        if key not in params:
            break
        blocks_w.append(params[key])
        blocks_b.append(params[f"image.encoder.block{i}.b"])
    if not blocks_w:
        raise DegenerateDataset("checkpoint lacks image encoder parameters")
    encoder = heads.ImageEncoderParams(
        block_w=blocks_w, block_b=blocks_b,
        input_gain=params.get("image.encoder.input_gain"))
    head = heads.GemFcnParams(p=params["image.head.p"],
                              fc_w=params["image.head.fc_w"],
                              fc_b=params["image.head.fc_b"])
    return encoder, head


def init_backbone_into(params: dict[str, Tensor], cfg: StageConfig,
                       rng: np.random.Generator,
                       voxel_config: VoxelGridConfig | None = None
                       ) -> sparse3d.BackboneParams:
    """Fresh backbone whose VFE takes the crop box's half extent as unit
    scale, so voxel features start near the image feature scale instead of
    growing with raw metres."""
    backbone = sparse3d.init_backbone_params(rng, vfe_dim=cfg.vfe_dim,
                                             feature_dim=cfg.feature_dim,
                                             channels=cfg.conv_channels)
    box = voxel_config or default_grid_config()
    half_extent = (np.asarray(box.range_max) - np.asarray(box.range_min)) / 2.0
    backbone.vfe.w1.values /= half_extent[:, None]
    params.update(backbone.named("pc.backbone"))
    for i, layer in enumerate(backbone.layers):
        params[f"pc.backbone.conv{i}.meta"] = Tensor(
            [float(layer.kernel_size), float(layer.stride)])
    return backbone


def backbone_from(params: dict[str, Tensor]) -> sparse3d.BackboneParams:
    vfe = sparse3d.VFEParams(w1=params["pc.backbone.vfe.w1"],
                             b1=params["pc.backbone.vfe.b1"])
    layers = []
    for i in range(16):
        key = f"pc.backbone.conv{i}.kernel"
        if key not in params:
            break
        meta = params[f"pc.backbone.conv{i}.meta"].values
        layers.append(sparse3d.SparseConvLayer(
            kernel=params[key], bias=params[f"pc.backbone.conv{i}.bias"],
            kernel_size=int(meta[0]), stride=int(meta[1])))
    return sparse3d.BackboneParams(vfe=vfe, layers=layers)


def init_pc_head_into(params: dict[str, Tensor], cfg: StageConfig,
                      rng: np.random.Generator) -> heads.GemFcnParams:
    head = heads.init_gem_fcn_params(cfg.feature_dim, cfg.descriptor_dim, rng)
    params.update(head.named("pc.head"))
    return head


def copy_image_head_into(params: dict[str, Tensor]) -> heads.GemFcnParams:
    """Voxel head initialised as a copy of the frozen image head.

    Stage 2 puts voxel features in the image feature space, so the image
    head already maps their pooled vector near the image descriptor; a fresh
    random head would start stage 3 from an unrelated descriptor space.
    """
    for name in ("p", "fc_w", "fc_b"):
        params[f"pc.head.{name}"] = Tensor(params[f"image.head.{name}"].values.copy())
    return pc_head_from(params)


def pc_head_from(params: dict[str, Tensor]) -> heads.GemFcnParams:
    return heads.GemFcnParams(p=params["pc.head.p"], fc_w=params["pc.head.fc_w"],
                              fc_b=params["pc.head.fc_b"])


def require_groups(params: dict[str, Tensor], prefixes: list[str], stage: str) -> None:
    for prefix in prefixes:
        if not any(name.startswith(prefix) for name in params):
            raise DegenerateDataset(
                f"stage {stage!r} needs a checkpoint containing {prefix}* parameters")


@dataclass
class StageResult:
    params: dict[str, Tensor]
    history: list[tuple[int, int, float]]  # (epoch, step, loss)
    skipped_pairs: int = 0


def write_loss_history(path, history: list[tuple[int, int, float]]) -> None:
    lines = ["epoch,step,loss"] + [f"{e},{s},{l!r}" for e, s, l in history]
    Path(path).write_text("\n".join(lines) + "\n")


# --- stage 1: image triplet training ---

def _pair_batches(dataset: TrainingSet, batch_size: int,
                  rng: np.random.Generator) -> list[list[int]]:
    """Batches of sample indices built from (anchor, random positive) pairs.

    Guarantees a positive pair per anchor; invalid trailing batches (no
    negatives in reach) fold into their predecessor.
    """
    positions = np.asarray([s.position for s in dataset.samples])
    n = len(dataset.samples)
    dists = np.sqrt(((positions[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2))
    pos_lists = []
    for a in range(n):
        cands = np.nonzero((dists[a] <= constants.POSITIVE_THRESHOLD_M)
                           & (np.arange(n) != a))[0]
        pos_lists.append(cands)
    anchors = [a for a in range(n) if len(pos_lists[a])]
    if not anchors:
        raise DegenerateDataset("no sample has a positive partner")

    order = rng.permutation(len(anchors))
    pairs = []
    for k in order:
        a = anchors[k]
        partner = int(pos_lists[a][rng.integers(0, len(pos_lists[a]))])
        pairs.append((a, partner))

    per_batch = max(1, batch_size // 2)
    batches = [pairs[i:i + per_batch] for i in range(0, len(pairs), per_batch)]

    def valid(batch_pairs):
        rows = [i for pair in batch_pairs for i in pair]
        sub = dists[np.ix_(rows, rows)]
        return bool(np.all((sub > constants.NEGATIVE_THRESHOLD_M).any(axis=1)))

    out: list[list[int]] = []
    for batch_pairs in batches:
        if valid(batch_pairs):
            out.append([i for pair in batch_pairs for i in pair])
        elif out:
            out[-1].extend(i for pair in batch_pairs for i in pair)
        else:
            raise DegenerateDataset("cannot form a batch with negatives in reach")
    return out


def _shift_image(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate with zero fill (no wrap-around)."""
    out = np.zeros_like(image)
    h, w = image.shape[:2]
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        image[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return out


def train_stage_image(dataset: TrainingSet, cfg: StageConfig) -> StageResult:
    """Minimize the batch-hard triplet loss over image descriptors."""
    if cfg.stage != "image":
        raise ValueError("config stage must be 'image'")
    with ad.precision(TRAIN_DTYPE):
        params, history = _fit_image_branch(dataset, cfg)
    return StageResult(params=_checkpoint_params(params), history=history)


def _fit_image_branch(dataset: TrainingSet, cfg: StageConfig
                      ) -> tuple[dict[str, Tensor], list[tuple[int, int, float]]]:
    rng = np.random.default_rng(cfg.seed)
    triplet = TripletConfig()
    params = init_image_params(cfg, rng)
    set_requires_grad(params, "image.", True)
    params["image.encoder.input_gain"].requires_grad = False
    encoder, head = image_branch_from(params)
    state = AdamState(params)

    images = np.stack([s.image[..., None] if s.image.ndim == 2 else s.image
                       for s in dataset.samples])
    positions = np.asarray([s.position for s in dataset.samples])

    history: list[tuple[int, int, float]] = []
    batch_size = cfg.batch_size
    step = 0
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.base_lr, decay=cfg.lr_decay)
        triggered = batch_size
        for batch_rows in _pair_batches(dataset, batch_size, rng):
            rows = np.asarray(batch_rows)
            batch_images = images[rows]
            if cfg.augment_shift_px > 0:
                span = cfg.augment_shift_px
                shifts = rng.integers(-span, span + 1, size=(len(rows), 2))
                batch_images = np.stack([
                    _shift_image(img, int(dy), int(dx))
                    for img, (dy, dx) in zip(batch_images, shifts)])
            clear_grads(params)
            with Tape() as tape:
                desc = heads.encode_images(batch_images, encoder, head)
                batch = TrainingBatch.from_positions(desc, positions[rows])
                result = losses.triplet_loss_batch_hard(batch, triplet)
                tape.backward(result.loss)
            adam_step(params, state, lr)
            history.append((epoch, step, float(result.loss.values)))
            step += 1
            new_size = losses.zero_triplet_expansion(result.zero_triplets,
                                                     len(rows), triplet)
            triggered = max(triggered, new_size)
        if triggered != batch_size:
            log.info("zero-triplet expansion: batch %d -> %d", batch_size, triggered)
            batch_size = triggered
    return params, history


# --- stages 2 and 3: voxel branch against the frozen image branch ---

@dataclass
class _PreparedSample:
    grid: VoxelGrid
    plans: sparse3d.BackbonePlans
    # stage 2: (projection of the backbone's output sites, image feature map);
    # stage 3: the frozen image descriptor
    target: tuple[ProjectedFeatureMap, heads.ImageFeatureMap] | Tensor


def _prepare_point_samples(dataset: TrainingSet, cfg: StageConfig,
                           backbone: sparse3d.BackboneParams,
                           encoder: heads.ImageEncoderParams,
                           image_head: heads.GemFcnParams,
                           with_head: bool) -> tuple[list[_PreparedSample], int]:
    """Voxelize, plan convolutions and cache the frozen image target per sample.

    Returns the usable samples in dataset order and the count skipped.
    """
    prepared: list[_PreparedSample] = []
    for s in dataset.samples:
        try:
            grid = voxelize(s.cloud, dataset.voxel_config,
                            sample_voxel_seed(s.sample_id, cfg.seed))
        except (EmptyCloud, AllPointsCulled):
            continue
        plans = sparse3d.plan_backbone(grid, backbone)
        if with_head:
            target = heads.image_global_descriptor(s.image, encoder, image_head).vector
        else:
            fmap = heads.image_encode(s.image, encoder)
            dims = (fmap.width, fmap.height)
            try:
                if cfg.projection == "perspective":
                    projected = project_voxels(plans.out_coords, plans.out_voxel_size,
                                               dataset.voxel_config.range_min,
                                               dataset.projection, dims)
                else:
                    projected = orthographic_project(plans.out_coords, plans.out_dims,
                                                     plans.out_voxel_size, dims)
            except NoVisibleVoxels:
                continue
            target = (projected, fmap)
        prepared.append(_PreparedSample(grid=grid, plans=plans, target=target))
    return prepared, len(dataset.samples) - len(prepared)


def _clone_params(params: dict[str, Tensor], prefix: str = "") -> dict[str, Tensor]:
    """Fresh tensors in the compute dtype, so a stage never mutates the
    checkpoint it was given."""
    return {name: Tensor(t.values.copy()) for name, t in params.items()
            if name.startswith(prefix)}


def _checkpoint_params(params: dict[str, Tensor], prefix: str = "") -> dict[str, Tensor]:
    """Float64 copies for a StageResult; widening float32 is exact."""
    with ad.precision(np.float64):
        return _clone_params(params, prefix)


def _point_branch_stage(dataset: TrainingSet, image_params: dict[str, Tensor],
                        cfg: StageConfig, with_head: bool,
                        resume_params: dict[str, Tensor] | None = None) -> StageResult:
    require_groups(image_params, ["image."], cfg.stage)
    with ad.precision(TRAIN_DTYPE):
        params, history, skipped = _fit_point_branch(dataset, image_params, cfg,
                                                     with_head, resume_params)
    # the frozen image branch goes back exactly as given, not via float32
    out = _checkpoint_params(image_params, "image.")
    out.update(_checkpoint_params(params, "pc."))
    return StageResult(params=out, history=history, skipped_pairs=skipped)


def _fit_point_branch(dataset: TrainingSet, image_params: dict[str, Tensor],
                      cfg: StageConfig, with_head: bool,
                      resume_params: dict[str, Tensor] | None
                      ) -> tuple[dict[str, Tensor], list[tuple[int, int, float]], int]:
    rng = np.random.default_rng(cfg.seed)
    params = _clone_params(image_params, "image.")
    set_requires_grad(params, "image.", False)
    encoder, image_head = image_branch_from(params)

    if resume_params is not None and any(k.startswith("pc.backbone.") for k in resume_params):
        params.update(_clone_params(resume_params, "pc.backbone."))
        backbone = backbone_from(params)
    else:
        if cfg.stage == "global":
            raise DegenerateDataset(
                "stage 'global' needs the local-stage backbone checkpoint")
        backbone = init_backbone_into(params, cfg, rng, dataset.voxel_config)
    set_requires_grad(params, "pc.backbone.", True)
    for i in range(len(backbone.layers)):
        params[f"pc.backbone.conv{i}.meta"].requires_grad = False

    head = None
    if with_head:
        head = copy_image_head_into(params)
        set_requires_grad(params, "pc.head.", True)

    trainable = {name: t for name, t in params.items() if t.requires_grad}
    state = AdamState(trainable)

    prepared, skipped = _prepare_point_samples(
        dataset, cfg, backbone, encoder, image_head, with_head)
    if skipped > 0:
        log.info("stage %s: skipped %d unusable pairs", cfg.stage, skipped)
    if skipped > len(dataset.samples) / 2:
        raise DegenerateDataset(f"more than half the pairs unusable ({skipped})")
    if not prepared:
        raise DegenerateDataset("no usable training pairs")

    history: list[tuple[int, int, float]] = []
    step = 0
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.base_lr, decay=cfg.lr_decay)
        order = rng.permutation(len(prepared))
        for start in range(0, len(order), cfg.batch_size):
            clear_grads(params)
            with Tape() as tape:
                total = None
                for k in order[start:start + cfg.batch_size]:
                    prep = prepared[k]
                    fmap = sparse3d.point_cloud_backbone(prep.grid, backbone, prep.plans)
                    if with_head:
                        pooled = heads.gem_pool(fmap.feats, head.p)
                        desc = heads.fcn_project(pooled, head, "point_cloud")
                        term = losses.global_descriptor_loss(prep.target, desc.vector)
                    else:
                        projected, image_map = prep.target
                        term = losses.local_descriptor_loss(
                            projected, fmap.feats, image_map, cfg.local_loss_mode)
                    total = term if total is None else ad.add(total, term)
                tape.backward(total)
            adam_step(trainable, state, lr)
            history.append((epoch, step, float(total.values)))
            step += 1
    return params, history, skipped


def train_stage_local(dataset: TrainingSet, image_params: dict[str, Tensor],
                      cfg: StageConfig) -> StageResult:
    """Train the voxel backbone against frozen image feature maps."""
    if cfg.stage != "local":
        raise ValueError("config stage must be 'local'")
    return _point_branch_stage(dataset, image_params, cfg, with_head=False)


def train_stage_global(dataset: TrainingSet, image_params: dict[str, Tensor],
                       local_params: dict[str, Tensor], cfg: StageConfig) -> StageResult:
    """Fine-tune the backbone and train a head, started as a copy of the
    image head, against frozen image descriptors."""
    if cfg.stage != "global":
        raise ValueError("config stage must be 'global'")
    require_groups(local_params, ["pc.backbone."], cfg.stage)
    return _point_branch_stage(dataset, image_params, cfg, with_head=True,
                               resume_params=local_params)

