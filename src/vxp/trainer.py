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
was given, never rounded through float32. The image branch also runs in
float32 at inference: image_branch_from hands it out in TRAIN_DTYPE, and the
image encoder computes in its weights' dtype. The voxel branch stays float64
at inference. Stages 2 and 3 batch their image targets as `vxp extract` does,
so each stage-3 target is bit for bit extract's row on the training manifest;
stage 3 encodes a batch's clouds with extract's heads.encode_clouds and
regresses the (B, D) rows under one global loss.

The *_from builders check every checkpoint tensor against its neighbours
(block widths, bias lengths, the FC head, scalar exponents, conv meta), so a
malformed checkpoint fails naming the tensor.
"""

from __future__ import annotations

import hashlib
import logging
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import heads, losses, sparse3d
from .autodiff import Tape, Tensor
# write_checkpoint is bound here for the benchmark's tracer (perfbench/spans.py)
from .dataio import TrainingSet, write_checkpoint, write_file  # noqa: F401
from .errors import (AllPointsCulled, DegenerateDataset, EmptyCloud,
                     NoVisibleVoxels, ShapeMismatch)
from .geometry import (ProjectedFeatureMap, VoxelGrid, VoxelGridConfig,
                       default_grid_config, orthographic_project, project_voxels,
                       voxelize)
from .losses import TrainingBatch

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Training, and the image branch at inference, compute in float32, as the
# paper's PyTorch setting does; checkpoints and the voxel branch's inference
# stay float64.
TRAIN_DTYPE = np.float32

PROJECTIONS = ("perspective", "orthographic")


@dataclass
class StageConfig:
    stage: str  # "image" | "local" | "global"
    epochs: int = 10
    base_lr: float = 1e-3
    lr_decay: float = 0.9  # per-epoch multiplier is lr_decay ** epoch
    batch_size: int = 32
    seed: int = 0
    projection: str = "perspective"  # one of PROJECTIONS; orthographic is the ablation
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
        for name in ("base_lr", "lr_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite value > 0, not {value!r}")
        for name in ("epochs", "batch_size", "descriptor_dim", "feature_dim", "vfe_dim",
                     "conv_channels", "image_channels"):
            value = getattr(self, name)  # a count, a width or a tuple of widths
            if value is not None and min(np.ravel(value), default=1) < 1:
                raise ValueError(f"{name} must be >= 1, not {value!r}")
        width = self.conv_channels[-1] if self.conv_channels else self.vfe_dim
        if self.conv_channels is not None and width != self.feature_dim:
            raise ValueError(f"conv_channels must be widths ending in feature_dim "
                             f"{self.feature_dim}, not {self.conv_channels!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")
        if self.projection not in PROJECTIONS:
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


def _tensor(params: dict[str, Tensor], name: str,
            shape: tuple[int | None, ...] | None = None) -> Tensor:
    """params[name], whose shape must be `shape` (None: any extent >= 1); a
    checkpoint that lacks the tensor or holds it in another shape is an error
    naming it."""
    if name not in params:
        raise DegenerateDataset(f"checkpoint lacks tensor {name!r}")
    tensor = params[name]
    if shape is not None and (tensor.values.ndim != len(shape) or any(
            got < 1 or want not in (None, got) for got, want in zip(tensor.shape, shape))):
        expected = ", ".join("*" if want is None else str(want) for want in shape)
        _malformed(name, f"has shape {tensor.shape}, expected "
                         f"({expected}{',' * (len(shape) == 1)})")
    return tensor


def _malformed(name: str, why: str):
    raise ShapeMismatch(f"checkpoint tensor {name!r} {why}")


def _in_train_dtype(tensor: Tensor) -> Tensor:
    """tensor itself when it is already in TRAIN_DTYPE (stage 1's Adam
    updates those in place), else a TRAIN_DTYPE copy."""
    if tensor.values.dtype == TRAIN_DTYPE:
        return tensor
    with ad.precision(TRAIN_DTYPE):
        return Tensor(tensor.values)


def image_branch_from(params: dict[str, Tensor]
                      ) -> tuple[heads.ImageEncoderParams, heads.GemFcnParams]:
    """The image branch of a checkpoint, each tensor checked against its
    neighbours, in TRAIN_DTYPE; params is not changed."""
    blocks_w, blocks_b = [], []
    width = None  # output channels of the previous block
    for i in range(16):
        key = f"image.encoder.block{i}.w"
        if key not in params:
            break
        w = _tensor(params, key, (None if width is None else 9 * width, None))
        if w.shape[0] % 9:
            _malformed(key, f"has {w.shape[0]} rows, not 9 per input channel")
        width = w.shape[1]
        blocks_w.append(w)
        blocks_b.append(_tensor(params, f"image.encoder.block{i}.b", (width,)))
    if not blocks_w:
        raise DegenerateDataset("checkpoint lacks image encoder parameters")
    gain = None  # absent: ImageEncoderParams' default of 1
    if "image.encoder.input_gain" in params:
        gain = _in_train_dtype(_tensor(params, "image.encoder.input_gain", ()))
    encoder = heads.ImageEncoderParams(block_w=[_in_train_dtype(t) for t in blocks_w],
                                       block_b=[_in_train_dtype(t) for t in blocks_b],
                                       input_gain=gain)
    head = _head_from(params, "image.head", width)
    return encoder, heads.GemFcnParams(*map(_in_train_dtype, (head.p, head.fc_w, head.fc_b)))


def _head_from(params: dict[str, Tensor], prefix: str, width: int) -> heads.GemFcnParams:
    """GeM exponent and FC head over features `width` wide."""
    p = _tensor(params, f"{prefix}.p", ())
    fc_w = _tensor(params, f"{prefix}.fc_w", (width, None))
    return heads.GemFcnParams(p, fc_w, _tensor(params, f"{prefix}.fc_b", (fc_w.shape[1],)))


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
    w1 = _tensor(params, "pc.backbone.vfe.w1", (3, None))
    vfe = sparse3d.VFEParams(w1=w1, b1=_tensor(params, "pc.backbone.vfe.b1", (w1.shape[1],)))
    width = vfe.dim
    layers = []
    for i in range(16):
        key = f"pc.backbone.conv{i}.kernel"
        if key not in params:
            break
        meta_key = f"pc.backbone.conv{i}.meta"
        k, stride = _tensor(params, meta_key, (2,)).values
        if not (k == int(k) and k % 2 == 1 and k >= 1 and stride == int(stride) >= 1):
            _malformed(meta_key, f"is ({k:g}, {stride:g}), not an odd kernel size "
                                 "and a stride >= 1")
        kernel = _tensor(params, key, (int(k) ** 3 * width, None))
        width = kernel.shape[1]
        layers.append(sparse3d.SparseConvLayer(
            kernel=kernel, bias=_tensor(params, f"pc.backbone.conv{i}.bias", (width,)),
            kernel_size=int(k), stride=int(stride)))
    return sparse3d.BackboneParams(vfe=vfe, layers=layers)


def init_pc_head_into(params: dict[str, Tensor], cfg: StageConfig,
                      rng: np.random.Generator) -> heads.GemFcnParams:
    head = heads.init_gem_fcn_params(cfg.feature_dim, cfg.descriptor_dim, rng)
    params.update(head.named("pc.head"))
    return head


def copy_image_head_into(params: dict[str, Tensor],
                         image_head: heads.GemFcnParams) -> heads.GemFcnParams:
    """Voxel head initialised as a copy of the frozen image head.

    Stage 2 puts voxel features in the image feature space, so the image
    head already maps their pooled vector near the image descriptor; a fresh
    random head would start stage 3 from an unrelated descriptor space.
    """
    head = heads.GemFcnParams(*(Tensor(t.values.copy())
                                for t in (image_head.p, image_head.fc_w, image_head.fc_b)))
    params.update(head.named("pc.head"))
    return head


def pc_head_from(params: dict[str, Tensor]) -> heads.GemFcnParams:
    """The voxel head, checked against the backbone's output width."""
    backbone = backbone_from(params)
    width = backbone.layers[-1].kernel.shape[1] if backbone.layers else backbone.vfe.dim
    return _head_from(params, "pc.head", width)


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
    write_file(path, "\n".join(lines) + "\n")


# --- stage 1: image triplet training ---

def _pair_batches(dataset: TrainingSet, batch_size: int,
                  rng: np.random.Generator) -> list[list[int]]:
    """Batches of sample indices built from (anchor, random positive) pairs.

    Guarantees a positive pair per anchor; invalid trailing batches (no
    negatives in reach) fold into their predecessor.
    """
    positive, negative = losses.pair_masks(
        np.asarray([s.position for s in dataset.samples]))
    pos_lists = [np.nonzero(row)[0] for row in positive]
    anchors = [a for a, cands in enumerate(pos_lists) if len(cands)]
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
        return bool(np.all(negative[np.ix_(rows, rows)].any(axis=1)))

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
    params = init_image_params(cfg, rng)
    set_requires_grad(params, "image.", True)
    params["image.encoder.input_gain"].requires_grad = False
    encoder, head = image_branch_from(params)
    state = AdamState(params)

    first = dataset.samples[0]
    for sample in dataset.samples:
        if sample.image.shape != first.image.shape:
            raise DegenerateDataset(
                f"sample {sample.sample_id!r}: image shape {sample.image.shape} differs "
                f"from {first.image.shape}, the shape of first sample {first.sample_id!r}")
    images = np.stack([s.image for s in dataset.samples])[..., None]
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
                result = losses.triplet_loss_batch_hard(batch)
                tape.backward(result.loss)
            adam_step(params, state, lr)
            history.append((epoch, step, float(result.loss.values)))
            step += 1
            new_size = losses.zero_triplet_expansion(result.zero_triplets, len(rows))
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
    # stage 3: the frozen image descriptor, extract's row on the training
    # manifest, kept as a plain row until a batch stacks its rows
    target: tuple[ProjectedFeatureMap, heads.ImageFeatureMap] | np.ndarray


def _prepare_point_samples(dataset: TrainingSet, cfg: StageConfig,
                           backbone: sparse3d.BackboneParams,
                           encoder: heads.ImageEncoderParams,
                           image_head: heads.GemFcnParams
                           ) -> tuple[list[_PreparedSample], int]:
    """Voxelize, plan convolutions and cache the frozen image target per
    sample; returns the usable samples in dataset order and the count skipped."""
    targets: list[heads.ImageFeatureMap | np.ndarray] = []
    for images in heads.image_batches(s.image for s in dataset.samples):
        if cfg.stage == "global":
            targets.extend(heads.encode_images(images, encoder, image_head).values)
        else:
            feats, ow, oh = heads.encode_image_batch(images, encoder)
            targets += (heads.ImageFeatureMap(ow, oh, feats.shape[1], Tensor(rows))
                        for rows in feats.values.reshape(len(images), oh * ow, -1))
    prepared: list[_PreparedSample] = []
    for s, target in zip(dataset.samples, targets):
        try:
            grid = voxelize(s.cloud, dataset.voxel_config,
                            sample_voxel_seed(s.sample_id, cfg.seed))
        except (EmptyCloud, AllPointsCulled):
            continue
        plans = sparse3d.plan_backbone(grid, backbone)
        if cfg.stage == "local":
            dims = (target.width, target.height)
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
            target = (projected, target)
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


def _point_branch_stage(dataset: TrainingSet, given: dict[str, Tensor],
                        cfg: StageConfig) -> StageResult:
    """Stage 2 or 3, by cfg.stage, from the given image branch (and, for
    stage 3, the local-stage backbone)."""
    require_groups(given, ["image."], cfg.stage)
    with ad.precision(TRAIN_DTYPE):
        params, history, skipped = _fit_point_branch(dataset, given, cfg)
    # the frozen image branch goes back exactly as given, not via float32
    out = _checkpoint_params(given, "image.")
    out.update(_checkpoint_params(params, "pc."))
    return StageResult(params=out, history=history, skipped_pairs=skipped)


def _fit_point_branch(dataset: TrainingSet, given: dict[str, Tensor], cfg: StageConfig
                      ) -> tuple[dict[str, Tensor], list[tuple[int, int, float]], int]:
    rng = np.random.default_rng(cfg.seed)
    encoder, image_head = image_branch_from(given)
    params: dict[str, Tensor] = {}

    head = None
    if cfg.stage == "global":
        params.update(_clone_params(given, "pc.backbone."))
        backbone = backbone_from(params)
        head = copy_image_head_into(params, image_head)
        set_requires_grad(params, "pc.head.", True)
    else:
        backbone = init_backbone_into(params, cfg, rng, dataset.voxel_config)
    set_requires_grad(params, "pc.backbone.", True)
    for i in range(len(backbone.layers)):
        params[f"pc.backbone.conv{i}.meta"].requires_grad = False

    trainable = {name: t for name, t in params.items() if t.requires_grad}
    state = AdamState(trainable)

    prepared, skipped = _prepare_point_samples(dataset, cfg, backbone, encoder, image_head)
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
            batch = [prepared[k] for k in order[start:start + cfg.batch_size]]
            clear_grads(params)
            with Tape() as tape:
                if cfg.stage == "global":
                    desc = heads.encode_clouds(((p.grid, p.plans) for p in batch),
                                               backbone, head)
                    total = losses.global_descriptor_loss(
                        Tensor(np.stack([p.target for p in batch])), desc)
                else:
                    total = None
                    for prep in batch:
                        fmap = sparse3d.point_cloud_backbone(prep.grid, backbone, prep.plans)
                        projected, image_map = prep.target
                        term = losses.local_descriptor_loss(projected, fmap.feats,
                                                            image_map)
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
    return _point_branch_stage(dataset, image_params, cfg)


def train_stage_global(dataset: TrainingSet, image_params: dict[str, Tensor],
                       local_params: dict[str, Tensor], cfg: StageConfig) -> StageResult:
    """Fine-tune the backbone and train a head, started as a copy of the
    image head, against frozen image descriptors."""
    if cfg.stage != "global":
        raise ValueError("config stage must be 'global'")
    require_groups(local_params, ["pc.backbone."], cfg.stage)
    given = {n: t for n, t in image_params.items() if n.startswith("image.")}
    given.update((n, t) for n, t in local_params.items() if n.startswith("pc.backbone."))
    return _point_branch_stage(dataset, given, cfg)

