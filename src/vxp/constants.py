"""Canonical numeric constants of the training and evaluation protocols.

This is the single machine-readable source for every protocol number: code
defaults reference these values and the generated docs (docs/protocols.md)
are rendered from PROTOCOL_TABLE, so a drift test can diff the two.

Provenance labels:
  "protocol"  -- fixed by the retrieval/training protocol this tool implements
  "default"   -- implementation default, configurable at call sites
"""

TRIPLET_MARGIN = 0.3
BATCH_EXPANSION_RATE = 1.4
MAX_BATCH_SIZE = 256
ZERO_TRIPLET_TRIGGER = 0.30

POSITIVE_THRESHOLD_M = 10.0
NEGATIVE_THRESHOLD_M = 25.0
EVAL_SUCCESS_RADIUS_M = 25.0

REVISIT_MIN_GAP_S = 10.0
KITTI_SAMPLING_INTERVAL_M = 20.0
KITTI_SAMPLING_START_OFFSET_M = 5.0

RECALL_CURVE_MAX_K = 25

VOXEL_RANGE_MIN = (0.0, -22.0, -4.0)
VOXEL_RANGE_MAX = (44.0, 22.0, 18.0)
VOXEL_SIZE = (0.4, 0.4, 0.2)
INPUT_GRID_DIMS = (110, 110, 110)
OUTPUT_GRID_DIMS = (28, 28, 28)
MAX_POINTS_PER_VOXEL = 32

SMOOTH_L1_BETA = 1.0

IMAGE_DOWNSAMPLE = 8

# (name, value, provenance, note)
PROTOCOL_TABLE = [
    ("triplet_margin", TRIPLET_MARGIN, "protocol",
     "hinge margin of the batch-hard triplet loss"),
    ("batch_expansion_rate", BATCH_EXPANSION_RATE, "protocol",
     "batch growth factor applied when too many triplets are already zero"),
    ("max_batch_size", MAX_BATCH_SIZE, "protocol",
     "upper cap on the expanded batch size"),
    ("zero_triplet_trigger", ZERO_TRIPLET_TRIGGER, "protocol",
     "expansion fires when the zero-triplet fraction strictly exceeds this"),
    ("positive_threshold_m", POSITIVE_THRESHOLD_M, "protocol",
     "samples closer than this are training positives"),
    ("negative_threshold_m", NEGATIVE_THRESHOLD_M, "protocol",
     "samples farther than this are training negatives"),
    ("eval_success_radius_m", EVAL_SUCCESS_RADIUS_M, "default",
     "retrieval counts as correct within this radius of the query position"),
    ("revisit_min_gap_s", REVISIT_MIN_GAP_S, "protocol",
     "KITTI protocol: database entries must be older than this gap"),
    ("kitti_sampling_interval_m", KITTI_SAMPLING_INTERVAL_M, "protocol",
     "KITTI protocol: trajectory sampling interval"),
    ("kitti_sampling_start_offset_m", KITTI_SAMPLING_START_OFFSET_M, "protocol",
     "KITTI protocol: start offset between query and database sampling"),
    ("recall_curve_max_k", RECALL_CURVE_MAX_K, "default",
     f"recall curves are emitted for k = 1..{RECALL_CURVE_MAX_K}"),
    ("voxel_range_min", VOXEL_RANGE_MIN, "protocol",
     "lower corner of the point cloud crop box, meters"),
    ("voxel_range_max", VOXEL_RANGE_MAX, "protocol",
     "upper corner of the point cloud crop box, meters"),
    ("voxel_size", VOXEL_SIZE, "protocol",
     "input voxel edge lengths, meters"),
    ("input_grid_dims", INPUT_GRID_DIMS, "protocol",
     "voxel grid dimensions implied by range and voxel size"),
    ("output_grid_dims", OUTPUT_GRID_DIMS, "protocol",
     "grid dimensions of the sparse feature map after the conv stack"),
    ("max_points_per_voxel", MAX_POINTS_PER_VOXEL, "default",
     "voxels keep at most this many points; overflow is subsampled"),
    ("smooth_l1_beta", SMOOTH_L1_BETA, "protocol",
     "transition point between quadratic and linear branches of every smooth-L1 loss"),
    ("image_downsample", IMAGE_DOWNSAMPLE, "protocol",
     "image encoder reduces H and W by exactly this factor (floor division)"),
]
