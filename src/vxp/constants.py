"""Canonical numeric constants of the training and evaluation protocols.

Code defaults reference these values. docs/protocols.md holds one table row
per constant, with its provenance and meaning, and tests/test_docs.py checks
that the rows and the constants name the same values.
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

