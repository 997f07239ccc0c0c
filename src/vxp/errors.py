"""Exception types shared across the pipeline.

Every failure mode raised by the library derives from VxpError so callers
(and the CLI) can distinguish expected domain errors from genuine bugs.
"""


class VxpError(Exception):
    """Base class for all library errors."""


# --- tensor / autodiff ---

class ShapeMismatch(VxpError):
    pass


class NonFinite(VxpError):
    pass


class NotScalar(VxpError):
    pass


# --- geometry / voxelization ---

class EmptyCloud(VxpError):
    pass


class AllPointsCulled(VxpError):
    pass


class NoVisibleVoxels(VxpError):
    pass


# --- sparse conv / encoding ---

class EmptyGrid(VxpError):
    pass


class ChannelMismatch(VxpError):
    pass


class TooLarge(VxpError):
    pass


class TooSmall(VxpError):
    pass


class EmptyInput(VxpError):
    pass


class NonPositiveP(VxpError):
    pass


# --- losses / mining ---

class NoPositive(VxpError):
    pass


class NoNegative(VxpError):
    pass


class NoCorrespondences(VxpError):
    pass


# --- data ingestion / file formats ---

class IoError(VxpError):
    pass


class MalformedFile(VxpError):
    pass


class ParseError(VxpError):
    pass


class HeaderMismatch(VxpError):
    pass


class DuplicateId(VxpError):
    pass


class BadMagic(VxpError):
    pass


class VersionUnsupported(VxpError):
    pass


class TruncatedFile(VxpError):
    pass


# --- retrieval / evaluation ---

class DimMismatch(VxpError):
    pass


class Empty(VxpError):
    pass


class InvalidK(VxpError):
    pass


class MissingTimestamps(VxpError):
    pass


class NoValidQueries(VxpError):
    pass


class InsufficientRuns(VxpError):
    pass


# --- training ---

class DegenerateDataset(VxpError):
    pass


# --- docs ---

class DriftDetected(VxpError):
    pass
