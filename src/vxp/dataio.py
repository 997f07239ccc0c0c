"""Dataset ingestion and the canonical on-disk formats.

Formats owned here:
  * point cloud .bin   -- little-endian float32 quadruples (x, y, z, intensity)
  * manifest CSV       -- header `id,timestamp_s,x_m,y_m,z_m,cloud_path,image_path,run_id`
  * VXP-CAL v1         -- text calibration: normalized intrinsics + extrinsic rows
  * KITTI calib.txt    -- imported and converted into a ProjectionModel
  * VXPD               -- binary descriptor sets (float32 payload)
  * VXPC               -- binary named-tensor checkpoints (float64 payload)
  * raw image grids    -- u32 width, u32 height, then float32 row-major values

Parsers fail loudly with located errors; nothing is returned on partial
reads.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import (BadMagic, DuplicateId, HeaderMismatch, IoError, MalformedFile,
                     MissingKey, NonFinite, ParseError, TruncatedFile,
                     VersionUnsupported)
from .geometry import PointCloud, ProjectionModel, VoxelGridConfig, default_grid_config

MANIFEST_HEADER = ["id", "timestamp_s", "x_m", "y_m", "z_m",
                   "cloud_path", "image_path", "run_id"]

VXPD_MAGIC = b"VXPD"
VXPC_MAGIC = b"VXPC"
CALIB_MAGIC = "VXP-CAL v1"


@dataclass
class SampleManifestRow:
    sample_id: str
    timestamp_s: float
    position: tuple[float, float, float]
    cloud_path: str
    image_path: str
    run_id: str


@dataclass
class LoadedSample:
    """One manifest row with its image and cloud loaded into memory."""

    sample_id: str
    timestamp_s: float
    position: tuple[float, float, float]
    run_id: str
    image: np.ndarray  # (H, W)
    cloud: PointCloud


@dataclass
class TrainingSet:
    samples: list[LoadedSample]
    projection: "ProjectionModel"
    voxel_config: "VoxelGridConfig"


# --- point clouds ---

def load_point_cloud_bin(path) -> PointCloud:
    """Read float32 (x, y, z, intensity) records; intensity is dropped."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(raw) % 16 != 0:
        raise MalformedFile(f"{path}: size {len(raw)} not divisible by 16")
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    return PointCloud(data[:, :3].astype(np.float64), sample_id=path.stem)


def write_point_cloud_bin(path, points: np.ndarray,
                          intensity: np.ndarray | None = None) -> None:
    points = np.asarray(points, dtype=np.float64)
    if intensity is None:
        intensity = np.zeros(points.shape[0])
    data = np.column_stack([points, intensity]).astype("<f4")
    Path(path).write_bytes(data.tobytes())


# --- raw image grids ---

def load_image_raw(path) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 8:
        raise MalformedFile(f"{path}: missing dims header")
    width, height = struct.unpack("<II", raw[:8])
    expected = 8 + 4 * width * height
    if len(raw) != expected:
        raise MalformedFile(f"{path}: expected {expected} bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=8).reshape(height, width)
    return values.astype(np.float64)


def write_image_raw(path, image: np.ndarray) -> None:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        image = image[:, :, 0]
    height, width = image.shape
    payload = struct.pack("<II", width, height) + image.astype("<f4").tobytes()
    Path(path).write_bytes(payload)


# --- calibration ---

def parse_kitti_calib(path, image_dims: tuple[int, int]) -> ProjectionModel:
    """Import a KITTI-format calib file.

    Intrinsics come from the P2 row (fx, fy, cx, cy), normalized by the
    image width/height; the sensor-to-camera extrinsic comes from Tr. The
    P2 translation column (rectified-camera offset) is ignored.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    rows: dict[str, list[float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        try:
            rows[key.strip()] = [float(tok) for tok in rest.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad float in {key!r} row") from exc
    for key in ("P2", "Tr"):
        if key not in rows:
            raise MissingKey(f"{path}: missing {key!r} row")
        if len(rows[key]) != 12:
            raise ParseError(f"{path}: {key!r} row needs 12 floats, got {len(rows[key])}")
    p2 = np.asarray(rows["P2"]).reshape(3, 4)
    tr = np.asarray(rows["Tr"]).reshape(3, 4)
    extrinsic = np.eye(4)
    extrinsic[:3, :] = tr
    width, height = image_dims
    return ProjectionModel(
        fx_n=p2[0, 0] / width, fy_n=p2[1, 1] / height,
        cx_n=p2[0, 2] / width, cy_n=p2[1, 2] / height,
        extrinsic=extrinsic)


def write_calibration(path, proj: ProjectionModel) -> None:
    """Write the canonical VXP-CAL v1 text format."""
    lines = [CALIB_MAGIC,
             f"{proj.fx_n!r} {proj.fy_n!r} {proj.cx_n!r} {proj.cy_n!r}"]
    for row in proj.extrinsic[:3]:
        lines.append(" ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_calibration(path) -> ProjectionModel:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != CALIB_MAGIC:
        raise BadMagic(f"{path}: not a {CALIB_MAGIC} file")
    if len(lines) < 5:
        raise TruncatedFile(f"{path}: expected 5 lines, got {len(lines)}")
    try:
        fx, fy, cx, cy = (float(tok) for tok in lines[1].split())
        rows = [[float(tok) for tok in lines[i].split()] for i in (2, 3, 4)]
    except ValueError as exc:
        raise ParseError(f"{path}: bad float") from exc
    if any(len(r) != 4 for r in rows):
        raise ParseError(f"{path}: extrinsic rows need 4 floats")
    if not (np.isfinite([fx, fy, cx, cy]).all() and np.isfinite(rows).all()):
        raise ParseError(f"{path}: intrinsics and extrinsic must be finite")
    extrinsic = np.eye(4)
    extrinsic[:3, :] = rows
    return ProjectionModel(fx_n=fx, fy_n=fy, cx_n=cx, cy_n=cy, extrinsic=extrinsic)


# --- manifests ---

def parse_manifest(path) -> list[SampleManifestRow]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMismatch(f"{path}: empty file") from None
    if header != MANIFEST_HEADER:
        raise HeaderMismatch(f"{path}: header {header} != {MANIFEST_HEADER}")
    rows: list[SampleManifestRow] = []
    seen: set[str] = set()
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != len(MANIFEST_HEADER):
            raise ParseError(f"{path}:{lineno}: expected {len(MANIFEST_HEADER)} fields")
        sample_id = rec[0]
        if sample_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        try:
            ts = float(rec[1])
            pos = (float(rec[2]), float(rec[3]), float(rec[4]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad float") from exc
        rows.append(SampleManifestRow(
            sample_id=sample_id, timestamp_s=ts, position=pos,
            cloud_path=rec[5], image_path=rec[6], run_id=rec[7]))
    return rows


def write_manifest(path, rows: list[SampleManifestRow]) -> None:
    lines = [",".join(MANIFEST_HEADER)]
    for r in rows:
        lines.append(",".join([
            r.sample_id, repr(r.timestamp_s),
            repr(r.position[0]), repr(r.position[1]), repr(r.position[2]),
            r.cloud_path, r.image_path, r.run_id]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_training_set(manifest_path, calib_path,
                      voxel_config: VoxelGridConfig | None = None) -> TrainingSet:
    """Resolve a manifest's clouds/images relative to the manifest location."""
    rows = parse_manifest(manifest_path)
    projection = read_calibration(calib_path)
    base = Path(manifest_path).parent
    samples = []
    for r in rows:
        cloud = load_point_cloud_bin(base / r.cloud_path)
        cloud.sample_id = r.sample_id
        samples.append(LoadedSample(
            sample_id=r.sample_id, timestamp_s=r.timestamp_s, position=r.position,
            run_id=r.run_id, image=load_image_raw(base / r.image_path), cloud=cloud))
    return TrainingSet(samples=samples, projection=projection,
                       voxel_config=voxel_config or default_grid_config())


# --- descriptor files (VXPD) ---

def _vxpd_records(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("d", "<f4", (dim,))])


def _check_records(path, records: np.ndarray) -> None:
    """Ids must be unique and the float32 descriptors finite, on both ends."""
    uniq, seen = np.unique(records["id"], return_counts=True)
    if (seen > 1).any():
        dup = int(np.argmax(seen > 1))
        raise DuplicateId(f"{path}: id {int(uniq[dup])} appears {int(seen[dup])} times")
    bad = ~np.isfinite(records["d"]).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise NonFinite(f"{path}: record {row} (id {int(records['id'][row])}) "
                        "is not finite")


def write_descriptors(path, ids: np.ndarray, descriptors: np.ndarray) -> None:
    """VXPD: magic, version u16, dim u32, count u32, then (id u64, dim f32).

    Refuses what read_descriptors would refuse: duplicate ids and values
    that are not finite as float32.
    """
    descriptors = np.asarray(descriptors)
    ids = np.asarray(ids, dtype=np.uint64)
    if descriptors.ndim != 2 or descriptors.shape[1] == 0:
        raise ValueError("descriptors must be (count, dim) with dim >= 1")
    if ids.shape[0] != descriptors.shape[0]:
        raise ValueError("ids and descriptors disagree on count")
    count, dim = descriptors.shape
    records = np.empty(count, dtype=_vxpd_records(dim))
    records["id"] = ids
    records["d"] = descriptors
    _check_records(path, records)
    Path(path).write_bytes(VXPD_MAGIC + struct.pack("<HII", 1, dim, count)
                           + records.tobytes())


def read_descriptors(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a VXPD file -> (ids u64, descriptors float64 widened from f32).

    Ids must be unique and descriptors finite; dim must be at least 1.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 4 or raw[:4] != VXPD_MAGIC:
        raise BadMagic(f"{path}: bad magic")
    if len(raw) < 14:
        raise TruncatedFile(f"{path}: header cut short")
    version, dim, count = struct.unpack_from("<HII", raw, 4)
    if version != 1:
        raise VersionUnsupported(f"{path}: version {version}")
    if dim == 0:
        raise MalformedFile(f"{path}: descriptor_dim is 0")
    record = 8 + 4 * dim
    if len(raw) != 14 + record * count:
        raise TruncatedFile(f"{path}: expected {14 + record * count} bytes, got {len(raw)}")
    records = np.frombuffer(raw, dtype=_vxpd_records(dim), count=count, offset=14)
    _check_records(path, records)
    return records["id"].astype(np.uint64), records["d"].astype(np.float64)


# --- checkpoints (VXPC) ---

def write_checkpoint(path, params: dict[str, Tensor]) -> None:
    """VXPC: magic, version u16, then per tensor: name length u16, UTF-8 name,
    rank u8, extents u32 each, float64 values. Records run to EOF."""
    out = bytearray()
    out += VXPC_MAGIC
    out += struct.pack("<H", 1)
    for name in sorted(params):
        values = params[name].values
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", values.ndim)
        for extent in values.shape:
            out += struct.pack("<I", extent)
        out += values.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def read_checkpoint(path) -> dict[str, Tensor]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 4 or raw[:4] != VXPC_MAGIC:
        raise BadMagic(f"{path}: bad magic")
    if len(raw) < 6:
        raise TruncatedFile(f"{path}: header cut short")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != 1:
        raise VersionUnsupported(f"{path}: version {version}")
    params: dict[str, Tensor] = {}
    offset = 6
    while offset < len(raw):
        if offset + 2 > len(raw):
            raise TruncatedFile(f"{path}: record header cut short")
        (name_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        if offset + name_len + 1 > len(raw):
            raise TruncatedFile(f"{path}: name cut short")
        try:
            name = raw[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: tensor name at byte {offset} is not UTF-8") from exc
        if name in params:
            raise DuplicateId(f"{path}: tensor {name!r} appears twice")
        offset += name_len
        (rank,) = struct.unpack_from("<B", raw, offset)
        offset += 1
        if offset + 4 * rank > len(raw):
            raise TruncatedFile(f"{path}: extents cut short")
        extents = struct.unpack_from(f"<{rank}I", raw, offset) if rank else ()
        offset += 4 * rank
        n_values = int(np.prod(extents)) if rank else 1
        if offset + 8 * n_values > len(raw):
            raise TruncatedFile(f"{path}: values cut short in {name!r}")
        values = np.frombuffer(raw, dtype="<f8", count=n_values, offset=offset)
        offset += 8 * n_values
        params[name] = Tensor(values.reshape(extents))
    return params
