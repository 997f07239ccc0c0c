"""Dataset ingestion and the canonical on-disk formats.

Formats owned here:
  * point cloud .bin   -- little-endian float32 quadruples (x, y, z, intensity)
  * manifest CSV       -- header `id,timestamp_s,x_m,y_m,z_m,cloud_path,image_path,run_id`
  * VXP-CAL v1         -- text calibration: normalized intrinsics + extrinsic rows
  * VXPD               -- binary descriptor sets (float32 payload)
  * VXPC               -- binary named-tensor checkpoints (float64 payload)
  * raw image grids    -- u32 width, u32 height, then float32 row-major values

Parsers fail loudly with located errors; nothing is returned on partial
reads. Every reader gets its bytes or text from `read_file`, so a file that
cannot be read is an IoError and text that is not UTF-8 a MalformedFile,
each naming the path.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from math import isfinite, prod
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import (BadMagic, DuplicateId, HeaderMismatch, IoError, MalformedFile,
                     NonFinite, ParseError, TruncatedFile, VersionUnsupported)
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


def read_file(path, text: bool = False) -> bytes | str:
    """The bytes of a file, or its UTF-8 text when text is true."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not text:
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: byte {exc.start} is not UTF-8") from exc


# --- point clouds ---

def load_point_cloud_bin(path) -> PointCloud:
    """Read float32 (x, y, z, intensity) records; intensity is dropped.

    A non-finite coordinate raises NonFinite naming its record.
    """
    path = Path(path)
    raw = read_file(path)
    if len(raw) % 16 != 0:
        raise MalformedFile(f"{path}: size {len(raw)} not divisible by 16")
    points = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)[:, :3].astype(np.float64)
    finite = np.isfinite(points)
    if not finite.all():
        record = int(np.argmin(finite.all(axis=1)))
        raise NonFinite(f"{path}: record {record} has a non-finite coordinate")
    return PointCloud(points, sample_id=path.stem)


def write_point_cloud_bin(path, points: np.ndarray) -> None:
    """Write (x, y, z, 0) records; the intensity column is zero."""
    points = np.asarray(points, dtype=np.float64)
    data = np.column_stack([points, np.zeros(points.shape[0])]).astype("<f4")
    Path(path).write_bytes(data.tobytes())


# --- raw image grids ---

def load_image_raw(path) -> np.ndarray:
    """Read a (width u32, height u32) header then float32 pixels, row-major.

    A non-finite pixel raises NonFinite naming its row and column.
    """
    raw = read_file(path)
    if len(raw) < 8:
        raise MalformedFile(f"{path}: missing dims header")
    width, height = struct.unpack("<II", raw[:8])
    expected = 8 + 4 * width * height
    if len(raw) != expected:
        raise MalformedFile(f"{path}: expected {expected} bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=8).reshape(height, width)
    finite = np.isfinite(values)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), width)
        raise NonFinite(f"{path}: pixel (row {row}, column {col}) is not finite")
    return values.astype(np.float64)


def write_image_raw(path, image: np.ndarray) -> None:
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape
    payload = struct.pack("<II", width, height) + image.astype("<f4").tobytes()
    Path(path).write_bytes(payload)


# --- calibration ---

def write_calibration(path, proj: ProjectionModel) -> None:
    """Write the canonical VXP-CAL v1 text format."""
    lines = [CALIB_MAGIC,
             f"{proj.fx_n!r} {proj.fy_n!r} {proj.cx_n!r} {proj.cy_n!r}"]
    for row in proj.extrinsic[:3]:
        lines.append(" ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_calibration(path) -> ProjectionModel:
    """Read VXP-CAL v1; a focal length <= 0 or a rotation that is not
    orthonormal is a ParseError."""
    lines = read_file(path, text=True).splitlines()
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
    try:
        return ProjectionModel(fx_n=fx, fy_n=fy, cx_n=cx, cy_n=cy, extrinsic=extrinsic)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# --- manifests ---

def parse_manifest(path) -> list[SampleManifestRow]:
    """Manifest rows; an error names the line on which its record ends."""
    reader = csv.reader(io.StringIO(read_file(path, text=True), newline=""))
    rows: list[SampleManifestRow] = []
    seen: set[str] = set()
    try:
        header = next(reader, None)
        if header is None:
            raise HeaderMismatch(f"{path}: empty file")
        if header != MANIFEST_HEADER:
            raise HeaderMismatch(f"{path}: header {header} != {MANIFEST_HEADER}")
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(MANIFEST_HEADER):
                raise ParseError(f"{where}: expected {len(MANIFEST_HEADER)} fields")
            sample_id = rec[0]
            if sample_id in seen:
                raise DuplicateId(f"{where}: duplicate id {sample_id!r}")
            seen.add(sample_id)
            try:
                ts = float(rec[1])
                x, y, z = float(rec[2]), float(rec[3]), float(rec[4])
            except ValueError as exc:
                raise ParseError(f"{where}: bad float") from exc
            if not (isfinite(ts) and isfinite(x) and isfinite(y) and isfinite(z)):
                raise ParseError(f"{where}: timestamp and position must be finite")
            rows.append(SampleManifestRow(
                sample_id=sample_id, timestamp_s=ts, position=(x, y, z),
                cloud_path=rec[5], image_path=rec[6], run_id=rec[7]))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def write_manifest(path, rows: list[SampleManifestRow]) -> None:
    """Minimal CSV quoting: a field with a comma, quote or line feed is quoted.
    csv leaves a carriage return bare, which the reader takes for a line end,
    so a manifest with one in any field quotes every field."""
    records = [[r.sample_id, repr(r.timestamp_s), repr(r.position[0]), repr(r.position[1]),
                repr(r.position[2]), r.cloud_path, r.image_path, r.run_id] for r in rows]
    quote_all = any("\r" in "".join(rec) for rec in records)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(records)


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


def write_training_set(out_dir, dataset: TrainingSet) -> None:
    """The inverse of load_training_set: clouds/<id>.bin and images/<id>.img
    per sample, then manifest.csv and calib.vxpcal, under out_dir."""
    out = Path(out_dir)
    for sub in ("clouds", "images"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    rows = []
    for s in dataset.samples:
        cloud_rel, image_rel = f"clouds/{s.sample_id}.bin", f"images/{s.sample_id}.img"
        write_point_cloud_bin(out / cloud_rel, s.cloud.points)
        write_image_raw(out / image_rel, s.image)
        rows.append(SampleManifestRow(
            sample_id=s.sample_id, timestamp_s=s.timestamp_s, position=s.position,
            cloud_path=cloud_rel, image_path=image_rel, run_id=s.run_id))
    write_manifest(out / "manifest.csv", rows)
    write_calibration(out / "calib.vxpcal", dataset.projection)


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
    raw = read_file(path)
    if len(raw) < 4 or raw[:4] != VXPD_MAGIC:
        raise BadMagic(f"{path}: bad magic")
    if len(raw) < 14:
        raise TruncatedFile(f"{path}: header cut short")
    version, dim, count = struct.unpack_from("<HII", raw, 4)
    if version != 1:
        raise VersionUnsupported(f"{path}: version {version}")
    if dim == 0 or 8 + 4 * dim > np.iinfo(np.intc).max:  # numpy's record size limit
        raise MalformedFile(f"{path}: descriptor_dim is {dim}")
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
    raw = read_file(path)
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
        if rank > 32:  # the most dimensions numpy 1.x arrays can have
            raise MalformedFile(f"{path}: tensor {name!r} has rank {rank}")
        offset += 1
        if offset + 4 * rank > len(raw):
            raise TruncatedFile(f"{path}: extents cut short")
        extents = struct.unpack_from(f"<{rank}I", raw, offset)
        offset += 4 * rank
        n_values = prod(extents)  # exact; np.prod wraps past int64
        if offset + 8 * n_values > len(raw):
            raise TruncatedFile(f"{path}: values cut short in {name!r}")
        if 8 * prod(e for e in extents if e) > np.iinfo(np.intp).max:
            raise MalformedFile(f"{path}: tensor {name!r} extents {extents} are too large")
        values = np.frombuffer(raw, dtype="<f8", count=n_values, offset=offset)
        if not np.isfinite(values).all():
            raise NonFinite(f"{path}: tensor {name!r} has non-finite values")
        offset += 8 * n_values
        params[name] = Tensor(values.reshape(extents))
    return params
