"""Property tests: any bytes given to a reader parse or raise a VxpError.

Each reader is fed raw bytes and near-valid files: a well-formed header
whose sizes may or may not match the body, float payloads that include NaN
and inf, and text that is not UTF-8, so the checks past the header are
reached too. A file that parses must hold only finite values.
"""

import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vxp import dataio
from vxp.errors import VxpError

SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

small = st.integers(0, 4)
extent = st.one_of(small, st.integers(0, 2 ** 32 - 1), st.sampled_from([2 ** 31, 2 ** 32 - 1]))


def f32_bytes(n: int):
    """n float32 values, NaN and inf included, as little-endian bytes."""
    return st.lists(st.floats(width=32), min_size=n, max_size=n).map(
        lambda xs: np.asarray(xs, dtype="<f4").tobytes())


def parse_or_vxp_error(reader, path, data):
    """reader(path) after writing data there; None when it raised VxpError."""
    path.write_bytes(data)
    try:
        return reader(path)
    except VxpError:
        return None


@SETTINGS
@given(data=st.one_of(st.binary(max_size=96),
                      st.integers(0, 6).flatmap(lambda n: f32_bytes(4 * n))))
def test_point_cloud_bin_parses_or_raises(tmp_path, data):
    cloud = parse_or_vxp_error(dataio.load_point_cloud_bin, tmp_path / "c.bin", data)
    if cloud is not None:
        assert cloud.points.shape == (len(data) // 16, 3)
        assert np.isfinite(cloud.points).all()


@st.composite
def image_files(draw):
    """A header whose dims match a float32 body, or arbitrary bytes after
    an arbitrary header, or arbitrary bytes."""
    kind = draw(st.sampled_from(["sized", "header", "raw"]))
    if kind == "raw":
        return draw(st.binary(max_size=96))
    if kind == "sized":
        width, height = draw(small), draw(small)
        return struct.pack("<II", width, height) + draw(f32_bytes(width * height))
    return struct.pack("<II", draw(extent), draw(extent)) + draw(st.binary(max_size=96))


@SETTINGS
@given(data=image_files())
def test_image_raw_parses_or_raises(tmp_path, data):
    image = parse_or_vxp_error(dataio.load_image_raw, tmp_path / "i.img", data)
    if image is not None:
        assert image.shape == struct.unpack("<II", data[:8])[::-1]
        assert np.isfinite(image).all()


@st.composite
def descriptor_files(draw):
    """A VXPD header (magic and version mostly right) over up to four
    records, whose size matches the header's dim or is arbitrary."""
    magic = draw(st.sampled_from([dataio.VXPD_MAGIC, dataio.VXPD_MAGIC, b"VXPX", b"VX"]))
    version = draw(st.sampled_from([1, 1, 2]))
    sized = draw(st.booleans())
    dim = draw(small if sized else extent)
    count = draw(small if sized else extent)
    ids = draw(st.lists(st.integers(0, 3), max_size=4))
    body = f32_bytes(dim) if sized else st.binary(max_size=24)
    records = b"".join(struct.pack("<Q", i) + draw(body) for i in ids)
    return magic + struct.pack("<HII", version, dim, count) + records


@SETTINGS
@given(data=descriptor_files())
def test_descriptors_parse_or_raise(tmp_path, data):
    parsed = parse_or_vxp_error(dataio.read_descriptors, tmp_path / "d.vxpd", data)
    if parsed is not None:
        ids, descs = parsed
        _, dim, count = struct.unpack_from("<HII", data, 4)
        assert descs.shape == (count, dim)
        assert np.unique(ids).size == count
        assert np.isfinite(descs).all()


@st.composite
def checkpoint_files(draw):
    """A VXPC header over up to three records: names that may repeat or not
    be UTF-8, ranks up to 255, extents that may overflow int64 when
    multiplied, and float64 values (NaN and inf included) that may be cut
    short."""
    magic = draw(st.sampled_from([dataio.VXPC_MAGIC, dataio.VXPC_MAGIC, b"VXPD", b"VX"]))
    out = magic + struct.pack("<H", draw(st.sampled_from([1, 1, 2])))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from([b"a", b"b.w", b"\xff\xfe", b""]))
        rank = draw(st.one_of(st.integers(0, 3), st.integers(0, 255)))
        sized = draw(st.booleans())
        extents = draw(st.lists(small if sized else extent, min_size=rank, max_size=rank))
        values = (st.lists(st.floats(), min_size=int(np.prod(extents)),
                           max_size=int(np.prod(extents))).map(
                      lambda xs: np.asarray(xs, dtype="<f8").tobytes())
                  if sized and rank <= 3 else st.binary(max_size=32))
        out += (struct.pack("<H", len(name)) + name
                + struct.pack(f"<B{rank}I", rank, *extents) + draw(values))
    return out[:draw(st.integers(0, len(out)))] if draw(st.booleans()) else out


@SETTINGS
@given(data=checkpoint_files())
def test_checkpoint_parses_or_raises(tmp_path, data):
    params = parse_or_vxp_error(dataio.read_checkpoint, tmp_path / "c.vxpc", data)
    if params is not None:
        assert all(np.isfinite(t.values).all() for t in params.values())
        dataio.write_checkpoint(tmp_path / "again.vxpc", params)
        again = dataio.read_checkpoint(tmp_path / "again.vxpc")
        assert again.keys() == params.keys()
        assert all(np.array_equal(again[n].values, params[n].values)
                   and again[n].shape == params[n].shape for n in params)


number = st.one_of(st.floats().map(repr), st.sampled_from(["nan", "-inf", "1e999", "x", ""]))
text_bytes = st.one_of(st.text(max_size=40).map(lambda t: t.encode("utf-8")),
                       st.binary(max_size=40))


@st.composite
def manifest_files(draw):
    """The manifest header (mostly) over rows whose ids may repeat and whose
    numbers may be NaN, inf or not numbers, or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(text_bytes)
    lines = [",".join(dataio.MANIFEST_HEADER) if draw(st.integers(0, 3)) else "id,x"]
    for _ in range(draw(st.integers(0, 4))):
        fields = [draw(st.sampled_from(["s0", "s1", "s2"])),
                  *(draw(number) for _ in range(4)), "c.bin", "i.img", "t0"]
        lines.append(",".join(fields[:draw(st.integers(6, 9))]))
    return ("\n".join(lines) + "\n").encode("utf-8") + draw(st.sampled_from([b"", b"\xff"]))


@SETTINGS
@given(data=manifest_files())
def test_manifest_parses_or_raises(tmp_path, data):
    rows = parse_or_vxp_error(dataio.parse_manifest, tmp_path / "m.csv", data)
    if rows is not None:
        assert len({r.sample_id for r in rows}) == len(rows)
        assert all(np.isfinite([r.timestamp_s, *r.position]).all() for r in rows)


@st.composite
def calibration_files(draw):
    """VXP-CAL text: the magic (mostly), then up to five lines of up to five
    numbers each, which may be non-finite, not numbers, or make a model with
    a non-positive focal length or a rotation that is not orthonormal; or
    arbitrary bytes."""
    if draw(st.booleans()):
        return draw(text_bytes)
    lines = [dataio.CALIB_MAGIC if draw(st.integers(0, 3)) else "VXP-CAL v2"]
    identity = [["0.5", "0.5", "0.5", "0.5"], ["1", "0", "0", "0"],
                ["0", "1", "0", "0"], ["0", "0", "1", "0"]]
    for row in identity[:draw(st.integers(0, 4))]:
        row = list(row)
        for i in range(len(row)):
            if draw(st.integers(0, 4)) == 0:
                row[i] = draw(number)
        lines.append(" ".join(row[:draw(st.integers(3, 4))]))
    return ("\n".join(lines) + "\n").encode("utf-8") + draw(st.sampled_from([b"", b"\xe9"]))


@SETTINGS
@given(data=calibration_files())
def test_calibration_parses_or_raises(tmp_path, data):
    proj = parse_or_vxp_error(dataio.read_calibration, tmp_path / "c.vxpcal", data)
    if proj is not None:
        assert np.isfinite([proj.fx_n, proj.fy_n, proj.cx_n, proj.cy_n]).all()
        assert np.isfinite(proj.extrinsic).all()
