"""Property tests: any bytes given to a reader parse or raise a VxpError.

Each reader is fed raw bytes and near-valid files: a well-formed header
whose sizes may or may not match the body, and float32 payloads that
include NaN and inf, so the checks past the header are reached too. A file
that parses must hold only finite values.
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
extent = st.one_of(small, st.integers(0, 2 ** 32 - 1))


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
