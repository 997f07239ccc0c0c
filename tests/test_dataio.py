"""File formats round-trip exactly; malformed inputs raise located errors."""

import struct

import numpy as np
import pytest

from oracles import write_descriptors_per_record
from vxp import dataio, synthetic
from vxp.autodiff import Tensor
from vxp.errors import (BadMagic, DuplicateId, HeaderMismatch, IoError, MalformedFile,
                        NonFinite, ParseError, TruncatedFile, VersionUnsupported)
from vxp.geometry import ProjectionModel


READERS = [dataio.load_point_cloud_bin, dataio.load_image_raw, dataio.read_calibration,
           dataio.parse_manifest, dataio.read_descriptors, dataio.read_checkpoint]


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
def test_unreadable_file_is_io_error_naming_path(tmp_path, reader):
    with pytest.raises(IoError, match="missing.dat"):
        reader(tmp_path / "missing.dat")


@pytest.mark.parametrize("reader", [dataio.read_calibration, dataio.parse_manifest],
                         ids=lambda r: r.__name__)
def test_non_utf8_text_is_malformed_naming_path(tmp_path, reader):
    p = tmp_path / "latin1.txt"
    p.write_bytes("VXP-CAL v1\nid,caf\xe9\n".encode("latin-1"))
    with pytest.raises(MalformedFile, match=r"latin1\.txt: byte 17 is not UTF-8"):
        reader(p)


class TestPointCloudBin:
    def test_two_records(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(np.arange(8, dtype="<f4").tobytes())
        cloud = dataio.load_point_cloud_bin(p)
        assert cloud.points.shape == (2, 3)
        assert np.allclose(cloud.points, [[0, 1, 2], [4, 5, 6]])

    def test_bad_size(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 17)
        with pytest.raises(MalformedFile):
            dataio.load_point_cloud_bin(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "c.bin"
        dataio.write_point_cloud_bin(p, pts)
        back = dataio.load_point_cloud_bin(p)
        assert np.array_equal(back.points, pts)


    def test_non_finite_coordinate_names_record(self, tmp_path):
        data = np.zeros((3, 4), dtype="<f4")
        data[1, 3] = np.nan  # intensity is dropped, so it may be anything
        data[2, 1] = np.inf
        p = tmp_path / "nan.bin"
        p.write_bytes(data.tobytes())
        with pytest.raises(NonFinite, match=r"nan\.bin: record 2 "):
            dataio.load_point_cloud_bin(p)


class TestImageRaw:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, size=(6, 9)).astype(np.float32).astype(np.float64)
        p = tmp_path / "i.img"
        dataio.write_image_raw(p, img)
        assert np.array_equal(dataio.load_image_raw(p), img)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.img"
        p.write_bytes(struct.pack("<II", 4, 4) + b"\x00" * 10)
        with pytest.raises(MalformedFile):
            dataio.load_image_raw(p)

    def test_non_finite_pixel_named(self, tmp_path):
        img = np.zeros((3, 5))
        img[2, 4] = np.nan
        img[1, 3] = -np.inf
        p = tmp_path / "nan.img"
        dataio.write_image_raw(p, img)
        with pytest.raises(NonFinite, match=r"nan\.img: pixel \(row 1, column 3\)"):
            dataio.load_image_raw(p)


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        proj = synthetic.default_projection_model()
        p = tmp_path / "cal.txt"
        dataio.write_calibration(p, proj)
        back = dataio.read_calibration(p)
        assert back.fx_n == proj.fx_n
        assert np.array_equal(back.extrinsic, proj.extrinsic)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "cal.txt"
        p.write_text("NOPE\n1 1 0.5 0.5\n")
        with pytest.raises(BadMagic):
            dataio.read_calibration(p)

    @pytest.mark.parametrize("line,token,value", [(1, 0, "nan"), (1, 3, "inf"),
                                                  (3, 3, "-inf"), (4, 0, "nan")])
    def test_non_finite_rejected(self, tmp_path, line, token, value):
        p = tmp_path / "cal.txt"
        dataio.write_calibration(p, synthetic.default_projection_model())
        lines = p.read_text().splitlines()
        tokens = lines[line].split()
        tokens[token] = value
        lines[line] = " ".join(tokens)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="finite"):
            dataio.read_calibration(p)

    @pytest.mark.parametrize("line,token,value,match", [
        (2, 0, "2.0", "orthonormal"), (1, 0, "0.0", "focal"), (1, 1, "-1.0", "focal")])
    def test_invalid_model_is_parse_error(self, tmp_path, line, token, value, match):
        p = tmp_path / "cal.txt"
        dataio.write_calibration(p, synthetic.default_projection_model())
        lines = p.read_text().splitlines()
        tokens = lines[line].split()
        tokens[token] = value
        lines[line] = " ".join(tokens)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"cal.txt: .*{match}"):
            dataio.read_calibration(p)


class TestManifest:
    @staticmethod
    def rows(n=2, spacing=5.0):
        return [dataio.SampleManifestRow(
            sample_id=f"s{i}", timestamp_s=float(i), position=(i * spacing, 0.0, 0.0),
            cloud_path=f"clouds/s{i}.bin", image_path=f"images/s{i}.img",
            run_id="t0") for i in range(n)]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        dataio.write_manifest(p, self.rows(3))
        back = dataio.parse_manifest(p)
        assert [r.sample_id for r in back] == ["s0", "s1", "s2"]
        assert back[1].position == (5.0, 0.0, 0.0)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "m.csv"
        rows = self.rows(2)
        rows[1].sample_id = "s0"
        dataio.write_manifest(p, rows)
        with pytest.raises(DuplicateId, match="s0"):
            dataio.parse_manifest(p)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,timestamp_s,x_m,y_m,z_m,cloud_path,image_path\n")
        with pytest.raises(HeaderMismatch):
            dataio.parse_manifest(p)

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "m.csv"
        dataio.write_manifest(p, self.rows(1))
        p.write_text(p.read_text() + "s9,notafloat,0,0,0,a,b,t0\n")
        with pytest.raises(ParseError, match=":3"):
            dataio.parse_manifest(p)

    @pytest.mark.parametrize("field,value", [(1, "nan"), (1, "inf"), (2, "-inf"),
                                             (4, "nan")])
    def test_non_finite_rejected_with_line(self, tmp_path, field, value):
        p = tmp_path / "m.csv"
        dataio.write_manifest(p, self.rows(2))
        lines = p.read_text().splitlines()
        fields = lines[2].split(",")
        fields[field] = value
        lines[2] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="m.csv:3: .*finite"):
            dataio.parse_manifest(p)


    def test_ordinary_rows_written_unquoted(self, tmp_path):
        p = tmp_path / "m.csv"
        dataio.write_manifest(p, self.rows(2))
        assert p.read_bytes() == (
            b"id,timestamp_s,x_m,y_m,z_m,cloud_path,image_path,run_id\n"
            b"s0,0.0,0.0,0.0,0.0,clouds/s0.bin,images/s0.img,t0\n"
            b"s1,1.0,5.0,0.0,0.0,clouds/s1.bin,images/s1.img,t0\n")

    @pytest.mark.parametrize("sample_id", ["a,b", 'say "hi"', "two\nlines"])
    def test_written_ids_read_back(self, tmp_path, sample_id):
        p = tmp_path / "m.csv"
        rows = self.rows(2)
        rows[0].sample_id = sample_id
        dataio.write_manifest(p, rows)
        assert [r.sample_id for r in dataio.parse_manifest(p)] == [sample_id, "s1"]

    def test_carriage_returns_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        rows = self.rows(2)
        rows[0].sample_id, rows[0].cloud_path, rows[1].run_id = "a\rb", "c\r\n.bin", "t\r"
        dataio.write_manifest(p, rows)
        assert dataio.parse_manifest(p) == rows

    def test_oversized_field_is_parse_error_with_line(self, tmp_path):
        p = tmp_path / "m.csv"
        dataio.write_manifest(p, self.rows(2))
        p.write_text(p.read_text() + "x" * 200_000 + ",0,0,0,0,a,b,t0\n")
        with pytest.raises(ParseError, match="m.csv:4: .*field larger"):
            dataio.parse_manifest(p)

    def test_record_spanning_lines_keeps_later_line_numbers(self, tmp_path):
        p = tmp_path / "m.csv"
        dataio.write_manifest(p, self.rows(1))
        p.write_text(p.read_text() + '"s\n1",1,0,0,0,a,b,t0\n'
                     + "s2,notafloat,0,0,0,a,b,t0\n")
        with pytest.raises(ParseError, match="m.csv:5: bad float"):
            dataio.parse_manifest(p)


def test_training_set_round_trip(tmp_path):
    params = synthetic.SyntheticSceneParams(points_per_cloud=64, image_width=16,
                                            image_height=12, seed=2)
    written = synthetic.synthetic_training_set(params, [0, 3], traversals=2)
    dataio.write_training_set(tmp_path / "set", written)
    back = dataio.load_training_set(tmp_path / "set" / "manifest.csv",
                                    tmp_path / "set" / "calib.vxpcal")
    assert len(back.samples) == len(written.samples) == 4
    for w, b in zip(written.samples, back.samples):
        assert (b.sample_id, b.timestamp_s, b.position, b.run_id) == \
            (w.sample_id, w.timestamp_s, w.position, w.run_id)
        assert b.cloud.sample_id == w.sample_id
        f32 = lambda a: a.astype(np.float32).astype(np.float64)  # noqa: E731
        assert np.array_equal(b.cloud.points, f32(w.cloud.points))
        assert np.array_equal(b.image, f32(w.image))
    for name in ("fx_n", "fy_n", "cx_n", "cy_n"):
        assert getattr(back.projection, name) == getattr(written.projection, name)
    assert np.array_equal(back.projection.extrinsic, written.projection.extrinsic)


class TestDescriptorFile:
    def test_dim_beyond_numpy_record_size_is_malformed(self, tmp_path):
        p = tmp_path / "d.vxpd"
        p.write_bytes(dataio.VXPD_MAGIC + struct.pack("<HII", 1, 2 ** 30, 0))
        with pytest.raises(MalformedFile, match="descriptor_dim is 1073741824"):
            dataio.read_descriptors(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.vxpd"
        dataio.write_descriptors(p, np.zeros(0, dtype=np.uint64), np.zeros((0, 4)))
        assert p.stat().st_size == 14
        ids, descs = dataio.read_descriptors(p)
        assert ids.shape == (0,)
        assert descs.shape == (0, 4)

    def test_record_arithmetic(self, tmp_path):
        p = tmp_path / "d.vxpd"
        dataio.write_descriptors(p, np.array([7], dtype=np.uint64), np.ones((1, 4)))
        assert p.stat().st_size == 14 + 8 + 16

    def test_round_trip_after_f32_rounding(self, tmp_path):
        rng = np.random.default_rng(5)
        descs = rng.normal(size=(20, 16)).astype(np.float32).astype(np.float64)
        ids = rng.integers(0, 2 ** 60, size=20).astype(np.uint64)
        p = tmp_path / "d.vxpd"
        dataio.write_descriptors(p, ids, descs)
        back_ids, back = dataio.read_descriptors(p)
        assert np.array_equal(back_ids, ids)
        assert np.array_equal(back, descs)

    def test_bad_magic_and_version_and_truncation(self, tmp_path):
        p = tmp_path / "d.vxpd"
        dataio.write_descriptors(p, np.array([1], dtype=np.uint64), np.ones((1, 2)))
        raw = p.read_bytes()
        (tmp_path / "bad1").write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(BadMagic):
            dataio.read_descriptors(tmp_path / "bad1")
        (tmp_path / "bad2").write_bytes(raw[:4] + b"\x02\x00" + raw[6:])
        with pytest.raises(VersionUnsupported):
            dataio.read_descriptors(tmp_path / "bad2")
        (tmp_path / "bad3").write_bytes(raw[:-3])
        with pytest.raises(TruncatedFile):
            dataio.read_descriptors(tmp_path / "bad3")


    @pytest.mark.parametrize("count,dim", [(0, 4), (1, 1), (7, 3), (50, 256)])
    def test_bytes_match_per_record_writer(self, tmp_path, count, dim):
        rng = np.random.default_rng(count * 1000 + dim)
        descs = rng.normal(size=(count, dim)) * np.exp(rng.normal(size=(count, dim)) * 8)
        if count:
            descs[0, 0] = -0.0
            descs[-1, -1] = 1e-42  # float32 subnormal
        ids = rng.integers(0, 2 ** 63, size=count).astype(np.uint64)
        if count:
            ids[0] = 2 ** 64 - 1
        want, got = tmp_path / "want.vxpd", tmp_path / "got.vxpd"
        write_descriptors_per_record(want, ids, descs)
        dataio.write_descriptors(got, ids, descs)
        assert got.read_bytes() == want.read_bytes()
        back_ids, back = dataio.read_descriptors(got)
        assert back_ids.dtype == np.uint64 and np.array_equal(back_ids, ids)
        assert back.dtype == np.float64 and back.shape == (count, dim)
        assert np.array_equal(back, descs.astype(np.float32).astype(np.float64))

    def test_dim_zero_rejected(self, tmp_path):
        for count in (0, 3):
            p = tmp_path / f"d{count}.vxpd"
            p.write_bytes(b"VXPD" + np.array([1], "<u2").tobytes()
                          + np.array([0, count], "<u4").tobytes() + bytes(8 * count))
            with pytest.raises(MalformedFile, match="descriptor_dim"):
                dataio.read_descriptors(p)
        with pytest.raises(ValueError):
            dataio.write_descriptors(tmp_path / "w.vxpd", np.arange(2), np.zeros((2, 0)))

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "d.vxpd"
        write_descriptors_per_record(p, np.array([4, 9, 4], dtype=np.uint64), np.ones((3, 2)))
        with pytest.raises(DuplicateId, match="id 4 appears 2 times"):
            dataio.read_descriptors(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        descs = np.ones((4, 3))
        descs[2, 1] = value
        p = tmp_path / "d.vxpd"
        write_descriptors_per_record(p, np.arange(4, dtype=np.uint64) + 10, descs)
        with pytest.raises(NonFinite, match="record 2 \\(id 12\\)"):
            dataio.read_descriptors(p)

    def test_writer_rejects_duplicate_id(self, tmp_path):
        p = tmp_path / "d.vxpd"
        with pytest.raises(DuplicateId, match="id 4 appears 2 times"):
            dataio.write_descriptors(p, np.array([4, 9, 4], dtype=np.uint64), np.ones((3, 2)))
        assert not p.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_writer_rejects_non_finite(self, tmp_path, value):
        descs = np.ones((4, 3))
        descs[2, 1] = value  # 1e39 is finite in float64 but not in float32
        p = tmp_path / "d.vxpd"
        with pytest.raises(NonFinite, match="record 2 \\(id 12\\)"):
            dataio.write_descriptors(p, np.arange(4, dtype=np.uint64) + 10, descs)
        assert not p.exists()


class TestCheckpointFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        params = {
            "encoder.w": Tensor(rng.normal(size=(4, 3))),
            "head.p": Tensor(3.0),
            "head.b": Tensor(rng.normal(size=5)),
        }
        p = tmp_path / "c.vxpc"
        dataio.write_checkpoint(p, params)
        back = dataio.read_checkpoint(p)
        assert sorted(back) == sorted(params)
        for name in params:
            assert np.array_equal(back[name].values, params[name].values)
            assert back[name].shape == params[name].shape

    def test_bad_magic_and_truncation(self, tmp_path):
        p = tmp_path / "c.vxpc"
        dataio.write_checkpoint(p, {"a": Tensor(np.ones(3))})
        raw = p.read_bytes()
        (tmp_path / "bad1").write_bytes(b"ZZZZ" + raw[4:])
        with pytest.raises(BadMagic):
            dataio.read_checkpoint(tmp_path / "bad1")
        (tmp_path / "bad2").write_bytes(raw[:-5])
        with pytest.raises(TruncatedFile):
            dataio.read_checkpoint(tmp_path / "bad2")

    def test_non_utf8_name_rejected(self, tmp_path):
        p = tmp_path / "c.vxpc"
        dataio.write_checkpoint(p, {"ab": Tensor(np.ones(3))})
        p.write_bytes(p.read_bytes().replace(b"ab", b"\xff\xfe", 1))
        with pytest.raises(MalformedFile, match="UTF-8"):
            dataio.read_checkpoint(p)

    def test_duplicate_name_rejected(self, tmp_path):
        p = tmp_path / "c.vxpc"
        dataio.write_checkpoint(p, {"a": Tensor(np.ones(3))})
        raw = p.read_bytes()
        p.write_bytes(raw + raw[6:])  # the same record twice
        with pytest.raises(DuplicateId, match="'a'"):
            dataio.read_checkpoint(p)


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = tmp_path / "c.vxpc"
        w = np.ones((2, 3))
        w[1, 2] = value
        dataio.write_checkpoint(p, {"a": Tensor(np.ones(3)), "b.w": Tensor(w)})
        with pytest.raises(NonFinite, match="'b.w'"):
            dataio.read_checkpoint(p)

    @pytest.mark.parametrize("extents", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 31, 2 ** 31, 4)],
                             ids=["u32_max_squared", "2e31_squared_x4"])
    def test_extents_past_int64_are_truncation(self, tmp_path, extents):
        # np.prod of these extents wraps around int64 (to 1 and to 0)
        p = tmp_path / "c.vxpc"
        p.write_bytes(dataio.VXPC_MAGIC + struct.pack("<HH", 1, 1) + b"a"
                      + struct.pack(f"<B{len(extents)}I", len(extents), *extents)
                      + np.ones(4).tobytes())
        with pytest.raises(TruncatedFile, match="values cut short in 'a'"):
            dataio.read_checkpoint(p)

    def test_empty_tensor_with_overflowing_extents_is_malformed(self, tmp_path):
        # 0 x 2^31 x 2^31 holds no value, yet numpy refuses its shape
        p = tmp_path / "c.vxpc"
        p.write_bytes(dataio.VXPC_MAGIC + struct.pack("<HH", 1, 1) + b"a"
                      + struct.pack("<B3I", 3, 0, 2 ** 31, 2 ** 31))
        with pytest.raises(MalformedFile, match="'a' extents .* too large"):
            dataio.read_checkpoint(p)

    def test_rank_beyond_numpy_is_malformed(self, tmp_path):
        p = tmp_path / "c.vxpc"
        p.write_bytes(dataio.VXPC_MAGIC + struct.pack("<HH", 1, 1) + b"a"
                      + struct.pack("<B65I", 65, *([0] * 65)))
        with pytest.raises(MalformedFile, match="rank 65"):
            dataio.read_checkpoint(p)


class TestSyntheticScenes:
    def test_deterministic_bitwise(self):
        params = synthetic.SyntheticSceneParams(seed=3)
        a = synthetic.generate_synthetic_scene(params, 5, traversal=1)
        b = synthetic.generate_synthetic_scene(params, 5, traversal=1)
        assert np.array_equal(a.cloud.points, b.cloud.points)
        assert np.array_equal(a.image, b.image)
        assert a.position == b.position

    def test_point_count(self):
        params = synthetic.SyntheticSceneParams(points_per_cloud=777)
        sample = synthetic.generate_synthetic_scene(params, 0)
        assert sample.cloud.points.shape == (777, 3)

    def test_distinct_seeds_distinct_clouds(self):
        params = synthetic.SyntheticSceneParams()
        hashes = set()
        for scene in range(100):
            s = synthetic.generate_synthetic_scene(params, scene)
            hashes.add(s.cloud.points.tobytes())
        assert len(hashes) == 100

    def test_nonzero_pixels_have_in_frustum_points(self):
        params = synthetic.SyntheticSceneParams(seed=1)
        sample = synthetic.generate_synthetic_scene(params, 2)
        proj = synthetic.default_projection_model()
        rot = proj.extrinsic[:3, :3]
        cam = sample.cloud.points @ rot.T + proj.extrinsic[:3, 3]
        depth = cam[:, 2]
        vis = depth > 0
        fx, fy, cx, cy = proj.intrinsics_for(params.image_width, params.image_height)
        u = np.floor(fx * cam[vis, 0] / depth[vis] + cx).astype(int)
        v = np.floor(fy * cam[vis, 1] / depth[vis] + cy).astype(int)
        ok = (u >= 0) & (u < params.image_width) & (v >= 0) & (v < params.image_height)
        expected = np.zeros_like(sample.image, dtype=bool)
        expected[v[ok], u[ok]] = True
        got = sample.image > 0
        assert np.array_equal(got, got & expected)
        # and the splat value is one of the point inverse depths
        inv = 1.0 / depth[vis][ok]
        vals = sample.image[v[ok], u[ok]]
        assert np.all(vals >= inv - 1e-12)

    def test_traversals_are_positives_scenes_are_negatives(self):
        params = synthetic.SyntheticSceneParams(seed=0)
        for scene in range(10):
            a = synthetic.generate_synthetic_scene(params, scene, 0)
            b = synthetic.generate_synthetic_scene(params, scene, 1)
            d = np.sqrt(sum((x - y) ** 2 for x, y in zip(a.position, b.position)))
            assert d <= 10.0
        a = synthetic.generate_synthetic_scene(params, 0, 0)
        c = synthetic.generate_synthetic_scene(params, 1, 0)
        d = np.sqrt(sum((x - y) ** 2 for x, y in zip(a.position, c.position)))
        assert d > 25.0
