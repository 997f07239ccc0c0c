"""CLI contracts: exit codes, determinism, full tiny-pipeline run."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from vxp import cli, dataio


def run(argv):
    return cli.main(argv)


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_unknown_flag_exits_2_and_writes_nothing(tmp_path):
    target = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--scenes", "2", "--seed", "1", "--out", str(target),
             "--bogus-flag", "1"])
    assert exc.value.code == 2
    assert not target.exists()


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_runtime_error_exits_1(tmp_path, capsys):
    code = run(["plot", "--in", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "o.svg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_deterministic_by_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--scenes", "4", "--seed", "7", "--out", str(a)]) == 0
    assert run(["synth", "--scenes", "4", "--seed", "7", "--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)
    assert (a / "manifest.csv").exists()
    assert (a / "calib.vxpcal").exists()


def test_vxp_seed_env_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("VXP_SEED", "9")
    assert run(["synth", "--scenes", "2", "--out", str(a)]) == 0
    monkeypatch.delenv("VXP_SEED")
    assert run(["synth", "--scenes", "2", "--seed", "9", "--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\ntraversals=1\n")
    out = tmp_path / "d"
    assert run(["synth", "--scenes", "1", "--out", str(out),
                "--config", str(cfg), "--seed", "2", "--print-config"]) == 0
    printed = capsys.readouterr().out
    assert "seed=2" in printed       # flag beats config
    assert "traversals=1" in printed  # config beats default


def test_config_value_that_fails_its_cast_is_located(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# stage 1\nepochs=abc\n")
    code = run(["train", "--stage", "image", "--manifest", str(tmp_path / "m.csv"),
                "--calib", str(tmp_path / "c.vxpcal"), "--out", str(tmp_path / "ck.vxpc"),
                "--config", str(cfg)])
    assert code == 1
    assert "run.cfg:2: epochs: 'abc' is not a valid int" in capsys.readouterr().err


def test_bad_vxp_seed_is_located(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VXP_SEED", "7x")
    assert run(["synth", "--scenes", "1", "--out", str(tmp_path / "d")]) == 1
    assert "VXP_SEED: '7x' is not a valid int" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_plot_bad_row_is_located(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    curve.write_text("k,recall\n1,0.5\n2,high\n")
    assert run(["plot", "--in", str(curve), "--out", str(tmp_path / "c.svg")]) == 1
    assert "c.csv:3: recall: 'high' is not a valid float" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """synth -> 3 training stages -> extraction, small enough for CI."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run(["synth", "--scenes", "6", "--seed", "3", "--out", str(data)]) == 0

    manifest = str(data / "manifest.csv")
    calib = str(data / "calib.vxpcal")
    common = ["--manifest", manifest, "--calib", calib,
              "--descriptor-dim", "16", "--feature-dim", "8", "--vfe-dim", "6",
              "--seed", "0"]
    ck1, ck2, ck3 = (str(root / f"stage{i}.vxpc") for i in (1, 2, 3))
    assert run(["train", "--stage", "image", "--out", ck1,
                "--epochs", "2", "--batch-size", "8", *common]) == 0
    assert run(["train", "--stage", "local", "--out", ck2, "--resume", ck1,
                "--epochs", "2", "--batch-size", "4", *common]) == 0
    assert run(["train", "--stage", "global", "--out", ck3, "--resume", ck2,
                "--epochs", "2", "--batch-size", "4", *common]) == 0

    v2d = str(root / "img.vxpd")
    v3d = str(root / "pc.vxpd")
    assert run(["extract", "--modality", "2d", "--ckpt", ck3,
                "--manifest", manifest, "--out", v2d]) == 0
    assert run(["extract", "--modality", "3d", "--ckpt", ck3,
                "--manifest", manifest, "--out", v3d, "--seed", "0"]) == 0
    return {"root": root, "manifest": manifest, "calib": calib,
            "ck": [ck1, ck2, ck3], "v2d": v2d, "v3d": v3d}


def test_train_stage_needs_resume(tiny_pipeline):
    code = run(["train", "--stage", "local",
                "--manifest", tiny_pipeline["manifest"],
                "--calib", tiny_pipeline["calib"],
                "--out", str(tiny_pipeline["root"] / "x.vxpc")])
    assert code == 1


def test_checkpoints_and_history_exist(tiny_pipeline):
    for ck in tiny_pipeline["ck"]:
        assert Path(ck).exists()
        assert Path(ck + ".loss.csv").read_text().startswith("epoch,step,loss")


def test_extracted_descriptor_dims(tiny_pipeline):
    ids, descs = dataio.read_descriptors(tiny_pipeline["v2d"])
    assert descs.shape == (12, 16)
    ids3, descs3 = dataio.read_descriptors(tiny_pipeline["v3d"])
    assert descs3.shape == (12, 16)
    assert np.array_equal(ids, ids3)


def test_index_sorts_and_round_trips(tiny_pipeline, tmp_path):
    out = tmp_path / "indexed.vxpd"
    assert run(["index", "--db", tiny_pipeline["v3d"], "--out", str(out)]) == 0
    ids, _ = dataio.read_descriptors(out)
    assert np.all(np.diff(ids.astype(np.int64)) >= 0)


def test_eval_plain_writes_csv_and_curve(tiny_pipeline, tmp_path):
    out = tmp_path / "res.csv"
    code = run(["eval", "--query", tiny_pipeline["v2d"], "--db", tiny_pipeline["v3d"],
                "--query-manifest", tiny_pipeline["manifest"],
                "--db-manifest", tiny_pipeline["manifest"],
                "--protocol", "plain", "--recall", "1,1pct,curve25",
                "--radius", "25", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "protocol,k,recall"
    assert any(l.startswith("plain,1,") for l in lines)
    assert any(l.startswith("plain,1pct,") for l in lines)
    curve = Path(str(out) + ".curve.csv")
    assert curve.exists()
    assert curve.read_text().splitlines()[0] == "k,recall"


def test_eval_oxford_and_kitti_protocols(tiny_pipeline, tmp_path):
    for protocol in ("oxford", "kitti"):
        out = tmp_path / f"{protocol}.csv"
        code = run(["eval", "--query", tiny_pipeline["v2d"],
                    "--db", tiny_pipeline["v3d"],
                    "--query-manifest", tiny_pipeline["manifest"],
                    "--db-manifest", tiny_pipeline["manifest"],
                    "--protocol", protocol, "--recall", "1",
                    "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("protocol,k,recall")


def test_eval_never_mutates_inputs(tiny_pipeline, tmp_path):
    before = Path(tiny_pipeline["v2d"]).read_bytes()
    out = tmp_path / "res2.csv"
    run(["eval", "--query", tiny_pipeline["v2d"], "--db", tiny_pipeline["v3d"],
         "--query-manifest", tiny_pipeline["manifest"],
         "--db-manifest", tiny_pipeline["manifest"],
         "--recall", "1", "--out", str(out)])
    assert Path(tiny_pipeline["v2d"]).read_bytes() == before


def test_extract_deterministic(tiny_pipeline, tmp_path):
    again = tmp_path / "again.vxpd"
    assert run(["extract", "--modality", "3d", "--ckpt", tiny_pipeline["ck"][2],
                "--manifest", tiny_pipeline["manifest"], "--out", str(again),
                "--seed", "0"]) == 0
    assert Path(again).read_bytes() == Path(tiny_pipeline["v3d"]).read_bytes()


def test_plot_emits_svg(tiny_pipeline, tmp_path):
    curve = tmp_path / "c.csv"
    curve.write_text("k,recall\n1,0.5\n2,0.75\n3,1.0\n")
    svg = tmp_path / "c.svg"
    assert run(["plot", "--in", str(curve), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_eval_curve_feeds_plot(tiny_pipeline, tmp_path):
    # the README walkthrough: eval writes the curve CSV that plot reads
    out = tmp_path / "results.csv"
    assert run(["eval", "--query", tiny_pipeline["v2d"], "--db", tiny_pipeline["v3d"],
                "--query-manifest", tiny_pipeline["manifest"],
                "--db-manifest", tiny_pipeline["manifest"],
                "--protocol", "plain", "--recall", "1,curve25",
                "--radius", "25", "--out", str(out)]) == 0
    for path in (out, Path(str(out) + ".curve.csv")):
        for line in path.read_text().splitlines()[1:]:
            float(line.rsplit(",", 1)[1])  # a plain number, not a numpy repr
    svg = tmp_path / "results.svg"
    assert run(["plot", "--in", str(out) + ".curve.csv", "--out", str(svg)]) == 0
    assert "polyline" in svg.read_text()


@pytest.mark.parametrize("protocol,spec,message", [
    ("plain", "1,x", "'x' is not a k >= 1, 1pct or curve25"),
    ("plain", "0", "'0' is not a k >= 1"),
    ("plain", "", "names no metric"),
    ("plain", " , ", "names no metric"),
    ("oxford", "1,curve25", "curve25 needs --protocol plain"),
    ("kitti", "curve25", "curve25 needs --protocol plain"),
], ids=["not_a_number", "zero", "empty", "blank_tokens", "curve_oxford", "curve_kitti"])
def test_eval_rejects_bad_recall_spec(tiny_pipeline, tmp_path, capsys, protocol, spec,
                                      message):
    out = tmp_path / "res.csv"
    code = run(["eval", "--query", tiny_pipeline["v2d"], "--db", tiny_pipeline["v3d"],
                "--query-manifest", tiny_pipeline["manifest"],
                "--db-manifest", tiny_pipeline["manifest"],
                "--protocol", protocol, "--recall", spec, "--out", str(out)])
    assert code == 1
    assert f"recall {spec!r}: {message}" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".curve.csv").exists()
