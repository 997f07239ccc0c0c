"""CLI contracts: exit codes, determinism, full tiny-pipeline run."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from harness import ExperimentConfig, extract_descriptors
from vxp import cli, dataio, trainer
from vxp.autodiff import Tensor


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


def test_synth_into_a_file_is_a_located_io_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert run(["synth", "--scenes", "1", "--seed", "0", "--out", str(out)]) == 1
    assert f"error: cannot create directory {out / 'clouds'}" in capsys.readouterr().err


def test_an_exception_that_is_not_a_vxp_error_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("bug in the writer")

    monkeypatch.setattr(dataio, "write_training_set", broken)
    with pytest.raises(ValueError, match="bug in the writer"):
        run(["synth", "--scenes", "1", "--seed", "0", "--out", str(tmp_path / "d")])


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


@pytest.mark.parametrize("key,argv,allowed", [
    ("projection", ["train", "--stage", "image"], "perspective, orthographic"),
])
def test_config_value_outside_its_choices_is_located(tmp_path, capsys, key, argv, allowed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{key}=foo\n")
    if argv[0] == "train":
        argv = argv + ["--manifest", "m.csv", "--calib", "c.vxpcal"]
    code = run(argv + ["--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 1
    assert f"run.cfg:2: {key}: 'foo' is not one of {allowed}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


EVAL_ARGV = ["eval", "--query", "q.vxpd", "--db", "db.vxpd", "--query-manifest", "q.csv",
             "--db-manifest", "db.csv"]


@pytest.mark.parametrize("line,key", [
    ("metirc=L1", "metirc"), ("metric=L1", "metric"),
    ("local_loss_mode=collision_normalized", "local_loss_mode"),
], ids=["misspelt", "deleted_metric", "deleted_local_loss_mode"])
def test_config_key_no_subcommand_reads_is_located(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{line}\n")  # seed is read by other subcommands: accepted
    code = run(EVAL_ARGV + ["--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 1
    assert f"run.cfg:2: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--config", "run.cfg"], ["--print-config"]])
def test_plot_takes_no_config_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run(["plot", "--in", "x", "--out", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["train", "--stage", "local", "--manifest", "m.csv", "--calib", "c.vxpcal",
     "--local-loss-mode", "collision_normalized"],
    ["index", "--db", "db.vxpd"],
], ids=["local_loss_mode", "index"])
def test_deleted_flag_and_subcommand_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_bad_vxp_seed_is_located(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VXP_SEED", "7x")
    assert run(["synth", "--scenes", "1", "--out", str(tmp_path / "d")]) == 1
    assert "VXP_SEED: '7x' is not a valid int" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv,env,config,message", [
    (["synth", "--scenes", "1", "--seed", "-1"], None, "", "--seed: -1 is not >= 0"),
    (["synth", "--scenes", "1"], "-5", "", "VXP_SEED: -5 is not >= 0"),
    (["synth", "--scenes", "1"], None, "seed=-3\n", "run.cfg:1: seed: -3 is not >= 0"),
    (["extract", "--modality", "3d", "--ckpt", "c.vxpc", "--manifest", "m.csv",
      "--seed", "-1"], None, "", "--seed: -1 is not >= 0"),
    (["extract", "--modality", "2d", "--ckpt", "c.vxpc", "--manifest", "m.csv"], "-5", "",
     "VXP_SEED: -5 is not >= 0"),
], ids=["synth_flag", "synth_env", "synth_config", "extract_flag", "extract_env"])
def test_negative_seed_is_located(tmp_path, monkeypatch, capsys, argv, env, config, message):
    if env is not None:
        monkeypatch.setenv("VXP_SEED", env)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out), "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,config,message", [
    (["--scenes", "0"], "", "--scenes: 0 is not >= 1"),
    (["--scenes", "-1"], "", "--scenes: -1 is not >= 1"),
    (["--scenes", "2", "--traversals", "0"], "", "--traversals: 0 is not >= 1"),
    (["--scenes", "2"], "seed=1\ntraversals=0\n", "run.cfg:2: traversals: 0 is not >= 1"),
], ids=["zero_scenes", "negative_scenes", "zero_traversals", "config_traversals"])
def test_synth_refuses_an_empty_dataset(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "d"
    assert run(["synth", *argv, "--out", str(out), "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2.5"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_eval_radius_must_be_finite_and_positive(tmp_path, capsys, value, source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\nradius={value}\n" if source == "config" else "")
    flag = [f"--radius={value}"] if source == "flag" else []
    out = tmp_path / "res.csv"
    assert run(EVAL_ARGV + flag + ["--out", str(out), "--config", str(cfg)]) == 1
    where = "--radius" if source == "flag" else "run.cfg:2: radius"
    assert f"{where}: {float(value)!r} is not a finite radius > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row,message", [
    ("1,nan", "c.csv:3: recall: nan is not a recall in [0, 1]"),
    ("1,inf", "c.csv:3: recall: inf is not a recall in [0, 1]"),
    ("2,1.5", "c.csv:3: recall: 1.5 is not a recall in [0, 1]"),
    ("0,0.5", "c.csv:3: k: 0 is not >= 1"),
], ids=["nan", "inf", "above_one", "zero_k"])
def test_plot_refuses_a_row_it_cannot_draw(tmp_path, capsys, row, message):
    curve = tmp_path / "c.csv"
    curve.write_text(f"k,recall\n1,0.5\n{row}\n")
    out = tmp_path / "c.svg"
    assert run(["plot", "--in", str(curve), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flag,value,message", [
    ("--lr", "nan", "--lr: nan is not a finite value > 0"),
    ("--lr-decay", "inf", "--lr-decay: inf is not a finite value > 0"),
    ("--descriptor-dim", "0", "--descriptor-dim: 0 is not >= 1"),
    ("--feature-dim", "-1", "--feature-dim: -1 is not >= 1"),
    ("--epochs", "0", "--epochs: 0 is not >= 1"),
    ("--batch-size", "0", "--batch-size: 0 is not >= 1"),
    ("--batch-size", "-1", "--batch-size: -1 is not >= 1"),
    ("--seed", "-2", "--seed: -2 is not >= 0"),
])
def test_train_refuses_values_training_cannot_use(tiny_pipeline, tmp_path, capsys,
                                                  flag, value, message):
    out = tmp_path / "x.vxpc"
    assert run(["train", "--stage", "image", "--manifest", tiny_pipeline["manifest"],
                "--calib", tiny_pipeline["calib"], "--out", str(out), "--epochs", "1",
                flag, value]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_config_value_training_cannot_use_is_located(tiny_pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nlr_decay=-0.5\n")
    out = tmp_path / "x.vxpc"
    assert run(["train", "--stage", "image", "--manifest", tiny_pipeline["manifest"],
                "--calib", tiny_pipeline["calib"], "--out", str(out),
                "--config", str(cfg)]) == 1
    assert "run.cfg:2: lr_decay: -0.5 is not a finite value > 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_config_batch_size_below_1_is_located(tiny_pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# stage 2\nbatch_size=0\n")
    out = tmp_path / "x.vxpc"
    assert run(["train", "--stage", "local", "--manifest", tiny_pipeline["manifest"],
                "--calib", tiny_pipeline["calib"], "--out", str(out),
                "--resume", tiny_pipeline["ck"][0], "--config", str(cfg)]) == 1
    assert "run.cfg:2: batch_size: 0 is not >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keep,argv,missing", [
    (lambda n: n.startswith("image.encoder."), ["extract", "--modality", "2d"], "image.head.p"),
    (lambda n: n in ("pc.backbone.vfe.w1", "pc.head.p"), ["extract", "--modality", "3d"],
     "pc.backbone.vfe.b1"),
    (lambda n: n.startswith("image.encoder."), ["train", "--stage", "local"], "image.head.p"),
], ids=["extract_2d", "extract_3d", "train_local"])
def test_checkpoint_missing_a_tensor_is_named(tiny_pipeline, tmp_path, capsys,
                                              keep, argv, missing):
    ckpt = tmp_path / "partial.vxpc"
    params = dataio.read_checkpoint(tiny_pipeline["ck"][2])
    dataio.write_checkpoint(ckpt, {n: t for n, t in params.items() if keep(n)})
    source = ["--ckpt", str(ckpt)] if argv[0] == "extract" else \
        ["--resume", str(ckpt), "--calib", tiny_pipeline["calib"]]
    out = tmp_path / "out"
    assert run([*argv, *source, "--manifest", tiny_pipeline["manifest"],
                "--out", str(out)]) == 1
    assert f"checkpoint lacks tensor {missing!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,edit,modality", [
    ("pc.backbone.conv0.meta", lambda v: v[:1], "3d"),
    ("image.head.fc_w", lambda v: v[:5], "2d"),
], ids=["conv0_meta_one_value", "fc_w_five_rows"])
def test_malformed_checkpoint_tensor_names_file_and_tensor(tiny_pipeline, tmp_path, capsys,
                                                           name, edit, modality):
    params = dataio.read_checkpoint(tiny_pipeline["ck"][2])
    params[name] = Tensor(edit(params[name].values))
    ckpt = tmp_path / "bad.vxpc"
    dataio.write_checkpoint(ckpt, params)
    out = tmp_path / "out.vxpd"
    assert run(["extract", "--modality", modality, "--ckpt", str(ckpt),
                "--manifest", tiny_pipeline["manifest"], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{ckpt}: checkpoint tensor {name!r} has shape" in err
    assert not out.exists()


def test_extract_2d_equals_harness_descriptors(tiny_pipeline):
    """The CLI and the test harness encode images through one float32 path."""
    dataset = dataio.load_training_set(tiny_pipeline["manifest"], tiny_pipeline["calib"])
    params = dataio.read_checkpoint(tiny_pipeline["ck"][2])
    images = extract_descriptors(dataset, params, ExperimentConfig(seed=0))[0]
    assert images.dtype == np.float32
    ids, descriptors = dataio.read_descriptors(tiny_pipeline["v2d"])
    assert np.array_equal(ids, np.arange(len(dataset.samples)))
    assert descriptors.astype(np.float32).tobytes() == images.tobytes()


def test_stage3_targets_are_the_rows_extract_writes(tmp_path, monkeypatch):
    """Stage 3 regresses the descriptor `vxp extract --modality 2d` writes for
    each image, bit for bit. The default widths (64 -> 256) matter: there a
    one-image FC product rounds differently from a batched one."""
    data = tmp_path / "data"
    assert run(["synth", "--scenes", "4", "--seed", "3", "--out", str(data)]) == 0
    common = ["--manifest", str(data / "manifest.csv"), "--calib", str(data / "calib.vxpcal"),
              "--epochs", "1", "--seed", "0"]
    ck1, ck2, ck3 = (str(tmp_path / f"stage{i}.vxpc") for i in (1, 2, 3))
    assert run(["train", "--stage", "image", "--out", ck1, *common]) == 0
    assert run(["train", "--stage", "local", "--out", ck2, "--resume", ck1, *common]) == 0
    v2d = str(tmp_path / "img.vxpd")
    assert run(["extract", "--modality", "2d", "--ckpt", ck1,
                "--manifest", str(data / "manifest.csv"), "--out", v2d]) == 0

    targets = []
    loss = trainer.losses.global_descriptor_loss

    def recording(image_desc, cloud_desc):
        targets.append(image_desc.values.tobytes())
        return loss(image_desc, cloud_desc)

    monkeypatch.setattr(trainer.losses, "global_descriptor_loss", recording)
    assert run(["train", "--stage", "global", "--out", ck3, "--resume", ck2, *common]) == 0
    _, rows = dataio.read_descriptors(v2d)
    assert rows.shape == (8, 256)
    assert sorted(targets) == sorted(row.tobytes() for row in rows.astype(np.float32))


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


def test_eval_metric_rows_are_the_same_for_every_protocol(tiny_pipeline, tmp_path):
    def metric_rows(protocol, spec):
        out = tmp_path / f"{protocol}_{spec}.csv"
        assert run(["eval", "--query", tiny_pipeline["v2d"], "--db", tiny_pipeline["v3d"],
                    "--query-manifest", tiny_pipeline["manifest"],
                    "--db-manifest", tiny_pipeline["manifest"],
                    "--protocol", protocol, "--recall", spec, "--out", str(out)]) == 0
        return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()[1:]]

    for protocol in ("plain", "oxford", "kitti"):
        assert metric_rows(protocol, "1pct") == [f"{protocol},1pct"]
    assert metric_rows("plain", "1,1") == ["plain,1"]


def test_eval_never_mutates_inputs(tiny_pipeline, tmp_path):
    before = Path(tiny_pipeline["v2d"]).read_bytes()
    out = tmp_path / "res2.csv"
    run(["eval", "--query", tiny_pipeline["v2d"], "--db", tiny_pipeline["v3d"],
         "--query-manifest", tiny_pipeline["manifest"],
         "--db-manifest", tiny_pipeline["manifest"],
         "--recall", "1", "--out", str(out)])
    assert Path(tiny_pipeline["v2d"]).read_bytes() == before


@pytest.mark.parametrize("protocol", ["plain", "oxford"])
def test_eval_names_the_record_over_the_search_limit(tiny_pipeline, tmp_path, capsys,
                                                     protocol):
    # 1e30 is finite as float32, so the reader accepts it, but its squared
    # norm is above 2^120; oxford searches one run's subset at a time
    ids, descs = dataio.read_descriptors(tiny_pipeline["v3d"])
    descs[5, 0] = 1e30
    bad = tmp_path / "pc.vxpd"
    dataio.write_descriptors(bad, ids, descs)
    out = tmp_path / "res.csv"
    code = run(["eval", "--query", tiny_pipeline["v2d"], "--db", str(bad),
                "--query-manifest", tiny_pipeline["manifest"],
                "--db-manifest", tiny_pipeline["manifest"],
                "--protocol", protocol, "--recall", "1", "--out", str(out)])
    assert code == 1
    assert (f"error: {bad}: record 5 (id {int(ids[5])}) has squared norm"
            in capsys.readouterr().err)
    assert not out.exists()


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
