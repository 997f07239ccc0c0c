"""Doc/code parity: committed docs must match a fresh render, and the README
walkthrough must parse with the CLI."""

import shlex
from pathlib import Path

import pytest

from vxp import cli, constants, protocols, retrieval
from vxp.errors import DriftDetected
from vxp.geometry import default_grid_config

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"


def test_committed_docs_match_render():
    protocols.verify_protocol_docs(DOCS_DIR)


def test_drift_detected_on_stale_docs(tmp_path):
    protocols.write_protocol_docs(tmp_path)
    protocols.verify_protocol_docs(tmp_path)  # freshly written: in sync
    stale = (tmp_path / "protocols.md").read_text().replace("| 0.3 |", "| 0.4 |")
    (tmp_path / "protocols.md").write_text(stale)
    with pytest.raises(DriftDetected):
        protocols.verify_protocol_docs(tmp_path)


def test_missing_doc_detected(tmp_path):
    protocols.write_protocol_docs(tmp_path)
    (tmp_path / "protocols.md").unlink()
    with pytest.raises(DriftDetected):
        protocols.verify_protocol_docs(tmp_path)


@pytest.mark.parametrize("name,value,text", [
    ("POSITIVE_THRESHOLD_M", 12.5, "closer than 12.5 m"),
    ("ZERO_TRIPLET_TRIGGER", 0.45, "exceeds 45% of the"),
    ("REVISIT_MIN_GAP_S", 30.0, "t0 - t > 30.0 s"),
    ("RECALL_CURVE_MAX_K", 40, "k = 1..40."),
])
def test_summaries_rendered_from_constants(monkeypatch, name, value, text):
    monkeypatch.setattr(constants, name, value)
    rendered = protocols.render_protocol_docs()["protocols.md"]
    assert text in rendered.split("## Protocol summaries")[1]


def test_constants_agree_with_code_defaults():
    assert constants.TRIPLET_MARGIN == 0.3
    assert constants.BATCH_EXPANSION_RATE == 1.4
    assert constants.MAX_BATCH_SIZE == 256
    assert constants.ZERO_TRIPLET_TRIGGER == 0.30

    proto = retrieval.EvalProtocol()
    assert proto.success_radius_m == constants.EVAL_SUCCESS_RADIUS_M == 25.0
    assert proto.revisit_min_gap_s == constants.REVISIT_MIN_GAP_S == 10.0
    assert proto.sampling_interval_m == constants.KITTI_SAMPLING_INTERVAL_M == 20.0

    grid = default_grid_config()
    assert grid.grid_dims == constants.INPUT_GRID_DIMS == (110, 110, 110)
    assert constants.OUTPUT_GRID_DIMS == (28, 28, 28)
    assert constants.POSITIVE_THRESHOLD_M == 10.0
    assert constants.NEGATIVE_THRESHOLD_M == 25.0


def test_docs_carry_the_key_numbers():
    text = (DOCS_DIR / "protocols.md").read_text()
    for token in ("0.3", "1.4", "256", "30%", "10.0 m", "25.0 m", "10.0 s",
                  "20.0 m", "(110, 110, 110)", "(28, 28, 28)"):
        assert token in text, token


def walkthrough_commands() -> list[list[str]]:
    """Arguments of every `vxp` line of the README's CLI walkthrough block,
    with backslash continuations joined."""
    readme = (DOCS_DIR.parent / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("vxp ")]


def test_readme_walkthrough_parses():
    commands = walkthrough_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "train", "train", "train", "extract", "extract", "eval", "plot"]
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README walkthrough does not parse: vxp {shlex.join(argv)}")
