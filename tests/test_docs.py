"""Doc/code parity: the protocol table must name the values in
vxp.constants, the protocol numbers cited in prose must be rows of it, and
the README module table, walkthrough and subcommand list must match the
package and the CLI."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from vxp import cli, constants, retrieval
from vxp.geometry import default_grid_config

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
README = DOCS_DIR.parent / "README.md"


def protocol_rows(text: str) -> dict[str, str]:
    """name -> value text of every `| `name` | value | provenance | meaning |` row."""
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| \w+ \| [^|]+ \|$", text, re.MULTILINE)
    return {name: value for name, value in rows}


def test_protocol_table_matches_constants():
    rows = protocol_rows((DOCS_DIR / "protocols.md").read_text())
    names = {name for name in vars(constants) if name.isupper()}
    assert {name.upper() for name in rows} == names
    for name, value in rows.items():
        assert ast.literal_eval(value) == getattr(constants, name.upper()), name


@pytest.mark.parametrize("doc", [README, DOCS_DIR / "formats.md"], ids=lambda p: p.name)
def test_protocol_numbers_in_prose_cite_table_rows(doc):
    """Prose cites a protocol number as a link to its table row,
    [`name`](protocols.md), instead of repeating the value."""
    rows = protocol_rows((DOCS_DIR / "protocols.md").read_text())
    cited = re.findall(r"\[`(\w+)`\]\((?:docs/)?protocols\.md\)", doc.read_text())
    assert cited
    assert set(cited) <= set(rows)


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


def walkthrough_commands() -> list[list[str]]:
    """Arguments of every `vxp` line of the README's CLI walkthrough block,
    with backslash continuations joined."""
    readme = README.read_text()
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


def test_readme_cli_row_names_every_subcommand():
    readme = README.read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `vxp.cli` |"))
    listed = re.search(r"`vxp ([^`]*)`", row).group(1).split(" / ")
    choices = re.search(r"\{([^}]*)\}", cli.build_parser().format_usage()).group(1)
    assert listed == choices.split(",")


def test_readme_module_table_lists_every_module():
    listed = re.findall(r"^\| `vxp\.(\w+)` \|", README.read_text(), re.MULTILINE)
    package = Path(cli.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert sorted(listed) == modules
