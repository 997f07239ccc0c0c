"""Render the protocol documentation from the constants table.

Docs are generated, committed, and guarded by a drift test: re-rendering
must reproduce the committed files byte for byte, so a changed code default
without a doc regeneration fails CI with DriftDetected.
"""

from __future__ import annotations

from pathlib import Path

from . import constants
from .errors import DriftDetected

_PROTOCOLS_HEADER = """\
# Training and evaluation protocols

All numeric protocol parameters in one place. The same table drives the
code defaults (`vxp.constants`); a test fails if either side drifts.

Provenance: `protocol` values define the training/evaluation protocols this
tool implements and should not be changed casually; `default` values are
implementation choices, configurable at the call sites that use them.

| name | value | provenance | meaning |
|------|-------|------------|---------|
"""

_PROTOCOLS_FOOTER = """
## Protocol summaries

**Training pair thresholds.** Samples closer than {positive} m form positive
pairs, samples farther than {negative} m are negatives; the band in between is
never sampled. Batch-hard mining selects, per anchor, the farthest positive
and the closest negative inside the batch by descriptor distance.

**Zero-triplet batch expansion.** After a batch, anchors whose hinge term
is already zero are counted; if their fraction strictly exceeds {trigger:.0%} of the
batch, the batch size grows by a factor of {rate} (ceiling), capped at {cap}.
The new size takes effect at the next epoch.

**Pairwise multi-run evaluation.** Every ordered pair of distinct runs is
evaluated (queries from one run, the other run's full set as database) and
the unweighted mean recall over pairs is reported. Queries may be limited
to designated test regions.

**Revisit evaluation.** Queries and database are subsampled along the
trajectory every {interval} m (database with a {offset} m start offset). For a query
taken at time t0, only database entries with t < t0 and t0 - t > {gap} s are
candidates, so immediate neighbors never count as matches.

**Recall metrics.** recall@k counts a query as correct when any of its k
nearest descriptors lies within {radius} m of the query's true position;
queries with no in-radius database entry are excluded. recall@1% uses
k = max(1, ceil(N/100)) for a database of N entries. Recall curves are
emitted for k = 1..{curve_k}.

**Exact search.** Descriptors are ranked by L2 distance, the space the
triplet loss trains. Rankings are exact: ids and distances equal a
brute-force scan bit for bit, and equal distances rank by lowest id. Search
first takes a shortlist from one matrix multiply, ||q||^2 + ||d||^2 - 2 q.d,
keeping every candidate within twice a written rounding bound of the query's
c-th smallest value, then re-ranks the shortlist with the exact distance.
Each query is ranked once per query set and database: every recall metric is
read from the rank of its first in-radius candidate, and every protocol
reports the same metric names for the same recall list.
"""


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt_value(v) for v in value) + ")"
    return str(value)


def render_protocol_docs() -> dict[str, str]:
    """Documentation files as {relative name: content}."""
    table_rows = []
    for name, value, provenance, note in constants.PROTOCOL_TABLE:
        table_rows.append(f"| `{name}` | {_fmt_value(value)} | {provenance} | {note} |")
    footer = _PROTOCOLS_FOOTER.format(
        positive=constants.POSITIVE_THRESHOLD_M, negative=constants.NEGATIVE_THRESHOLD_M,
        trigger=constants.ZERO_TRIPLET_TRIGGER, rate=constants.BATCH_EXPANSION_RATE,
        cap=constants.MAX_BATCH_SIZE, interval=constants.KITTI_SAMPLING_INTERVAL_M,
        offset=constants.KITTI_SAMPLING_START_OFFSET_M, gap=constants.REVISIT_MIN_GAP_S,
        radius=constants.EVAL_SUCCESS_RADIUS_M, curve_k=constants.RECALL_CURVE_MAX_K)
    protocols = _PROTOCOLS_HEADER + "\n".join(table_rows) + "\n" + footer
    return {"protocols.md": protocols}


def write_protocol_docs(docs_dir) -> None:
    docs_dir = Path(docs_dir)
    docs_dir.mkdir(parents=True, exist_ok=True)
    for name, content in render_protocol_docs().items():
        (docs_dir / name).write_text(content)


def verify_protocol_docs(docs_dir) -> None:
    """Raise DriftDetected when committed docs differ from a fresh render."""
    docs_dir = Path(docs_dir)
    for name, content in render_protocol_docs().items():
        path = docs_dir / name
        if not path.exists():
            raise DriftDetected(f"{path} is missing; regenerate the docs")
        if path.read_text() != content:
            raise DriftDetected(f"{path} differs from the rendered constants table")
