"""Descriptor indexing, exact nearest-neighbor search, recall protocols.

Descriptors are compared by L2 distance, the one space the triplet loss
trains. Search is exact and runs over blocks of queries, so memory is bounded
by the block size, not by queries x rows. It takes a shortlist from float32
keys ||q||^2 + ||d||^2 - 2 q.d (one float32 matrix multiply against a float32
copy of the index made on first query), within a written rounding bound,
then re-ranks it with the exact float64 distance expression. Ids and
distances are bit-identical to a brute-force scan, ties resolve by lowest
id, and the immutable index gives results independent of insertion order.
Every recall metric reads one vector of first-match ranks per (query set,
index), and `protocol_ks` names the metrics of every protocol.
Protocols: plain recall@k / recall@1%, the pairwise multi-run evaluation
(every ordered pair of distinct runs, averaged), and the revisit protocol
(trajectory subsampling by traveled distance plus a minimum time gap between
query and database candidates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import constants
from .dataio import write_file
from .errors import (DimMismatch, Empty, InsufficientRuns, InvalidK,
                     MissingTimestamps, NonFinite, NoValidQueries, TooLarge)

# Queries x database rows per block: 2 M float32 keys, 8 MiB per (B, N) array.
_BLOCK_ELEMS = 1 << 21
# Largest squared norm of a descriptor. It keeps every float32 value, product,
# partial sum and key of the shortlist below 2^123, where float32 overflows
# at 2^128, and so also refuses values that are not finite as float32.
_SQ_NORM_LIMIT = 2.0 ** 120
# Smallest descriptor dim the float32 rounding bound does not cover (D u < 1).
_DIM_LIMIT = 1 << 24


@dataclass(frozen=True)
class EvalProtocol:
    success_radius_m: float = constants.EVAL_SUCCESS_RADIUS_M
    k_list: tuple[int, ...] = (1,)
    one_percent: bool = True
    revisit_min_gap_s: float = constants.REVISIT_MIN_GAP_S
    sampling_interval_m: float = constants.KITTI_SAMPLING_INTERVAL_M
    sampling_start_offset_m: float = constants.KITTI_SAMPLING_START_OFFSET_M

    def __post_init__(self):
        if not (math.isfinite(self.success_radius_m) and self.success_radius_m > 0):
            raise ValueError("success radius must be finite and positive")
        if any(k < 1 for k in self.k_list):
            raise ValueError("k values must be >= 1")


@dataclass(frozen=True)
class RetrievalIndex:
    """Immutable descriptor database with ground-truth metadata."""

    descriptors: np.ndarray  # (N, D)
    ids: np.ndarray          # (N,) uint64
    positions: np.ndarray    # (N, 3) meters
    sq_norms: np.ndarray     # (N,) ||d||^2
    timestamps: np.ndarray | None = None  # (N,) seconds

    @property
    def size(self) -> int:
        return self.descriptors.shape[0]

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    @cached_property
    def float32_operands(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Read-only float32 copies of descriptors and sq_norms, the shortlist
        keys' operands, and the largest squared norm; made on first query."""
        copies = self.descriptors.astype(np.float32), self.sq_norms.astype(np.float32)
        for a in copies:
            a.setflags(write=False)
        return *copies, float(self.sq_norms.max())


@dataclass
class QuerySet:
    descriptors: np.ndarray
    positions: np.ndarray
    ids: np.ndarray | None = None
    timestamps: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.descriptors.shape[0]

    def take(self, rows) -> "QuerySet":
        """The queries at the given rows (index array or boolean mask)."""
        return QuerySet(self.descriptors[rows], self.positions[rows],
                        None if self.ids is None else self.ids[rows],
                        None if self.timestamps is None else self.timestamps[rows])


def _require_finite(values: np.ndarray, what: str,
                    sq_norms: np.ndarray | None = None,
                    row_name: Callable[[int], str] = "row {}".format) -> None:
    """Refuse, naming the first bad row by row_name, values that are not
    finite or, given the rows' squared norms, a row whose squared norm is not
    at most _SQ_NORM_LIMIT. The whole array is tested first; the row is
    located only on failure."""
    ok = np.isfinite(values) if sq_norms is None else sq_norms <= _SQ_NORM_LIMIT
    if ok.all():
        return
    row = int(np.argmin(ok.reshape(ok.shape[0], -1).all(axis=1)))
    if np.isfinite(values[row]).all():
        raise NonFinite(f"{what}: {row_name(row)} has squared norm "
                        f"{sq_norms[row]:.6g}, above the search limit 2^120")
    raise NonFinite(f"{what}: {row_name(row)} is not finite")


def require_searchable(descriptors: np.ndarray, what: str,
                       row_name: Callable[[int], str]) -> None:
    """Refuse, naming the first by row_name, the float64 rows that
    build_index and the queries would refuse: a caller that searches subsets
    of its rows can name the row in its own terms."""
    _require_finite(descriptors, what, _sq_norms(descriptors), row_name)


def _sq_norms(descriptors: np.ndarray) -> np.ndarray:
    """Float64 ||x||^2 of each row."""
    return np.einsum("ij,ij->i", descriptors, descriptors)


def build_index(descriptors: np.ndarray, ids: np.ndarray, positions: np.ndarray,
                timestamps: np.ndarray | None = None) -> RetrievalIndex:
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2 or descriptors.shape[0] == 0:
        raise Empty("index needs a non-empty (N, D) descriptor matrix")
    if descriptors.shape[1] >= _DIM_LIMIT:
        raise TooLarge(f"descriptor dim {descriptors.shape[1]} is 2^24 or more")
    ids = np.asarray(ids, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.float64)
    if ids.shape[0] != descriptors.shape[0] or positions.shape[0] != descriptors.shape[0]:
        raise DimMismatch("ids/positions length must match descriptor count")
    sq_norms = _sq_norms(descriptors)
    _require_finite(descriptors, "index descriptors", sq_norms)
    _require_finite(positions, "index positions")
    if timestamps is not None:
        timestamps = np.asarray(timestamps, dtype=np.float64)
        timestamps.setflags(write=False)
    for a in (descriptors, ids, positions, sq_norms):
        a.setflags(write=False)
    return RetrievalIndex(descriptors=descriptors, ids=ids, positions=positions,
                          sq_norms=sq_norms, timestamps=timestamps)


def _distances(index_desc: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.sqrt(((index_desc - query) ** 2).sum(axis=1))


def _within(positions: np.ndarray, query_positions: np.ndarray,
            radius: float) -> np.ndarray:
    """sqrt(dx^2 + dy^2 + dz^2) <= radius over broadcast leading axes, added in
    the order numpy sums a 3-column row, so bit-identical to
    `np.sqrt(((p - q) ** 2).sum(axis=1)) <= radius`."""
    d2 = (positions[..., 0] - query_positions[..., 0]) ** 2
    d2 += (positions[..., 1] - query_positions[..., 1]) ** 2
    d2 += (positions[..., 2] - query_positions[..., 2]) ** 2
    return np.sqrt(d2) <= radius


def _shortlist(index: RetrievalIndex, queries32: np.ndarray, q_sq: np.ndarray,
               cap: int, mask: np.ndarray | None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidates that may rank in each query's exact top min(cap, candidates).

    queries32 are the (B, D) queries rounded to float32, q_sq their float64
    squared norms and mask is (B, N) or None. Returns row-major (query, row)
    pairs, their float32 keys and each query's float64 slack.

    Keys are ||q||^2 + ||d||^2 - 2 q.d in float32: -2 times one float32
    matrix multiply of the rounded rows, plus both float64 squared norms
    rounded to float32. With u = 2^-24, gamma_D = Du / (1 - Du) for D < 2^24
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1) and S =
    ||q||^2 + max ||d||^2, a key is within E of the exact squared distance
    between the float64 rows, where E sums:
      - input rounding, which moves 2 q.d by at most 3uS;
      - the float32 dot product, gamma_D (1 + u)^2 S;
      - the norms rounded to float32, uS, and the two final adds,
        (5 + 2 gamma_D)uS; with the above, (gamma_D + 10u)(1 + gamma_D)S
        bounds these four up to terms in u^2 S;
      - (D + 1)(1 + gamma_D) 2^-149 for values that round into float32's
        subnormal range (below 2^-126): there inputs, products and norms err
        by up to 2^-150 each instead of relatively, and sums are exact. This
        assumes gradual underflow, not flush-to-zero; float64 underflow errs
        by far less;
      - at u = 2^-53, DuS for the float64 norms, and the float64 re-rank's
        unchanged terms: its subtractions, squares and sum put its computed
        square within 2(D + 3)uS of the exact one, and 8uS more keeps a
        strictly larger square strictly larger after the rounded sqrt.
    The slack is twice E, and keeping every key within 2 * slack of the c-th
    smallest keeps every row of the exact top c. Squared norms of at most
    2^120 keep every float32 step finite.
    """
    desc32, sq_norms32, max_sq_norm = index.float32_operands
    keys = queries32 @ desc32.T
    keys *= -2.0
    keys += q_sq.astype(np.float32)[:, None]
    keys += sq_norms32
    d, u = index.dim, 2.0 ** -24
    gamma = d * u / (1.0 - d * u)
    relative = (gamma + 10 * u) * (1 + gamma) + (3 * d + 14) * 2.0 ** -53
    slack = 2.0 * relative * (q_sq + max_sq_norm) \
        + 2.0 * (d + 1) * (1 + gamma) * 2.0 ** -149
    if mask is not None:
        keys[~mask] = np.inf
    c = min(cap, index.size)
    kth = np.partition(keys, c - 1, axis=1)[:, c - 1]
    # The float64 bound rounded to float32, then up by one step, so that no
    # key within it is dropped.
    bound = np.nextafter((kth + 2.0 * slack).astype(np.float32), np.float32(np.inf))
    keep = keys <= bound[:, None]
    if mask is not None:
        keep &= mask
    qi, rows = np.nonzero(keep)
    return qi, rows, keys[qi, rows], slack


def _rerank(index: RetrievalIndex, queries: np.ndarray, qi: np.ndarray,
            rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs sorted by query, then by exact (distance, id); returns (query,
    row, distance, rank within the query)."""
    dists = _distances(index.descriptors[rows], queries[qi])
    order = np.lexsort((index.ids[rows], dists, qi))
    qi, rows, dists = qi[order], rows[order], dists[order]
    return qi, rows, dists, np.arange(qi.shape[0]) - np.searchsorted(qi, qi)


def _check_queries(queries: np.ndarray, index: RetrievalIndex) -> np.ndarray:
    """The queries' squared norms, after refusing a wrong dim or a bad row."""
    if queries.shape[1] != index.dim:
        raise DimMismatch(f"query dim {queries.shape[1]} vs index dim {index.dim}")
    q_sq = _sq_norms(queries)
    _require_finite(queries, "query descriptors", q_sq)
    return q_sq


def query_knn(index: RetrievalIndex, query: np.ndarray,
              k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k smallest distances, ascending; ties resolve by lowest id."""
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    q_sq = _check_queries(query, index)
    if not 1 <= k <= index.size:
        raise InvalidK(f"k={k} outside [1, {index.size}]")
    qi, rows, _, _ = _shortlist(index, query.astype(np.float32), q_sq, k, None)
    _, rows, dists, _ = _rerank(index, query, qi, rows)
    return index.ids[rows[:k]], dists[:k]


def first_match_ranks(queries: QuerySet, index: RetrievalIndex, radius: float,
                      cap: int, mask: Callable[[int, int], np.ndarray] | None = None,
                      ) -> np.ndarray:
    """Per query, the 0-based rank of its first candidate within radius.

    A query whose first in-radius candidate ranks at cap or later gets cap;
    a query with no in-radius candidate at all gets -1. Candidates are every
    database row, or the rows where mask(lo, hi), a (hi - lo, N) boolean
    array for queries lo..hi-1, is true. Ranking is query_knn's.
    """
    if cap < 1:
        raise InvalidK(f"cap={cap}")
    descriptors = np.asarray(queries.descriptors, dtype=np.float64)
    q_sq = _check_queries(descriptors, index)
    descriptors32 = descriptors.astype(np.float32)
    query_pos = np.asarray(queries.positions, dtype=np.float64)
    _require_finite(query_pos, "query positions")
    ranks = np.full(queries.size, -1, dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // index.size)
    for lo in range(0, queries.size, step):
        hi = min(lo + step, queries.size)
        block_mask = None if mask is None else mask(lo, hi)
        block_desc, block_pos = descriptors[lo:hi], query_pos[lo:hi]
        qi, rows, keys, slack = _shortlist(index, descriptors32[lo:hi], q_sq[lo:hi],
                                           cap, block_mask)
        hit = _within(index.positions[rows], block_pos[qi], radius)
        # A row ranking at or before the first in-radius row has a key within
        # 2 * slack of the smallest key among in-radius rows, so only those
        # rows need the exact re-rank. NaN (no in-radius row in the
        # shortlist) compares false and re-ranks nothing.
        best = np.full(hi - lo, np.nan)
        np.fmin.at(best, qi[hit], keys[hit])
        near = keys <= (best + 2.0 * slack)[qi]
        qi, rows, _, rank = _rerank(index, block_desc, qi[near], rows[near])
        hit = _within(index.positions[rows], block_pos[qi], radius)
        hit_q, first = np.unique(qi[hit], return_index=True)
        block = ranks[lo:hi]
        block[hit_q] = np.minimum(rank[hit][first], cap)
        missed = np.nonzero(block < 0)[0]  # no in-radius row in the top cap
        near = _within(index.positions, block_pos[missed][:, None], radius)
        if block_mask is not None:
            near &= block_mask[missed]
        block[missed[near.any(axis=1)]] = cap
    return ranks


def recall_from_ranks(ranks: np.ndarray, k: int) -> float:
    """recall@k read from first-match ranks: hits / valid queries."""
    valid = np.count_nonzero(ranks >= 0)
    if valid == 0:
        raise NoValidQueries("no query has an in-radius database entry")
    return np.count_nonzero((ranks >= 0) & (ranks < k)) / valid


def recall_at_k(queries: QuerySet, index: RetrievalIndex, protocol: EvalProtocol,
                k: int) -> float:
    """Fraction of queries whose top-k holds an entry within the success
    radius of the query position. Queries without any in-radius database
    entry are excluded from the denominator."""
    if k < 1:
        raise InvalidK(f"k={k}")
    ranks = first_match_ranks(queries, index, protocol.success_radius_m, k)
    return recall_from_ranks(ranks, k)


def one_percent_k(database_size: int) -> int:
    return max(1, math.ceil(database_size / 100))


def recall_at_one_percent(queries: QuerySet, index: RetrievalIndex,
                          protocol: EvalProtocol) -> float:
    return recall_at_k(queries, index, protocol, one_percent_k(index.size))


def recall_curve(queries: QuerySet, index: RetrievalIndex, protocol: EvalProtocol,
                 max_k: int = constants.RECALL_CURVE_MAX_K) -> list[tuple[int, float]]:
    """(k, recall) for k = 1..max_k from one ranking pass."""
    max_k = min(max_k, index.size)
    ranks = first_match_ranks(queries, index, protocol.success_radius_m, max_k)
    return [(k, recall_from_ranks(ranks, k)) for k in range(1, max_k + 1)]


def protocol_ks(protocol: EvalProtocol, database_size: int) -> dict[str, int]:
    """Metric name -> k for the protocol's k_list and recall@1%, in that
    order; a k listed twice is one metric."""
    ks = {str(k): k for k in protocol.k_list}
    if protocol.one_percent:
        ks["1pct"] = one_percent_k(database_size)
    return ks


def kitti_revisit_filter(query_timestamp: float, candidate_timestamps: np.ndarray,
                         min_gap_s: float = constants.REVISIT_MIN_GAP_S) -> np.ndarray:
    """Boolean mask keeping candidates strictly older than the gap."""
    if candidate_timestamps is None:
        raise MissingTimestamps("revisit filtering needs timestamps")
    ts = np.asarray(candidate_timestamps, dtype=np.float64)
    return (ts < query_timestamp) & (query_timestamp - ts > min_gap_s)


def sample_by_distance(positions: np.ndarray, timestamps: np.ndarray,
                       interval_m: float, start_offset_m: float = 0.0) -> np.ndarray:
    """Subsample a trajectory: walk in time order, keep a sample once the
    cumulative traveled distance passes start_offset, then every interval."""
    order = np.argsort(timestamps, kind="stable")
    pos = np.asarray(positions, dtype=np.float64)[order]
    steps = np.zeros(len(order))
    steps[1:] = np.sqrt(((pos[1:] - pos[:-1]) ** 2).sum(axis=1))
    traveled = np.cumsum(steps)
    kept = []
    next_at = start_offset_m
    for i in range(len(order)):
        if traveled[i] >= next_at:
            kept.append(order[i])
            next_at = traveled[i] + interval_m
    return np.asarray(kept, dtype=np.int64)


def kitti_revisit_eval(queries: QuerySet, index: RetrievalIndex,
                       protocol: EvalProtocol) -> dict[str, float]:
    """Revisit protocol: subsample query/database by traveled distance with
    offset start points, then only database entries older than the minimum
    gap count for each query."""
    if queries.timestamps is None or index.timestamps is None:
        raise MissingTimestamps("revisit protocol needs timestamps on both sides")
    q_rows = sample_by_distance(queries.positions, queries.timestamps,
                                protocol.sampling_interval_m, 0.0)
    db_rows = sample_by_distance(index.positions, index.timestamps,
                                 protocol.sampling_interval_m,
                                 protocol.sampling_start_offset_m)
    sub_queries = queries.take(q_rows)
    in_db = np.zeros(index.size, dtype=bool)
    in_db[db_rows] = True

    def candidates(lo: int, hi: int) -> np.ndarray:
        t0 = sub_queries.timestamps[lo:hi, None]
        return in_db & kitti_revisit_filter(t0, index.timestamps,
                                            protocol.revisit_min_gap_s)

    ks = protocol_ks(protocol, db_rows.shape[0])
    ranks = first_match_ranks(sub_queries, index, protocol.success_radius_m,
                              max(ks.values(), default=1), candidates)
    return {name: recall_from_ranks(ranks, k) for name, k in ks.items()}


def oxford_pairwise_eval(runs: Sequence[tuple[QuerySet, RetrievalIndex]],
                         protocol: EvalProtocol) -> dict[str, float]:
    """Average recall over every ordered pair of distinct runs.

    Queries of run i are evaluated against the full database of run j, for
    all i != j; the unweighted mean over the pairs is returned per metric.
    Each pair takes one ranking pass.
    """
    if len(runs) < 2:
        raise InsufficientRuns(f"need >= 2 runs, got {len(runs)}")
    sums: dict[str, float] = {}
    pairs = 0
    for i, (qset, _) in enumerate(runs):
        for j, (_, db) in enumerate(runs):
            if i == j:
                continue
            pairs += 1
            ks = protocol_ks(protocol, db.size)
            ranks = first_match_ranks(qset, db, protocol.success_radius_m,
                                      max(ks.values(), default=1))
            for name, k in ks.items():
                sums[name] = sums.get(name, 0.0) + recall_from_ranks(ranks, k)
    return {name: total / pairs for name, total in sums.items()}


def write_results_csv(path, rows: list[tuple[str, str, float]]) -> None:
    """`protocol,k,recall` rows."""
    lines = ["protocol,k,recall"]
    for protocol_name, k, recall in rows:
        lines.append(f"{protocol_name},{k},{float(recall)!r}")
    write_file(path, "\n".join(lines) + "\n")


def write_curve_csv(path, curve: list[tuple[int, float]]) -> None:
    """`k,recall` rows for the recall@K curve."""
    lines = ["k,recall"]
    for k, recall in curve:
        lines.append(f"{k},{float(recall)!r}")
    write_file(path, "\n".join(lines) + "\n")
