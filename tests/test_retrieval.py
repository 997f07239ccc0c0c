"""Retrieval index, exact kNN and recall protocols against brute force."""

import hashlib

import numpy as np
import pytest

from oracles import brute_force_knn, brute_force_recall_at_k
from vxp import retrieval as rt
from vxp.errors import (DimMismatch, Empty, InsufficientRuns, InvalidK,
                        MissingTimestamps, NonFinite, NoValidQueries)


def simple_index(descs, positions=None, ids=None, timestamps=None):
    descs = np.asarray(descs, dtype=float)
    n = descs.shape[0]
    if positions is None:
        positions = np.zeros((n, 3))
    if ids is None:
        ids = np.arange(n, dtype=np.uint64)
    return rt.build_index(descs, ids, positions, timestamps)


class TestBuildIndex:
    def test_size(self):
        idx = simple_index(np.eye(3))
        assert idx.size == 3 and idx.dim == 3

    def test_empty_and_mismatch(self):
        with pytest.raises(Empty):
            rt.build_index(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)))
        with pytest.raises(DimMismatch):
            rt.build_index(np.eye(3), np.arange(2), np.zeros((3, 3)))

    def test_permuted_insertion_identical_rankings(self):
        rng = np.random.default_rng(0)
        descs = rng.normal(size=(30, 4))
        ids = np.arange(30, dtype=np.uint64)
        pos = rng.normal(size=(30, 3))
        perm = rng.permutation(30)
        a = rt.build_index(descs, ids, pos)
        b = rt.build_index(descs[perm], ids[perm], pos[perm])
        q = rng.normal(size=4)
        ia, da = rt.query_knn(a, q, 10)
        ib, db = rt.query_knn(b, q, 10)
        assert np.array_equal(ia, ib)
        assert np.array_equal(da, db)

    def test_immutable_after_build(self):
        idx = simple_index(np.eye(4))
        digest = hashlib.sha256(idx.descriptors.tobytes()
                                + idx.ids.tobytes()
                                + idx.positions.tobytes()).hexdigest()
        rt.query_knn(idx, np.ones(4), 2)
        rt.recall_at_k(rt.QuerySet(np.eye(4), np.zeros((4, 3))), idx,
                       rt.EvalProtocol(), 1)
        after = hashlib.sha256(idx.descriptors.tobytes()
                               + idx.ids.tobytes()
                               + idx.positions.tobytes()).hexdigest()
        assert digest == after
        with pytest.raises(ValueError):
            idx.descriptors[0, 0] = 99.0


class TestQueryKnn:
    def test_three_four_five_triangle(self):
        idx = simple_index([[0.0, 1.0], [3.0, 4.0]])
        ids, dists = rt.query_knn(idx, np.array([0.0, 0.0]), 2)
        assert np.array_equal(ids, [0, 1])
        assert np.allclose(dists, [1.0, 5.0])

    def test_k_equals_n_full_ranking(self):
        rng = np.random.default_rng(1)
        idx = simple_index(rng.normal(size=(10, 3)))
        ids, dists = rt.query_knn(idx, rng.normal(size=3), 10)
        assert len(ids) == 10
        assert np.all(np.diff(dists) >= 0)

    def test_l1_l2_disagreement_pair(self):
        idx = simple_index([[0.0, 3.0], [2.0, 2.0]])
        q = np.zeros(2)
        ids_l2, _ = rt.query_knn(idx, q, 1)
        assert ids_l2[0] == 1  # sqrt(8) ~ 2.83 < 3; by L1, row 0 would win (3 < 4)

    def test_tie_breaks_by_lowest_id(self):
        idx = rt.build_index(np.array([[1.0], [1.0]]),
                             np.array([9, 4], dtype=np.uint64), np.zeros((2, 3)))
        ids, _ = rt.query_knn(idx, np.array([0.0]), 2)
        assert np.array_equal(ids, [4, 9])

    def test_invalid_k_and_dim(self):
        idx = simple_index(np.eye(3))
        with pytest.raises(InvalidK):
            rt.query_knn(idx, np.ones(3), 0)
        with pytest.raises(InvalidK):
            rt.query_knn(idx, np.ones(3), 4)
        with pytest.raises(DimMismatch):
            rt.query_knn(idx, np.ones(2), 1)

    @pytest.mark.parametrize("metric", ["L2"])
    def test_matches_brute_force(self, metric):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 80))
            descs = rng.normal(size=(n, 5))
            ids = rng.permutation(n).astype(np.uint64)
            idx = simple_index(descs, ids=ids)
            q = rng.normal(size=5)
            k = int(rng.integers(1, n + 1))
            got_ids, got_d = rt.query_knn(idx, q, k)
            want_ids, want_d = brute_force_knn(descs, ids, q, k)
            assert np.array_equal(got_ids, want_ids)
            assert np.allclose(got_d, want_d, atol=0)


def clustered_instance(rng, n_db, n_q, dim=4):
    """Database/queries over a handful of well-separated places."""
    n_places = max(2, n_db // 6)
    place_pos = np.zeros((n_places, 3))
    place_pos[:, 0] = np.arange(n_places) * 70.0
    place_emb = rng.normal(size=(n_places, dim)) * 3.0

    db_place = rng.integers(0, n_places, size=n_db)
    db_desc = place_emb[db_place] + rng.normal(size=(n_db, dim)) * 0.8
    db_pos = place_pos[db_place] + rng.normal(size=(n_db, 3))

    q_place = rng.integers(0, n_places, size=n_q)
    q_desc = place_emb[q_place] + rng.normal(size=(n_q, dim)) * 0.8
    q_pos = place_pos[q_place] + rng.normal(size=(n_q, 3))
    return db_desc, db_pos, q_desc, q_pos


class TestRecall:
    def test_true_neighbor_first_counts(self):
        db = simple_index([[0.0], [5.0]], positions=np.array([[0, 0, 0], [100, 0, 0.0]]))
        queries = rt.QuerySet(np.array([[0.1]]), np.array([[1.0, 0, 0]]))
        assert rt.recall_at_k(queries, db, rt.EvalProtocol(), 1) == 1.0

    def test_recall_at_database_size_is_one(self):
        rng = np.random.default_rng(2)
        db_desc, db_pos, q_desc, q_pos = clustered_instance(rng, 30, 10)
        idx = simple_index(db_desc, positions=db_pos)
        queries = rt.QuerySet(q_desc, q_pos)
        assert rt.recall_at_k(queries, idx, rt.EvalProtocol(), idx.size) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        db_desc, db_pos, q_desc, q_pos = clustered_instance(rng, 40, 15)
        idx = simple_index(db_desc, positions=db_pos)
        queries = rt.QuerySet(q_desc, q_pos)
        last = 0.0
        for k in range(1, 41):
            r = rt.recall_at_k(queries, idx, rt.EvalProtocol(), k)
            assert r >= last
            last = r

    def test_matches_brute_force_oracle(self):
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            n_db = int(rng.integers(10, 120))
            db_desc, db_pos, q_desc, q_pos = clustered_instance(rng, n_db, 12)
            idx = simple_index(db_desc, positions=db_pos)
            queries = rt.QuerySet(q_desc, q_pos)
            k = int(rng.integers(1, 6))
            want = brute_force_recall_at_k(q_desc, q_pos, db_desc, db_pos,
                                           np.arange(n_db, dtype=np.uint64),
                                           25.0, k)
            if want is None:
                with pytest.raises(NoValidQueries):
                    rt.recall_at_k(queries, idx, rt.EvalProtocol(), k)
            else:
                got = rt.recall_at_k(queries, idx, rt.EvalProtocol(), k)
                assert abs(got - want) < 1e-12

    def test_one_percent_k_values(self):
        assert rt.one_percent_k(400) == 4
        assert rt.one_percent_k(50) == 1
        assert rt.one_percent_k(101) == 2

    def test_one_percent_equals_recall_at_that_k(self):
        rng = np.random.default_rng(4)
        db_desc, db_pos, q_desc, q_pos = clustered_instance(rng, 250, 20)
        idx = simple_index(db_desc, positions=db_pos)
        queries = rt.QuerySet(q_desc, q_pos)
        assert rt.recall_at_one_percent(queries, idx, rt.EvalProtocol()) == \
            rt.recall_at_k(queries, idx, rt.EvalProtocol(), 3)

    def test_curve_matches_pointwise(self):
        rng = np.random.default_rng(5)
        db_desc, db_pos, q_desc, q_pos = clustered_instance(rng, 60, 10)
        idx = simple_index(db_desc, positions=db_pos)
        queries = rt.QuerySet(q_desc, q_pos)
        curve = rt.recall_curve(queries, idx, rt.EvalProtocol(), max_k=25)
        assert len(curve) == 25
        for k, r in curve:
            assert r == rt.recall_at_k(queries, idx, rt.EvalProtocol(), k)


def adversarial(kind, descs):
    """Inputs that stress the GEMM shortlist: exact duplicates (ties by id),
    or a large common offset, where ||q||^2 + ||d||^2 - 2 q.d cancels to
    within rounding of the distances themselves."""
    if kind == "offset":
        return 1e4 + 1e-4 * descs
    descs = descs.copy()
    descs[len(descs) // 2:] = descs[:len(descs) - len(descs) // 2]
    return descs


def ranks_oracle(q_desc, q_pos, db_desc, db_pos, ids, radius, cap, rows_for=None):
    """First-match ranks from brute-force kNN over each query's candidates."""
    out = []
    for q in range(q_desc.shape[0]):
        rows = np.arange(db_desc.shape[0]) if rows_for is None else rows_for(q)
        gt = np.sqrt(((db_pos[rows] - q_pos[q]) ** 2).sum(axis=1)) <= radius
        if not gt.any():
            out.append(-1)
            continue
        top, _ = brute_force_knn(db_desc[rows], ids[rows], q_desc[q], len(rows))
        good = {int(i) for i in ids[rows][gt]}
        first = next(r for r, i in enumerate(top) if int(i) in good)
        out.append(min(first, cap))
    return np.asarray(out)


class TestEngine:
    @pytest.mark.parametrize("metric", ["L2"])
    @pytest.mark.parametrize("dim", [4, 256])
    @pytest.mark.parametrize("kind", ["duplicates", "offset"])
    def test_knn_matches_brute_force_exactly(self, metric, dim, kind):
        rng = np.random.default_rng(dim)
        n = 120
        descs = adversarial(kind, rng.normal(size=(n, dim)))
        ids = rng.permutation(n).astype(np.uint64)
        idx = simple_index(descs, ids=ids)
        queries = adversarial(kind, rng.normal(size=(6, dim)))
        queries[0] = descs[3]  # an exact hit on a duplicated row
        for q in queries:
            for k in (1, 7, n):
                got_ids, got_d = rt.query_knn(idx, q, k)
                want_ids, want_d = brute_force_knn(descs, ids, q, k)
                assert np.array_equal(got_ids, want_ids)
                assert np.array_equal(got_d, want_d)

    @pytest.mark.parametrize("metric", ["L2"])
    @pytest.mark.parametrize("n_q", [1, 23])
    @pytest.mark.parametrize("kind", ["duplicates", "offset"])
    def test_ranks_and_recalls_across_blocks(self, monkeypatch, metric, n_q, kind):
        # 5 queries per block, so 23 queries leave a partial last block.
        # Descriptors carry no place signal, so first matches rank anywhere
        # from 0 past the cap, and queries beyond either end have none.
        rng = np.random.default_rng(n_q)
        db_desc = adversarial(kind, rng.normal(size=(90, 256)))
        q_desc = adversarial("offset", rng.normal(size=(n_q, 256))) if kind == "offset" \
            else rng.normal(size=(n_q, 256))
        db_pos = np.zeros((90, 3))
        db_pos[:, 0] = np.arange(90) * 5.0
        q_pos = np.zeros((n_q, 3))
        q_pos[:, 0] = rng.uniform(-60.0, 510.0, size=n_q)
        ids = rng.permutation(90).astype(np.uint64)
        idx = simple_index(db_desc, positions=db_pos, ids=ids)
        monkeypatch.setattr(rt, "_BLOCK_ELEMS", 5 * idx.size)
        queries = rt.QuerySet(q_desc, q_pos)
        proto = rt.EvalProtocol()
        ranks = rt.first_match_ranks(queries, idx, proto.success_radius_m, 25)
        want = ranks_oracle(q_desc, q_pos, db_desc, db_pos, ids, proto.success_radius_m, 25)
        assert np.array_equal(ranks, want)
        curve = rt.recall_curve(queries, idx, proto)
        for k in range(1, 26):
            valid = np.count_nonzero(ranks >= 0)
            if valid == 0:
                with pytest.raises(NoValidQueries):
                    rt.recall_at_k(queries, idx, proto, k)
                continue
            prefix = np.count_nonzero((ranks >= 0) & (ranks < k)) / valid
            assert prefix == rt.recall_from_ranks(ranks, k)
            assert prefix == rt.recall_at_k(queries, idx, proto, k)
            assert prefix == curve[k - 1][1]
            assert prefix == brute_force_recall_at_k(q_desc, q_pos, db_desc, db_pos, ids,
                                                     proto.success_radius_m, k)

    def test_rank_codes(self):
        # rows 0-2 are closest in descriptor space but far away in position
        descs = np.arange(6.0)[:, None]
        pos = np.zeros((6, 3))
        pos[:3, 0] = 100.0
        idx = simple_index(descs, positions=pos)
        queries = rt.QuerySet(np.array([[0.0], [0.0], [5.0]]),
                              np.array([[0.0, 0, 0], [500.0, 0, 0], [0.0, 0, 0]]))
        assert rt.first_match_ranks(queries, idx, 25.0, 2).tolist() == [2, -1, 0]
        assert rt.first_match_ranks(queries, idx, 25.0, 6).tolist() == [3, -1, 0]
        with pytest.raises(InvalidK):
            rt.first_match_ranks(queries, idx, 25.0, 0)

    def test_cap_beyond_subset_and_queries_without_candidates(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 60
        pos = np.zeros((n, 3))
        pos[:, 0] = (np.arange(n) * 4.0) % 80.0  # three laps over one 80 m stretch
        ts = np.arange(n) * 2.0
        descs = pos[:, :1] / 10.0 + rng.normal(size=(n, 4))
        ids = rng.permutation(n).astype(np.uint64)
        idx = rt.build_index(descs, ids, pos, ts)
        monkeypatch.setattr(rt, "_BLOCK_ELEMS", 3 * n)
        rows_for = [np.arange(j % 7, n, 7) for j in range(n)]
        rows_for[0] = np.zeros(0, dtype=np.int64)  # a query with no candidate
        allowed = np.zeros((n, n), dtype=bool)
        for q, rows in enumerate(rows_for):
            allowed[q, rows] = True
        queries = rt.QuerySet(descs, pos)
        radius = rt.EvalProtocol().success_radius_m
        for k in (1, 9, 40):  # 40 is more than any subset holds
            want = ranks_oracle(descs, pos, descs, pos, ids, radius, k,
                                lambda q: rows_for[q])
            assert want[0] == -1
            got = rt.first_match_ranks(queries, idx, radius, k,
                                       lambda lo, hi: allowed[lo:hi])
            assert np.array_equal(got, want)
            assert rt.recall_from_ranks(got, k) == (
                np.count_nonzero((want >= 0) & (want < k)) / np.count_nonzero(want >= 0))

        # the revisit protocol against per-query brute force over its masks
        proto = rt.EvalProtocol(k_list=(1, 3), sampling_interval_m=8.0,
                                sampling_start_offset_m=4.0)
        out = rt.kitti_revisit_eval(rt.QuerySet(descs, pos, timestamps=ts), idx, proto)
        q_rows = rt.sample_by_distance(pos, ts, 8.0, 0.0)
        db_rows = rt.sample_by_distance(pos, ts, 8.0, 4.0)
        cands = [db_rows[rt.kitti_revisit_filter(ts[q], ts[db_rows])] for q in q_rows]
        assert cands[0].size == 0
        for name, k in (("1", 1), ("3", 3), ("1pct", rt.one_percent_k(len(db_rows)))):
            per_query = [brute_force_recall_at_k(
                descs[q:q + 1], pos[q:q + 1], descs[c], pos[c], ids[c],
                proto.success_radius_m, k) for q, c in zip(q_rows, cands) if c.size]
            scored = [v for v in per_query if v is not None]
            assert out[name] == sum(scored) / len(scored)

    def test_radius_test_is_bit_identical_at_the_boundary(self):
        # points a few ulps from the 25 m sphere, kept where the order in
        # which dx^2, dy^2, dz^2 are added decides whether they are inside
        rng = np.random.default_rng(12)
        xy = rng.uniform(-15.0, 15.0, size=(20000, 2))
        z = np.sqrt(625.0 - (xy ** 2).sum(axis=1))
        pts = np.column_stack([xy, z + rng.integers(-3, 4, size=20000) * np.spacing(z)])
        sq = pts ** 2
        inside = np.sqrt(sq.sum(axis=1)) <= 25.0
        reordered = np.sqrt(sq[:, 0] + (sq[:, 1] + sq[:, 2])) <= 25.0
        pts, inside = pts[inside != reordered], inside[inside != reordered]
        n = pts.shape[0]
        assert n > 100 and 0 < inside.sum() < n
        idx = simple_index(rng.normal(size=(n, 2)), positions=pts)
        queries = rt.QuerySet(rng.normal(size=(n, 2)), np.zeros((n, 3)))
        own_row = np.eye(n, dtype=bool)  # query j may only match row j
        ranks = rt.first_match_ranks(queries, idx, 25.0, 1, lambda lo, hi: own_row[lo:hi])
        assert np.array_equal(ranks == 0, inside)

    def test_non_finite_inputs_rejected(self):
        descs = np.eye(3)
        bad = descs.copy()
        bad[1, 2] = np.nan
        with pytest.raises(NonFinite, match="row 1"):
            simple_index(bad)
        bad_pos = np.zeros((3, 3))
        bad_pos[2, 0] = np.inf
        with pytest.raises(NonFinite, match="row 2"):
            simple_index(descs, positions=bad_pos)
        idx = simple_index(descs)
        with pytest.raises(NonFinite):
            rt.query_knn(idx, np.array([0.0, np.inf, 0.0]), 1)
        with pytest.raises(NonFinite):
            rt.recall_at_k(rt.QuerySet(bad, np.zeros((3, 3))), idx, rt.EvalProtocol(), 1)
        with pytest.raises(NonFinite):
            rt.recall_at_k(rt.QuerySet(descs, bad_pos), idx, rt.EvalProtocol(), 1)


class TestRevisit:
    def test_filter_cases(self):
        ts = np.array([95.0, 85.0, 105.0])
        mask = rt.kitti_revisit_filter(100.0, ts)
        assert mask.tolist() == [False, True, False]

    def test_filter_missing_timestamps(self):
        with pytest.raises(MissingTimestamps):
            rt.kitti_revisit_filter(0.0, None)

    def test_filter_randomized_conditions(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t0 = rng.uniform(0, 1000)
            ts = rng.uniform(-100, 1100, size=40)
            mask = rt.kitti_revisit_filter(t0, ts)
            for t, keep in zip(ts, mask):
                assert keep == (t < t0 and t0 - t > 10.0)

    def test_sample_by_distance(self):
        # straight line, one sample per meter
        n = 100
        pos = np.zeros((n, 3))
        pos[:, 0] = np.arange(n)
        ts = np.arange(n, dtype=float)
        kept = rt.sample_by_distance(pos, ts, interval_m=20.0, start_offset_m=5.0)
        assert kept.tolist() == [5, 25, 45, 65, 85]  # 20 m apart, offset 5

    def test_revisit_eval_runs(self):
        rng = np.random.default_rng(7)
        n = 120
        pos = np.zeros((n, 3))
        pos[:, 0] = np.arange(n) * 2.0 % 120  # loops back over the same stretch
        ts = np.arange(n, dtype=float) * 3.0
        descs = pos[:, :1] / 10.0 + rng.normal(size=(n, 1)) * 0.01
        idx = rt.build_index(descs, np.arange(n, dtype=np.uint64), pos, ts)
        queries = rt.QuerySet(descs, pos, timestamps=ts)
        out = rt.kitti_revisit_eval(queries, idx,
                                    rt.EvalProtocol(k_list=(1,), one_percent=True))
        assert set(out) == {"1", "1pct"}
        assert 0.0 <= out["1"] <= 1.0


class TestPairwiseEval:
    def make_runs(self, rng, n_runs, identical=False):
        n = 20
        place_pos = np.zeros((n, 3))
        place_pos[:, 0] = np.arange(n) * 60.0
        base = rng.normal(size=(n, 4))
        runs = []
        for r in range(n_runs):
            noise = 0.0 if identical else rng.normal(size=(n, 4)) * 0.05
            descs = base + noise
            idx = rt.build_index(descs, np.arange(n, dtype=np.uint64), place_pos)
            queries = rt.QuerySet(descs, place_pos)
            runs.append((queries, idx))
        return runs

    def test_requires_two_runs(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InsufficientRuns):
            rt.oxford_pairwise_eval(self.make_runs(rng, 1), rt.EvalProtocol())

    def test_ordered_pair_count_via_identical_runs(self):
        rng = np.random.default_rng(9)
        out = rt.oxford_pairwise_eval(self.make_runs(rng, 2, identical=True),
                                      rt.EvalProtocol(k_list=(1,)))
        assert out["1"] == 1.0
        out3 = rt.oxford_pairwise_eval(self.make_runs(rng, 3, identical=True),
                                       rt.EvalProtocol(k_list=(1,)))
        assert out3["1"] == 1.0

    def test_region_filter_restricts_queries(self):
        rng = np.random.default_rng(10)
        runs = self.make_runs(rng, 2)
        full = rt.oxford_pairwise_eval(runs, rt.EvalProtocol(k_list=(1,)))
        limited = rt.oxford_pairwise_eval(
            runs, rt.EvalProtocol(k_list=(1,)),
            test_region_filter=lambda p: p[0] < 300.0)
        assert 0.0 <= limited["1"] <= 1.0
        assert set(full) == set(limited)


def test_results_csv_round_trip(tmp_path):
    p = tmp_path / "res.csv"
    rt.write_results_csv(p, [("plain", "1", 0.8125), ("plain", "1pct", 1.0)])
    text = p.read_text().splitlines()
    assert text[0] == "protocol,k,recall"
    assert text[1] == "plain,1,0.8125"
    p2 = tmp_path / "curve.csv"
    rt.write_curve_csv(p2, [(1, 0.5), (2, 0.75)])
    assert p2.read_text().splitlines()[1] == "1,0.5"
