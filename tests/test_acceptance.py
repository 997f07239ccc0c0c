"""Acceptance criteria, one test per criterion, printed pass lines.

The synthetic end-to-end experiment (criteria 6-8) trains the full pipeline
once per projection variant via module-scoped fixtures; everything else is
oracle-based and fast.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from harness import ExperimentConfig, run_experiment, recall_between
from vxp import autodiff as ad
from vxp import dataio, heads, losses, retrieval, sparse3d, trainer
from vxp.autodiff import Tensor
from vxp.errors import (BadMagic, DuplicateId, HeaderMismatch, MalformedFile,
                        NoVisibleVoxels, TruncatedFile)
from vxp.geometry import (ProjectedFeatureMap, ProjectionModel, PointCloud,
                          VoxelGridConfig, default_grid_config, project_voxels,
                          voxelize)
from vxp.synthetic import SyntheticSceneParams, default_projection_model


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


# --- criterion 1: projection oracle ---

def test_criterion_1_projection_oracle():
    rng = np.random.default_rng(10)
    t0 = time.time()
    checked = 0
    worst = 0.0
    while checked < 10_000:
        dims = rng.integers(2, 14, size=3)
        coords = np.unique(
            np.stack([rng.integers(0, d, size=40) for d in dims], axis=1), axis=0)
        eff = rng.uniform(0.2, 3.0, size=3)
        lo = rng.uniform(-12.0, 4.0, size=3)
        angle = rng.uniform(-0.5, 0.5)
        axis_perm = rng.permutation(3)
        rot_z = np.array([[np.cos(angle), -np.sin(angle), 0],
                          [np.sin(angle), np.cos(angle), 0],
                          [0.0, 0.0, 1.0]])
        rot = rot_z[:, axis_perm]
        ext = np.eye(4)
        ext[:3, :3] = rot
        ext[:3, 3] = rng.uniform(-3, 3, size=3)
        proj = ProjectionModel(fx_n=rng.uniform(0.3, 1.6), fy_n=rng.uniform(0.3, 1.6),
                               cx_n=rng.uniform(0.3, 0.7), cy_n=rng.uniform(0.3, 0.7),
                               extrinsic=ext)
        w, h = int(rng.integers(4, 48)), int(rng.integers(4, 48))
        try:
            out = project_voxels(coords.astype(np.int64), eff, lo, proj, (w, h))
            entry_of = {int(v): e for e, v in enumerate(out.voxel_index)}
        except NoVisibleVoxels:
            out, entry_of = None, {}
        for i, c in enumerate(coords):
            u, v, lam, visible = oracles.scalar_pinhole(
                c, eff, lo, ext, proj.fx_n, proj.fy_n, proj.cx_n, proj.cy_n, w, h)
            assert visible == (i in entry_of), "culling decision differs"
            if visible:
                e = entry_of[i]
                assert out.depth[e] == lam
                rel = max(abs(out.u_continuous[e] - u) / max(1.0, abs(u)),
                          abs(out.v_continuous[e] - v) / max(1.0, abs(v)))
                worst = max(worst, rel)
                assert rel < 1e-9
                assert out.pixel_u[e] == math.floor(u)
                assert out.pixel_v[e] == math.floor(v)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"projection oracle took {elapsed:.1f}s"
    _report(1, f"{checked} voxels vs scalar pinhole oracle, worst rel "
               f"{worst:.2e}, culling identical, {elapsed:.1f}s")


# --- criterion 2: sparse conv vs dense oracle ---

def test_criterion_2_sparse_conv_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        dims = tuple(int(x) for x in rng.integers(4, 17, size=3))
        n_active = int(rng.integers(1, 60))
        all_cells = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                             axis=-1).reshape(-1, 3)
        pick = np.sort(rng.choice(all_cells.shape[0], size=min(n_active, all_cells.shape[0]),
                                  replace=False))
        coords = all_cells[pick].astype(np.int64)
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        stride = int(rng.integers(1, 3))
        fmap = sparse3d.SparseFeatureMap(
            coords=coords, feats=Tensor(rng.normal(size=(coords.shape[0], c_in))),
            grid_dims=dims, effective_voxel_size=(1, 1, 1), range_min=(0, 0, 0))
        layer = sparse3d.init_conv_layer(c_in, c_out, 3, stride, rng)
        layer.bias.values[:] = rng.normal(size=c_out)
        got = oracles.sparse_conv3d(fmap, layer)

        dense = sparse3d.sparse_to_dense(fmap)
        want = oracles.dense_conv3d(dense, layer.kernel.values, 3, stride) \
            + layer.bias.values
        occupancy = np.zeros(dims, dtype=bool)
        occupancy[coords[:, 0], coords[:, 1], coords[:, 2]] = True
        mask = oracles.receptive_field_mask(occupancy, 3, stride)
        got_mask = np.zeros(got.grid_dims, dtype=bool)
        got_mask[got.coords[:, 0], got.coords[:, 1], got.coords[:, 2]] = True
        assert np.array_equal(got_mask, mask)
        diff = float(np.abs(sparse3d.sparse_to_dense(got)[mask] - want[mask]).max())
        worst = max(worst, diff)
    assert worst < 1e-6

    # the standard grid chain: 110^3 -> 55^3 -> 28^3
    rng = np.random.default_rng(2)
    cfg = default_grid_config()
    pts = np.column_stack([rng.uniform(0, 44, 400), rng.uniform(-22, 22, 400),
                           rng.uniform(-4, 18, 400)])
    grid = voxelize(PointCloud(pts), cfg, seed=0)
    params = sparse3d.init_backbone_params(rng, vfe_dim=4, feature_dim=4)
    fmap = sparse3d.vfe_encode(grid, params.vfe)
    fmap = oracles.sparse_conv3d(fmap, params.layers[0])
    assert fmap.grid_dims == (55, 55, 55)
    fmap = oracles.sparse_conv3d(fmap, params.layers[1])
    assert fmap.grid_dims == (28, 28, 28)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, f"50 dense-oracle cases (worst abs diff {worst:.2e}) and "
               f"110-55-28 grid chain, {elapsed:.1f}s")


# --- criterion 3: gradient suite ---

def _clustered_batch(rng, n=6, dim=3):
    desc = rng.normal(size=(n, dim)) * 1.5
    pos = np.zeros((n, 3))
    pos[:, 0] = 80.0 * (np.arange(n) // 2) + rng.uniform(-3, 3, size=n)
    return losses.TrainingBatch.from_positions(Tensor(desc), pos)


def _triplet_points(seed_base):
    """Yield non-kink triplet-loss check functions."""
    produced = 0
    seed = seed_base
    cfg = losses.TripletConfig()
    while produced < 100:
        seed += 1
        rng = np.random.default_rng(seed)
        batch = _clustered_batch(rng)
        res = losses.triplet_loss_batch_hard(batch, cfg)
        d = losses.descriptor_distances(batch.descriptors.values, "L2")
        n = batch.size
        hinges = (d[np.arange(n), res.hardest_positive]
                  - d[np.arange(n), res.hardest_negative] + cfg.margin)
        if np.any(np.abs(hinges) < 2e-3):
            continue
        gaps = []
        for a in range(n):
            pd = np.sort(d[a][batch.positive_mask[a]])
            nd = np.sort(d[a][batch.negative_mask[a]])
            if len(pd) > 1:
                gaps.append(pd[-1] - pd[-2])
            if len(nd) > 1:
                gaps.append(nd[1] - nd[0])
        if gaps and min(gaps) < 2e-3:
            continue
        produced += 1
        yield batch, cfg


def test_criterion_3_gradient_suite():
    results = {}

    worst = 0.0
    for batch, cfg in _triplet_points(50_000):
        def f(t, b=batch, c=cfg):
            probe = losses.TrainingBatch(descriptors=t, positions=b.positions,
                                         positive_mask=b.positive_mask,
                                         negative_mask=b.negative_mask)
            return losses.triplet_loss_batch_hard(probe, c).loss
        worst = max(worst, ad.check_gradient(f, batch.descriptors))
    results["triplet"] = worst

    for mode in losses.LOCAL_LOSS_MODES:
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(60_000 + seed)
            k = int(rng.integers(2, 6))
            dep = rng.uniform(2.0, 9.0, size=k)
            proj_map = ProjectedFeatureMap(
                width=3, height=2,
                pixel_u=rng.integers(0, 3, size=k).astype(np.int64),
                pixel_v=rng.integers(0, 2, size=k).astype(np.int64),
                voxel_index=np.arange(k, dtype=np.int64),
                depth=dep, inverse_depth=1.0 / dep)
            img = heads.ImageFeatureMap(width=3, height=2, channels=3,
                                        feats=Tensor(rng.normal(size=(6, 3))))
            feats0 = rng.normal(size=(k, 3)) + 4.0  # away from the huber kink

            def f(t, p=proj_map, i=img, m=mode):
                return losses.local_descriptor_loss(p, t, i, m)

            worst = max(worst, ad.check_gradient(f, Tensor(feats0)))
        results[f"local[{mode}]"] = worst

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(70_000 + seed)
        target = rng.normal(size=8) * 2.0
        x0 = rng.normal(size=8) * 2.0
        x0 = np.where(np.abs(x0 - target) < 0.05, x0 + 0.2, x0)

        def f(t, tg=Tensor(target)):
            return losses.global_descriptor_loss(t, tg)

        worst = max(worst, ad.check_gradient(f, Tensor(x0)))
    results["global"] = worst

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(80_000 + seed)
        feats = rng.uniform(0.2, 2.0, size=(5, 3))
        p0 = rng.uniform(1.5, 5.0)
        worst = max(worst,
                    ad.check_gradient(lambda t: oracles.l2norm(heads.gem_pool(t, Tensor(p0))),
                                      Tensor(feats)),
                    ad.check_gradient(lambda t: oracles.l2norm(heads.gem_pool(Tensor(feats), t)),
                                      Tensor(p0)))
    results["gem(x,p)"] = worst

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(90_000 + seed)
        cfg_v = VoxelGridConfig((0, 0, 0), (4, 4, 4), (1, 1, 1), 8)
        grid = voxelize(PointCloud(rng.uniform(0.05, 3.95, size=(10, 3))), cfg_v, 0)
        params = sparse3d.init_vfe_params(4, rng)

        def f(t, g=grid, b=params.b1):
            return oracles.l2norm(sparse3d.vfe_encode(g, sparse3d.VFEParams(w1=t, b1=b)).feats)

        worst = max(worst, ad.check_gradient(f, params.w1))
    results["vfe"] = worst

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(95_000 + seed)
        dims = (4, 4, 4)
        cells = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        pick = np.sort(rng.choice(64, size=8, replace=False))
        fmap = sparse3d.SparseFeatureMap(
            coords=cells[pick].astype(np.int64), feats=Tensor(rng.normal(size=(8, 1))),
            grid_dims=dims, effective_voxel_size=(1, 1, 1), range_min=(0, 0, 0))
        layer = sparse3d.init_conv_layer(1, 1, 3, 2, rng)

        def f(t, fm=fmap, l=layer):
            probe = sparse3d.SparseConvLayer(kernel=t, bias=l.bias, kernel_size=3, stride=2)
            return oracles.l2norm(oracles.sparse_conv3d(fm, probe).feats)

        worst = max(worst, ad.check_gradient(f, layer.kernel))
    results["sparse_conv"] = worst

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(97_000 + seed)
        params = heads.init_image_encoder_params(1, rng, channels=(2, 2, 3))
        img = rng.uniform(0.1, 1.0, size=(8, 8, 1))

        def f(t, p=params, im=img):
            probe = heads.ImageEncoderParams(block_w=[t, p.block_w[1], p.block_w[2]],
                                             block_b=p.block_b,
                                             input_gain=p.input_gain)
            return oracles.l2norm(heads.image_encode(im, probe).feats)

        worst = max(worst, ad.check_gradient(f, params.block_w[0]))
    results["image_encoder"] = worst

    assert all(v < 1e-4 for v in results.values()), results
    summary = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    _report(3, f"gradient suite at 100 non-kink points each: {summary}")


# --- criterion 4: mining and expansion ---

def test_criterion_4_mining_and_expansion():
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 33))
        n += n % 2
        desc = rng.normal(size=(n, 4))
        pos = np.zeros((n, 3))
        pos[:, 0] = 80.0 * (np.arange(n) // 2) + rng.uniform(-3, 3, size=n)
        batch = losses.TrainingBatch.from_positions(Tensor(desc), pos)
        got_p, got_n = losses.mine_hardest(batch)
        want_p, want_n = oracles.brute_force_mining(desc, batch.positive_mask,
                                                    batch.negative_mask)
        assert np.array_equal(got_p, want_p)
        assert np.array_equal(got_n, want_n)
        checked += 1

    cfg = losses.TripletConfig()
    # hand-checked: trigger is strict (> 30%), growth x1.4 with ceiling, cap 256
    table = [
        (20, 64, 90), (19, 64, 64), (100, 200, 256), (0, 10, 10), (10, 10, 14),
        (4, 10, 14), (3, 10, 10), (31, 100, 140), (30, 100, 100), (77, 256, 256),
        (256, 256, 256), (34, 110, 154), (1, 2, 3), (2, 2, 3), (13, 40, 56),
        (12, 40, 40), (61, 200, 256), (60, 200, 200), (7, 16, 23), (8, 16, 23),
    ]
    assert len(table) == 20
    for zero, size, expected in table:
        got = losses.zero_triplet_expansion(zero, size, cfg)
        assert got == expected, (zero, size, got, expected)
        assert got <= cfg.max_batch
    _report(4, "mining matches exhaustive oracle on 200 batches; expansion "
               "table of 20 cases incl. 19/64 no-trigger and 200->256 cap")


# --- criterion 5: retrieval oracles ---

def test_criterion_5_retrieval_oracles():
    protocol = retrieval.EvalProtocol()
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(10, 1001))
        n_places = max(2, n // 8)
        place_pos = np.zeros((n_places, 3))
        place_pos[:, 0] = np.arange(n_places) * 70.0
        emb = rng.normal(size=(n_places, 4)) * 3.0
        db_place = rng.integers(0, n_places, size=n)
        db_desc = emb[db_place] + rng.normal(size=(n, 4)) * 0.7
        db_pos = place_pos[db_place] + rng.normal(size=(n, 3))
        ids = rng.permutation(n).astype(np.uint64)
        index = retrieval.build_index(db_desc, ids, db_pos)

        q = rng.normal(size=4)
        k = int(rng.integers(1, min(n, 12) + 1))
        got_ids, got_d = retrieval.query_knn(index, q, k)
        want_ids, want_d = oracles.brute_force_knn(db_desc, ids, q, k)
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_d, want_d)

        n_q = 8
        q_place = rng.integers(0, n_places, size=n_q)
        q_desc = emb[q_place] + rng.normal(size=(n_q, 4)) * 0.7
        q_pos = place_pos[q_place] + rng.normal(size=(n_q, 3))
        queries = retrieval.QuerySet(q_desc, q_pos)
        want = oracles.brute_force_recall_at_k(q_desc, q_pos, db_desc, db_pos, ids,
                                               protocol.success_radius_m, k)
        got = retrieval.recall_at_k(queries, index, protocol, k)
        assert want is not None and abs(got - want) < 1e-12
        want_1pct = oracles.brute_force_recall_at_k(
            q_desc, q_pos, db_desc, db_pos, ids, protocol.success_radius_m,
            retrieval.one_percent_k(n))
        assert abs(retrieval.recall_at_one_percent(queries, index, protocol)
                   - want_1pct) < 1e-12

        last = 0.0
        for kk in range(1, min(n, 15) + 1):
            r = retrieval.recall_at_k(queries, index, protocol, kk)
            assert r >= last - 1e-15
            last = r

    rng = np.random.default_rng(77)
    for _ in range(50):
        t0 = rng.uniform(0, 500)
        ts = rng.uniform(-50, 600, size=30)
        mask = retrieval.kitti_revisit_filter(t0, ts)
        assert all(keep == (t < t0 and t0 - t > 10.0) for t, keep in zip(ts, mask))
    _report(5, "kNN and recall match brute force on 100 instances up to 1000 "
               "entries; recall monotone in k; revisit filter conditions hold")


# --- criteria 6-8: synthetic end-to-end experiment ---

@pytest.fixture(scope="module")
def experiment():
    cfg = ExperimentConfig()
    t0 = time.time()
    result = run_experiment(cfg)
    wall = time.time() - t0
    return cfg, result, wall


@pytest.fixture(scope="module")
def ablation(experiment):
    """The orthographic arm: the harness recipe with only `projection` changed,
    sharing the perspective arm's stage-1 image branch."""
    cfg, result, _ = experiment
    return run_experiment(replace(cfg, projection="orthographic"), stage1=result.stage1)


def test_criterion_6_end_to_end(experiment):
    cfg, result, wall = experiment
    total = sum(result.seconds.values())
    init_loss = result.stage2.history[0][2]
    final_mean = float(np.mean([l for e, _, l in result.stage2.history
                                if e == cfg.stage2_epochs - 1]))
    drop = 1.0 - final_mean / init_loss
    r_cross = recall_between(result.held_2d, result.held_3d, "t1", "t0", k=1)
    r_uni = recall_between(result.held_2d, result.held_2d, "t1", "t0", k=1)
    baseline = 1.0 / 32.0
    numbers = (f"stage-2 drop {drop:.1%}, held-out 2D-3D R@1 {r_cross:.3f}, "
               f"2D-2D R@1 {r_uni:.3f}, runtime {total:.0f}s")

    assert total < 900.0, f"experiment took {total:.0f}s; {numbers}"
    assert drop >= 0.90, f"stage-2 loss fell only {drop:.1%}; {numbers}"
    assert r_cross >= 0.8, f"cross-modal recall@1 {r_cross:.3f}; {numbers}"
    assert r_cross >= 10 * baseline, f"cross-modal below 10x baseline; {numbers}"
    assert r_uni >= 0.9, f"uni-modal recall@1 {r_uni:.3f}; {numbers}"
    _report(6, f"stage-2 drop {drop:.1%}, held-out 2D-3D R@1 {r_cross:.3f} "
               f"(baseline {baseline:.3f}), 2D-2D R@1 {r_uni:.3f}, "
               f"runtime {total:.0f}s")


def test_criterion_7_ablation_direction(experiment, ablation, tmp_path):
    cfg, result, _ = experiment
    persp = recall_between(result.held_2d, result.held_3d, "t1", "t0",
                           one_percent=True)
    ortho = recall_between(result.held_2d, ablation.held_3d, "t1", "t0",
                           one_percent=True)
    out = tmp_path / "ablation.csv"
    retrieval.write_results_csv(out, [
        ("plain-perspective", "1pct", persp),
        ("plain-ortho", "1pct", ortho),
    ])
    assert persp >= ortho, f"perspective {persp:.3f} < orthographic {ortho:.3f}"
    text = out.read_text()
    assert "plain-perspective,1pct" in text and "plain-ortho,1pct" in text
    _report(7, f"projection ablation: perspective R@1% {persp:.3f} >= "
               f"orthographic {ortho:.3f} (CSV at {out})")


def test_criterion_8_freeze_and_determinism(experiment, tmp_path):
    cfg, result, _ = experiment
    d1 = trainer.params_digest(result.stage1.params, "image.")
    d2 = trainer.params_digest(result.stage2.params, "image.")
    d3 = trainer.params_digest(result.stage3.params, "image.")
    assert d1 == d2 == d3, "image parameters changed during stage 2/3"

    # two identical small runs through the real CLI: bitwise-equal artifacts
    from vxp import cli
    digests = []
    for run in ("a", "b"):
        root = tmp_path / run
        data = root / "data"
        assert cli.main(["synth", "--scenes", "6", "--seed", "11",
                         "--out", str(data)]) == 0
        manifest, calib = str(data / "manifest.csv"), str(data / "calib.vxpcal")
        common = ["--manifest", manifest, "--calib", calib, "--seed", "1",
                  "--descriptor-dim", "16", "--feature-dim", "8", "--vfe-dim", "6"]
        cks = [str(root / f"ck{i}.vxpc") for i in (1, 2, 3)]
        assert cli.main(["train", "--stage", "image", "--out", cks[0],
                         "--epochs", "2", "--batch-size", "8", *common]) == 0
        assert cli.main(["train", "--stage", "local", "--out", cks[1],
                         "--resume", cks[0], "--epochs", "2", "--batch-size", "4",
                         *common]) == 0
        assert cli.main(["train", "--stage", "global", "--out", cks[2],
                         "--resume", cks[1], "--epochs", "2", "--batch-size", "4",
                         *common]) == 0
        v2d, v3d = str(root / "q.vxpd"), str(root / "db.vxpd")
        assert cli.main(["extract", "--modality", "2d", "--ckpt", cks[2],
                         "--manifest", manifest, "--out", v2d]) == 0
        assert cli.main(["extract", "--modality", "3d", "--ckpt", cks[2],
                         "--manifest", manifest, "--out", v3d, "--seed", "1"]) == 0
        res = str(root / "res.csv")
        assert cli.main(["eval", "--query", v2d, "--db", v3d,
                         "--query-manifest", manifest, "--db-manifest", manifest,
                         "--recall", "1,1pct", "--out", res]) == 0
        import hashlib
        blob = b"".join((root / name).read_bytes() for name in
                        ("ck1.vxpc", "ck2.vxpc", "ck3.vxpc", "q.vxpd", "db.vxpd",
                         "res.csv"))
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]
    _report(8, "image params bitwise frozen through stages 2-3; repeated runs "
               "produce bitwise-identical checkpoints and eval CSVs")


# --- criterion 9: format round-trips and malformed inputs ---

def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(123)

    pts = rng.normal(size=(40, 3)).astype(np.float32).astype(np.float64)
    dataio.write_point_cloud_bin(tmp_path / "c.bin", pts)
    assert np.array_equal(dataio.load_point_cloud_bin(tmp_path / "c.bin").points, pts)
    (tmp_path / "bad.bin").write_bytes(b"\x01" * 15)
    with pytest.raises(MalformedFile):
        dataio.load_point_cloud_bin(tmp_path / "bad.bin")

    ids = rng.integers(0, 2 ** 50, size=9).astype(np.uint64)
    descs = rng.normal(size=(9, 7)).astype(np.float32).astype(np.float64)
    dataio.write_descriptors(tmp_path / "d.vxpd", ids, descs)
    back_ids, back = dataio.read_descriptors(tmp_path / "d.vxpd")
    assert np.array_equal(back_ids, ids) and np.array_equal(back, descs)
    raw = (tmp_path / "d.vxpd").read_bytes()
    (tmp_path / "bm.vxpd").write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(BadMagic):
        dataio.read_descriptors(tmp_path / "bm.vxpd")
    (tmp_path / "tr.vxpd").write_bytes(raw[:-2])
    with pytest.raises(TruncatedFile):
        dataio.read_descriptors(tmp_path / "tr.vxpd")

    params = {"a.w": Tensor(rng.normal(size=(3, 4))), "b.p": Tensor(2.5)}
    dataio.write_checkpoint(tmp_path / "c.vxpc", params)
    back_p = dataio.read_checkpoint(tmp_path / "c.vxpc")
    assert all(np.array_equal(back_p[k].values, params[k].values) for k in params)
    with pytest.raises(TruncatedFile):
        raw_c = (tmp_path / "c.vxpc").read_bytes()
        (tmp_path / "t.vxpc").write_bytes(raw_c[:-1])
        dataio.read_checkpoint(tmp_path / "t.vxpc")

    rows = [dataio.SampleManifestRow(f"s{i}", float(i), (i * 3.0, 0.0, 0.0),
                                     f"c{i}.bin", f"i{i}.img", "t0") for i in range(4)]
    dataio.write_manifest(tmp_path / "m.csv", rows)
    back_rows = dataio.parse_manifest(tmp_path / "m.csv")
    assert [(r.sample_id, r.position) for r in back_rows] == \
        [(r.sample_id, r.position) for r in rows]
    (tmp_path / "h.csv").write_text("id,x\n")
    with pytest.raises(HeaderMismatch):
        dataio.parse_manifest(tmp_path / "h.csv")
    dup = (tmp_path / "m.csv").read_text().splitlines()
    (tmp_path / "dup.csv").write_text("\n".join(dup + [dup[1]]) + "\n")
    with pytest.raises(DuplicateId):
        dataio.parse_manifest(tmp_path / "dup.csv")

    proj = default_projection_model()
    dataio.write_calibration(tmp_path / "cal.txt", proj)
    back_cal = dataio.read_calibration(tmp_path / "cal.txt")
    assert back_cal.fx_n == proj.fx_n
    assert np.array_equal(back_cal.extrinsic, proj.extrinsic)
    (tmp_path / "badcal.txt").write_text("WRONG\n")
    with pytest.raises(BadMagic):
        dataio.read_calibration(tmp_path / "badcal.txt")

    _report(9, "bin/VXPD/VXPC/manifest/VXP-CAL round-trips exact; malformed "
               "inputs raise located errors")
