"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` and then runs
passes of identical work. A pass has three timed phases, each with an item
count, plus the latencies of the workload's unit operation:

  train_small  stage 1 / stage 2 / stage 3 sample-epochs; op = one optimizer
               step of the point branch (stages 2 and 3)
  encode_db    images encoded (ten rounds a pass) / clouds encoded / pairs
               over the whole extract pass; op = one pair (image + cloud,
               with file reads)
  retrieve     descriptors read and indexed (ten read-backs a pass) / kNN
               queries / eval query rankings; op = one query_knn(k=25)

Only public vxp functions are called, the same ones tests/harness.py and the
`vxp extract` / `vxp eval` commands call. Checks against independent oracles
run outside the timed passes.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vxp import autodiff, dataio, geometry, heads, retrieval, sparse3d, synthetic, trainer

import checks

# Dimensions of tests/harness.py ExperimentConfig, shared by every workload.
DIMS = dict(descriptor_dim=256, feature_dim=64, vfe_dim=32, conv_channels=(32, 64),
            image_gain=2.0)

# Every synthetic scene gets 10 boxes, the middle of the default 5..15 range,
# so a seed changes the layout but not the amount of geometry. With the
# default range the mean active-site count of 12 scenes varied by 11 %
# (IQR / median over 10 seeds), and the stage rates with it; fixed, by 4 %.
BOXES = dict(box_count_min=10, box_count_max=10)


@dataclass
class PassResult:
    phase_s: list[float]
    phase_items: list[int]
    op_s: list[float]
    seconds: float
    checks: list[tuple[str, bool]] = field(default_factory=list)


def _now() -> float:
    return time.perf_counter()


class TrainSmall:
    """The acceptance experiment's three stages at reduced scale."""

    name = "train_small"
    op_name = "point-branch optimizer step"
    min_ops = 1
    scenes, held_out_scenes, traversals = 12, 4, 2
    epochs = (6, 2, 2)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: tuple | None = None

    def sizes(self) -> dict:
        return {"scenes": self.scenes, "held_out_scenes": self.held_out_scenes,
                "traversals": self.traversals,
                "epochs": "/".join(map(str, self.epochs)),
                "points_per_cloud": synthetic.SyntheticSceneParams().points_per_cloud,
                "boxes_per_scene": BOXES["box_count_min"],
                "descriptor_dim": DIMS["descriptor_dim"]}

    def setup(self) -> None:
        params = synthetic.SyntheticSceneParams(seed=self.seed, **BOXES)
        grid = geometry.default_grid_config()
        self.train_set = synthetic.synthetic_training_set(
            params, range(self.scenes), self.traversals, grid)
        self.held_set = synthetic.synthetic_training_set(
            params, range(self.scenes, self.scenes + self.held_out_scenes),
            self.traversals, grid)

    def _configs(self, epochs):
        return (
            trainer.StageConfig(stage="image", epochs=epochs[0], base_lr=1e-3,
                                batch_size=32, seed=self.seed, lr_decay=0.97,
                                augment_shift_px=3, **DIMS),
            trainer.StageConfig(stage="local", epochs=epochs[1], base_lr=2e-3,
                                batch_size=8, seed=self.seed, **DIMS),
            trainer.StageConfig(stage="global", epochs=epochs[2], base_lr=1e-3,
                                batch_size=8, seed=self.seed, **DIMS))

    def _train(self, dataset, epochs):
        """Three stages; returns results, each stage's end time, and the end
        times of the optimizer steps of stages 2 and 3."""
        c1, c2, c3 = self._configs(epochs)
        s1 = trainer.train_stage_image(dataset, c1)
        times, marks = [_now()], ([], [])
        with _step_clock(marks[0]):
            s2 = trainer.train_stage_local(dataset, s1.params, c2)
        times.append(_now())
        with _step_clock(marks[1]):
            s3 = trainer.train_stage_global(dataset, s1.params, s2.params, c3)
        times.append(_now())
        return (s1, s2, s3), times, marks

    def warmup(self) -> None:
        tiny = dataio.TrainingSet(samples=self.train_set.samples[:4],
                                  projection=self.train_set.projection,
                                  voxel_config=self.train_set.voxel_config)
        self._train(tiny, (1, 1, 1))

    def run_pass(self) -> PassResult:
        start = _now()
        stages, (t1, t2, t3), marks = self._train(self.train_set, self.epochs)
        n = len(self.train_set.samples)
        items = [self.epochs[0] * n] + [
            e * (n - s.skipped_pairs) for e, s in zip(self.epochs[1:], stages[1:])]
        ops = [b - a for stage in marks for a, b in zip(stage, stage[1:])]
        result = PassResult(phase_s=[t1 - start, t2 - t1, t3 - t2], phase_items=items,
                            op_s=ops, seconds=t3 - start)
        losses = [loss for s in stages for _, _, loss in s.history]
        result.checks += [(f"loss {i} finite", bool(np.isfinite(l)))
                          for i, l in enumerate(losses)]
        digest = trainer.params_digest(stages[0].params, "image.")
        for k, s in ((2, stages[1]), (3, stages[2])):
            result.checks.append((f"stage {k} leaves image.* unchanged",
                                  trainer.params_digest(s.params, "image.") == digest))
        if self.first is None:
            self.first = stages
        else:
            result.checks.append(("pass repeats the first pass's losses",
                                  losses == [l for s in self.first for _, _, l in s.history]))
        return result

    def check(self) -> list[tuple[str, bool]]:
        s3 = self.first[2]
        path = self.workdir / "stage3.vxpc"
        dataio.write_checkpoint(path, s3.params)
        out = [("VXPC round trip is bit-exact",
                checks.same_tensors(s3.params, dataio.read_checkpoint(path)))]
        self.held = _encode_held_out(self.held_set, s3.params, self.seed)
        out += [("held-out descriptors finite",
                 bool(np.isfinite(self.held["2d"]).all() and np.isfinite(self.held["3d"]).all()))]
        return out

    def quality(self) -> dict:
        """Unbounded quality numbers of the first pass."""
        out = {}
        for k, s in enumerate(self.first, start=1):
            last = max(e for e, _, _ in s.history)
            out[f"stage{k}_final_epoch_mean_loss"] = float(
                np.mean([l for e, _, l in s.history if e == last]))
        runs = self.held["runs"]
        for label, db in (("2d_2d", "2d"), ("2d_3d", "3d")):
            q, d = runs == "t1", runs == "t0"
            index = retrieval.build_index(
                self.held[db][d], np.arange(int(d.sum()), dtype=np.uint64),
                self.held["positions"][d])
            queries = retrieval.QuerySet(self.held["2d"][q], self.held["positions"][q])
            out[f"held_out_{label}_r1"] = retrieval.recall_at_k(
                queries, index, retrieval.EvalProtocol(), 1)
        return out


@contextlib.contextmanager
def _step_clock(stamps: list[float]):
    """Append the time each optimizer step ends to stamps."""
    original = trainer.adam_step

    def timed(*args, **kwargs):
        out = original(*args, **kwargs)
        stamps.append(_now())
        return out

    trainer.adam_step = timed
    try:
        yield
    finally:
        trainer.adam_step = original


def _encode_held_out(dataset, params, seed) -> dict:
    """Inference descriptors of both branches, as tests/harness.py makes them."""
    encoder, image_head = trainer.image_branch_from(params)
    backbone = trainer.backbone_from(params)
    pc_head = trainer.pc_head_from(params)
    img, pc = [], []
    for s in dataset.samples:
        img.append(heads.image_global_descriptor(s.image[..., None], encoder,
                                                 image_head, s.sample_id).numpy())
        _, d3 = heads.point_cloud_encode(s.cloud, backbone, pc_head, dataset.voxel_config,
                                         trainer.sample_voxel_seed(s.sample_id, seed))
        pc.append(d3.numpy())
    return {"2d": np.asarray(img), "3d": np.asarray(pc),
            "positions": np.asarray([s.position for s in dataset.samples]),
            "runs": np.asarray([s.run_id for s in dataset.samples])}


class EncodeDb:
    """A `vxp extract`-style forward pass over clouds denser than training."""

    name = "encode_db"
    op_name = "pair encode (image + cloud, with file reads)"
    min_ops = 1
    # One round of the 24 images takes about 25 ms, 1 % of a pass; timed
    # once per pass, its rate spread by up to 20 % (IQR / median) across runs.
    image_rounds = 10
    scenes, traversals, points_per_cloud = 12, 2, 8192

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: tuple | None = None

    def sizes(self) -> dict:
        return {"scenes": self.scenes, "traversals": self.traversals,
                "pairs": self.scenes * self.traversals, "image_rounds": self.image_rounds,
                "points_per_cloud": self.points_per_cloud,
                "boxes_per_scene": BOXES["box_count_min"],
                "descriptor_dim": DIMS["descriptor_dim"]}

    def setup(self) -> None:
        """Write clouds, images, a manifest and a checkpoint, as `vxp synth`
        and `vxp train` would leave them."""
        base = self.workdir
        (base / "clouds").mkdir(parents=True, exist_ok=True)
        (base / "images").mkdir(parents=True, exist_ok=True)
        params = synthetic.SyntheticSceneParams(
            seed=self.seed, points_per_cloud=self.points_per_cloud, **BOXES)
        rows = []
        for scene in range(self.scenes):
            for t in range(self.traversals):
                sample = synthetic.generate_synthetic_scene(params, scene, t)
                sid = sample.cloud.sample_id
                cloud_rel, image_rel = f"clouds/{sid}.bin", f"images/{sid}.img"
                dataio.write_point_cloud_bin(base / cloud_rel, sample.cloud.points)
                dataio.write_image_raw(base / image_rel, sample.image)
                rows.append(dataio.SampleManifestRow(
                    sample_id=sid, timestamp_s=t * 10_000.0 + scene * 20.0,
                    position=sample.position, cloud_path=cloud_rel,
                    image_path=image_rel, run_id=f"t{t}"))
        dataio.write_manifest(base / "manifest.csv", rows)
        cfg = trainer.StageConfig(stage="global", seed=self.seed, **DIMS)
        rng = np.random.default_rng(self.seed)
        model = trainer.init_image_params(cfg, rng)
        trainer.init_backbone_into(model, cfg, rng)
        trainer.init_pc_head_into(model, cfg, rng)
        dataio.write_checkpoint(base / "model.vxpc", model)

    def _load_model(self):
        params = dataio.read_checkpoint(self.workdir / "model.vxpc")
        trainer.require_groups(params, ["pc.backbone.", "pc.head."], "extract 3d")
        encoder, image_head = trainer.image_branch_from(params)
        return encoder, image_head, trainer.backbone_from(params), trainer.pc_head_from(params)

    def _voxel_seed(self, row) -> int:
        return trainer.sample_voxel_seed(row.sample_id, self.seed)

    def warmup(self) -> None:
        encoder, image_head, backbone, pc_head = self._load_model()
        row = dataio.parse_manifest(self.workdir / "manifest.csv")[0]
        image = dataio.load_image_raw(self.workdir / row.image_path)
        heads.image_global_descriptor(image[..., None], encoder, image_head)
        cloud = dataio.load_point_cloud_bin(self.workdir / row.cloud_path)
        heads.point_cloud_encode(cloud, backbone, pc_head,
                                 geometry.default_grid_config(), self._voxel_seed(row))

    def run_pass(self) -> PassResult:
        base = self.workdir
        start = _now()
        encoder, image_head, backbone, pc_head = self._load_model()
        rows = dataio.parse_manifest(base / "manifest.csv")
        grid = geometry.default_grid_config()
        t0 = _now()
        for _ in range(self.image_rounds):  # op keeps the last round's times
            img, op = [], []
            for row in rows:
                s = _now()
                image = dataio.load_image_raw(base / row.image_path)
                img.append(heads.image_global_descriptor(image[..., None], encoder,
                                                         image_head, row.sample_id).numpy())
                op.append(_now() - s)
        t1 = _now()
        pc = []
        for i, row in enumerate(rows):
            s = _now()
            cloud = dataio.load_point_cloud_bin(base / row.cloud_path)
            cloud.sample_id = row.sample_id
            _, desc = heads.point_cloud_encode(cloud, backbone, pc_head, grid,
                                               self._voxel_seed(row))
            pc.append(desc.numpy())
            op[i] += _now() - s
        t2 = _now()
        ids = np.arange(len(rows), dtype=np.uint64)  # manifest row ordinals
        img, pc = np.asarray(img), np.asarray(pc)
        dataio.write_descriptors(base / "img.vxpd", ids, img)
        dataio.write_descriptors(base / "pc.vxpd", ids, pc)
        end = _now()
        n = len(rows)
        result = PassResult(phase_s=[t1 - t0, t2 - t1, end - start],
                            phase_items=[self.image_rounds * n, n, n],
                            op_s=op, seconds=end - start)
        result.checks += [(f"pair {i} descriptors finite",
                           bool(np.isfinite(img[i]).all() and np.isfinite(pc[i]).all()))
                          for i in range(n)]
        for label, want in (("img", img), ("pc", pc)):
            back_ids, back = dataio.read_descriptors(base / f"{label}.vxpd")
            result.checks.append((
                f"{label}.vxpd read-back equals the f32-rounded descriptors",
                np.array_equal(back_ids, ids)
                and np.array_equal(back, want.astype(np.float32).astype(np.float64))))
        if self.first is None:
            self.first = (rows, pc)
        else:
            result.checks.append(("pass repeats the first pass's descriptors",
                                  np.array_equal(pc, self.first[1])))
        return result

    def check(self) -> list[tuple[str, bool]]:
        """Dense-conv oracle for one cloud, picked by the seed."""
        rows, pc = self.first
        i = self.seed % len(rows)
        _, _, backbone, pc_head = self._load_model()
        cloud = dataio.load_point_cloud_bin(self.workdir / rows[i].cloud_path)
        grid = geometry.voxelize(cloud, geometry.default_grid_config(),
                                 self._voxel_seed(rows[i]))
        fmap = sparse3d.vfe_encode(grid, backbone.vfe)
        plans = sparse3d.plan_backbone(grid, backbone)
        out = []
        for k, (layer, plan) in enumerate(zip(backbone.layers, plans.plans)):
            conv = sparse3d.apply_sparse_conv(fmap, layer, plan)
            err = checks.conv_window_error(fmap, conv, layer)
            out.append((f"conv{k} matches a dense numpy conv (rel err {err:.2e})",
                        err < 1e-9))
            fmap = conv
            fmap.feats = autodiff.relu(conv.feats)
        desc = heads.fcn_project(heads.gem_pool(fmap.feats, pc_head.p), pc_head,
                                 "point_cloud").numpy()
        out.append(("layer-by-layer recompute equals the pass's descriptor",
                    np.array_equal(desc, pc[i])))
        return out

    def quality(self) -> dict:
        return {}


class Retrieve:
    """Exact retrieval over descriptors of two runs along one trajectory."""

    name = "retrieve"
    op_name = "query_knn(k=25)"
    min_ops = 1000  # so the 99th percentile has ten samples beyond it
    # One read-back takes 20-40 ms; timed once per pass, its rate spread by
    # up to 25 % (IQR / median) across runs.
    loads_per_pass = 10
    places, runs, dim = 1000, 2, 256
    knn_queries, eval_queries, k = 200, 50, 25
    spacing_m, lateral_m, spread, run_noise, query_noise = 5.0, 3.0, 0.2, 0.5, 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: tuple | None = None
        self.protocol = retrieval.EvalProtocol(k_list=(1,), one_percent=True)

    def sizes(self) -> dict:
        return {"N": self.places * self.runs, "Q": self.places * self.runs,
                "loads_per_pass": self.loads_per_pass, "Q_knn": self.knn_queries,
                "Q_eval": self.eval_queries, "D": self.dim, "k": self.k}

    def setup(self) -> None:
        """Database of two runs over the same places, and as queries every
        database row plus noise, in a seeded order; the noise is sized so that
        recall@1 lands strictly between 0 and 1."""
        rng = np.random.default_rng(self.seed)
        base = self.spread * rng.normal(size=(self.places, self.dim))
        db, rows = [], []
        for r in range(self.runs):
            db.append(base + self.run_noise * self.spread * rng.normal(size=base.shape))
            for i in range(self.places):
                rows.append(dataio.SampleManifestRow(
                    sample_id=f"p{i:04d}_t{r}", timestamp_s=r * 10_000.0 + 0.5 * i,
                    position=(self.spacing_m * i, self.lateral_m * r, 0.0),
                    cloud_path=f"clouds/p{i:04d}_t{r}.bin",
                    image_path=f"images/p{i:04d}_t{r}.img", run_id=f"t{r}"))
        db = np.concatenate(db)
        picked = rng.permutation(db.shape[0])
        queries = db[picked] + self.query_noise * rng.normal(size=db.shape)
        q_rows = [dataio.SampleManifestRow(
            sample_id=f"q{j:04d}", timestamp_s=rows[p].timestamp_s, position=rows[p].position,
            cloud_path=rows[p].cloud_path, image_path=rows[p].image_path,
            run_id=rows[p].run_id) for j, p in enumerate(picked)]
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)
        dataio.write_descriptors(w / "db.vxpd", np.arange(db.shape[0], dtype=np.uint64), db)
        dataio.write_manifest(w / "db.csv", rows)
        dataio.write_descriptors(w / "q.vxpd", np.arange(len(queries), dtype=np.uint64),
                                 queries)
        dataio.write_manifest(w / "q.csv", q_rows)

    def _load(self):
        """Read back and index, resolving positions by id as `vxp eval` does."""
        w = self.workdir
        db_ids, db_desc = dataio.read_descriptors(w / "db.vxpd")
        q_ids, q_desc = dataio.read_descriptors(w / "q.vxpd")
        db_rows = dataio.parse_manifest(w / "db.csv")
        q_rows = dataio.parse_manifest(w / "q.csv")

        def meta(ids, rows):
            pos = np.asarray([rows[int(i)].position for i in ids])
            ts = np.asarray([rows[int(i)].timestamp_s for i in ids])
            run = np.asarray([rows[int(i)].run_id for i in ids])
            return pos, ts, run

        db_pos, db_ts, db_run = meta(db_ids, db_rows)
        q_pos, q_ts, q_run = meta(q_ids, q_rows)
        index = retrieval.build_index(db_desc, db_ids, db_pos, db_ts)
        e = slice(0, self.eval_queries)
        eval_set = retrieval.QuerySet(q_desc[e], q_pos[e], q_ids[e], q_ts[e])
        runs = []
        for run in sorted(set(db_run)):
            qs, ds = q_run[e] == run, db_run == run
            runs.append((retrieval.QuerySet(q_desc[e][qs], q_pos[e][qs], q_ids[e][qs],
                                            q_ts[e][qs]),
                         retrieval.build_index(db_desc[ds], db_ids[ds], db_pos[ds],
                                               db_ts[ds])))
        return index, q_desc, eval_set, runs

    def warmup(self) -> None:
        index, q_desc, eval_set, _ = self._load()
        for q in q_desc[:20]:
            retrieval.query_knn(index, q, self.k)
        small = retrieval.QuerySet(eval_set.descriptors[:5], eval_set.positions[:5])
        retrieval.recall_at_k(small, index, self.protocol, 1)

    def run_pass(self) -> PassResult:
        start = _now()
        for _ in range(self.loads_per_pass):
            index, q_desc, eval_set, runs = self._load()
        t1 = _now()
        op, knn = [], []
        for q in q_desc[:self.knn_queries]:
            s = _now()
            knn.append(retrieval.query_knn(index, q, self.k))
            op.append(_now() - s)
        t2 = _now()
        p = self.protocol
        recalls = (retrieval.recall_at_k(eval_set, index, p, 1),
                   retrieval.recall_at_one_percent(eval_set, index, p),
                   retrieval.recall_curve(eval_set, index, p),
                   retrieval.kitti_revisit_eval(eval_set, index, p),
                   retrieval.oxford_pairwise_eval(runs, p))
        end = _now()
        kitti_queries = retrieval.sample_by_distance(
            eval_set.positions, eval_set.timestamps, p.sampling_interval_m, 0.0).shape[0]
        rankings = 3 * eval_set.size + 2 * kitti_queries + 2 * sum(q.size for q, _ in runs)
        result = PassResult(phase_s=[t1 - start, t2 - t1, end - t2],
                            phase_items=[self.loads_per_pass * (index.size + q_desc.shape[0]),
                                         len(knn), rankings],
                            op_s=op, seconds=end - start)
        result.checks += [
            (f"query {j} returns {self.k} ids by ascending distance",
             ids.shape[0] == self.k and bool(np.all(np.diff(d) >= 0)))
            for j, (ids, d) in enumerate(knn)]
        r1, r1p, curve, kitti, oxford = recalls
        values = [r1, r1p, *(v for _, v in curve), *kitti.values(), *oxford.values()]
        result.checks.append(("every recall lies in [0, 1]",
                              all(0.0 <= v <= 1.0 for v in values)))
        if self.first is None:
            self.first = (index, q_desc, eval_set, knn, recalls)
        else:
            result.checks.append(("pass repeats the first pass's recalls",
                                  recalls == self.first[4]))
        return result

    def check(self) -> list[tuple[str, bool]]:
        index, q_desc, eval_set, knn, (r1, r1p, curve, _, _) = self.first
        out = []
        for j in range(0, len(knn), len(knn) // 20):
            want = checks.brute_force_topk(index.descriptors, index.ids, q_desc[j], self.k)
            out.append((f"query {j} top-{self.k} ids match a brute-force sort",
                        knn[j][0].tolist() == want))
        recount = checks.brute_force_recall_at_1(
            index.descriptors, index.ids, index.positions, eval_set.descriptors,
            eval_set.positions, self.protocol.success_radius_m)
        out.append((f"recall@1 {r1:.4f} matches a brute-force recount {recount:.4f}",
                    r1 == recount))
        ks = [v for _, v in curve]
        out.append(("recall is monotone in k",
                    all(a <= b for a, b in zip(ks, ks[1:])) and ks[0] == r1 and r1 <= r1p))
        out.append((f"recall@1 {r1:.4f} lies strictly between 0 and 1", 0.0 < r1 < 1.0))
        return out

    def quality(self) -> dict:
        r1, r1p, _, kitti, oxford = self.first[4]
        return {"plain_r1": r1, "plain_r1pct": r1p,
                **{f"kitti_r{k}": v for k, v in kitti.items()},
                **{f"oxford_r{k}": v for k, v in oxford.items()}}


WORKLOADS = {w.name: w for w in (TrainSmall, EncodeDb, Retrieve)}
