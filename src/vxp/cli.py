"""Command-line pipeline: synth / train / extract / index / eval / plot.

Option precedence for synth, train, extract and eval is flags > config file
(key=value lines) > built-in defaults; `--print-config` echoes the resolved
values. Exit codes: 0 on success, 1 on runtime failure (message on stderr),
2 on usage errors. `VXP_SEED` provides the seed when no --seed flag or
config entry is given.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import constants, heads, losses, retrieval, trainer
from . import dataio
from .errors import VxpError
from .geometry import default_grid_config
from .synthetic import SyntheticSceneParams, synthetic_training_set
from .trainer import StageConfig

# option key -> (StageConfig field, cast); the defaults are StageConfig's
_STAGE_OPTIONS = {
    "epochs": ("epochs", int), "lr": ("base_lr", float), "lr_decay": ("lr_decay", float),
    "batch_size": ("batch_size", int), "seed": ("seed", int),
    "local_loss_mode": ("local_loss_mode", str), "projection": ("projection", str),
    "descriptor_dim": ("descriptor_dim", int), "feature_dim": ("feature_dim", int),
    "vfe_dim": ("vfe_dim", int),
}
_DEFAULTS = {key: getattr(StageConfig, name) for key, (name, _) in _STAGE_OPTIONS.items()}
_DEFAULTS.update(traversals=2, radius=retrieval.EvalProtocol.success_radius_m,
                 recall="1,1pct")
# option key -> allowed values, for the flag and the config file alike
_CHOICES = {"local_loss_mode": losses.LOCAL_LOSS_MODES, "projection": trainer.PROJECTIONS}


def _read_config_file(path: str | None) -> dict[str, tuple[str, str]]:
    """key -> (where, value), where is `path:line`. A key that no subcommand
    reads is an error; one file may serve every subcommand."""
    if not path:
        return {}
    values = {}
    for lineno, line in enumerate(dataio.read_file(path, text=True).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise VxpError(f"{path}:{lineno}: expected key=value")
        key = key.strip()
        if key not in _DEFAULTS:
            raise VxpError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = (f"{path}:{lineno}", value.strip())
    return values


def _cast(cast, text: str, where: str):
    try:
        return cast(text)
    except ValueError:
        raise VxpError(f"{where}: {text!r} is not a valid {cast.__name__}") from None


class _Resolved:
    """Precedence-resolved view over flags, config file, VXP_SEED (for the
    seed) and defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = _read_config_file(getattr(args, "config", None))
        self._seen: dict[str, object] = {}

    def get(self, key: str, cast=str):
        value = getattr(self._args, key, None)
        if value is None:
            if key in self._config:
                where, text = self._config[key]
                value = _cast(cast, text, f"{where}: {key}")
                if key in _CHOICES and value not in _CHOICES[key]:
                    raise VxpError(f"{where}: {key}: {value!r} is not one of "
                                   + ", ".join(_CHOICES[key]))
            elif key == "seed" and "VXP_SEED" in os.environ:
                value = _cast(int, os.environ["VXP_SEED"], "VXP_SEED")
            else:
                value = _DEFAULTS[key]
        self._seen[key] = value
        return value

    def print_if_requested(self) -> None:
        if getattr(self._args, "print_config", False):
            for key in sorted(self._seen):
                print(f"{key}={self._seen[key]}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--print-config", action="store_true",
                     help="echo the resolved configuration")


# --- synth ---

def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _Resolved(args)
    seed = cfg.get("seed", int)
    traversals = cfg.get("traversals", int)
    cfg.print_if_requested()
    dataset = synthetic_training_set(SyntheticSceneParams(seed=seed), range(args.scenes),
                                     traversals)
    dataio.write_training_set(args.out, dataset)
    print(f"wrote {len(dataset.samples)} samples under {Path(args.out)}")
    return 0


# --- train ---

def _stage_config(args: argparse.Namespace, cfg: _Resolved) -> StageConfig:
    return StageConfig(stage=args.stage, **{
        name: cfg.get(key, cast) for key, (name, cast) in _STAGE_OPTIONS.items()})


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _Resolved(args)
    stage_cfg = _stage_config(args, cfg)
    cfg.print_if_requested()
    dataset = dataio.load_training_set(args.manifest, args.calib,
                                       default_grid_config())
    if args.stage == "image":
        result = trainer.train_stage_image(dataset, stage_cfg)
    else:
        if not args.resume:
            raise VxpError(f"stage {args.stage!r} needs --resume with the "
                           "previous stage's checkpoint")
        prev = dataio.read_checkpoint(args.resume)
        if args.stage == "local":
            result = trainer.train_stage_local(dataset, prev, stage_cfg)
        else:
            result = trainer.train_stage_global(dataset, prev, prev, stage_cfg)
    dataio.write_checkpoint(args.out, result.params)
    trainer.write_loss_history(str(args.out) + ".loss.csv", result.history)
    print(f"stage {args.stage}: {len(result.history)} steps, "
          f"final loss {result.history[-1][2]:.6g}, checkpoint {args.out}")
    return 0


# --- extract ---

def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _Resolved(args)
    seed = cfg.get("seed", int)
    cfg.print_if_requested()
    params = dataio.read_checkpoint(args.ckpt)
    rows = dataio.parse_manifest(args.manifest)
    base = Path(args.manifest).parent

    descriptors = []
    if args.modality == "2d":
        encoder, head = trainer.image_branch_from(params)
        for row in rows:
            image = dataio.load_image_raw(base / row.image_path)
            desc = heads.image_global_descriptor(image[..., None], encoder, head,
                                                 row.sample_id)
            descriptors.append(desc.numpy())
    else:
        trainer.require_groups(params, ["pc.backbone.", "pc.head."], "extract 3d")
        backbone = trainer.backbone_from(params)
        head = trainer.pc_head_from(params)
        voxel_config = default_grid_config()
        for row in rows:
            cloud = dataio.load_point_cloud_bin(base / row.cloud_path)
            cloud.sample_id = row.sample_id
            _, desc = heads.point_cloud_encode(
                cloud, backbone, head, voxel_config,
                trainer.sample_voxel_seed(row.sample_id, seed))
            descriptors.append(desc.numpy())
    ids = np.arange(len(rows), dtype=np.uint64)  # manifest row ordinals
    dataio.write_descriptors(args.out, ids, np.asarray(descriptors))
    print(f"extracted {len(rows)} {args.modality} descriptors to {args.out}")
    return 0


# --- index ---

def cmd_index(args: argparse.Namespace) -> int:
    ids, descs = dataio.read_descriptors(args.db)
    order = np.argsort(ids, kind="stable")
    dataio.write_descriptors(args.out, ids[order], descs[order])
    print(f"indexed {len(ids)} descriptors to {args.out}")
    return 0


# --- eval ---

def _located(ids, descs, rows, label) -> retrieval.QuerySet:
    """Descriptors with the position and timestamp of their manifest rows."""
    # descriptor ids are manifest row ordinals (assigned by `extract`)
    if any(int(i) >= len(rows) for i in ids):
        raise VxpError(f"{label}: descriptor id exceeds manifest length; "
                       "descriptors and manifest do not match")
    return retrieval.QuerySet(
        descriptors=descs, positions=np.asarray([rows[int(i)].position for i in ids]),
        ids=ids, timestamps=np.asarray([rows[int(i)].timestamp_s for i in ids]))


def _parse_recall_spec(spec: str, protocol: str) -> tuple[list[int], bool, bool]:
    """(ks, recall@1%, curve) of a `--recall` list such as `1,5,1pct,curve25`."""
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise VxpError(f"recall {spec!r}: names no metric")
    if "curve25" in tokens and protocol != "plain":
        raise VxpError(f"recall {spec!r}: curve25 needs --protocol plain")
    for token in tokens:
        if token not in ("1pct", "curve25") and not (token.isdecimal() and int(token) >= 1):
            raise VxpError(f"recall {spec!r}: {token!r} is not a k >= 1, 1pct or curve25")
    ks = [int(token) for token in tokens if token.isdecimal()]
    return ks, "1pct" in tokens, "curve25" in tokens


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _Resolved(args)
    radius = cfg.get("radius", float)
    recall_spec = cfg.get("recall")
    cfg.print_if_requested()
    ks, one_percent, curve = _parse_recall_spec(recall_spec, args.protocol)

    q_ids, q_descs = dataio.read_descriptors(args.query)
    db_ids, db_descs = dataio.read_descriptors(args.db)
    q_rows = dataio.parse_manifest(args.query_manifest)
    db_rows = dataio.parse_manifest(args.db_manifest)
    protocol = retrieval.EvalProtocol(success_radius_m=radius, k_list=tuple(ks),
                                      one_percent=one_percent)

    queries = _located(q_ids, q_descs, q_rows, "query")
    database = _located(db_ids, db_descs, db_rows, "database")
    if args.protocol == "oxford":
        q_run = np.asarray([q_rows[int(i)].run_id for i in q_ids])
        db_run = np.asarray([db_rows[int(i)].run_id for i in db_ids])
        selections = [(q_run == run, db_run == run)
                      for run in sorted(set(q_run) & set(db_run))]
    else:
        selections = [(slice(None), slice(None))]
    runs = []
    for q_sel, db_sel in selections:
        db = database.take(db_sel)
        runs.append((queries.take(q_sel), retrieval.build_index(
            db.descriptors, db.ids, db.positions, db.timestamps)))

    if args.protocol == "plain":
        plain_queries, index = runs[0]
        metric_ks = retrieval.protocol_ks(protocol, index.size)
        curve_k = min(constants.RECALL_CURVE_MAX_K, index.size) if curve else 1
        ranks = retrieval.first_match_ranks(  # one ranking pass for every metric
            plain_queries, index, radius, max([*metric_ks.values(), curve_k]))
        out = {name: retrieval.recall_from_ranks(ranks, k) for name, k in metric_ks.items()}
        if curve:
            curve_rows = [(k, retrieval.recall_from_ranks(ranks, k))
                          for k in range(1, curve_k + 1)]
            curve_path = args.curve_out or (str(args.out) + ".curve.csv")
            retrieval.write_curve_csv(curve_path, curve_rows)
    elif args.protocol == "oxford":
        out = retrieval.oxford_pairwise_eval(runs, protocol)
    else:  # kitti
        out = retrieval.kitti_revisit_eval(*runs[0], protocol)
    results = [(args.protocol, name, value) for name, value in out.items()]
    retrieval.write_results_csv(args.out, results)
    for name, k, value in results:
        print(f"{name} recall@{k}: {value:.4f}")
    return 0


# --- plot ---

def _render_svg_curve(points: list[tuple[int, float]], title: str) -> str:
    width, height, margin = 480, 320, 48
    xs = [k for k, _ in points]
    x_max = max(xs)

    def px(k: float) -> float:
        return margin + (k - 1) / max(1, x_max - 1) * (width - 2 * margin)

    def py(r: float) -> float:
        return height - margin - r * (height - 2 * margin)

    poly = " ".join(f"{px(k):.1f},{py(r):.1f}" for k, r in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
        f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">retrieved places K (1..{x_max})</text>',
        f'<text x="14" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">recall</text>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="13">{title}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{margin - 6}" y="{py(frac) + 4:.1f}" '
                     f'text-anchor="end" font-size="10">{frac:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args: argparse.Namespace) -> int:
    lines = dataio.read_file(args.input, text=True).splitlines()
    if not lines or lines[0] != "k,recall":
        raise VxpError(f"{args.input}: expected a `k,recall` curve CSV")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        k, _, r = line.partition(",")
        where = f"{args.input}:{lineno}"
        points.append((_cast(int, k, f"{where}: k"), _cast(float, r, f"{where}: recall")))
    if not points:
        raise VxpError(f"{args.input}: no data rows")
    Path(args.out).write_text(_render_svg_curve(points, Path(args.input).stem))
    print(f"wrote recall curve to {args.out}")
    return 0


# --- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vxp",
        description="cross-modal place recognition pipeline (desk scale)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--traversals", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="run one training stage")
    p.add_argument("--stage", choices=("image", "local", "global"), required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-decay", type=float, dest="lr_decay")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--seed", type=int)
    p.add_argument("--descriptor-dim", type=int, dest="descriptor_dim")
    p.add_argument("--feature-dim", type=int, dest="feature_dim")
    p.add_argument("--vfe-dim", type=int, dest="vfe_dim")
    p.add_argument("--local-loss-mode", choices=_CHOICES["local_loss_mode"],
                   dest="local_loss_mode")
    p.add_argument("--projection", choices=_CHOICES["projection"])
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("extract", help="encode a manifest into descriptors")
    p.add_argument("--modality", choices=("2d", "3d"), required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("index", help="validate and sort a descriptor file")
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = subs.add_parser("eval", help="recall evaluation")
    p.add_argument("--query", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--query-manifest", required=True, dest="query_manifest")
    p.add_argument("--db-manifest", required=True, dest="db_manifest")
    p.add_argument("--protocol", choices=("oxford", "kitti", "plain"), default="plain")
    p.add_argument("--recall")
    p.add_argument("--radius", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--curve-out", dest="curve_out")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("plot", help="render a recall curve CSV as SVG")
    p.add_argument("--in", required=True, dest="input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VxpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
