"""Command-line entry point.

Commands: convert, split, train, bench, simsearch, degree-report, ablate,
gradcheck. Every command is deterministic given its flags; all randomness
flows from explicit seeds. Exit codes: 0 success, 2 usage or config error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import evaluation
from .config import TrainConfig, apply_overrides, build_train_config, load_config_file
from .data import SplitSpec, convert_content_cites, generate_splits, load_dataset
from .errors import ConfigError, DataError, DivergenceError, NumericsError
from .gradcheck import finite_diff_check
from .model import (build_from_checkpoint, embed, init_params, load_checkpoint, predict,
                    save_checkpoint)
from .sparse import normalize_adjacency
from .tape import Tape
from .trainer import build_step_loss, fit, prepare_features

GRADCHECK_TOLERANCE = 1e-4


def resolve_dataset_dir(path: str) -> str:
    """Use the path as given, else relative to $GRAFN_DATA_DIR."""
    if os.path.isdir(path):
        return path
    root = os.environ.get("GRAFN_DATA_DIR")
    if root:
        candidate = os.path.join(root, path)
        if os.path.isdir(candidate):
            return candidate
    raise DataError(f"dataset directory not found: {path}")


def _load_effective_config(args) -> TrainConfig:
    values = load_config_file(args.config) if args.config else {}
    return build_train_config(apply_overrides(values, args.set or []))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_run(path: str, ds):
    """Checkpoint encoder and head checked against `ds`, then the config of
    run.json, whose checkpoint_sha256 must be the checkpoint's digest."""
    _, encoder, head = build_from_checkpoint(load_checkpoint(path))
    features, classes = encoder.w1.data.shape[0], head.w.data.shape[1]
    if (features, classes) != (ds.num_features, ds.class_count):
        raise DataError(
            f"{path}: checkpoint expects {features} features and {classes} classes; "
            f"dataset {ds.name} has {ds.num_features} and {ds.class_count}"
        )
    run_path = os.path.join(os.path.dirname(path), "run.json")
    digest = _sha256(path)
    try:
        with open(run_path, encoding="utf-8") as fh:
            record = json.load(fh)
        if "error" in record:
            raise ConfigError("training diverged, so the checkpoint beside it is not this run's")
        if "checkpoint_sha256" not in record:
            raise ConfigError("lacks checkpoint_sha256, so it cannot vouch for the checkpoint")
        if record["checkpoint_sha256"] != digest:
            raise ConfigError(f"checkpoint_sha256 differs from the digest of {path}")
        values = record["effective_config"]
        missing = {f.name for f in dataclasses.fields(TrainConfig)} - set(values)
        if missing:
            raise ConfigError(f"effective_config lacks {', '.join(sorted(missing))}")
        items = [f"{key}={value}" for key, value in values.items()]
        return encoder, head, build_train_config(apply_overrides({}, items, "effective_config"))
    except KeyError:
        raise ConfigError(f"run record {run_path}: no effective_config") from None
    except (OSError, ValueError, TypeError, AttributeError, ConfigError) as exc:
        raise ConfigError(f"run record {run_path}: {exc}") from exc


def _load_split(path: str, ds) -> SplitSpec:
    """The split file, checked against the dataset; every fault names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            split = SplitSpec.from_json(fh.read())
        split.validate(ds)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read split file {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return split


def _check_out(path: str, directory: bool) -> None:
    """Raise ConfigError unless `path` can be written as a directory (or a
    file): the nearest existing directory on the way must be writable, and a
    file may not replace a directory. Nothing is created."""
    if not path:
        raise ConfigError(f"cannot write {path}: the path is empty")
    target = os.path.abspath(path)
    if not directory and os.path.isdir(target):
        raise ConfigError(f"cannot write {path}: is a directory")
    base = target if directory else os.path.dirname(target)
    while not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write {path}: {base} is not a writable directory")


def _write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_convert(args) -> int:
    for path in (args.content, args.cites):
        if not os.path.isfile(path):
            raise DataError(f"input file not found: {path}")
    marker = os.path.join(args.out, "meta.json")
    if os.path.exists(marker) and not args.force:
        raise ConfigError(f"{args.out} already converted; pass --force to overwrite")
    summary = convert_content_cites(args.content, args.cites, args.out)
    print(
        f"converted: {summary['num_nodes']} nodes, "
        f"{summary['undirected_edges']} undirected edges "
        f"({summary['raw_edge_lines']} raw lines), "
        f"{summary['num_features']} features, {summary['num_classes']} classes"
    )
    print(
        f"dropped: {summary['dropped_dangling']} dangling, "
        f"{summary['dropped_self_loops']} self-loops, "
        f"{summary['collapsed_duplicates']} duplicates"
    )
    return 0


def cmd_split(args) -> int:
    ds = load_dataset(resolve_dataset_dir(args.dataset_dir))
    splits = generate_splits(ds, args.rate, args.n, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i, split in enumerate(splits):
        path = os.path.join(args.out, f"split_{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(split.to_json())
            fh.write("\n")
    print(f"wrote {len(splits)} split files to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_effective_config(args)
    ds = load_dataset(resolve_dataset_dir(args.dataset_dir))
    split = _load_split(args.split, ds)
    os.makedirs(args.out, exist_ok=True)
    run_path = os.path.join(args.out, "run.json")
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    try:
        result = fit(ds, split, cfg)
    except DivergenceError as exc:
        payload = {
            "error": str(exc),
            "loss_history": [list(r) for r in exc.history],
            "effective_config": dataclasses.asdict(cfg),
        }
        _write_json(run_path, payload)
        raise
    save_checkpoint(ckpt_path, result.params)
    payload = result.to_dict()
    payload["effective_config"] = dataclasses.asdict(cfg)
    payload["dataset"] = ds.name
    payload["checkpoint"] = ckpt_path
    payload["checkpoint_sha256"] = _sha256(ckpt_path)
    _write_json(run_path, payload)
    print(
        f"best val {result.best_val_accuracy:.4f} at epoch {result.epoch_of_best}; "
        f"test {result.test_accuracy_at_best_val:.4f}"
    )
    return 0


def cmd_bench(args) -> int:
    cfg = _load_effective_config(args)
    ds = load_dataset(resolve_dataset_dir(args.dataset_dir))
    report = evaluation.run_benchmark(
        ds, args.rate, args.n, cfg, args.bench_seed, jobs=args.jobs
    )
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "bench.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.csv_lines()))
        fh.write("\n")
    payload = report.to_dict()
    payload["effective_config"] = dataclasses.asdict(cfg)
    _write_json(os.path.join(args.out, "bench.json"), payload)
    print(
        f"{ds.name} rate={args.rate}: mean test accuracy "
        f"{report.mean:.4f} +- {report.std:.4f} over {args.n} splits"
    )
    return 0


def cmd_simsearch(args) -> int:
    ds = load_dataset(resolve_dataset_dir(args.dataset_dir))
    encoder, _, cfg = _load_run(args.checkpoint, ds)
    z = embed(encoder, normalize_adjacency(ds.adj), prepare_features(ds, cfg))
    query_nodes = None
    if args.split:
        query_nodes = _load_split(args.split, ds).test
    results = {}
    for k in args.k:
        results[f"sim@{k}"] = evaluation.sim_at_k(
            z.data, ds.labels, k, query_nodes=query_nodes
        )
        print(f"Sim@{k} = {results[f'sim@{k}']:.4f}")
    if args.out:
        _write_json(args.out, {
            "dataset": ds.name,
            "checkpoint": args.checkpoint,
            "query_nodes": "test" if args.split else "all",
            "results": results,
            "effective_config": dataclasses.asdict(cfg),
        })
    return 0


def cmd_degree_report(args) -> int:
    try:
        boundaries = [int(b) for b in args.boundaries.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--boundaries must be comma-separated integers: {exc}") from exc
    if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ConfigError(f"--boundaries must be strictly increasing, got {args.boundaries}")
    ds = load_dataset(resolve_dataset_dir(args.dataset_dir))
    encoder, head, cfg = _load_run(args.checkpoint, ds)
    split = _load_split(args.split, ds)
    pred = predict(encoder, head, normalize_adjacency(ds.adj), prepare_features(ds, cfg),
                   cfg, split.labeled, ds.labels)
    report = evaluation.degree_accuracy_report(ds, pred, split.test, boundaries)
    for row in report["buckets"]:
        acc = "null" if row["accuracy"] is None else f"{row['accuracy']:.4f}"
        print(f"degree {row['degree_range']:>8}: accuracy {acc} (n={row['population']})")
    if args.out:
        report["effective_config"] = dataclasses.asdict(cfg)
        _write_json(args.out, report)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_effective_config(args)
    ds = load_dataset(resolve_dataset_dir(args.dataset_dir))
    table = evaluation.ablation_suite(ds, args.rate, args.n, cfg, args.bench_seed, jobs=args.jobs)
    for name in evaluation.ABLATION_VARIANTS:
        row = table["variants"][name]
        print(f"{name:>22}: {row['mean_test_accuracy']:.4f} +- {row['std_test_accuracy']:.4f}")
    if args.out:
        table["effective_config"] = dataclasses.asdict(cfg)
        _write_json(args.out, table)
    return 0


def cmd_gradcheck(args) -> int:
    from .synthetic import random_dataset

    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if not 8 <= args.size <= 2000:  # fewer leave no validation set; more take ~20 n^2 bytes
        raise ConfigError(f"--size must be in [8, 2000], got {args.size}")
    ds = random_dataset(args.size, num_classes=3, num_features=12,
                        p_in=0.3, p_out=0.1, seed=args.seed)
    splits = generate_splits(ds, max(3.0 / args.size, 0.15), 1, args.seed)
    split = splits[0]
    features = prepare_features(ds, TrainConfig())
    unlabeled = np.setdiff1d(np.arange(ds.num_nodes), split.labeled)
    worst = 0.0
    for nu in (0.0, 0.9):
        tape = Tape()
        rng0 = np.random.default_rng(args.seed)
        encoder, head = init_params(tape, ds.num_features, 6, 6, ds.class_count,
                                    0.2, rng0)
        cfg = TrainConfig(nu=nu)

        def build(tape=tape, cfg=cfg, encoder=encoder, head=head):
            return build_step_loss(tape, ds, split, encoder, head, cfg,
                                   np.random.default_rng(args.seed + 1), features, unlabeled)[0]

        err = finite_diff_check(tape, build)
        worst = max(worst, err)
        print(f"nu={nu}: max relative gradient error {err:.3e}")
    if worst >= GRADCHECK_TOLERANCE:
        raise NumericsError(
            f"gradient check failed: {worst:.3e} >= {GRADCHECK_TOLERANCE:.0e}"
        )
    print(f"gradient check passed (worst {worst:.3e} < {GRADCHECK_TOLERANCE:.0e})")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_args(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grafn",
        description="Semi-supervised node classification with label-guided "
                    "consistency over augmented graph views.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("convert", help="convert raw content/cites files")
    p.add_argument("content")
    p.add_argument("cites")
    p.add_argument("out")
    p.add_argument("--force", action="store_true", help="overwrite existing output")
    p.set_defaults(func=cmd_convert)

    p = subs.add_parser("split", help="generate labeled/val/test splits")
    p.add_argument("dataset_dir")
    p.add_argument("--rate", type=float, required=True, help="labeled-node fraction")
    p.add_argument("--n", type=int, default=20, help="number of splits")
    p.add_argument("--seed", type=int, default=0, help="base seed; split i uses seed+i")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("train", help="train one configuration on one split")
    p.add_argument("dataset_dir")
    p.add_argument("split")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("bench", help="train over generated splits and aggregate")
    p.add_argument("dataset_dir")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--bench-seed", type=int, default=0,
                   help="base seed for split generation")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("simsearch", help="Sim@K of checkpoint embeddings")
    p.add_argument("checkpoint")
    p.add_argument("dataset_dir")
    p.add_argument("--k", type=int, action="append", required=True,
                   help="neighborhood size (repeatable)")
    p.add_argument("--split", help="restrict queries to this split's test set")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simsearch)

    p = subs.add_parser("degree-report", help="accuracy per degree bucket")
    p.add_argument("checkpoint")
    p.add_argument("dataset_dir")
    p.add_argument("split")
    p.add_argument("--boundaries", default="2,4,7",
                   help="comma-separated degree thresholds")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degree_report)

    p = subs.add_parser("ablate", help="loss-coefficient ablation table")
    p.add_argument("dataset_dir")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--bench-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out")
    _add_config_args(p)
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("gradcheck", help="finite-difference check of the objective")
    p.add_argument("--size", type=int, default=20, help="nodes in the random graph")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:  # before any work, so no run ends unwritten
            _check_out(args.out, directory=args.command in ("convert", "split", "train", "bench"))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
