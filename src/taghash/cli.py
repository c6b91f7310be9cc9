"""Command-line entry points: preprocess, train, eval, query, ablate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
Every command is deterministic given its inputs and seed; metrics land in
CSV files with columns (round, bits, metric, value).
"""
import argparse
import csv
import os
import sys

import numpy as np

from . import dataio
from .dataio import ChunkManifest, ConfigError, LoadError
from .engine import StreamTrainer
from .evaluation import (EvalJudgments, map_per_round, precision_at_k,
                         query_relevance)
from .model import Hyperparams
from .optimizer import RoundAborted
from .retrieval import (hamming_rank, hash_queries, round_snapshots,
                        snapshot_index)

ABLATION_VARIANTS = {
    "woh": {},
    "woh-1": {"theta": 0.0},
    "woh-2": {"theta": 0.0, "tag_regression": False},
    "woh-3": {"alpha": 0.0},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="taghash",
                     description="Streaming tag-supervised hashing engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--bits", type=int, help="code length r")
        p.add_argument("--chunks", type=int,
                       help="use only the first N manifest chunks")
        p.add_argument("--seed", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--theta", type=float)
        p.add_argument("--mu", type=float)
        p.add_argument("--iters", type=int, help="outer iterations per round")
        p.add_argument("--dcc-sweeps", type=int)
        p.add_argument("--anchors", type=int, help="anchor count m")
        p.add_argument("--manifest")
        p.add_argument("--embeddings")
        p.add_argument("--checkpoint")
        p.add_argument("--metrics", help="metrics CSV output path")

    p = sub.add_parser("preprocess", help="prune tag vocabulary and remap")
    common(p)
    p.add_argument("--min-count", type=int)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="run online training over a manifest")
    common(p)
    p.add_argument("--resume", action="store_true",
                   help="continue from an existing checkpoint")

    p = sub.add_parser("eval", help="MAP / precision report from a checkpoint")
    common(p)
    p.add_argument("--queries", help="query feature file")
    p.add_argument("--query-labels", help="query label file")
    p.add_argument("--map-cutoff", type=int,
                   help="rank cutoff for MAP (default: full database)")
    p.add_argument("--precision-k", type=int)

    p = sub.add_parser("query", help="ranked Hamming search")
    common(p)
    p.add_argument("--features", help="query feature file")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out", help="TSV output path (default stdout)")

    p = sub.add_parser("ablate", help="train with a model variant")
    common(p)
    p.add_argument("--variant", required=True)
    return parser


def _settings(args):
    """Config-file values, overridden by every argument that is not None."""
    cfg = {}
    if args.config:
        cfg.update(dataio.load_config(args.config))
    cfg.update((key, val) for key, val in vars(args).items()
               if val is not None)
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise UsageError(f"missing required setting '{key}'")
    return cfg[key]


# Hyperparams field -> (setting name, type)
_HYPER_SETTINGS = {"r": ("bits", int), "m": ("anchors", int),
                   "alpha": ("alpha", float), "beta": ("beta", float),
                   "theta": ("theta", float), "mu": ("mu", float),
                   "iters": ("iters", int), "dcc_sweeps": ("dcc_sweeps", int)}


def _given_hyper(cfg, overrides=None):
    """Hyperparameters set by flag or config, then the variant's overrides."""
    given = {field: cast(cfg[key])
             for field, (key, cast) in _HYPER_SETTINGS.items() if key in cfg}
    given.update(overrides or {})
    return given


def _check_resume(trainer, cfg, overrides):
    """Refuse given settings that differ from the checkpoint's."""
    given = {_HYPER_SETTINGS.get(k, (k,))[0]: (v, getattr(trainer.hyper, k))
             for k, v in _given_hyper(cfg, overrides).items()}
    given["seed"] = (int(cfg.get("seed", trainer.seed)), trainer.seed)
    changed = [f"{name} = {new!r}, checkpoint has {old!r}"
               for name, (new, old) in given.items() if new != old]
    if changed:
        raise UsageError("--resume keeps the checkpoint's settings: "
                         + "; ".join(changed))


def _load_table(cfg, manifest):
    path = _require(cfg, "embeddings")
    if not manifest.tag_vocab:
        raise LoadError("manifest declares no tag_vocab; run preprocess first"
                        " or add tag_vocab to the manifest")
    table, missing = dataio.load_embeddings(path, manifest.tag_vocab)
    if missing:
        raise LoadError(
            f"{len(missing)} tags lack embeddings (e.g. {missing[:3]}); "
            "run preprocess to prune them")
    return table


def _write_metrics(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "bits", "metric", "value"])
        writer.writerows(rows)


def cmd_preprocess(args):
    cfg = _settings(args)
    manifest = ChunkManifest.from_file(_require(cfg, "manifest"))
    min_count = int(cfg.get("min_count", 50))
    if not manifest.tag_vocab:
        raise LoadError("manifest must declare tag_vocab for preprocessing")
    vectors, _ = dataio.read_embedding_file(_require(cfg, "embeddings"))
    coverage = np.array([t in vectors for t in manifest.tag_vocab])

    counts = np.zeros(manifest.c, dtype=np.int64)
    chunk_tags = []
    for i in range(len(manifest.chunks)):
        _, y, _ = manifest.load_chunk(i)
        counts += y.sum(axis=0)
        chunk_tags.append(y)
    surviving, _ = dataio.prune_vocab(counts, min_count, coverage)

    os.makedirs(args.out_dir, exist_ok=True)
    new_chunks = []
    for i, y in enumerate(chunk_tags):
        tag_path = os.path.join(args.out_dir, f"tags_{i:03d}.txt")
        dataio.save_tags(tag_path, dataio.remap_tag_columns(y, surviving),
                         manifest.tag_format or "sparse")
        entry = dict(manifest.chunks[i])
        entry["tags"] = os.path.abspath(tag_path)
        new_chunks.append(entry)
    pruned = ChunkManifest(
        d=manifest.d, c=len(surviving), chunks=new_chunks,
        labels_dim=manifest.labels_dim,
        tag_vocab=[manifest.tag_vocab[j] for j in surviving],
        tag_format=manifest.tag_format)
    out_manifest = os.path.join(args.out_dir, "manifest.json")
    pruned.save(out_manifest)
    print(f"kept {len(surviving)}/{manifest.c} tags -> {out_manifest}")
    return 0


def _train(args, overrides=None):
    cfg = _settings(args)
    if "chunks" in cfg and int(cfg["chunks"]) < 1:
        raise UsageError(f"chunks must be >= 1, got {cfg['chunks']}")
    manifest = ChunkManifest.from_file(_require(cfg, "manifest"))
    table = _load_table(cfg, manifest)
    ckpt_path = _require(cfg, "checkpoint")
    seed = int(cfg.get("seed", 0))

    if getattr(args, "resume", False) and os.path.exists(ckpt_path):
        trainer = StreamTrainer.from_checkpoint(ckpt_path, table)
        _check_resume(trainer, cfg, overrides)
    else:
        _require(cfg, "bits")
        _require(cfg, "anchors")
        hyper = Hyperparams(c=manifest.c, f=table.f,
                            **_given_hyper(cfg, overrides))
        trainer = StreamTrainer(hyper, table, seed)

    n_chunks = len(manifest.chunks)
    if "chunks" in cfg:
        n_chunks = min(n_chunks, int(cfg["chunks"]))
    rows = []
    start_round = trainer.state.round_index if trainer.state else 0
    for i in range(start_round, n_chunks):
        x, y, _ = manifest.load_chunk(i)
        if y.shape[1] != trainer.hyper.c:
            raise LoadError(
                f"chunk {i} has {y.shape[1]} tag columns, model expects "
                f"{trainer.hyper.c}")
        tagless = int(np.sum(y.sum(axis=1) == 0))
        if tagless:
            print(f"warning: chunk {i} has {tagless} rows with no tags",
                  file=sys.stderr)
        # a RoundAborted leaves the checkpoint at the last committed round
        _, trace = trainer.process_chunk(x, y)
        rnd = trainer.state.round_index
        rows.append((rnd, trainer.hyper.r, "round_time",
                     f"{trainer.round_times[-1]:.6f}"))
        for j, obj in enumerate(trace, 1):
            rows.append((rnd, trainer.hyper.r, f"objective_iter_{j}",
                         repr(obj)))
        trainer.save(ckpt_path)
    if "metrics" in cfg:
        _write_metrics(cfg["metrics"], rows)
    print(f"trained {trainer.state.round_index} rounds "
          f"({trainer.state.total_seen} samples) -> {ckpt_path}")
    return 0


def cmd_train(args):
    return _train(args)


def cmd_ablate(args):
    if args.variant not in ABLATION_VARIANTS:
        raise UsageError(
            f"unknown variant '{args.variant}' "
            f"(choose from {sorted(ABLATION_VARIANTS)})")
    return _train(args, overrides=ABLATION_VARIANTS[args.variant])


def _load_checkpoint_cfg(cfg):
    path = _require(cfg, "checkpoint")
    if not os.path.exists(path):
        raise LoadError(f"{path}: checkpoint not found")
    return dataio.load_checkpoint(path)


def cmd_eval(args):
    cfg = _settings(args)
    state, _, blocks, p_history, _ = _load_checkpoint_cfg(cfg)
    if "queries" not in cfg or "query_labels" not in cfg:
        raise UsageError("eval requires --queries and --query-labels")
    manifest = ChunkManifest.from_file(_require(cfg, "manifest"))
    if not manifest.labels_dim:
        raise LoadError("evaluation refused: manifest declares no labels")
    if len(manifest.chunks) < len(blocks):
        raise LoadError(
            f"evaluation refused: manifest lists {len(manifest.chunks)} "
            f"chunks but the checkpoint has {len(blocks)} rounds")
    qx = dataio.load_features(cfg["queries"])
    if len(qx) == 0:
        raise LoadError(f"{cfg['queries']}: no queries")
    q_labels = dataio.load_tags(cfg["query_labels"], manifest.labels_dim,
                                qx.shape[0], manifest.tag_format)
    db_labels = []
    for i in range(len(blocks)):
        _, _, labels = manifest.load_chunk(i)
        if labels is None:
            raise LoadError(f"evaluation refused: chunk {i} has no labels")
        if len(labels) != blocks[i].n:
            raise LoadError(
                f"evaluation refused: chunk {i} has {len(labels)} label rows "
                f"but round {i + 1} of the checkpoint has {blocks[i].n} codes")
        db_labels.append(labels)
    judgments = EvalJudgments(query_labels=q_labels,
                              db_labels=np.concatenate(db_labels, axis=0))

    snapshots = round_snapshots(state, blocks, p_history)
    cutoff = int(cfg["map_cutoff"]) if "map_cutoff" in cfg else None
    rows = [(rnd, state.hyper.r, "map", repr(value))
            for rnd, value in map_per_round(snapshots, qx, judgments, cutoff)]
    if "precision_k" in cfg:
        k = int(cfg["precision_k"])
        rnd, snap, index = snapshots[-1]
        codes = hash_queries(qx, snap)
        pk = float(np.mean([
            precision_at_k(hamming_rank(codes.packed[qi], index, k)[0], rel, k)
            for qi, rel in query_relevance(judgments, codes.n)]))
        rows.append((rnd, state.hyper.r, f"precision_at_{k}", repr(pk)))
    if "metrics" in cfg:
        _write_metrics(cfg["metrics"], rows)
    for rnd, bits, metric, value in rows:
        print(f"round {rnd} [{bits} bits] {metric} = {value}")
    return 0


def cmd_query(args):
    if args.k < 0:
        raise UsageError(f"-k must be >= 0, got {args.k}")
    cfg = _settings(args)
    state, _, blocks, _, _ = _load_checkpoint_cfg(cfg)
    if "features" not in cfg:
        raise UsageError("query requires --features")
    x = dataio.load_features(cfg["features"])
    index = snapshot_index(state, blocks)
    codes = hash_queries(x, state)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for qi in range(codes.n):
            rows, dists = hamming_rank(codes.packed[qi], index, args.k)
            for rank, (row, dist) in enumerate(zip(rows, dists), 1):
                out.write(f"{qi}\t{row}\t{dist}\t{rank}\n")
    finally:
        if args.out:
            out.close()
    return 0


COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "query": cmd_query,
    "ablate": cmd_ablate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (LoadError, ConfigError, FileNotFoundError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (RoundAborted, FloatingPointError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
