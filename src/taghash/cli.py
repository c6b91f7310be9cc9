"""Command-line entry points: preprocess, train, eval, query.

One table, SETTINGS, gives each setting's type, lowest value, default,
commands and help.  A command's parser offers `--config` plus exactly the
flags it reads (`train` also `--resume`).  A config file may hold any
setting in the table, and flags override it; `_settings` casts and checks
every setting the command reads before any data file is opened.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
Every command is deterministic given its inputs and seed; metrics land in
CSV files with columns (round, bits, metric, value).
"""
import argparse
import csv
import errno
import math
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

REQUIRED = object()     # the default of a setting its commands cannot lack

# setting -> (type, lowest value, default, commands that read it, help).  A
# type that is a tuple lists the allowed names.  A hyperparameter or seed
# left unset takes the library's default, or the checkpoint's on --resume.
SETTINGS = {
    "manifest": (str, None, REQUIRED, "preprocess train eval",
                 "chunk manifest JSON"),
    "embeddings": (str, None, REQUIRED, "preprocess train",
                   "tag embedding text dump"),
    "checkpoint": (str, None, REQUIRED, "train eval query",
                   "checkpoint file"),
    "metrics": (str, None, None, "train eval", "metrics CSV output path"),
    "min_count": (int, 0, 50, "preprocess",
                  "keep tags seen at least this often (default 50)"),
    "out_dir": (str, None, REQUIRED, "preprocess",
                "directory for the pruned manifest and tag files"),
    "variant": (tuple(ABLATION_VARIANTS), None, "woh", "train",
                "model variant: " + ", ".join(ABLATION_VARIANTS)
                + " (default woh)"),
    "bits": (int, 1, None, "train", "code length r"),
    "anchors": (int, 1, None, "train", "anchor count m"),
    "alpha": (float, 0, None, "train", "ridge weight"),
    "beta": (float, 0, None, "train", "feature reconstruction weight"),
    "theta": (float, 0, None, "train", "semantic embedding weight"),
    "mu": (float, 0, None, "train", "hash projection weight"),
    "iters": (int, 1, None, "train", "outer iterations per round"),
    "dcc_sweeps": (int, 1, None, "train", "code descent sweeps per update"),
    "seed": (int, 0, None, "train", "random seed (default 0)"),
    "chunks": (int, 1, None, "train",
               "use only the first N manifest chunks"),
    "queries": (str, None, REQUIRED, "eval", "query feature file"),
    "query_labels": (str, None, REQUIRED, "eval", "query label file"),
    "map_cutoff": (int, 1, None, "eval",
                   "rank cutoff for MAP (default: full database)"),
    "precision_k": (int, 1, None, "eval", "also report precision at k"),
    "features": (str, None, REQUIRED, "query", "query feature file"),
    "k": (int, 0, 10, "query", "hits per query (default 10)"),
    "out": (str, None, None, "query", "TSV output path (default stdout)"),
}

# settings that set a Hyperparams field -> that field
_FIELDS = {"bits": "r", "anchors": "m", "alpha": "alpha", "beta": "beta",
           "theta": "theta", "mu": "mu", "iters": "iters",
           "dcc_sweeps": "dcc_sweeps"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(name):
    return "-" + name if len(name) == 1 else "--" + name.replace("_", "-")


def build_parser():
    parser = _Parser(prog="taghash",
                     description="Streaming tag-supervised hashing engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key = value config file")
        if command == "train":
            p.add_argument("--resume", action="store_true",
                           help="continue from an existing checkpoint")
        for name, (*_, commands, text) in SETTINGS.items():
            if command in commands.split():
                p.add_argument(_flag(name), help=text)
    return parser


def _value(name, raw):
    """The setting's value cast from its text and checked against its
    lowest value; UsageError naming the flag otherwise."""
    kind, low, *_ = SETTINGS[name]
    flag = _flag(name)
    if isinstance(kind, tuple):
        if raw not in kind:
            raise UsageError(
                f"{flag} must be one of {', '.join(kind)}, got {raw!r}")
        return raw
    try:
        value = kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"{flag} must be {what}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {raw}")
    if low is not None and value < low:
        raise UsageError(f"{flag} must be >= {low}, got {raw}")
    return value


def _settings(args):
    """Every setting the command reads: config-file values overridden by
    flags, cast and checked, and the table's defaults for the rest."""
    given = dataio.load_config(args.config) if args.config else {}
    unknown = sorted(set(given) - set(SETTINGS))
    if unknown:
        raise UsageError(f"{args.config}: unknown setting "
                         + ", ".join(map(repr, unknown)))
    given.update((key, val) for key, val in vars(args).items()
                 if key in SETTINGS and val is not None)
    cfg = {}
    for name, (_, _, default, commands, _) in SETTINGS.items():
        if args.command not in commands.split():
            continue
        if name in given:
            cfg[name] = _value(name, given[name])
        elif default is REQUIRED:
            raise UsageError(f"{args.command} requires {_flag(name)}")
        else:
            cfg[name] = default
    return cfg


def _load_table(cfg, manifest):
    if not manifest.tag_vocab:
        raise LoadError("manifest declares no tag_vocab; run preprocess first"
                        " or add tag_vocab to the manifest")
    table, missing = dataio.load_embeddings(cfg["embeddings"],
                                            manifest.tag_vocab)
    if missing:
        raise LoadError(
            f"{len(missing)} tags lack embeddings (e.g. {missing[:3]}); "
            "run preprocess to prune them")
    return table


def _write_metrics(path, rows, append=False):
    """Write rows to a metrics CSV, after its header unless appending;
    closing the file flushes them."""
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(["round", "bits", "metric", "value"])
        writer.writerows(rows)


def _start_train_metrics(path, resume, rounds):
    """Start train's metrics CSV: a fresh run starts it over, a resumed one
    keeps the header and the rows of the checkpoint's rounds and drops
    later rows, written before a save that never landed."""
    kept = []
    if resume and os.path.exists(path):
        with open(path, newline="") as fh:
            kept = [row for row in list(csv.reader(fh))[1:]
                    if row and int(row[0]) <= rounds]
    _write_metrics(path, kept)


def cmd_preprocess(args):
    cfg = _settings(args)
    manifest = ChunkManifest.from_file(cfg["manifest"])
    if not manifest.tag_vocab:
        raise LoadError("manifest must declare tag_vocab for preprocessing")
    vectors, _ = dataio.read_embedding_file(cfg["embeddings"])
    coverage = np.array([t in vectors for t in manifest.tag_vocab])

    counts = np.zeros(manifest.c, dtype=np.int64)
    chunk_tags = []
    for i in range(len(manifest.chunks)):
        _, y, _ = manifest.load_chunk(i)
        counts += y.sum(axis=0)
        chunk_tags.append(y)
    surviving, _ = dataio.prune_vocab(counts, cfg["min_count"], coverage)
    if len(surviving) == 2 and manifest.tag_format is None:
        raise ConfigError(f"{cfg['manifest']}: 2 tags survive pruning, and "
                          "train cannot tell 2-column tag files' format "
                          "apart; declare \"tag_format\" in the manifest")

    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    new_chunks = []
    for i, y in enumerate(chunk_tags):
        tag_path = os.path.join(out_dir, f"tags_{i:03d}.txt")
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
    out_manifest = os.path.join(out_dir, "manifest.json")
    pruned.save(out_manifest)
    print(f"kept {len(surviving)}/{manifest.c} tags -> {out_manifest}")
    return 0


def cmd_train(args):
    cfg = _settings(args)
    ckpt_path = cfg["checkpoint"]
    if os.path.isdir(ckpt_path):    # refused before a round is trained
        raise IsADirectoryError(errno.EISDIR, "Is a directory", ckpt_path)
    resume = args.resume and os.path.exists(ckpt_path)
    if not resume:
        for name in ("bits", "anchors"):
            if cfg[name] is None:
                raise UsageError(f"train requires {_flag(name)}")
    # hyperparameters and seed set by flag or config, then the variant's,
    # which may repeat a given value but not change it
    given = {name: cfg[name] for name in (*_FIELDS, "seed")
             if cfg[name] is not None}
    variant = ABLATION_VARIANTS[cfg["variant"]]
    clashes = [f"--variant {cfg['variant']} sets {name} = {value!r} but "
               f"{name} = {given[name]!r} was given"
               for name, value in variant.items()
               if name in given and given[name] != value]
    if clashes:
        raise UsageError("; ".join(clashes))
    given.update(variant)
    manifest = ChunkManifest.from_file(cfg["manifest"])
    table = _load_table(cfg, manifest)

    if resume:
        trainer = StreamTrainer.from_checkpoint(ckpt_path, table)
        stored = dict(vars(trainer.hyper), seed=trainer.seed)
        stored.update((name, stored[f]) for name, f in _FIELDS.items())
        changed = [f"{name} = {new!r}, checkpoint has {stored[name]!r}"
                   for name, new in given.items() if new != stored[name]]
        if changed:
            raise UsageError("--resume keeps the checkpoint's settings: "
                             + "; ".join(changed))
    else:
        seed = given.pop("seed", 0)
        hyper = Hyperparams(c=manifest.c, f=table.f, **{
            _FIELDS.get(name, name): v for name, v in given.items()})
        trainer = StreamTrainer(hyper, table, seed)

    n_chunks = len(manifest.chunks[:cfg["chunks"]])
    if cfg["metrics"] is not None:
        _start_train_metrics(cfg["metrics"], resume, len(trainer.p_history))
    for i in range(len(trainer.p_history), n_chunks):
        x, y, _ = manifest.load_chunk(i)
        tagless = int(np.sum(y.sum(axis=1) == 0))
        if tagless:
            print(f"warning: chunk {i} has {tagless} rows with no tags",
                  file=sys.stderr)
        # a RoundAborted leaves the checkpoint at the last committed round
        _, trace = trainer.process_chunk(x, y)
        rnd = len(trainer.p_history)
        rows = [(rnd, trainer.hyper.r, "round_time",
                 f"{trainer.round_times[-1]:.6f}")]
        for j, obj in enumerate(trace, 1):
            rows.append((rnd, trainer.hyper.r, f"objective_iter_{j}",
                         repr(obj)))
        # a round's rows land before its save, so every committed round
        # keeps them
        if cfg["metrics"] is not None:
            _write_metrics(cfg["metrics"], rows, append=True)
        trainer.save(ckpt_path)
    samples = sum(cb.n for cb in trainer.code_blocks)
    print(f"trained {len(trainer.p_history)} rounds "
          f"({samples} samples) -> {ckpt_path}")
    return 0


def cmd_eval(args):
    cfg = _settings(args)
    state, _, blocks, p_history, _ = dataio.load_checkpoint(cfg["checkpoint"])
    if len(blocks) != len(p_history):
        raise LoadError(
            f"evaluation refused: {cfg['checkpoint']}: {len(p_history)} round "
            f"projections for {len(blocks)} code blocks; a MAP curve needs "
            f"one per round")
    manifest = ChunkManifest.from_file(cfg["manifest"])
    if not manifest.labels_dim:
        raise LoadError("evaluation refused: manifest declares no labels")
    if len(manifest.chunks) < len(p_history):
        raise LoadError(
            f"evaluation refused: manifest lists {len(manifest.chunks)} "
            f"chunks but the checkpoint has {len(p_history)} rounds")
    qx = dataio.load_features(cfg["queries"])
    if len(qx) == 0:
        raise LoadError(f"{cfg['queries']}: no queries")
    q_labels = dataio.load_tags(cfg["query_labels"], manifest.labels_dim,
                                qx.shape[0], manifest.tag_format)
    db_labels = []
    for i in range(len(p_history)):
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
    rows = [(rnd, state.hyper.r, "map", repr(value))
            for rnd, value in map_per_round(snapshots, qx, judgments,
                                            cfg["map_cutoff"])]
    k = cfg["precision_k"]
    if k is not None:
        rnd, snap, index = snapshots[-1]
        codes = hash_queries(qx, snap)
        pk = float(np.mean([
            precision_at_k(hamming_rank(codes.packed[qi], index, k)[0], rel, k)
            for qi, rel in query_relevance(judgments, codes.n)]))
        rows.append((rnd, state.hyper.r, f"precision_at_{k}", repr(pk)))
    if cfg["metrics"] is not None:
        _write_metrics(cfg["metrics"], rows)
    for rnd, bits, metric, value in rows:
        print(f"round {rnd} [{bits} bits] {metric} = {value}")
    return 0


def cmd_query(args):
    cfg = _settings(args)
    state, _, blocks, _, _ = dataio.load_checkpoint(cfg["checkpoint"])
    x = dataio.load_features(cfg["features"])
    index = snapshot_index(state, blocks)
    codes = hash_queries(x, state)
    out = open(cfg["out"], "w") if cfg["out"] else sys.stdout
    try:
        for qi in range(codes.n):
            rows, dists = hamming_rank(codes.packed[qi], index, cfg["k"])
            for rank, (row, dist) in enumerate(zip(rows, dists), 1):
                out.write(f"{qi}\t{row}\t{dist}\t{rank}\n")
    finally:
        if cfg["out"]:
            out.close()
    return 0


COMMANDS = {
    "preprocess": (cmd_preprocess, "prune tag vocabulary and remap"),
    "train": (cmd_train, "run online training over a manifest"),
    "eval": (cmd_eval, "MAP / precision report from a checkpoint"),
    "query": (cmd_query, "ranked Hamming search"),
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command][0](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (LoadError, ConfigError, OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (RoundAborted, FloatingPointError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
