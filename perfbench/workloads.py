"""The four benchmark workloads.

Each workload is a ``prepare`` step, which builds the seeded input and is not
timed, and a ``run`` step, a closed loop of one client in one process that
times set-up and operations until the deadline and checks every output it
can afford to, untimed.  The program only ever sees the generated arrays.

- train_stream: many small rounds, each followed by a checkpoint save, as
  ``taghash train`` does.  Stresses per-round fixed costs, the small r x r
  and r x m solves and the checkpoint rewrite that grows with history.
- train_bulk: a few large rounds and no checkpoint.  Dominated by the m x m
  solve, DCC, the objective and assemble_q: the size-dependent side of any
  change to the optimizer.
- query_topk: online serving of one query at a time against a 200k-code
  database: hashing plus exact top-k ranking.  BLAS does almost nothing.
- map_eval: full-ranking MAP over every round's snapshot, as
  ``taghash eval`` does.  The only workload that exercises ``evaluation``.
"""
import dataclasses
import os
import sys
import time

import numpy as np

import gen
import reference
from taghash import dataio, engine, evaluation, retrieval
from taghash.model import Hyperparams
from taghash.semantics import EmbeddingTable

SETUP_REPS = 10              # set-ups timed per run where set-up is cheap


@dataclasses.dataclass(frozen=True)
class TrainSize:
    rows: int                    # rows per chunk
    d: int
    m: int
    r: int
    c: int
    f: int
    rounds: int                  # rounds per pass; round 1 is the set-up
    save: bool                   # checkpoint after every round
    queries: int                 # held-out queries for the final MAP


@dataclasses.dataclass(frozen=True)
class QuerySize:
    db: int                      # database codes
    block: int                   # database rows hashed at a time
    d: int
    m: int
    r: int
    c: int
    f: int
    train_rows: int
    train_rounds: int
    queries: int                 # distinct queries, cycled through
    k: int
    check_every: int             # every n-th request is checked
    map_queries: int             # first n requests give MAP@k


@dataclasses.dataclass(frozen=True)
class EvalSize:
    rounds: int
    rows: int
    d: int
    m: int
    r: int
    c: int
    f: int
    queries: int


SIZES = {
    "train_stream": TrainSize(rows=2000, d=128, m=300, r=32, c=240, f=32,
                              rounds=6, save=True, queries=500),
    "train_bulk": TrainSize(rows=6000, d=384, m=800, r=64, c=240, f=32,
                            rounds=2, save=False, queries=500),
    "query_topk": QuerySize(db=200_000, block=20_000, d=128, m=300, r=64,
                            c=240, f=32, train_rows=2000, train_rounds=2,
                            queries=2000, k=100, check_every=20,
                            map_queries=200),
    "map_eval": EvalSize(rounds=8, rows=3000, d=128, m=300, r=64, c=240,
                         f=32, queries=150),
}


class Recorder:
    """Timings, attempted/failed operations and the deadline of one run."""

    def __init__(self, seconds, tracer=None):
        self.deadline = time.perf_counter() + seconds
        self.tracer = tracer
        self.samples = {"setup": [], "op": []}
        self.items = 0               # rows trained, requests or rankings
        self.attempted = 0
        self.failed = 0
        self.map = float("nan")

    def expired(self):
        return time.perf_counter() >= self.deadline

    def timed(self, phase, fn, *args):
        """Call fn(*args) as one set-up or operation; returns its result."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.phase = phase
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            took = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.phase = None
            self.samples[phase].append(took)

    def check(self, ok, what):
        """Count the last operation failed when a check of its output fails."""
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _same(a, b):
    """Bit-for-bit equality of arrays, dataclasses, objects and scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if hasattr(a, "__dict__") and not isinstance(a, type):
        return type(a) is type(b) and _same(sorted(vars(a).items()),
                                            sorted(vars(b).items()))
    return a == b


# ---------------------------------------------------------------- training

@dataclasses.dataclass
class TrainInputs:
    seed: int
    size: TrainSize
    hyper: Hyperparams
    table: EmbeddingTable
    chunks: list                 # [(x, y, labels)]
    query_x: np.ndarray
    query_labels: np.ndarray
    workdir: str


def prepare_train(seed, size, workdir):
    world = gen.make_world(seed, size.d, size.c, size.f)
    g = gen.rng(seed, "stream")
    chunks = [gen.draw_rows(world, g, size.rows) for _ in range(size.rounds)]
    qx, ql = gen.draw_features(world, gen.rng(seed, "queries"), size.queries)
    hyper = Hyperparams(r=size.r, m=size.m, f=size.f, c=size.c)
    return TrainInputs(seed, size, hyper, EmbeddingTable(world.embeddings),
                       chunks, qx, ql, workdir)


def _train_round(trainer, x, y, path):
    codes, trace = trainer.process_chunk(x, y)
    if path is not None:
        trainer.save(path)
    return codes, trace


def run_train(inp, rec):
    """Passes of `rounds` rounds on a fresh trainer until the deadline.

    Round 1 of each pass is the set-up (it builds the anchor set); the loop
    stops at the first round boundary past the deadline, but never before
    the first pass is complete, so the final model and its MAP only depend on
    the seed.
    """
    size = inp.size
    path = os.path.join(inp.workdir, "stream.ckpt") if size.save else None
    passes = 0
    while not (passes and rec.expired()):
        trainer = engine.StreamTrainer(inp.hyper, inp.table, inp.seed)
        for i, (x, y, _) in enumerate(inp.chunks):
            if passes and rec.expired():
                break
            phase = "setup" if i == 0 else "op"
            codes, trace = rec.timed(phase, _train_round, trainer, x, y, path)
            if phase == "op":
                rec.items += size.rows
            dense = np.asarray(codes.dense)
            rec.check(dense.shape == (size.rows, size.r)
                      and bool(np.all(np.abs(dense) == 1))
                      and len(trace) == inp.hyper.iters
                      and bool(np.all(np.isfinite(trace))),
                      f"round {i + 1}: codes are not {size.rows}x{size.r} +-1"
                      f" or the trace is not {inp.hyper.iters} finite values")
        else:
            passes += 1
            if passes == 1:
                _finish_first_pass(inp, rec, trainer, path)


def _finish_first_pass(inp, rec, trainer, path):
    if path is not None:
        rec.attempted += 1
        resumed = engine.StreamTrainer.from_checkpoint(path, inp.table)
        rec.check(all(_same(getattr(trainer, a), getattr(resumed, a))
                      for a in ("state", "stats", "code_blocks", "p_history",
                                "seed")),
                  "checkpoint does not reload bit for bit")
    db = np.concatenate([cb.dense for cb in trainer.code_blocks])
    db_labels = np.concatenate([labels for _, _, labels in inp.chunks])
    queries = retrieval.hash_queries(inp.query_x, trainer.state).dense
    rec.map = reference.mean_average_precision(
        queries, inp.query_labels, db, db_labels)


# ---------------------------------------------------------------- serving

@dataclasses.dataclass
class QueryInputs:
    size: QuerySize
    path: str
    db_dense: np.ndarray         # float32 copy for the reference ranking
    db_labels: np.ndarray
    query_x: np.ndarray
    query_labels: np.ndarray


def prepare_query(seed, size, workdir):
    """Train on the stream, hash a large database with it, save both."""
    world = gen.make_world(seed, size.d, size.c, size.f)
    g = gen.rng(seed, "stream")
    hyper = Hyperparams(r=size.r, m=size.m, f=size.f, c=size.c)
    trainer = engine.StreamTrainer(hyper, EmbeddingTable(world.embeddings),
                                   seed)
    for _ in range(size.train_rounds):
        x, y, _ = gen.draw_rows(world, g, size.train_rows)
        trainer.process_chunk(x, y)
    g = gen.rng(seed, "database")
    blocks, labels = [], []
    for _ in range(size.db // size.block):
        x, lab = gen.draw_features(world, g, size.block)
        blocks.append(retrieval.hash_queries(x, trainer.state))
        labels.append(lab)
    path = os.path.join(workdir, "serve.ckpt")
    dataio.save_checkpoint(path, trainer.state, trainer.stats, blocks,
                           p_history=trainer.p_history, seed=seed)
    db_dense = np.concatenate([b.dense for b in blocks]).astype(np.float32)
    qx, ql = gen.draw_features(world, gen.rng(seed, "queries"), size.queries)
    return QueryInputs(size, path, db_dense, np.concatenate(labels), qx, ql)


def _open_index(path):
    state, _, blocks, _, _ = dataio.load_checkpoint(path)
    return state, retrieval.snapshot_index(state, blocks)


def _request(x, state, index, k):
    codes = retrieval.hash_queries(x, state)
    ids, dists = retrieval.hamming_rank(codes.packed[0], index, k)
    return codes.dense[0], ids, dists


def run_query(inp, rec):
    size = inp.size
    for _ in range(SETUP_REPS):
        state, index = rec.timed("setup", _open_index, inp.path)
    anchors = state.anchors
    aps = []
    i = 0
    while i < size.map_queries or not rec.expired():
        j = i % size.queries
        x = inp.query_x[j:j + 1]
        code, ids, dists = rec.timed("op", _request, x, state, index, size.k)
        rec.items += 1
        if i < size.map_queries:
            rel = np.any(inp.db_labels[:, inp.query_labels[j] != 0], axis=1)
            aps.append(reference.average_precision(np.asarray(ids), rel))
        if i % size.check_every == 0:
            want = reference.hash_codes(x, anchors.anchors,
                                        anchors.kernel_width, state.p)[0]
            dist = reference.hamming(want[None], inp.db_dense)[0]
            order = reference.top_k(dist, size.k)
            rec.check(np.array_equal(code, want)
                      and np.array_equal(ids, order)
                      and np.array_equal(dists, dist[order]),
                      f"request {i}: top-{size.k} differs from brute force")
        i += 1
    rec.map = float(np.mean([a for a in aps if a is not None]))


# ------------------------------------------------------------- evaluation

@dataclasses.dataclass
class EvalInputs:
    size: EvalSize
    path: str
    table: EmbeddingTable
    db_labels: np.ndarray
    query_x: np.ndarray
    query_labels: np.ndarray
    expected: list               # reference MAP per round


def prepare_eval(seed, size, workdir):
    """Train and save a checkpoint; recompute its MAP curve by brute force."""
    world = gen.make_world(seed, size.d, size.c, size.f)
    g = gen.rng(seed, "stream")
    table = EmbeddingTable(world.embeddings)
    # a short schedule keeps this untimed step quick; evaluation ranks and
    # scores as many codes whatever schedule learned them
    hyper = Hyperparams(r=size.r, m=size.m, f=size.f, c=size.c, iters=2,
                        dcc_sweeps=1)
    trainer = engine.StreamTrainer(hyper, table, seed)
    labels = []
    for _ in range(size.rounds):
        x, y, lab = gen.draw_rows(world, g, size.rows)
        trainer.process_chunk(x, y)
        labels.append(lab)
    path = os.path.join(workdir, "eval.ckpt")
    trainer.save(path)
    qx, ql = gen.draw_features(world, gen.rng(seed, "queries"), size.queries)
    db_labels = np.concatenate(labels)
    anchors = trainer.state.anchors
    expected = []
    for rnd, p in enumerate(trainer.p_history, 1):
        q = reference.hash_codes(qx, anchors.anchors, anchors.kernel_width, p)
        db = np.concatenate([cb.dense for cb in trainer.code_blocks[:rnd]])
        expected.append(reference.mean_average_precision(
            q, ql, db, db_labels[:len(db)]))
    return EvalInputs(size, path, table, db_labels, qx, ql, expected)


def _open_snapshots(path, table):
    return engine.StreamTrainer.from_checkpoint(path, table).round_snapshots()


def run_eval(inp, rec):
    judgments = evaluation.EvalJudgments(query_labels=inp.query_labels,
                                         db_labels=inp.db_labels)
    for _ in range(SETUP_REPS):
        snapshots = rec.timed("setup", _open_snapshots, inp.path, inp.table)
    while not rec.samples["op"] or not rec.expired():
        rows = rec.timed("op", evaluation.map_per_round, snapshots,
                         inp.query_x, judgments, None)
        rec.items += inp.size.queries * len(rows)
        got = [value for _, value in rows]
        rounds = [rnd for rnd, _ in rows]
        rec.check(rounds == list(range(1, inp.size.rounds + 1))
                  and np.allclose(got, inp.expected, rtol=1e-9, atol=0.0),
                  f"MAP per round {got} differs from reference {inp.expected}")
        rec.map = got[-1]


WORKLOADS = {
    "train_stream": (prepare_train, run_train),
    "train_bulk": (prepare_train, run_train),
    "query_topk": (prepare_query, run_query),
    "map_eval": (prepare_eval, run_eval),
}
