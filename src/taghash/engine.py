"""Streaming trainer tying kernelization, pooling, and optimization together.

One StreamTrainer consumes raw (features, tags) chunks in arrival order.
The anchor set is built from the first chunk and frozen; each later chunk
reuses it.  Per-round seeds are derived from (base seed, round index), so a
run resumed from a checkpoint is bit-identical to an uninterrupted one.
"""
import time

import numpy as np

from . import dataio
from .kernel import build_anchor_set, rbf_map
from .model import AccumStats, ModelState, RoundData, StateError, _is_count
from .optimizer import run_round
from .retrieval import round_snapshots, snapshot_index
from .semantics import pool_semantics, tag_matrix


def _checked_chunk(x, y, c):
    """Features x and tags y as one chunk of c tags, the tags as CSR.

    Refuses, with ValueError, features that are not a nonempty matrix and
    tags that are not an (n, c) matrix of 0s and 1s for the n feature rows.
    The values are checked on the nonzeros the CSR is built from, so a NaN
    tag is refused too.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError(
            f"features must be a nonempty (n, d) matrix, got shape {x.shape}")
    y = np.asarray(y)
    if y.shape != (len(x), c):
        raise ValueError(
            f"tags must be ({len(x)}, {c}) for {len(x)} feature rows and {c}"
            f" tags, got shape {y.shape}")
    y = tag_matrix(y)
    if not np.all(y.data == 1.0):
        raise ValueError("tags must be 0 or 1")
    return x, y


class StreamTrainer:
    def __init__(self, hyper, table, seed):
        """hyper: Hyperparams (c and f must match the embedding table);
        seed: an integer >= 0, else ValueError."""
        if hyper.c != table.c or hyper.f != table.f:
            raise ValueError("hyperparameters disagree with embedding table")
        self.hyper = hyper
        self.table = table
        if not _is_count(seed):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self.seed = seed
        self.state = None            # created when the first chunk arrives
        self.stats = None
        self.code_blocks = []
        self.p_history = []
        self.round_times = []

    def process_chunk(self, x, y):
        """Run one full round on a raw chunk; returns (codes, trace).

        The chunk's kernel features come with the anchor set from
        build_anchor_set in the first round and from rbf_map after it; its
        tags, as one float64 CSR matrix, are pooled into semantics.

        A chunk is refused with ValueError before it changes anything when
        it has no rows or its tags are not an (n, c) matrix of 0s and 1s
        for its n feature rows.  A round that raises leaves the trainer as
        it was: even the first round's anchors are kept only if it commits.
        """
        x, y = _checked_chunk(x, y, self.hyper.c)
        state, stats = self.state, self.stats
        if state is None:
            anchors, phi = build_anchor_set(x, self.hyper.m, self.seed)
            state = ModelState.fresh(anchors, self.hyper)
            stats = AccumStats.zeros(self.hyper)
        else:
            phi = rbf_map(x, state.anchors)
        chunk = RoundData(phi=phi, y=y, z=pool_semantics(y, self.table).z)
        rnd = len(self.p_history)
        start = time.perf_counter()
        codes, trace = run_round(state, stats, chunk, [self.seed, rnd], rnd)
        self.round_times.append(time.perf_counter() - start)
        self.state, self.stats = state, stats
        self.code_blocks.append(codes)
        self.p_history.append(state.p.copy())
        return codes, trace

    def _trained(self, call):
        """The state, or StateError naming call before the first chunk."""
        if self.state is None:
            raise StateError(f"StreamTrainer.{call} needs a trained state, "
                             f"but no chunk has been processed yet")
        return self.state

    def index(self):
        """Retrieval snapshot over everything committed so far: a new index,
        whose grouping its first top-k query builds, on every call."""
        return snapshot_index(self._trained("index()"), self.code_blocks)

    def round_snapshots(self):
        """(round, state-with-that-round's-projection, index) per round."""
        return round_snapshots(self._trained("round_snapshots()"),
                               self.code_blocks, self.p_history)

    def save(self, path):
        self._trained("save()")
        dataio.save_checkpoint(
            path, self.state, self.stats, self.code_blocks,
            p_history=self.p_history, seed=self.seed)

    @classmethod
    def from_checkpoint(cls, path, table):
        """The trainer a checkpoint holds, ready to take its next chunk.

        A trainer keeps one code block per round, so a file with another
        number of blocks than projections, such as a served index, is
        refused with a LoadError naming both counts; load_checkpoint still
        opens it for querying.
        """
        state, stats, blocks, p_history, seed = dataio.load_checkpoint(path)
        if len(blocks) != len(p_history):
            raise dataio.LoadError(
                f"{path}: {len(p_history)} round projections for "
                f"{len(blocks)} code blocks; a trainer needs one per round, "
                f"so a served index cannot be resumed")
        trainer = cls(state.hyper, table, seed)
        trainer.state = state
        trainer.stats = stats
        trainer.code_blocks = blocks
        trainer.p_history = p_history
        return trainer
