"""Out-of-sample hashing and Hamming-space ranking.

Database codes are the codes learned when their chunk arrived; they are
never re-hashed when the projection later changes.  Queries always use the
latest projection.
"""
from dataclasses import dataclass, replace

import numpy as np

from .codes import CodeBlock, hamming_distances
from .kernel import rbf_map


@dataclass
class RetrievalIndex:
    """Immutable snapshot of all committed codes; row i is record id i."""

    packed: np.ndarray           # (N, ceil(r/64)) uint64
    r: int

    def __post_init__(self):
        self.packed = np.asarray(self.packed)
        words = (self.r + 63) // 64
        if (self.packed.ndim != 2 or self.packed.dtype != np.uint64
                or self.packed.shape[1] != words):
            raise ValueError(
                f"packed codes must be 2-D uint64 with ceil(r/64) = {words} "
                f"columns for r={self.r}, got {self.packed.dtype} "
                f"{self.packed.shape}")

    @property
    def size(self):
        return self.packed.shape[0]


def hash_queries(x_q, state):
    """Hash raw query features: sign of projected kernel features.

    sign(0) resolves to +1, matching the optimizer's convention.
    """
    phi = rbf_map(x_q, state.anchors)
    proj = phi @ state.p
    dense = np.where(proj >= 0.0, 1, -1).astype(np.int8)
    return CodeBlock(dense)


def hamming_rank(query_packed, index, k=None):
    """Rank the database by Hamming distance to one packed query code.

    Ascending distance; ties broken by insertion order (stable).  Returns
    (rows, distances), both int64, of the top min(k, N) entries, or the
    full ranking when k is None.  Rows are the records' ids, their
    insertion order; a caller with external ids maps them with
    their_ids[rows].  k must be a non-negative integer.

    Linear in N: distances take only r + 1 values, so a top-k query counts
    them per value, keeps the rows at or below the k-th smallest distance
    (already in insertion order) and sorts only those; a full ranking is a
    stable argsort on the narrow distance dtype, which numpy runs as a
    radix sort.
    """
    if k is not None and (isinstance(k, bool)
                          or not isinstance(k, (int, np.integer)) or k < 0):
        raise ValueError(f"k must be a non-negative integer or None, "
                         f"got {k!r}")
    query_packed = np.asarray(query_packed, dtype=np.uint64)
    if query_packed.shape != (index.packed.shape[1],):
        raise ValueError("query code length does not match index")
    dists = hamming_distances(query_packed, index.packed)
    if k is None or k >= len(dists):
        order = np.argsort(dists, kind="stable")
    else:
        cum = np.cumsum(np.bincount(dists, minlength=index.r + 1))
        cut = np.searchsorted(cum, k)
        cand = np.flatnonzero(dists <= cut)
        order = cand[np.argsort(dists[cand], kind="stable")[:k]]
    return order, dists[order].astype(np.int64)


def snapshot_index(state, code_blocks):
    """Concatenate committed code blocks into a retrieval index.

    Each block's packed words are built once and cached on the block, so
    the index is a copy of those words.
    """
    r = state.hyper.r
    if code_blocks:
        packed = np.concatenate([cb.packed for cb in code_blocks], axis=0)
    else:
        packed = np.zeros((0, (r + 63) // 64), dtype=np.uint64)
    return RetrievalIndex(packed=packed, r=r)


def round_snapshots(state, code_blocks, p_history):
    """(round, state with that round's projection, index) for every round.

    Database codes are never re-hashed; only the query-side projection
    varies by round.  The words are concatenated once; each round's index
    is a prefix view of them.  There must be one projection per code block.
    """
    if len(p_history) != len(code_blocks):
        raise ValueError(
            f"{len(p_history)} round projections for {len(code_blocks)} "
            f"code blocks; need one per round")
    full = snapshot_index(state, code_blocks)
    out = []
    rows = 0
    for i, p in enumerate(p_history):
        rows += code_blocks[i].n
        snap = replace(state, p=p, round_index=i + 1, total_seen=rows)
        index = RetrievalIndex(packed=full.packed[:rows], r=full.r)
        out.append((i + 1, snap, index))
    return out
