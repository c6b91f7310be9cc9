"""Out-of-sample hashing and Hamming-space ranking.

Database codes are the codes learned when their chunk arrived; they are
never re-hashed when the projection later changes.  Queries always use the
latest projection.  An index is a CodeBlock of every committed code; row i
is record id i.
"""
from dataclasses import replace

import numpy as np

from .codes import (CodeBlock, check_words, hamming_distances, n_words,
                    pack_signs)
from .kernel import rbf_map


def hash_queries(x_q, state):
    """Hash raw query features: sign of projected kernel features.

    sign(0) resolves to +1, matching the optimizer's convention.  The signs
    are packed straight into the block's words.
    """
    phi = rbf_map(x_q, state.anchors)
    return CodeBlock(pack_signs(phi @ state.p >= 0.0), state.hyper.r)


def hamming_rank(query_packed, index, k=None):
    """Rank the database by Hamming distance to one packed query code.

    Ascending distance; ties broken by insertion order (stable).  Returns
    (rows, distances), both int64, of the top min(k, N) entries, or the
    full ranking when k is None.  Rows are the records' ids, their
    insertion order; a caller with external ids maps them with
    their_ids[rows].  k must be a non-negative integer.  The query must be
    one uint64 row of the index's width with no bit set past r.

    Linear in N.  A top-k query finds the k-th smallest distance as the
    smallest cut with at least k distances <= cut, one compare and one
    count per cut tried: cut = 0, 1, 3, 7, ... (capped at r), then a
    bisection between the last two.  That is at most about 2 log2(r + 1)
    passes, and one when k rows equal the query.  The rows at or below the
    cut, already in insertion order, are the only ones sorted.  A full
    ranking is a stable argsort on the narrow distance dtype, which numpy
    runs as a radix sort.
    """
    if k is not None and (isinstance(k, bool)
                          or not isinstance(k, (int, np.integer)) or k < 0):
        raise ValueError(f"k must be a non-negative integer or None, "
                         f"got {k!r}")
    query = np.asarray(query_packed)
    if query.shape != (index.packed.shape[1],):
        raise ValueError("query code length does not match index")
    check_words(query[None, :], index.r, "query code")
    dists = hamming_distances(query, index.packed)
    if k is None or k >= len(dists):
        order = np.argsort(dists, kind="stable")
    else:
        cand = np.flatnonzero(_within_kth(dists, k, index.r))
        order = cand[np.argsort(dists[cand], kind="stable")[:k]]
    return order, dists[order].astype(np.int64)


def _within_kth(dists, k, r):
    """dists <= their k-th smallest, for 0 <= k < len(dists); dists <= r."""
    lo, cut = -1, 0              # fewer than k rows lie at or below lo
    mask = dists <= cut
    while np.count_nonzero(mask) < k:
        lo, cut = cut, min(2 * cut + 1, r)
        mask = dists <= cut
    while cut - lo > 1:
        mid = (lo + cut) // 2
        below = dists <= mid
        if np.count_nonzero(below) >= k:
            cut, mask = mid, below
        else:
            lo = mid
    return mask


def snapshot_index(state, code_blocks):
    """Concatenate committed code blocks into one index block.

    Blocks hold only their packed words, so the index is a copy of them.
    """
    r = state.hyper.r
    words = [cb.packed for cb in code_blocks] or [
        np.zeros((0, n_words(r)), dtype=np.uint64)]
    return CodeBlock(np.concatenate(words, axis=0), r)


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
        snap = replace(state, p=p, round_index=i + 1)
        index = CodeBlock(full.packed[:rows], full.r)
        out.append((i + 1, snap, index))
    return out
