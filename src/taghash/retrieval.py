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
from .kernel import check_feature_shape, rbf_map

# rows hashed at a time: one block's kernel features, _BLOCK x m float64
# (2.4 MB at m = 300), are the largest temporary however many rows come in
_BLOCK = 1024


def hash_queries(x_q, state):
    """Hash raw query features: sign of projected kernel features.

    sign(0) resolves to +1, matching the optimizer's convention.  The rows
    are hashed 1,024 at a time, each block's signs packed straight into its
    slice of the returned block's words, so the memory a call needs beyond
    its input and its words is bounded by one block (O(1024 m)) for any
    number of rows.  The codes, not the kernel features, are invariant to
    how rows are batched: BLAS sums a product by row count, so a feature's
    last bits may differ between batch sizes, which flips a code only where
    a projection lies within rounding of 0.
    """
    x = check_feature_shape(np.asarray(x_q), state.anchors)
    words = np.empty((len(x), n_words(state.hyper.r)), dtype=np.uint64)
    for start in range(0, len(x), _BLOCK):
        phi = rbf_map(x[start:start + _BLOCK], state.anchors)
        words[start:start + len(phi)] = pack_signs(phi @ state.p >= 0.0)
    words.setflags(write=False)  # the block's own words: no copy needed
    return CodeBlock(words, state.hyper.r)


def hamming_rank(query_packed, index, k=None):
    """Rank the database by Hamming distance to one packed query code.

    Ascending distance; ties broken by insertion order (stable).  Returns
    (rows, distances), both int64, of the top min(k, N) entries, or the
    full ranking when k is None.  Rows are the records' ids, their
    insertion order; a caller with external ids maps them with
    their_ids[rows].  k must be a non-negative integer.  The query must be
    one uint64 row of the index's width with no bit set past r.

    A full ranking (k None or k >= N) scans every row and runs a stable
    argsort on the narrow distance dtype, which numpy does as a radix sort.
    A top-k scans the index's distinct codes instead (_top_k).  The first
    top-k query on an index pays a one-time grouping of its rows by code,
    one sort of a 64-bit key per row, and the index keeps that grouping
    (CodeBlock.groups): 8 bytes of row id per row, plus 16 bytes and one
    row of words per distinct code.  The grouping pays for itself over
    many top-k queries to one index, not over a few, so a caller serving
    queries keeps its index.
    """
    query = np.asarray(query_packed)
    _check_queries(query[None], index, k)
    if k is None or k >= index.n:
        rows, dists = _ranking(query, index.packed)
        dists = dists[rows]
    else:
        rows, dists = _top_k(query, index, k)
    return rows, dists.astype(np.int64)


def _check_queries(packed, index, k):
    """Refuse query words, (n, w) uint64, that are not codes of the index's
    width with no bit set past r, or a k that is neither None nor a
    non-negative integer."""
    if k is not None and (isinstance(k, bool)
                          or not isinstance(k, (int, np.integer)) or k < 0):
        raise ValueError(f"k must be a non-negative integer or None, "
                         f"got {k!r}")
    if packed.ndim != 2 or packed.shape[1] != index.packed.shape[1]:
        raise ValueError("query code length does not match index")
    check_words(packed, index.r, "query code")


def _ranking(query, packed):
    """(rows in ranking order, every row's distance by row) of a full
    ranking: ascending Hamming distance to one checked query row, ties by
    row.  Radix-sorted, as the distances are a narrow dtype."""
    dists = hamming_distances(query, packed)
    return np.argsort(dists, kind="stable"), dists


def _top_k(query, index, k):
    """(rows, distances) of the first k of _ranking's rows, 0 <= k < N.

    Scans the codes of index.groups, not every row.  A group holds at
    least one row, so the k-th smallest group distance bounds the k-th
    smallest row distance, and _within_kth keeps only the groups within
    it.  Their sizes, counted by distance, give the exact cut; the rows of
    the groups at or below it are the only ones sorted, by (distance, row).
    """
    groups = index.groups
    gdists = hamming_distances(query, groups.words)
    if k < len(gdists):
        near = np.flatnonzero(_within_kth(gdists, k, index.r))
    else:
        near = np.arange(len(gdists))
    counts = np.bincount(gdists[near], weights=groups.sizes[near])
    cut = np.searchsorted(np.cumsum(counts), k)
    near = near[gdists[near] <= cut]
    sizes = groups.sizes[near]
    # each kept group's rows, as positions in groups.rows
    shift = np.repeat(groups.starts[near] - (np.cumsum(sizes) - sizes),
                      sizes)
    rows = groups.rows[shift + np.arange(len(shift))]
    key = np.repeat(gdists[near], sizes).astype(np.int64) * index.n + rows
    key = np.sort(key)[:k]
    return key % index.n, key // index.n


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
    words = np.concatenate(words, axis=0)
    words.setflags(write=False)  # the block's own words: no copy needed
    return CodeBlock(words, r)


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
        snap = replace(state, p=p)
        index = CodeBlock(full.packed[:rows], full.r)
        out.append((i + 1, snap, index))
    return out
