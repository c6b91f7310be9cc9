"""Retrieval metrics: average precision, MAP per round, precision@k.

Relevance is defined by ground-truth labels, never by training tags: a
database item is relevant to a query iff their label sets intersect.
Queries with no relevant item in the database are excluded from MAP and
counted.
"""
from dataclasses import dataclass

import numpy as np

from .retrieval import _check_queries, _ranking, hash_queries


# queries whose relevance rows one label product builds: keeps the
# (block x database) temporaries small while each product stays one BLAS call
QUERY_BLOCK = 32


@dataclass
class EvalJudgments:
    """Binary label matrices for queries and database records."""

    query_labels: np.ndarray     # (n_q, L)
    db_labels: np.ndarray        # (N, L), one row per database row

    def __post_init__(self):
        q, db = np.shape(self.query_labels), np.shape(self.db_labels)
        if len(q) != 2 or len(db) != 2 or q[1] != db[1]:
            raise ValueError(
                f"label matrices must be 2-D with equal widths, got query "
                f"labels {q} and database labels {db}")

    def relevance(self, query_idx):
        """Boolean relevance of every database row to the given queries.

        query_idx is one query index, giving an (N,) row, or a slice or
        index array, giving a (queries, N) matrix.  Labels are binarized
        before the product, which runs in float32 (exact up to 2**24 shared
        labels), so no count can wrap around in a narrow label dtype.
        """
        q = (self.query_labels[query_idx] != 0).astype(np.float32)
        db = (self.db_labels != 0).astype(np.float32)
        return (q @ db.T) > 0


class _CurveJudgments(EvalJudgments):
    """Judgments that build each block of relevance rows once.

    The labels are the same in every round of a MAP curve, so the rounds
    after the first reuse the blocks the first one built.  query_relevance
    asks only for slices.  The blocks of all queries are held for the
    curve: one byte per query and database record.
    """

    def __post_init__(self):
        super().__post_init__()
        self._blocks = {}

    def relevance(self, query_idx):
        key = (query_idx.start, query_idx.stop, query_idx.step)
        if key not in self._blocks:
            self._blocks[key] = super().relevance(query_idx)
        return self._blocks[key]


def query_relevance(judgments, n_queries):
    """Yield (query index, relevance row) for the first n_queries queries.

    Rows come from one label product per QUERY_BLOCK queries.
    """
    if n_queries > len(judgments.query_labels):
        raise ValueError(
            f"{n_queries} queries but only {len(judgments.query_labels)} "
            f"rows of query labels")
    for start in range(0, n_queries, QUERY_BLOCK):
        block = judgments.relevance(
            slice(start, min(start + QUERY_BLOCK, n_queries)))
        yield from enumerate(block, start)


def average_precision(ranked_rows, relevant, total_relevant=None):
    """AP of one ranked list against a boolean relevance array over rows.

    total_relevant is the number of relevant items in the database being
    ranked; it defaults to the count over the whole relevance array.
    Returns None when the database holds no relevant item (the query is
    excluded from MAP by the caller).
    """
    relevant = np.asarray(relevant, dtype=bool)
    if total_relevant is None:
        total_relevant = int(relevant.sum())
    if total_relevant == 0:
        return None
    ranked_rows = np.asarray(ranked_rows)
    if ranked_rows.size == 0:
        raise ValueError("ranked list is empty")
    # the precision at the i-th hit, found at rank ranks[i - 1], is
    # i / ranks[i - 1]: only the hits are visited
    ranks = np.flatnonzero(relevant[ranked_rows]) + 1
    denom = min(total_relevant, len(ranked_rows))
    return float(np.sum(np.arange(1, len(ranks) + 1) / ranks) / denom)


def precision_at_k(ranked_rows, relevant, k):
    """Fraction of the top k that are relevant.

    A cutoff past the end of the list is computed over the available prefix.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    relevant = np.asarray(relevant, dtype=bool)
    top = np.asarray(ranked_rows)[:k]
    return float(np.mean(relevant[top]))


def mean_average_precision(query_codes, index, judgments, cutoff=None):
    """MAP over all queries with at least one relevant database item.

    The index, a CodeBlock, holds the first index.n records of the
    judgments' database, as every round of a MAP curve does.  Each query
    ranks the whole index, as hamming_rank does for k=None, and a cutoff,
    an integer >= 1, keeps the first cutoff rows.  Returns (map_value,
    n_excluded).
    """
    if index.n > len(judgments.db_labels):
        raise ValueError(
            f"index holds {index.n} records but only "
            f"{len(judgments.db_labels)} database records have labels")
    if isinstance(cutoff, (int, np.integer)) and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1 or None, got {cutoff!r}")
    _check_queries(query_codes.packed, index, cutoff)
    aps = []
    excluded = 0
    for qi, rel in query_relevance(judgments, query_codes.n):
        in_db = int(np.count_nonzero(rel[:index.n]))
        if in_db == 0:
            excluded += 1
            continue
        rows, _ = _ranking(query_codes.packed[qi], index.packed)
        if cutoff is not None:
            rows = rows[:cutoff]
        aps.append(average_precision(rows, rel, in_db))
    if not aps:
        return float("nan"), excluded
    return float(np.mean(aps)), excluded


def map_per_round(snapshots, query_features, judgments, cutoff=None):
    """MAP at each round of a training run.

    snapshots: iterable of (round, ModelState-like with that round's hash
    projection, CodeBlock index of codes committed up to that round).
    Queries are hashed with each round's own projection.  Returns a list of
    (round, map_value) rows ready for CSV emission.
    """
    judgments = _CurveJudgments(judgments.query_labels, judgments.db_labels)
    rows = []
    for rnd, state, index in snapshots:
        codes = hash_queries(query_features, state)
        value, _ = mean_average_precision(codes, index, judgments, cutoff)
        rows.append((rnd, value))
    return rows
