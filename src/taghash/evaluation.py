"""Retrieval metrics: average precision, MAP per round, precision@k.

Relevance is defined by ground-truth labels, never by training tags: a
database item is relevant to a query iff their label sets intersect.
Queries with no relevant item in the database are excluded from MAP and
counted.
"""
from dataclasses import dataclass, field

import numpy as np

from .retrieval import _check_queries, _ranking, hash_queries


# queries whose relevance rows one label product builds: keeps the
# (block x database) temporaries small while each product stays one BLAS call
QUERY_BLOCK = 32


@dataclass
class EvalJudgments:
    """Binary label matrices for queries and database records, and the
    relevance of every database record to every query.

    relevant, a read-only (n_q, N) bool matrix, is formed from the labels
    when the judgments are built, one label product per QUERY_BLOCK
    queries, and serves every MAP and precision@k computed from them.  It
    takes one byte per query and database record for as long as the
    judgments are held, a direct mean_average_precision call included.  A
    later in-place edit of the label arrays is not seen.
    """

    query_labels: np.ndarray     # (n_q, L)
    db_labels: np.ndarray        # (N, L), one row per database row
    relevant: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q, db = np.shape(self.query_labels), np.shape(self.db_labels)
        if len(q) != 2 or len(db) != 2 or q[1] != db[1]:
            raise ValueError(
                f"label matrices must be 2-D with equal widths, got query "
                f"labels {q} and database labels {db}")
        db_binary = (self.db_labels != 0).astype(np.float32)
        self.relevant = np.empty((q[0], db[0]), dtype=bool)
        for start in range(0, q[0], QUERY_BLOCK):
            block = slice(start, start + QUERY_BLOCK)
            self.relevant[block] = _intersects(self.query_labels[block],
                                               db_binary)
        self.relevant.flags.writeable = False

    def relevance(self, query_idx):
        """Rows of relevant: an (N,) row for one query index, a
        (queries, N) matrix for a slice or index array."""
        return self.relevant[query_idx]


def _intersects(query_labels, db_binary):
    """Whether each query's label set meets each binarized database row's.

    The query labels are binarized before the product, which runs in
    float32 (exact up to 2**24 shared labels), so no count can wrap around
    in a narrow label dtype.
    """
    return ((query_labels != 0).astype(np.float32) @ db_binary.T) > 0


def query_relevance(judgments, n_queries):
    """(query index, relevance row) for the first n_queries queries: the
    rows of judgments.relevant, formed when the judgments were built."""
    if n_queries > len(judgments.query_labels):
        raise ValueError(
            f"{n_queries} queries but only {len(judgments.query_labels)} "
            f"rows of query labels")
    return enumerate(judgments.relevant[:n_queries])


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
    Queries are hashed with each round's own projection, and every round
    reads the relevance rows the judgments formed when they were built.
    Returns a list of (round, map_value) rows ready for CSV emission.
    """
    rows = []
    for rnd, state, index in snapshots:
        codes = hash_queries(query_features, state)
        value, _ = mean_average_precision(codes, index, judgments, cutoff)
        rows.append((rnd, value))
    return rows
