"""Brute-force references the benchmark checks the program's outputs against.

Written from the definitions alone, on dense +-1 codes, so that they share no
code with the packed ranking and evaluation they check.
"""
import numpy as np


def hash_codes(x, anchors, kernel_width, p):
    """Dense +-1 codes sign(rbf(x) @ p), with sign(0) = +1."""
    x = np.asarray(x, dtype=np.float64)
    sq = (np.sum(x * x, axis=1)[:, None] - 2.0 * x @ anchors.T
          + np.sum(anchors * anchors, axis=1)[None, :])
    phi = np.exp(-np.maximum(sq, 0.0) / (2.0 * kernel_width ** 2))
    return np.where(phi @ p >= 0.0, 1, -1).astype(np.int8)


def hamming(query_dense, db_dense):
    """(n_q, N) Hamming distances between dense +-1 code matrices.

    Float32 products of +-1 entries are exact for any code length below 2**24;
    pass db_dense as float32 to avoid a copy of a large database.
    """
    q = np.asarray(query_dense, dtype=np.float32)
    db = np.asarray(db_dense, dtype=np.float32)
    return np.rint((q.shape[1] - q @ db.T) / 2).astype(np.int64)


def top_k(dists, k=None):
    """Database positions by ascending distance, ties in insertion order."""
    order = np.argsort(dists, kind="stable")
    return order if k is None else order[:k]


def average_precision(order, relevant):
    """AP of a ranked list of database positions; None without relevant items.

    The denominator is the number of relevant items the list could hold:
    min(relevant in the database, list length).
    """
    total = int(np.count_nonzero(relevant))
    if total == 0:
        return None
    hits = relevant[order]
    ranks = np.flatnonzero(hits) + 1
    return float(np.sum(np.arange(1, ranks.size + 1) / ranks)
                 / min(total, len(order)))


def mean_average_precision(query_dense, query_labels, db_dense, db_labels,
                           k=None):
    """MAP over queries with at least one relevant database item.

    An item is relevant to a query when their label sets intersect.
    """
    dists = hamming(query_dense, db_dense)
    rel = (np.asarray(query_labels, np.int64)
           @ np.asarray(db_labels, np.int64).T) > 0
    aps = [average_precision(top_k(dists[i], k), rel[i])
           for i in range(dists.shape[0])]
    aps = [a for a in aps if a is not None]
    return float(np.mean(aps)) if aps else float("nan")
