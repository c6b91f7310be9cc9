"""Image-level semantic vectors from tag word embeddings.

Each image's tags are looked up in a precomputed word-embedding table and
average-pooled into a single semantic vector.  Images without any tag get a
zero vector and are flagged in valid_mask (they are kept, not dropped, so
ingestion never silently discards rows).

Tags are sparse, a few per image out of a vocabulary of hundreds, so a
round holds them as a float64 CSR matrix (tag_matrix) and every tag product
runs over its nonzeros.
"""
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse


def tag_matrix(tags):
    """Tags (n, c), dense or sparse, as a float64 CSR array.

    A dense input is read once for its nonzeros, in row-major order, which
    give the CSR's values, columns and row pointers directly; no dense
    float64 copy is made.  A float64 CSR array is returned as it is.
    """
    if scipy.sparse.issparse(tags):
        if isinstance(tags, scipy.sparse.csr_array) and \
                tags.dtype == np.float64:
            return tags
        return scipy.sparse.csr_array(tags, dtype=np.float64)
    y = np.asarray(tags)
    if y.ndim != 2:
        raise ValueError(f"tags must be an (n, c) matrix, got shape {y.shape}")
    n, c = y.shape
    # flat indices of a boolean mask: several times faster than the (row,
    # column) pairs of a 2-D nonzero
    flat = np.flatnonzero(y != 0)
    indptr = np.searchsorted(flat, np.arange(n + 1) * c)
    return scipy.sparse.csr_array(
        (np.take(y, flat).astype(np.float64), flat % c, indptr),
        shape=(n, c))


@dataclass
class EmbeddingTable:
    """One embedding vector per tag column, aligned by index."""

    vectors: np.ndarray          # (c, f)
    tag_names: list = field(default_factory=list)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError("embedding table must be (c, f) with f > 0")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("embedding table contains NaN or inf")
        if self.tag_names and len(self.tag_names) != self.vectors.shape[0]:
            raise ValueError("tag_names length must match table size")

    @property
    def c(self):
        return self.vectors.shape[0]

    @property
    def f(self):
        return self.vectors.shape[1]


@dataclass
class SemanticChunk:
    z: np.ndarray                # (n, f) pooled semantic vectors
    valid_mask: np.ndarray       # (n,) bool, False where the image had no tag


def pool_semantics(tags, table):
    """Average-pool the embeddings of each image's tags.

    tags: (n, c) binary incidence matrix, dense or sparse; it is pooled as
    one sparse product.  Rows with no tag pool to zero.
    """
    y = tag_matrix(tags)
    if y.ndim != 2 or y.shape[1] != table.c:
        raise ValueError(
            f"tag matrix has {y.shape[1] if y.ndim == 2 else '?'} columns, "
            f"embedding table has {table.c}")
    counts = y @ np.ones(table.c)
    valid = counts > 0
    z = y @ table.vectors
    z[valid] /= counts[valid, None]
    z[~valid] = 0.0
    return SemanticChunk(z=z, valid_mask=valid)
