"""Image-level semantic vectors from tag word embeddings.

Each image's tags are looked up in a precomputed word-embedding table and
average-pooled into a single semantic vector.  Images without any tag get a
zero vector and are flagged in valid_mask (they are kept, not dropped, so
ingestion never silently discards rows).
"""
from dataclasses import dataclass, field

import numpy as np


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

    tags: (n, c) binary incidence matrix.  Rows with no tag pool to zero.
    """
    y = np.asarray(tags)
    if y.ndim != 2 or y.shape[1] != table.c:
        raise ValueError(
            f"tag matrix has {y.shape[1] if y.ndim == 2 else '?'} columns, "
            f"embedding table has {table.c}")
    y = y.astype(np.float64)
    counts = y.sum(axis=1)
    valid = counts > 0
    z = y @ table.vectors
    z[valid] /= counts[valid, None]
    z[~valid] = 0.0
    return SemanticChunk(z=z, valid_mask=valid)
