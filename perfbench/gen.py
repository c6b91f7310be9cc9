"""Seeded input generator for the benchmark workloads.

Every row has a position z in an 8-dimensional latent space: the prototype of
its class plus Gaussian noise of scale SPREAD.  The 24 class prototypes
are the roots of the D4 lattice in a random orientation, so each class has
eight equally close neighbours, every class is equally hard and every seed
poses the same problem.  SPREAD sets how much neighbouring classes overlap;
at 0.25 the final MAP of the workloads lies between 0.7 and 0.95.

- Features are a random linear lift of z into d dimensions plus small noise.
- Each tag column has a latent vector near the prototype of the class that
  owns it.  A row draws three distinct tags from softmax(SHARPNESS * z . t)
  (Gumbel top-k), so its tags follow its position but are noisy, and a share
  of rows has no tag at all.
- Tag embeddings are a linear image of the tag vectors plus noise.
- Ground-truth labels are the one-hot classes; training never sees them.

The same ``seed`` always gives the same arrays.  Independent parts of a
workload draw from independent streams: ``rng(seed, part)``.
"""
import itertools
from dataclasses import dataclass

import numpy as np

LATENT = 8
TAGS_PER_ROW = 3
SHARPNESS = 2.0
TAGLESS_SHARE = 0.05
SPREAD = 0.25            # within-class noise; the prototypes are sqrt(2) apart
FEATURE_NOISE = 0.3      # norm of the feature noise


def rng(seed, part):
    """Independent generator for one named part of a workload's input."""
    return np.random.default_rng([int(seed), *part.encode()])


def _d4_roots():
    """The 24 vectors of the D4 root system, padded to LATENT dimensions."""
    roots = []
    for i, j in itertools.combinations(range(4), 2):
        for a, b in itertools.product((1.0, -1.0), repeat=2):
            v = np.zeros(LATENT)
            v[i], v[j] = a, b
            roots.append(v)
    return np.array(roots)


@dataclass
class World:
    """The fixed distribution one workload samples all its rows from."""

    prototypes: np.ndarray       # (classes, LATENT)
    lift: np.ndarray             # (LATENT, d)
    tag_vectors: np.ndarray      # (c, LATENT)
    embeddings: np.ndarray       # (c, f) one vector per tag column

    @property
    def d(self):
        return self.lift.shape[1]

    @property
    def c(self):
        return self.tag_vectors.shape[0]

    @property
    def classes(self):
        return self.prototypes.shape[0]


def make_world(seed, d, c, f):
    g = rng(seed, "world")
    rotation, _ = np.linalg.qr(g.normal(size=(LATENT, LATENT)))
    prototypes = _d4_roots() @ rotation
    basis, _ = np.linalg.qr(g.normal(size=(d, LATENT)))
    owner = np.arange(c) * len(prototypes) // c
    tag_vectors = prototypes[owner] + g.normal(0.0, 0.5, size=(c, LATENT))
    embeddings = (tag_vectors @ g.normal(size=(LATENT, f)) / np.sqrt(LATENT)
                  + g.normal(0.0, 0.3, size=(c, f)))
    return World(prototypes=prototypes, lift=basis.T / np.sqrt(LATENT),
                 tag_vectors=tag_vectors, embeddings=embeddings)


def _latent(world, g, n):
    which = g.integers(0, world.classes, size=n)
    z = world.prototypes[which] + SPREAD * g.normal(size=(n, LATENT))
    x = z @ world.lift + g.normal(0.0, FEATURE_NOISE / np.sqrt(world.d),
                                  size=(n, world.d))
    return z, x, np.eye(world.classes, dtype=np.int8)[which]


def draw_features(world, g, n):
    """Features (n, d) and one-hot labels (n, classes) of untagged rows."""
    _, x, labels = _latent(world, g, n)
    return x, labels


def draw_rows(world, g, n):
    """Training rows: features (n, d), tags (n, c), labels (n, classes)."""
    z, x, labels = _latent(world, g, n)
    logits = (SHARPNESS * z @ world.tag_vectors.T / np.sqrt(LATENT)
              + g.gumbel(size=(n, world.c)))
    top = np.argpartition(-logits, TAGS_PER_ROW, axis=1)[:, :TAGS_PER_ROW]
    y = np.zeros((n, world.c), dtype=np.int8)
    y[np.arange(n)[:, None], top] = 1
    y[g.random(n) < TAGLESS_SHARE] = 0
    return x, y, labels
