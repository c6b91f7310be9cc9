"""Feature kernelization and tag pooling, step by step.

Shows how raw features become bounded nonlinear similarities against a
fixed anchor set, and how noisy tag sets collapse into a single embedding
vector per image.
"""
import numpy as np

from taghash.kernel import build_anchor_set
from taghash.semantics import EmbeddingTable, pool_semantics

rng = np.random.default_rng(0)

# two clearly separated blobs of raw features
x = np.vstack([
    rng.normal(0.0, 1.0, size=(100, 6)),
    rng.normal(5.0, 1.0, size=(100, 6)),
])

# the first chunk fixes the anchors and the width, and one distance
# matrix gives both the width and the chunk's kernel features; later chunks
# and queries are mapped with rbf_map against the same anchors
anchors, phi = build_anchor_set(x, m=12, seed=0)
print(f"anchor set: {anchors.m} anchors, kernel width "
      f"{anchors.kernel_width:.3f}")
print(f"kernel features: shape {phi.shape}, "
      f"range [{phi.min():.4f}, {phi.max():.4f}]")

# samples from the same blob look alike in kernel space
same = np.linalg.norm(phi[0] - phi[1])
cross = np.linalg.norm(phi[0] - phi[150])
print(f"phi distance within blob {same:.3f}, across blobs {cross:.3f}")

# pooled tag semantics: each image averages the embeddings of its tags
table = EmbeddingTable(
    vectors=rng.normal(size=(4, 3)),
    tag_names=["beach", "sunset", "city", "night"])
y = np.array([
    [1, 1, 0, 0],   # beach + sunset
    [0, 0, 1, 1],   # city + night
    [0, 0, 0, 0],   # tagless: kept, flagged
])
sem = pool_semantics(y, table)
for i, row in enumerate(sem.z):
    status = "ok" if sem.valid_mask[i] else "no tags"
    print(f"image {i}: z = {np.round(row, 3)} ({status})")
