"""Interrupt training, reload the checkpoint, and finish bit-identically.

Per-round seeds are derived from (base seed, round index), so the resumed
run draws exactly the random numbers the uninterrupted run would have.
"""
import os
import tempfile

import numpy as np

from taghash.engine import StreamTrainer
from taghash.model import Hyperparams
from taghash.synthetic import make_cluster_stream

stream = make_cluster_stream(seed=2)
hyper = Hyperparams(r=16, m=150, f=8, c=9)

straight = StreamTrainer(hyper, stream.table, seed=102)
for x, y in stream.chunks:
    straight.process_chunk(x, y)

partial = StreamTrainer(hyper, stream.table, seed=102)
for x, y in stream.chunks[:2]:
    partial.process_chunk(x, y)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.ckpt")
    partial.save(path)
    print(f"checkpoint after round 2: {os.path.getsize(path)} bytes")
    resumed = StreamTrainer.from_checkpoint(path, stream.table)

for x, y in stream.chunks[2:]:
    resumed.process_chunk(x, y)

same_codes = all(
    np.array_equal(a.dense, b.dense)
    for a, b in zip(resumed.code_blocks, straight.code_blocks))
same_p = np.array_equal(resumed.state.p, straight.state.p)
print(f"codes bit-identical to uninterrupted run: {same_codes}")
print(f"hash projection bit-identical: {same_p}")
