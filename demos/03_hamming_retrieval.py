"""Hash queries and rank the code database in Hamming space.

Codes are stored packed in 64-bit words; distances are XOR + popcount over
whole words, with ties broken by insertion order.
"""
import numpy as np

from taghash.engine import StreamTrainer
from taghash.model import Hyperparams
from taghash.retrieval import hamming_rank, hash_queries
from taghash.synthetic import make_cluster_stream

stream = make_cluster_stream(seed=1)
trainer = StreamTrainer(Hyperparams(r=16, m=150, f=8, c=9),
                        stream.table, seed=101)
for x, y in stream.chunks:
    trainer.process_chunk(x, y)

index = trainer.index()
print(f"database: {index.n} codes of {index.r} bits "
      f"({index.packed.shape[1]} words each)")

codes = hash_queries(stream.query_x[:3], trainer.state)
db_labels = stream.db_labels
for qi in range(3):
    ids, dists = hamming_rank(codes.packed[qi], index, k=5)
    truth = int(np.argmax(stream.query_labels[qi]))
    hits = [int(np.argmax(db_labels[i])) for i in ids]
    print(f"query {qi} (cluster {truth}): top-5 ids {ids.tolist()}, "
          f"distances {dists.tolist()}, clusters {hits}")
