"""Write parent_layout.ckpt, a checkpoint in the layout before c4 was derived.

Until commit e51c751 save_checkpoint also stored the array c4 (equal to
c2 transposed) and the meta key total_rows (equal to total_seen).  The
committed file was written by that commit's code:

    mkdir old && git archive e51c751 src | tar -x -C old
    PYTHONPATH=old/src python tests/data/make_parent_layout.py

Run against later code it writes the current layout instead, so keep the
committed file and regenerate it only from that commit.
"""
import os

from taghash.engine import StreamTrainer
from taghash.model import Hyperparams
from taghash.synthetic import make_cluster_stream

stream = make_cluster_stream(n_rounds=4, n_per_round=40, d=8, f=8,
                             n_queries=10, seed=3)
trainer = StreamTrainer(Hyperparams(r=8, m=16, f=8, c=9, iters=3,
                                    dcc_sweeps=2), stream.table, seed=0)
for x, y in stream.chunks[:2]:
    trainer.process_chunk(x, y)
trainer.save(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "parent_layout.ckpt"))
