"""Write parent_layout.ckpt, a checkpoint in the layout before c4 was derived.

Until commit e51c751 save_checkpoint also stored the array c4 (equal to
c2 transposed) and the meta key total_rows (equal to total_seen, the
code rows); until the round count was stored once, every save also wrote
round_index and total_seen, and so does this file.  The
committed file was written by that commit's code:

    mkdir old && git archive e51c751 src | tar -x -C old
    PYTHONPATH=old/src python tests/data/make_parent_layout.py

The committed file is also the version 1 layout, which stored the codes
as dense int8 +-1 (codes_dense) instead of their packed words, and the
tests read it as such.  Run against later code this script writes the
current layout instead (version 2, packed codes, no c4), so keep the
committed file and never regenerate it except from that commit.
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
