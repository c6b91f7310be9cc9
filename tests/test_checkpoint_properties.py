"""Property test of the checkpoint round trip over 0 to 4 rounds.

A save stores no round count and no P; a load derives them from p_history.
Whatever state, statistics, code blocks and history a save is given, with
the round count and P the history implies, the load gives them back bit for
bit, including a state that has committed no round at all.  Every file
holds exactly the fields the loader reads, and saving what it loaded
writes the same bytes.
"""
import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taghash.codes import CodeBlock
from taghash.dataio import (ARRAYS, META_FIELDS, load_checkpoint,
                            save_checkpoint)
from taghash.model import AccumStats, Hyperparams

from conftest import (code_block, committed_history, random_codes,
                      read_checkpoint_fields)


def same(a, b):
    """Bit-for-bit equality of arrays, dataclasses, objects and scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if hasattr(a, "__dict__"):
        return type(a) is type(b) and same(sorted(vars(a).items()),
                                           sorted(vars(b).items()))
    return type(a) is type(b) and a == b


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rounds=st.integers(0, 4), extra=st.integers(0, 2),
       r=st.sampled_from([1, 8, 64, 70]), rows=st.integers(1, 9),
       data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63))
@example(rounds=0, extra=0, r=8, rows=1, data_seed=0, seed=0)
# a served index: more code blocks than projections
@example(rounds=1, extra=9, r=64, rows=5, data_seed=1, seed=1)
def test_round_trip_is_exact(tmp_path_factory, rounds, extra, r, rows,
                             data_seed, seed):
    # extra blocks stand for codes hashed after training, as in a served
    # index, so there need not be one block per round
    rng = np.random.default_rng(data_seed)
    hyper = Hyperparams(r=r, m=5, f=3, c=4)
    state, stats, _, codes, _ = committed_history(rng, hyper, rounds, rows)
    for name in ("w", "u", "v"):
        setattr(state, name, rng.normal(size=getattr(state, name).shape))
    p_history = [rng.normal(size=(hyper.m, r)) for _ in range(rounds)]
    if rounds:
        state.p = p_history[-1].copy()
    else:
        assert same(stats, AccumStats.zeros(hyper))
        assert same(state.p, np.zeros((hyper.m, r)))
    blocks = [code_block(b) for b in codes] + [
        code_block(random_codes(rng, rows, r)) for _ in range(extra)]
    ck = tmp_path_factory.mktemp("ck")
    path = str(ck / "ck.bin")
    save_checkpoint(path, state, stats, blocks, p_history, seed)
    meta, arrays = read_checkpoint_fields(path)
    assert sorted(meta) == sorted(META_FIELDS)
    assert list(arrays) == list(ARRAYS)

    got_state, got_stats, got_blocks, got_history, got_seed = \
        load_checkpoint(path)
    assert same(got_state, state)
    assert same(got_stats, stats)
    assert same(got_blocks, blocks)
    assert all(isinstance(cb, CodeBlock) for cb in got_blocks)
    assert same(got_history, p_history)
    if rounds:      # P is a copy of the last projection, not a view of it
        assert not np.shares_memory(got_state.p, got_history[-1])
    assert got_seed == seed
    save_checkpoint(str(ck / "again.bin"), got_state, got_stats, got_blocks,
                    got_history, got_seed)
    assert (ck / "again.bin").read_bytes() == (ck / "ck.bin").read_bytes()
