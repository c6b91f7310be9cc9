"""Property tests: pack_codes against the shift-loop packer, hamming_rank
against the dense brute-force oracle, and average_precision against the
O(n^2) reference."""
import numpy as np
import pytest

from taghash.codes import pack_codes
from taghash.evaluation import average_precision
from taghash.retrieval import RetrievalIndex, hamming_rank

from conftest import random_codes
from oracles import dense_rank, naive_average_precision, pack_codes_loop

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def ranking_case(draw):
    """A database (often tie-heavy), a query code and a k to rank with."""
    r = draw(st.sampled_from([1, 7, 63, 64, 65, 128, 192, 300]))
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # few distinct rows, repeated: most distances tie
        pool = random_codes(rng, draw(st.integers(1, 3)), r)
        db = pool[rng.integers(0, len(pool), size=n)]
    else:
        db = random_codes(rng, n, r)
    if n and draw(st.booleans()):
        q = db[rng.integers(0, n)]
    else:
        q = random_codes(rng, 1, r)[0]
    k = draw(st.sampled_from([0, 1, max(n - 1, 0), n, n + 5, None]))
    return db.astype(np.int8), q.astype(np.int8), k


class TestPackCodesProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 31, 32, 63, 64, 65, 128, 130, 192, 300]),
           st.integers(0, 50), st.integers(0, 2 ** 32 - 1))
    def test_matches_shift_loop(self, r, n, seed):
        dense = random_codes(np.random.default_rng(seed), n, r)
        packed = pack_codes(dense.astype(np.int8))
        words = (r + 63) // 64
        assert packed.dtype == np.uint64 and packed.dtype.isnative
        assert packed.flags.c_contiguous and packed.shape == (n, words)
        assert np.array_equal(packed, pack_codes_loop(dense))
        if r % 64:
            assert not np.any(packed[:, -1] >> np.uint64(r % 64))


class TestHammingRankProperties:
    @settings(max_examples=150, deadline=None)
    @given(ranking_case())
    def test_matches_dense_oracle_prefix(self, case):
        db, q, k = case
        index = RetrievalIndex(packed=pack_codes(db), r=q.shape[0])
        rows, dists = hamming_rank(pack_codes(q[None, :])[0], index, k)
        want_idx, want_d = dense_rank(q, db)
        take = len(db) if k is None else min(k, len(db))
        assert rows.dtype == np.int64 and dists.dtype == np.int64
        assert rows.tolist() == want_idx[:take].tolist()
        assert dists.tolist() == want_d[:take].tolist()


class TestAveragePrecisionProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=300),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_naive_reference(self, relevance, seed):
        relevant = np.array(relevance)
        ranked = np.random.default_rng(seed).permutation(len(relevant))
        got = average_precision(ranked, relevant)
        want = naive_average_precision(relevant[ranked])
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)
