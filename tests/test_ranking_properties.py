"""Property tests: pack_codes against the shift-loop packer and unpack_codes
as its inverse, hamming_rank against the dense brute-force oracle (its
top-k over an index's distinct codes too), its cut search against a sort,
and average_precision against the O(n^2) reference."""
import numpy as np
import pytest

from taghash import codes
from taghash.codes import CodeBlock, pack_codes, unpack_codes
from taghash.evaluation import average_precision
from taghash.model import Hyperparams
from taghash.retrieval import _within_kth, hamming_rank, round_snapshots

from conftest import code_block, make_state, random_codes
from oracles import dense_rank, naive_average_precision, pack_codes_loop

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def ranking_case(draw, min_n=0, max_n=40):
    """A database (often tie-heavy), a query code and a k to rank with."""
    r = draw(st.sampled_from([1, 7, 63, 64, 65, 128, 192, 300]))
    n = draw(st.integers(min_n, max_n))
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
    k = draw(st.sampled_from([0, 1, max(n - 1, 0), n, n + 5, None])
             | st.integers(0, n))
    return db.astype(np.int8), q.astype(np.int8), k


def check_prefix(index, db, q, k):
    """hamming_rank's top-k of q, or full ranking for k None, equals the
    dense oracle's prefix."""
    rows, dists = hamming_rank(pack_codes(q[None, :])[0], index, k)
    want_idx, want_d = dense_rank(q, db)
    take = len(db) if k is None else min(k, len(db))
    assert rows.dtype == np.int64 and dists.dtype == np.int64
    assert rows.tolist() == want_idx[:take].tolist()
    assert dists.tolist() == want_d[:take].tolist()


class TestPackCodesProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 31, 32, 63, 64, 65, 128, 130, 192, 300]),
           st.integers(0, 50), st.integers(0, 2 ** 32 - 1))
    def test_matches_shift_loop(self, r, n, seed):
        dense = random_codes(np.random.default_rng(seed), n, r)
        packed = pack_codes(dense.astype(np.int8))
        words = -(-r // 64)
        assert packed.dtype == np.uint64 and packed.dtype.isnative
        assert packed.flags.c_contiguous and packed.shape == (n, words)
        assert np.array_equal(packed, pack_codes_loop(dense))
        if r % 64:
            assert not np.any(packed[:, -1] >> np.uint64(r % 64))


    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 63, 64, 65, 128]), st.integers(0, 50),
           st.integers(0, 2 ** 32 - 1))
    def test_unpack_inverts_pack(self, r, n, seed):
        dense = random_codes(np.random.default_rng(seed), n, r)
        dense = dense.astype(np.int8)
        packed = pack_codes_loop(dense)
        assert np.array_equal(pack_codes(dense), packed)
        got = unpack_codes(packed, r)
        assert got.dtype == np.int8 and got.shape == (n, r)
        assert np.array_equal(got, dense)


class TestHammingRankProperties:
    @settings(max_examples=150, deadline=None)
    @given(ranking_case())
    def test_matches_dense_oracle_prefix(self, case):
        self.check_against_oracle(*case)

    @settings(max_examples=40, deadline=None)
    @given(ranking_case(min_n=41, max_n=300))
    def test_matches_dense_oracle_prefix_up_to_300_rows(self, case):
        self.check_against_oracle(*case)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 7, 64, 192, 300]), st.integers(2, 300),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_cut_is_the_kth_smallest_distance(self, r, n, seed, data):
        # distances bunched near 0, spread over 0..r, or near r
        rng = np.random.default_rng(seed)
        high = data.draw(st.sampled_from([1, 4, r + 1]))
        dists = rng.integers(0, min(high, r + 1), size=n)
        if data.draw(st.booleans()):
            dists = r - dists
        dists = dists.astype(np.uint8 if r <= 192 else np.uint16)
        k = data.draw(st.integers(1, n - 1))
        mask = _within_kth(dists, k, r)
        assert np.array_equal(mask, dists <= np.sort(dists)[k - 1])

    def check_against_oracle(self, db, q, k):
        check_prefix(code_block(db), db, q, k)


@pytest.fixture
def count_groupings(monkeypatch):
    """The row counts of every grouping built while the test runs."""
    built = []
    real = codes.group_rows

    def counting(packed):
        built.append(len(packed))
        return real(packed)

    monkeypatch.setattr(codes, "group_rows", counting)
    return built


class TestGroupedTopK:
    """A top-k ranks an index's distinct codes and expands their rows."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 63, 64, 65, 128, 300]), st.integers(1, 120),
           st.sampled_from(["ties", "halves", "distinct"]),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_queries_to_one_index_match_dense_oracle(self, r, n, pool_kind,
                                                     seed, data):
        rng = np.random.default_rng(seed)
        if pool_kind == "distinct":
            db = random_codes(rng, n, r)
        else:
            # few codes repeated, or about two rows per code
            size = 3 if pool_kind == "ties" else max(n // 2, 1)
            pool = random_codes(rng, size, r)
            db = pool[rng.integers(0, size, size=n)]
        db = db.astype(np.int8)
        index = code_block(db)
        for _ in range(data.draw(st.integers(2, 5))):
            if data.draw(st.booleans()):
                q = db[rng.integers(0, n)]
            else:
                q = random_codes(rng, 1, r)[0].astype(np.int8)
            k = data.draw(st.sampled_from([0, 1, n - 1, n, n + 5]))
            check_prefix(index, db, q, k)

    def test_grouping_is_built_once_per_index(self, count_groupings):
        rng = np.random.default_rng(3)
        pool = random_codes(rng, 4, 64)
        db = pool[rng.integers(0, 4, size=50)].astype(np.int8)
        index, other = code_block(db), code_block(db)
        hamming_rank(index.packed[0], index)          # full: no grouping
        hamming_rank(index.packed[0], index, 50)
        assert count_groupings == []
        for row in range(5):
            check_prefix(index, db, db[row], 10)
        check_prefix(other, db, db[0], 3)
        assert count_groupings == [50, 50]
        assert len(index.groups.words) <= 4

    @pytest.mark.parametrize("r, word", [(64, 0), (128, 0), (128, 1),
                                         (300, 0), (300, 2), (300, 4)])
    def test_one_group_per_code_when_codes_differ_in_one_word(self, r,
                                                              word):
        # a key that ignored the word would interleave these codes' rows
        rng = np.random.default_rng(r + word)
        pool = np.repeat(code_block(random_codes(rng, 1, r)).packed, 6, 0)
        pool[:, word] ^= np.arange(6, dtype=np.uint64)
        packed = pool[rng.integers(0, 6, size=300)]
        groups = codes.group_rows(packed)
        assert len(groups.words) == 6
        assert np.array_equal(np.sort(groups.sizes),
                              np.sort(np.unique(packed, axis=0,
                                                return_counts=True)[1]))

    @pytest.mark.parametrize("r", [64, 128, 300])
    def test_colliding_row_keys_split_groups_but_rank_exactly(
            self, monkeypatch, r):
        # every other row shares one key: a code's rows land in several
        # groups, and distinct codes with one key interleave
        monkeypatch.setattr(codes, "_row_key", lambda packed: np.arange(
            len(packed), dtype=np.uint64) % np.uint64(2))
        rng = np.random.default_rng(8)
        pool = random_codes(rng, 5, r)
        db = pool[rng.integers(0, 5, size=200)].astype(np.int8)
        index = code_block(db)
        for q in (db[0], db[7], random_codes(rng, 1, r)[0].astype(np.int8)):
            for k in (1, 10, 100, 199):
                check_prefix(index, db, q, k)
        assert len(index.groups.words) > 2 * len(pool)

    def test_ties_across_large_groups_rank_by_row(self):
        # a group's rows come in no set order; ties still rank by row
        rng = np.random.default_rng(6)
        pool = random_codes(rng, 3, 64)
        db = pool[rng.integers(0, 3, size=3000)].astype(np.int8)
        index = code_block(db)
        for q in pool.astype(np.int8):
            for k in (1, 1000, 2999):
                check_prefix(index, db, q, k)

    def test_each_round_snapshot_ranks_its_prefix(self, count_groupings):
        hyper = Hyperparams(r=65, m=3, f=2, c=2)
        rng = np.random.default_rng(5)
        pool = random_codes(rng, 3, hyper.r)
        dense = [pool[rng.integers(0, 3, size=n)].astype(np.int8)
                 for n in (7, 1, 12, 5)]
        snaps = round_snapshots(make_state(hyper), [code_block(d)
                                                    for d in dense],
                                [np.zeros((hyper.m, hyper.r))] * 4)
        for rnd, _, index in snaps:
            db = np.concatenate(dense[:rnd])
            for q in (db[0], db[-1], random_codes(rng, 1, hyper.r)[0]):
                for k in (1, 4, len(db) - 1):
                    check_prefix(index, db, q.astype(np.int8), k)
            # a prefix view of the round's words, not a copy of them
            assert np.shares_memory(index.packed, snaps[-1][2].packed)
        assert count_groupings == [7, 8, 20, 25]

    def test_index_words_are_read_only_and_its_own(self):
        db = np.ones((4, 70), dtype=np.int8)
        db[2:] = -1
        words = pack_codes(db)
        index = CodeBlock(words, 70)
        check_prefix(index, db, db[3], 2)             # builds the grouping
        with pytest.raises(ValueError, match="read-only"):
            index.packed[0, 0] = 0
        # the caller's array stays writable, and a write to it, here one
        # that also sets a bit past r, reaches neither the words nor the
        # kept grouping
        assert words.flags.writeable
        words[:] = np.uint64(2 ** 64 - 1)
        assert np.array_equal(index.packed, pack_codes(db))
        for q in db:
            check_prefix(index, db, q, 3)

    def test_read_only_words_are_not_copied(self):
        words = pack_codes(np.ones((3, 64), dtype=np.int8))
        words.setflags(write=False)
        assert CodeBlock(words, 64).packed is words


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
