import re
import tracemalloc

import numpy as np
import pytest

from taghash import codes, retrieval
from taghash.codes import (CodeBlock, hamming_distances, pack_codes,
                           unpack_codes)
from taghash.kernel import AnchorSet, rbf_map
from taghash.model import Hyperparams, ModelState
from taghash.retrieval import (hamming_rank, hash_queries, round_snapshots,
                               snapshot_index)

from conftest import code_block, make_state, random_codes
from oracles import dense_rank


class TestPacking:
    @pytest.mark.parametrize("r", [1, 7, 8, 63, 64, 65, 96, 128])
    def test_roundtrip(self, r):
        rng = np.random.default_rng(r)
        dense = random_codes(rng, 20, r).astype(np.int8)
        packed = pack_codes(dense)
        assert packed.shape == (20, -(-r // 64))
        assert np.array_equal(unpack_codes(packed, r), dense)

    def test_padding_bits_are_zero(self):
        dense = np.ones((3, 10), dtype=np.int8)
        packed = pack_codes(dense)
        assert np.all(packed == np.uint64((1 << 10) - 1))

    def test_known_words(self):
        dense = np.array([[1, -1, 1, -1]], dtype=np.int8)
        assert pack_codes(dense)[0, 0] == np.uint64(0b0101)

    def test_rejects_zeros(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([[1, 0, -1]]))

    def test_word_count_mismatch(self):
        with pytest.raises(ValueError):
            unpack_codes(np.zeros((2, 2), dtype=np.uint64), 10)


class TestCodeBlock:
    def test_holds_words_and_derives_dense(self):
        dense = random_codes(np.random.default_rng(3), 6, 70).astype(np.int8)
        block = CodeBlock(pack_codes(dense), 70)
        assert block.n == 6 and block.packed.shape == (6, 2)
        assert block.dense.dtype == np.int8
        assert np.array_equal(block.dense, dense)
        # derived afresh, never cached
        assert block.dense is not block.dense
        assert [f for f in vars(block)] == ["packed", "r"]

    @pytest.mark.parametrize("words, r", [
        (np.zeros((3, 2), dtype=np.uint64), 64),
        (np.zeros((3, 1), dtype=np.uint64), 65),
        (np.zeros((3, 1), dtype=np.int64), 8),
        (np.zeros(3, dtype=np.uint64), 8),
        (np.ones((3, 8), dtype=np.int8), 8),
        (np.zeros((2, 1), dtype=np.uint64), 200),
        (np.zeros(2, dtype=np.uint64), 4),
        (np.zeros((2, 1), dtype=np.int64), 4),
        (np.array([[1 << 63], [0]], dtype=np.uint64), 63)])
    def test_refuses_words_that_do_not_fit_r(self, words, r):
        # the message names the word count, r and the refused words, e.g.
        # "= 4 columns for r=200, got uint64 (2, 1)", or, for words of the
        # right shape, the padding bit that is set
        with pytest.raises(ValueError, match=f" r={r}") as refused:
            CodeBlock(words, r)
        if words.dtype == np.uint64 and words.shape[1:] == (-(-r // 64),):
            assert str(refused.value) == f"a packed code sets bits past r={r}"
        else:
            assert re.search(
                rf"= {-(-r // 64)} columns for r={r}, got {words.dtype} "
                + re.escape(str(words.shape)) + "$", str(refused.value))


class TestHammingDistances:
    def test_identical_is_zero_and_complement_is_r(self):
        rng = np.random.default_rng(1)
        for r in (8, 64, 96):
            dense = random_codes(rng, 5, r).astype(np.int8)
            packed = pack_codes(dense)
            flipped = pack_codes(-dense)
            assert np.all(hamming_distances(packed[0], packed[:1]) == 0)
            assert np.all(
                hamming_distances(packed[0], flipped[:1]) == r)

    def test_single_bit_difference(self):
        a = np.ones((1, 70), dtype=np.int8)
        b = a.copy()
        b[0, 66] = -1  # flipped bit lives in the second word
        d = hamming_distances(pack_codes(a)[0], pack_codes(b))
        assert d[0] == 1

    @pytest.mark.parametrize("r", [3, 16, 64, 96, 192, 193, 300])
    def test_matches_dense_disagreement_count(self, r):
        rng = np.random.default_rng(r + 100)
        db = random_codes(rng, 40, r).astype(np.int8)
        q = random_codes(rng, 1, r).astype(np.int8)[0]
        got = hamming_distances(pack_codes(q[None, :])[0], pack_codes(db))
        want = np.sum(db != q, axis=1)
        # narrowest dtype holding words * 64: uint8 up to three words
        assert got.dtype == (np.uint8 if r <= 192 else np.uint16)
        assert np.array_equal(got, want)


class TestHammingRank:
    def build_index(self, dense):
        return CodeBlock(pack_codes(dense), dense.shape[1])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for r in (8, 64, 96):
            db = random_codes(rng, 60, r).astype(np.int8)
            q = random_codes(rng, 1, r).astype(np.int8)[0]
            index = self.build_index(db)
            ids, dists = hamming_rank(pack_codes(q[None, :])[0], index)
            want_ids, want_dists = dense_rank(q, db)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(dists, want_dists)

    def test_ties_keep_insertion_order(self):
        # four identical codes all tie at distance 0
        db = np.tile(np.array([1, -1, 1], dtype=np.int8), (4, 1))
        index = self.build_index(db)
        rows, dists = hamming_rank(pack_codes(db[:1])[0], index)
        assert rows.dtype == np.int64
        assert rows.tolist() == [0, 1, 2, 3]
        assert dists.tolist() == [0, 0, 0, 0]

    def test_top_k_truncation(self):
        rng = np.random.default_rng(8)
        db = random_codes(rng, 30, 16).astype(np.int8)
        index = self.build_index(db)
        q = pack_codes(db[:1])[0]
        full_ids, full_d = hamming_rank(q, index)
        top_ids, top_d = hamming_rank(q, index, k=5)
        assert np.array_equal(top_ids, full_ids[:5])
        assert np.array_equal(top_d, full_d[:5])
        ids0, d0 = hamming_rank(q, index, k=0)
        assert len(ids0) == 0 and len(d0) == 0

    def test_k_larger_than_db(self):
        db = np.ones((3, 4), dtype=np.int8)
        index = self.build_index(db)
        ids, _ = hamming_rank(pack_codes(db[:1])[0], index, k=50)
        assert len(ids) == 3

    @pytest.mark.parametrize("k", [-1, -5, 2.0, "3", True])
    def test_bad_k_rejected(self, k):
        db = np.ones((3, 4), dtype=np.int8)
        index = self.build_index(db)
        with pytest.raises(ValueError):
            hamming_rank(pack_codes(db[:1])[0], index, k=k)

    def test_numpy_integer_k(self):
        db = np.ones((3, 4), dtype=np.int8)
        index = self.build_index(db)
        ids, _ = hamming_rank(pack_codes(db[:1])[0], index, k=np.int64(2))
        assert ids.tolist() == [0, 1]

    def test_word_length_mismatch(self):
        db = np.ones((3, 4), dtype=np.int8)
        index = self.build_index(db)
        with pytest.raises(ValueError,
                           match="query code length does not match index"):
            hamming_rank(np.zeros(2, dtype=np.uint64), index)

    @pytest.mark.parametrize("query", [np.uint64(0),
                                       np.zeros((1, 1), dtype=np.uint64)],
                             ids=["scalar", "2-D"])
    def test_query_that_is_not_one_row_rejected(self, query):
        index = self.build_index(np.ones((3, 4), dtype=np.int8))
        with pytest.raises(ValueError,
                           match="query code length does not match index"):
            hamming_rank(query, index, 2)


def at_distances(query, dists):
    """Rows at the given Hamming distances from a +-1 query: row i flips
    the query's first dists[i] bits."""
    rows = np.tile(query, (len(dists), 1))
    for row, t in zip(rows, dists):
        row[:t] *= -1
    return rows


def rank_both(query, db, k):
    """hamming_rank's (rows, dists) and the dense oracle's top-k prefix."""
    index = CodeBlock(pack_codes(db), db.shape[1])
    got = hamming_rank(pack_codes(query[None, :])[0], index, k)
    want_idx, want_d = dense_rank(query, db)
    take = len(db) if k is None else min(k, len(db))
    return got, (want_idx[:take], want_d[:take])


class TestTopKCut:
    """The k-th distance search: cuts at 0, at r, past the gallop's last
    cut below r, and between two galloped cuts."""

    @pytest.mark.parametrize("r", [1, 64, 300])
    def test_every_row_the_complement_cuts_at_r(self, r):
        q = random_codes(np.random.default_rng(r), 1, r).astype(np.int8)[0]
        db = np.tile(-q, (5, 1))
        for k in (1, 4):
            (rows, dists), (want_rows, want_d) = rank_both(q, db, k)
            assert rows.tolist() == list(range(k)) == want_rows.tolist()
            assert dists.tolist() == [r] * k == want_d.tolist()

    @pytest.mark.parametrize("r", [7, 64, 130])
    def test_exactly_k_rows_at_distance_zero(self, r):
        q = random_codes(np.random.default_rng(r), 1, r).astype(np.int8)[0]
        dists = [3, 0, 1, 0, 5, 2, 0, 1]
        db = at_distances(q, dists)
        (rows, d), _ = rank_both(q, db, 3)
        assert rows.tolist() == [1, 3, 6]
        assert d.tolist() == [0, 0, 0]
        (rows, d), _ = rank_both(q, db, 4)
        assert rows.tolist() == [1, 3, 6, 2]
        assert d.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("at", [0, 9])
    def test_all_tied_keeps_the_first_n_minus_1(self, at):
        q = random_codes(np.random.default_rng(at), 1, 64).astype(np.int8)[0]
        db = at_distances(q, [at] * 12)
        (rows, d), _ = rank_both(q, db, 11)
        assert rows.tolist() == list(range(11))
        assert d.tolist() == [at] * 11

    @pytest.mark.parametrize("r", [1, 7, 63, 64, 65, 300])
    def test_every_cut_and_k_matches_the_oracle(self, r):
        # one row at each distance 0..r, in a shuffled order, with a tie
        # at every fourth distance: every cut value and both sides of it.
        # r = 300 ranks uint16 distances, and k >= 321 puts the cut past
        # 255, the gallop's last cut below its cap at r
        rng = np.random.default_rng(r)
        q = random_codes(rng, 1, r).astype(np.int8)[0]
        dists = list(range(r + 1)) + list(range(0, r + 1, 4))
        db = at_distances(q, rng.permutation(dists))
        ks = range(len(db)) if r < 100 else [1, 2, 255, 256, 300, 320, 321,
                                            330, len(db) - 1]
        for k in ks:
            (rows, d), (want_rows, want_d) = rank_both(q, db, k)
            assert rows.tolist() == want_rows.tolist(), k
            assert d.tolist() == want_d.tolist(), k


class TestQueryRefused:
    def index(self, r):
        db = random_codes(np.random.default_rng(r), 4, r).astype(np.int8)
        return CodeBlock(pack_codes(db), r)

    def test_bit_past_r_is_refused(self):
        q = np.array([1 << 63], dtype=np.uint64)
        with pytest.raises(ValueError, match="query code sets bits past r=63"):
            hamming_rank(q, self.index(63), 2)

    @pytest.mark.parametrize("word", [np.array([1.5]), np.array([-1]),
                                      np.array([1], dtype=np.int64),
                                      np.array([1], dtype=np.uint32)])
    def test_non_uint64_word_is_refused(self, word):
        with pytest.raises(ValueError, match="query code: packed codes must "
                                             "be 2-D uint64"):
            hamming_rank(word, self.index(64), 2)

    def test_refused_for_a_full_ranking_too(self):
        with pytest.raises(ValueError, match="query code"):
            hamming_rank(np.array([-1]), self.index(64))

    def test_top_word_of_a_full_width_code_is_accepted(self):
        index = self.index(64)
        q = np.array([np.uint64(1) << np.uint64(63)], dtype=np.uint64)
        rows, _ = hamming_rank(q, index)
        assert sorted(rows.tolist()) == [0, 1, 2, 3]


class TestHashQueries:
    def state_with_projection(self, p, anchors, width=1.0):
        h = Hyperparams(r=p.shape[1], m=p.shape[0], f=2, c=2)
        aset = AnchorSet(anchors, kernel_width=width)
        state = ModelState.fresh(aset, h)
        state.p = p
        return state

    def test_zero_projection_gives_all_plus_one(self):
        state = self.state_with_projection(
            np.zeros((2, 4)), np.array([[0.0], [1.0]]))
        block = hash_queries(np.array([[0.3], [2.0]]), state)
        assert np.all(block.dense == 1)

    def test_sign_of_projected_kernel_features(self):
        rng = np.random.default_rng(9)
        anchors = rng.normal(size=(5, 3))
        p = rng.normal(size=(5, 8))
        state = self.state_with_projection(p, anchors, width=1.3)
        x = rng.normal(size=(10, 3))
        block = hash_queries(x, state)
        d2 = np.sum((x[:, None, :] - anchors[None, :, :]) ** 2, axis=2)
        phi = np.exp(-d2 / (2 * 1.3 ** 2))
        want = np.where(phi @ p >= 0, 1, -1)
        assert np.array_equal(block.dense, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        state = self.state_with_projection(
            np.ones((2, 4)), np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="NaN or inf"):
            hash_queries(np.array([[0.3], [bad]]), state)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        state = self.state_with_projection(
            rng.normal(size=(4, 6)), rng.normal(size=(4, 2)))
        x = rng.normal(size=(7, 2))
        a = hash_queries(x, state)
        b = hash_queries(x, state)
        assert np.array_equal(a.dense, b.dense)

    B = retrieval._BLOCK

    def blocked_state(self, d=16, m=64, r=70, seed=13):
        rng = np.random.default_rng(seed)
        return self.state_with_projection(
            rng.normal(size=(m, r)), rng.normal(size=(m, d)),
            width=np.sqrt(2 * d))

    def clear_rows(self, state, n, seed=14):
        """n rows whose every projection lies at least 1e-6 from 0, so no
        code can hang on the last bits of a product."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2 * n + 10, state.anchors.d))
        proj = rbf_map(x, state.anchors) @ state.p
        return x[np.min(np.abs(proj), axis=1) > 1e-6][:n]

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_codes_do_not_depend_on_the_block(self, n):
        state = self.blocked_state()
        x = self.clear_rows(state, n)
        assert len(x) == n
        want = np.where(rbf_map(x, state.anchors) @ state.p >= 0, 1, -1)
        block = hash_queries(x, state)
        assert block.packed.shape == (n, 2)
        assert np.array_equal(block.dense, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_in_the_last_block_rejected(self, bad):
        state = self.blocked_state()
        x = np.random.default_rng(15).normal(size=(2 * self.B + 3, 16))
        x[-1, 5] = bad
        with pytest.raises(ValueError, match="features contain NaN or inf"):
            hash_queries(x, state)

    @pytest.mark.parametrize("shape", [(0,), (16,), (3 * B,), (5, 17),
                                       (2 * B + 3, 15), (0, 3), (2, 5, 16)])
    def test_features_that_are_not_n_by_d_rejected(self, shape):
        state = self.blocked_state()
        with pytest.raises(ValueError, match=re.escape(
                f"expected (n, 16) features, got {shape}")):
            hash_queries(np.zeros(shape), state)

    def test_block_keeps_its_read_only_words_without_a_copy(self,
                                                            monkeypatch):
        given = []

        def recording(words, r):
            given.append(words)
            return CodeBlock(words, r)

        monkeypatch.setattr(retrieval, "CodeBlock", recording)
        state = self.blocked_state()
        block = hash_queries(self.clear_rows(state, self.B + 1), state)
        assert block.packed is given[0]
        assert not block.packed.flags.writeable

    def test_memory_is_bounded_by_the_block_not_the_rows(self):
        state = self.blocked_state()
        rng = np.random.default_rng(16)
        small = rng.normal(size=(self.B, 16))
        large = rng.normal(size=(50_000, 16))

        def peak(x):
            tracemalloc.start()
            try:
                hash_queries(x, state)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        words = large.shape[0] * 2 * 8
        # measured: 1.19 MB at B rows and 1.99 MB at 50,000 (0.8 MB of them
        # the words), against a bound of 3.17 MB; hashing the 50,000 rows in
        # one piece peaks at 57 MB
        assert peak(large) <= 2 * peak(small) + words


class TestSnapshotIndex:
    def test_concatenates_blocks_in_round_order(self, small_hyper):
        state = make_state(small_hyper)
        rng = np.random.default_rng(11)
        b1 = code_block(random_codes(rng, 3, small_hyper.r))
        b2 = code_block(random_codes(rng, 2, small_hyper.r))
        index = snapshot_index(state, [b1, b2])
        assert isinstance(index, CodeBlock) and index.n == 5
        dense = unpack_codes(index.packed, small_hyper.r)
        assert np.array_equal(dense[:3], b1.dense)
        assert np.array_equal(dense[3:], b2.dense)

    def test_empty_snapshot(self, small_hyper):
        state = make_state(small_hyper)
        index = snapshot_index(state, [])
        assert index.n == 0
        assert index.packed.shape == (0, 1)


class TestRoundSnapshots:
    hyper = Hyperparams(r=70, m=6, f=3, c=5)

    def blocks(self, sizes, seed=12):
        rng = np.random.default_rng(seed)
        return [code_block(random_codes(rng, n, self.hyper.r))
                for n in sizes]

    def test_every_round_indexes_its_packed_prefix(self):
        state = make_state(self.hyper)
        blocks = self.blocks([3, 1, 4, 2])
        p_history = [np.full((self.hyper.m, self.hyper.r), float(i))
                     for i in range(len(blocks))]
        snaps = round_snapshots(state, blocks, p_history)
        assert [rnd for rnd, _, _ in snaps] == [1, 2, 3, 4]
        for rnd, snap, index in snaps:
            dense = np.concatenate([b.dense for b in blocks[:rnd]])
            assert index.packed.dtype == np.uint64
            assert np.array_equal(index.packed, pack_codes(dense))
            assert index.n == len(dense)
            assert np.array_equal(snap.p, p_history[rnd - 1])
        full = snapshot_index(state, blocks)
        assert np.array_equal(full.packed, snaps[-1][2].packed)

    @pytest.mark.parametrize("projections", [1, 3])
    def test_one_projection_per_block(self, projections):
        # a checkpoint may hold more code blocks than projections (a served
        # database), but a MAP curve needs one projection for every round
        p_history = [np.zeros((self.hyper.m, self.hyper.r))] * projections
        with pytest.raises(ValueError,
                           match=f"{projections} round projections for 2 "
                                 f"code blocks"):
            round_snapshots(make_state(self.hyper), self.blocks([3, 1]),
                            p_history)

    def test_packs_each_block_once(self, monkeypatch):
        # each block is packed when it is built, and never again
        packed_rows = []
        real = codes.pack_signs

        def counting(positive):
            packed_rows.append(len(positive))
            return real(positive)

        monkeypatch.setattr(codes, "pack_signs", counting)
        blocks = self.blocks([3, 1, 4, 2])
        round_snapshots(make_state(self.hyper), blocks,
                        [np.zeros((self.hyper.m, self.hyper.r))] * 4)
        assert packed_rows == [3, 1, 4, 2]
        snapshot_index(make_state(self.hyper), blocks)
        assert packed_rows == [3, 1, 4, 2]
