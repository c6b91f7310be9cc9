import numpy as np
import pytest

from taghash import codes
from taghash.codes import CodeBlock, hamming_distances, pack_codes
from taghash.kernel import AnchorSet
from taghash.model import Hyperparams, ModelState
from taghash.retrieval import (RetrievalIndex, hamming_rank, hash_queries,
                               round_snapshots, snapshot_index)

from conftest import make_state, random_codes
from oracles import dense_rank, unpack_codes


class TestPacking:
    @pytest.mark.parametrize("r", [1, 7, 8, 63, 64, 65, 96, 128])
    def test_roundtrip(self, r):
        rng = np.random.default_rng(r)
        dense = random_codes(rng, 20, r).astype(np.int8)
        packed = pack_codes(dense)
        assert packed.shape == (20, (r + 63) // 64)
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
        return RetrievalIndex(packed=pack_codes(dense), r=dense.shape[1])

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
        with pytest.raises(ValueError):
            hamming_rank(np.zeros(2, dtype=np.uint64), index)



class TestRetrievalIndexShapes:
    @pytest.mark.parametrize("packed, r, match", [
        (np.zeros((2, 1), dtype=np.uint64), 200,
         r"= 4 columns for r=200, got uint64 \(2, 1\)"),
        (np.zeros(2, dtype=np.uint64), 4, r"got uint64 \(2,\)"),
        (np.zeros((2, 1), dtype=np.int64), 4, r"got int64 \(2, 1\)"),
    ], ids=["r200_in_one_word", "one_d", "int64"])
    def test_packed_words_fit_code_length(self, packed, r, match):
        with pytest.raises(ValueError, match=match):
            RetrievalIndex(packed=packed, r=r)


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


class TestSnapshotIndex:
    def test_concatenates_blocks_in_round_order(self, small_hyper):
        state = make_state(small_hyper)
        rng = np.random.default_rng(11)
        b1 = CodeBlock(random_codes(rng, 3, small_hyper.r).astype(np.int8))
        b2 = CodeBlock(random_codes(rng, 2, small_hyper.r).astype(np.int8))
        index = snapshot_index(state, [b1, b2])
        assert index.size == 5
        dense = unpack_codes(index.packed, small_hyper.r)
        assert np.array_equal(dense[:3], b1.dense)
        assert np.array_equal(dense[3:], b2.dense)

    def test_empty_snapshot(self, small_hyper):
        state = make_state(small_hyper)
        index = snapshot_index(state, [])
        assert index.size == 0
        assert index.packed.shape == (0, 1)


class TestRoundSnapshots:
    hyper = Hyperparams(r=70, m=6, f=3, c=5)

    def blocks(self, sizes, seed=12):
        rng = np.random.default_rng(seed)
        return [CodeBlock(random_codes(rng, n, self.hyper.r).astype(np.int8))
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
            assert snap.round_index == rnd and snap.total_seen == len(dense)
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
        packed_rows = []
        real = codes.pack_codes

        def counting(dense):
            packed_rows.append(len(dense))
            return real(dense)

        monkeypatch.setattr(codes, "pack_codes", counting)
        blocks = self.blocks([3, 1, 4, 2])
        round_snapshots(make_state(self.hyper), blocks,
                        [np.zeros((self.hyper.m, self.hyper.r))] * 4)
        assert packed_rows == [3, 1, 4, 2]
        snapshot_index(make_state(self.hyper), blocks)
        assert packed_rows == [3, 1, 4, 2]
