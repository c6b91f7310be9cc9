"""Tags held as a CSR matrix: the residual norm identity, the one
conversion, and the boundary's 0/1 check on the nonzeros."""
import copy
import pickle

import numpy as np
import pytest
import scipy.sparse

from taghash.engine import StreamTrainer
from taghash.model import (AccumStats, Hyperparams, RoundData, RoundWork,
                           tag_residual_sq)
from taghash.optimizer import compute_reweights
from taghash.semantics import EmbeddingTable, pool_semantics, tag_matrix
from taghash.synthetic import make_cluster_stream

from conftest import make_state, random_codes
from oracles import row_sq_norms


def identity_norms(y, b, w):
    """tag_residual_sq with ||y_i||^2 and W Y' formed from y directly."""
    y_sq = np.sum(y * y, axis=1)
    return tag_residual_sq(y_sq, b, w, w @ y.T)


def round_norms(chunk, b, w):
    """The tag residual row norms a round's workspace forms from the CSR
    tags."""
    (r, c), m, f = w.shape, chunk.phi.shape[1], chunk.z.shape[1]
    hyper = Hyperparams(r=r, m=m, f=f, c=c)
    return RoundWork(chunk, AccumStats.zeros(hyper), make_state(hyper), w,
                     b).tag_sq


class TestResidualNormIdentity:
    def test_real_valued_dense_tags(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(50, 7))
        b = random_codes(rng, 50, 5)
        w = rng.normal(size=(5, 7))
        got = identity_norms(y, b, w)
        assert np.allclose(got, row_sq_norms(y, b, w), rtol=1e-12, atol=0)

    def test_csr_tags_of_a_round(self):
        rng = np.random.default_rng(1)
        dense = (rng.random((60, 40)) < 0.08).astype(np.int8)
        chunk = RoundData(phi=np.zeros((60, 3)), y=dense,
                          z=np.zeros((60, 2)))
        b = random_codes(rng, 60, 8)
        w = rng.normal(size=(8, 40))
        got = round_norms(chunk, b, w)
        assert np.allclose(got, row_sq_norms(dense, b, w), rtol=1e-12,
                           atol=0)

    def test_tagless_rows(self):
        rng = np.random.default_rng(2)
        y = np.zeros((20, 6))
        y[::3, 1] = 1.0
        chunk = RoundData(phi=np.zeros((20, 3)), y=y, z=np.zeros((20, 2)))
        b = random_codes(rng, 20, 4)
        w = rng.normal(size=(4, 6))
        got = round_norms(chunk, b, w)
        assert np.allclose(got, row_sq_norms(y, b, w), rtol=1e-12, atol=0)
        tagless = np.any(y, axis=1) == 0
        assert np.allclose(got[tagless], np.sum((b @ w)[tagless] ** 2, 1),
                           rtol=1e-12, atol=0)

    def test_exact_integer_fit_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        b = random_codes(rng, 30, 6)
        w = rng.integers(-3, 4, size=(6, 9)).astype(float)
        assert np.array_equal(identity_norms(b @ w, b, w), np.zeros(30))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_fit_never_negative_and_floors_the_weights(self, seed):
        # the expansion cancels in floating point; without the clamp some
        # rows come out a little below zero, and their square root is NaN
        rng = np.random.default_rng(seed)
        b = random_codes(rng, 200, 16)
        w = rng.normal(size=(16, 12))
        y = b @ w
        with np.errstate(all="raise"):
            tag_sq = identity_norms(y, b, w)
            k = compute_reweights(tag_sq, 1e-6)
        assert np.all(tag_sq >= 0.0)
        assert np.all(tag_sq <= 1e-12 * np.sum(y * y, axis=1))
        assert np.array_equal(k, np.full(200, 1e6))


class TestOneConversion:
    def test_round_data_holds_float64_csr(self):
        chunk = RoundData(phi=np.zeros((2, 3)),
                          y=np.array([[0, 1, 1], [0, 0, 0]], dtype=np.int8),
                          z=np.zeros((2, 2)))
        assert isinstance(chunk.y, scipy.sparse.csr_array)
        assert chunk.y.dtype == np.float64
        assert np.array_equal(chunk.y.toarray(), [[0, 1, 1], [0, 0, 0]])
        assert np.array_equal(chunk.y_sq, [2.0, 0.0])
        again = RoundData(phi=chunk.phi, y=chunk.y, z=chunk.z)
        assert again.y is chunk.y

    @pytest.mark.parametrize("dtype", [np.int8, bool, np.float64])
    def test_same_csr_as_scipy_builds(self, dtype):
        rng = np.random.default_rng(6)
        y = (rng.random((50, 17)) < 0.2).astype(dtype)
        y[7] = 0
        view = y[:, ::-1]            # not contiguous
        got = tag_matrix(view)
        want = scipy.sparse.csr_array(view, dtype=np.float64)
        assert got.shape == want.shape and got.dtype == want.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_pool_semantics_same_bytes_dense_and_csr(self):
        rng = np.random.default_rng(4)
        table = EmbeddingTable(vectors=rng.normal(size=(30, 5)))
        y = (rng.random((40, 30)) < 0.1).astype(np.int8)
        y[3] = 0
        dense = pool_semantics(y, table)
        sparse = pool_semantics(scipy.sparse.csr_array(y), table)
        assert dense.z.tobytes() == sparse.z.tobytes()
        assert np.array_equal(dense.valid_mask, sparse.valid_mask)
        assert np.array_equal(dense.valid_mask, y.any(axis=1))

    def test_tag_dtypes_give_the_same_codes(self):
        stream = make_cluster_stream(n_rounds=2, n_per_round=40, d=6, f=4,
                                     n_queries=5, seed=5)
        hyper = Hyperparams(r=8, m=10, f=4, c=9, iters=2, dcc_sweeps=1)
        runs = []
        for as_tags in (lambda y: y.astype(np.int8),
                        lambda y: y.astype(bool),
                        lambda y: y.astype(np.float64)):
            trainer = StreamTrainer(hyper, stream.table, seed=0)
            for x, y in stream.chunks:
                trainer.process_chunk(x, as_tags(y))
            runs.append([cb.dense.tobytes() for cb in trainer.code_blocks]
                        + [trainer.state.p.tobytes()])
        assert all(run == runs[0] for run in runs[1:])


class TestNonFiniteTags:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refused_before_anything_changes(self, value):
        stream = make_cluster_stream(n_rounds=2, n_per_round=30, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=10, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=0)

        def bad(x, y):
            y = y.astype(np.float64)
            y[4, 1] = value
            return x, y

        with pytest.raises(ValueError, match="tags must be 0 or 1"):
            trainer.process_chunk(*bad(*stream.chunks[0]))
        assert trainer.state is None
        trainer.process_chunk(*stream.chunks[0])
        before = copy.deepcopy((trainer.state, trainer.stats,
                                trainer.code_blocks, trainer.p_history))
        with pytest.raises(ValueError, match="tags must be 0 or 1"):
            trainer.process_chunk(*bad(*stream.chunks[1]))
        after = (trainer.state, trainer.stats, trainer.code_blocks,
                 trainer.p_history)
        assert pickle.dumps(after) == pickle.dumps(before)
