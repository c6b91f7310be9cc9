import copy
import pickle

import numpy as np
import pytest

from taghash import kernel
from taghash.engine import StreamTrainer
from taghash.kernel import (AnchorSet, DegenerateKernelError,
                            InsufficientDataError, build_anchor_set, rbf_map,
                            select_anchors)
from taghash.model import AccumStats, Hyperparams, ModelState, RoundData
from taghash.optimizer import run_round
from taghash.semantics import pool_semantics
from taghash.synthetic import make_cluster_stream


class TestSelectAnchors:
    def test_sampling_all_rows_returns_every_row(self):
        x = np.arange(8.0).reshape(4, 2)
        anchors = select_anchors(x, 4, seed=0)
        assert sorted(anchors.tolist()) == sorted(x.tolist())

    def test_degenerate_identical_rows(self):
        x = np.tile([1.5, -2.0], (6, 1))
        anchors = select_anchors(x, 2, seed=3)
        assert np.array_equal(anchors, np.tile([1.5, -2.0], (2, 1)))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 8))
        a = select_anchors(x, 10, seed=7)
        b = select_anchors(x, 10, seed=7)
        assert np.array_equal(a, b)

    def test_distinct_rows_without_replacement(self):
        x = np.arange(50.0).reshape(25, 2)
        anchors = select_anchors(x, 25, seed=1)
        assert len(np.unique(anchors, axis=0)) == 25

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            select_anchors(np.zeros((3, 2)), 4, seed=0)


def width(x, m, seed=0):
    return build_anchor_set(x, m, seed)[0].kernel_width


class TestKernelWidth:
    # build_anchor_set's width: the mean distance over all (sample, anchor)
    # pairs, the anchors drawn from the samples

    def test_single_pair_345(self):
        # one pair 5 apart, each way, and two zero self-pairs
        assert width([[0.0, 0.0], [3.0, 4.0]], 2) == 2.5

    def test_symmetric_two_point(self):
        assert width([[0.0], [2.0]], 2) == 1.0

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 8))
        anchors = build_anchor_set(x, 5, seed=3)[0].anchors
        total = 0.0
        for i in range(50):
            for j in range(5):
                total += np.sqrt(np.sum((x[i] - anchors[j]) ** 2))
        expected = total / (50 * 5)
        assert width(x, 5, seed=3) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariant(self):
        # with m = n every row is an anchor, whatever the seed draws
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 3))
        assert width(x[::-1], 12, seed=5) == pytest.approx(
            width(x, 12), rel=1e-14)

    def test_all_identical_is_degenerate(self):
        for n in (1, 3):
            with pytest.raises(DegenerateKernelError):
                build_anchor_set(np.ones((n, 2)), 1, seed=0)


class TestFirstChunkFeatures:
    @pytest.mark.parametrize("dtype, n, m", [
        (np.float64, 40, 8), (np.float32, 40, 8), (np.float64, 12, 12)])
    def test_phi_byte_equal_to_rbf_map(self, dtype, n, m):
        x = np.random.default_rng(n + m).normal(size=(n, 6)).astype(dtype)
        aset, phi = build_anchor_set(x, m, seed=2)
        want = rbf_map(x, aset)
        assert phi.dtype == want.dtype and phi.shape == want.shape
        assert phi.tobytes() == want.tobytes()

    def test_first_round_forms_one_distance_matrix(self, monkeypatch):
        calls = []
        pairwise = kernel._pairwise_dists

        def counted(*args):
            calls.append(args[0].shape)
            return pairwise(*args)

        monkeypatch.setattr(kernel, "_pairwise_dists", counted)
        stream = make_cluster_stream(n_rounds=2, n_per_round=30, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=10, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=0)
        trainer.process_chunk(*stream.chunks[0])
        assert calls == [(30, 6)]
        trainer.process_chunk(*stream.chunks[1])
        assert calls == [(30, 6), (30, 6)]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_first_round_equals_run_round_on_rbf_map(self, seed):
        stream = make_cluster_stream(n_rounds=1, n_per_round=40, d=6, f=4,
                                     n_queries=5, seed=seed)
        hyper = Hyperparams(r=8, m=10, f=4, c=9, iters=2, dcc_sweeps=1)
        x, y = stream.chunks[0]
        trainer = StreamTrainer(hyper, stream.table, seed=seed)
        codes, trace = trainer.process_chunk(x, y)

        anchors = build_anchor_set(x, hyper.m, seed)[0]
        state = ModelState.fresh(anchors, hyper)
        stats = AccumStats.zeros(hyper)
        chunk = RoundData(phi=rbf_map(x, anchors), y=y,
                          z=pool_semantics(y, stream.table).z)
        want_codes, want_trace = run_round(state, stats, chunk, [seed, 0], 0)
        assert trace == want_trace
        assert codes.packed.tobytes() == want_codes.packed.tobytes()
        assert pickle.dumps((trainer.state, trainer.stats)) == pickle.dumps(
            (state, stats))


class TestRbfMap:
    def test_sample_equal_to_anchor_maps_to_one(self):
        aset = AnchorSet([[1.0, 2.0], [5.0, 5.0]], kernel_width=2.0)
        phi = rbf_map([[1.0, 2.0]], aset)
        assert phi[0, 0] == 1.0
        assert 0.0 < phi[0, 1] < 1.0

    def test_distance_sigma_sqrt2_gives_e_inverse(self):
        sigma = 1.5
        aset = AnchorSet([[0.0]], kernel_width=sigma)
        phi = rbf_map([[sigma * np.sqrt(2.0)]], aset)
        assert phi[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 4))
        anchors = rng.normal(size=(3, 4))
        aset = AnchorSet(anchors, kernel_width=1.7)
        phi = rbf_map(x, aset)
        for i in range(20):
            for j in range(3):
                dist2 = float(np.sum((x[i] - anchors[j]) ** 2))
                expected = np.exp(-dist2 / (2.0 * 1.7 ** 2))
                assert phi[i, j] == pytest.approx(expected, abs=1e-14)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(9)
        aset = build_anchor_set(rng.normal(size=(40, 6)), 8, seed=0)[0]
        phi = rbf_map(rng.normal(size=(30, 6)), aset)
        assert np.all(phi > 0.0) and np.all(phi <= 1.0)

    def test_monotone_in_distance(self):
        aset = AnchorSet([[0.0]], kernel_width=1.0)
        dists = np.linspace(0.0, 5.0, 20)[:, None]
        phi = rbf_map(dists, aset)[:, 0]
        assert np.all(np.diff(phi) < 0.0)

    def test_dimension_mismatch(self):
        aset = AnchorSet([[0.0, 0.0]], kernel_width=1.0)
        with pytest.raises(ValueError):
            rbf_map(np.zeros((3, 3)), aset)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        aset = AnchorSet([[0.0, 0.0]], kernel_width=1.0)
        x = np.zeros((3, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            rbf_map(x, aset)

    def test_byte_equal_to_norms_recomputed_per_call(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 6))
        anchors = rng.normal(size=(7, 6))
        aset = AnchorSet(anchors, kernel_width=1.3)
        d = 2.0 * x @ anchors.T
        d = np.sum(x * x, axis=1)[:, None] - d
        d += np.sum(anchors * anchors, axis=1)[None, :]
        d = np.sqrt(np.maximum(d, 0.0))
        want = np.exp(-(d * d) / (2.0 * 1.3 ** 2))
        assert rbf_map(x, aset).tobytes() == want.tobytes()


class TestAnchorNorms:
    def test_cached_norms_are_read_only(self):
        aset = AnchorSet([[3.0, 4.0], [1.0, 0.0]], kernel_width=1.0)
        assert aset.sq_norms.tolist() == [25.0, 1.0]
        assert not aset.sq_norms.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            aset.sq_norms[0] = 0.0

    def test_resumed_anchor_set_equals_the_original(self, tmp_path):
        stream = make_cluster_stream(n_rounds=2, n_per_round=30, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=10, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=0)
        for x, y in stream.chunks:
            trainer.process_chunk(x, y)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        resumed = StreamTrainer.from_checkpoint(path, stream.table)
        want, got = vars(trainer.state.anchors), vars(resumed.state.anchors)
        assert sorted(got) == sorted(want)
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[name].dtype == value.dtype
                assert got[name].shape == value.shape
                assert got[name].tobytes() == value.tobytes(), name
            else:
                assert got[name] == value, name


class TestTrainerInput:
    def test_non_finite_chunk_rejected_before_training(self):
        stream = make_cluster_stream(n_rounds=2, n_per_round=30, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=10, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=0)
        trainer.process_chunk(*stream.chunks[0])
        x, y = stream.chunks[1]
        x = x.copy()
        x[3, 2] = np.nan
        with pytest.raises(ValueError, match="NaN or inf"):
            trainer.process_chunk(x, y)
        assert len(trainer.p_history) == 1
        assert len(trainer.code_blocks) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_first_chunk_rejected_before_anchors(self, bad):
        # the first chunk builds the anchor set, which must reject it with
        # the same message rbf_map gives, not a kernel-width error
        stream = make_cluster_stream(n_rounds=1, n_per_round=30, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=10, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=0)
        x, y = stream.chunks[0]
        x = x.copy()
        x[3, 2] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            trainer.process_chunk(x, y)
        assert trainer.state is None
        assert trainer.code_blocks == []

    @pytest.mark.parametrize("seed", range(6))
    def test_first_chunk_too_large_for_the_kernel_rejected(self, seed):
        # one huge entry overflows the distances, whether or not its row is
        # an anchor; the width is refused before any state exists, with no
        # overflow warning on the way
        stream = make_cluster_stream(n_rounds=1, n_per_round=100, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=20, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=seed)
        x, y = stream.chunks[0]
        x = x.copy()
        x[57, 1] = 1e200
        with pytest.raises(ValueError, match="features too large for the "
                                             "kernel"):
            trainer.process_chunk(x, y)
        assert trainer.state is None
        assert trainer.code_blocks == []

    # the tag checks run before the anchor set is built, so a refused first
    # chunk leaves no state, and a refused later chunk changes nothing

    @staticmethod
    def refused_everywhere(chunk_of, match):
        """chunk_of(x, y) -> a bad chunk; it must be refused as the first
        chunk and as the second, leaving the trainer as it was."""
        stream = make_cluster_stream(n_rounds=2, n_per_round=30, d=6, f=4,
                                     n_queries=5, seed=4)
        trainer = StreamTrainer(Hyperparams(r=8, m=10, f=4, c=9, iters=2,
                                            dcc_sweeps=1),
                                stream.table, seed=0)
        with pytest.raises(ValueError, match=match):
            trainer.process_chunk(*chunk_of(*stream.chunks[0]))
        assert trainer.state is None
        trainer.process_chunk(*stream.chunks[0])
        before = copy.deepcopy((trainer.state, trainer.stats,
                                trainer.code_blocks, trainer.p_history))
        with pytest.raises(ValueError, match=match):
            trainer.process_chunk(*chunk_of(*stream.chunks[1]))
        after = (trainer.state, trainer.stats, trainer.code_blocks,
                 trainer.p_history)
        assert pickle.dumps(after) == pickle.dumps(before)

    @pytest.mark.parametrize("value", [2, -1])
    def test_tag_values_other_than_0_and_1_rejected(self, value):
        def bad(x, y):
            y = y.copy()
            y[4, 1] = value
            return x, y
        self.refused_everywhere(bad, "tags must be 0 or 1")

    def test_empty_chunk_rejected(self):
        self.refused_everywhere(lambda x, y: (x[:0], y[:0]),
                                "features must be a nonempty")

    def test_fewer_tag_rows_than_features_rejected(self):
        self.refused_everywhere(lambda x, y: (x, y[:-1]),
                                r"tags must be \(30, 9\).*shape \(29, 9\)")
