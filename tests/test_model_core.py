import numpy as np
import pytest

from taghash.model import (AccumStats, Hyperparams, RoundData, RoundWork,
                           commit_round, objective_value)

from conftest import (committed_history, make_state, model_bytes,
                      random_codes, random_round_data, round_work)
from oracles import batch_stats

STAT_KEYS = ("c1", "c2", "c3", "c5", "d1", "d2")


class TestHyperparams:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "theta", "mu",
                                      "epsilon_norm"])
    def test_non_finite_weights_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            Hyperparams(r=4, m=6, f=3, c=5, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("r", 8.0, "r must be an integer >= 1, got 8.0"),
        ("r", 0, "r must be an integer >= 1, got 0"),
        ("r", True, "r must be an integer >= 1, got True"),
        ("m", 0, "m must be an integer >= 1, got 0"),
        ("m", np.int64(6), "m must be an integer >= 1, got np.int64"),
        ("f", "3", "f must be an integer >= 1, got '3'"),
        ("c", 0, "c must be an integer >= 1, got 0"),
        ("iters", 2.5, "iters must be an integer >= 1, got 2.5"),
        ("dcc_sweeps", None, "dcc_sweeps must be an integer >= 1, got None"),
        ("alpha", "300", "alpha must be a nonnegative finite number, got "
                         "'300'"),
        ("beta", None, "beta must be a nonnegative finite number, got None"),
        ("theta", 1j, "theta must be a nonnegative finite number"),
        ("mu", True, "mu must be a nonnegative finite number, got True"),
        ("epsilon_norm", "1e-6", "epsilon_norm must be a positive finite "
                                 "number, got '1e-6'"),
        ("tag_regression", "no", "tag_regression must be a bool, got 'no'"),
        ("tag_regression", 1, "tag_regression must be a bool, got 1"),
    ], ids=["r-float", "r-0", "r-bool", "m-0", "m-numpy", "f-string", "c-0",
            "iters-float", "dcc-sweeps-none", "alpha-string", "beta-none",
            "theta-complex", "mu-bool", "epsilon-string",
            "tag-regression-string", "tag-regression-int"])
    def test_each_field_has_one_type_rule(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            Hyperparams(**{"r": 4, "m": 6, "f": 3, "c": 5, name: value})

    def test_zero_weights_accepted_zero_floor_rejected(self):
        Hyperparams(r=4, m=6, f=3, c=5, alpha=0.0, beta=0.0, theta=0.0,
                    mu=0.0)
        with pytest.raises(ValueError, match="epsilon_norm"):
            Hyperparams(r=4, m=6, f=3, c=5, epsilon_norm=0.0)


class TestCommitRound:
    def test_orthogonal_codes_contribution(self, small_hyper):
        h = Hyperparams(r=2, m=3, f=2, c=2)
        state = make_state(h)
        stats = AccumStats.zeros(h)
        b = np.array([[1.0, 1.0], [-1.0, 1.0]])
        chunk = RoundData(phi=np.zeros((2, 3)), y=np.zeros((2, 2)),
                          z=np.zeros((2, 2)))
        commit_round(state, stats,
                     round_work(chunk, stats, state, b, np.ones(2)))
        assert np.array_equal(stats.c1, [[2.0, 0.0], [0.0, 2.0]])

    def test_unit_weights_make_d1_equal_c1(self, small_hyper):
        rng = np.random.default_rng(0)
        state = make_state(small_hyper)
        stats = AccumStats.zeros(small_hyper)
        chunk = random_round_data(rng, 9, small_hyper.m, small_hyper.c,
                                  small_hyper.f)
        b = random_codes(rng, 9, small_hyper.r)
        commit_round(state, stats,
                     round_work(chunk, stats, state, b, np.ones(9)))
        assert np.allclose(stats.d1, stats.c1, atol=1e-12)

    @pytest.mark.parametrize("bad", ["weights", "w", "u", "v", "p"])
    def test_refusal_writes_nothing(self, small_hyper, bad):
        # a zero weight or a non-finite map is refused before the state or
        # the statistics change
        h = small_hyper
        rng = np.random.default_rng(3)
        state, stats, *_ = committed_history(rng, h, 2, 6)
        chunk = random_round_data(rng, 5, h.m, h.c, h.f)
        work = round_work(chunk, stats, state, random_codes(rng, 5, h.r),
                          np.ones(5))
        value = getattr(work, bad).copy()
        value.flat[1] = 0.0 if bad == "weights" else np.nan
        setattr(work, bad, value)
        before = model_bytes(state, stats)
        with pytest.raises(ValueError if bad == "weights"
                           else FloatingPointError):
            commit_round(state, stats, work)
        assert model_bytes(state, stats) == before

    def test_five_chunks_match_batch_oracle(self, small_hyper):
        rng = np.random.default_rng(42)
        _, stats, chunks, codes, weights = committed_history(
            rng, small_hyper, 5, 12)
        ref = batch_stats(chunks, codes, weights, small_hyper)
        for key in STAT_KEYS:
            got, want = getattr(stats, key), ref[key]
            assert np.allclose(got, want, rtol=1e-10), key
        assert np.allclose(stats.c2.T, ref["c4"], rtol=1e-10)
        assert stats.sy_weighted == pytest.approx(ref["sy_weighted"],
                                                  rel=1e-10)
        assert stats.sz == pytest.approx(ref["sz"], rel=1e-10)

    def test_symmetric_psd_accumulators(self, small_hyper):
        rng = np.random.default_rng(2)
        _, stats, *_ = committed_history(rng, small_hyper, 4, 10)
        for a in (stats.c1, stats.c3, stats.d1):
            assert np.allclose(a, a.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(a)) >= -1e-9

    def test_accumulator_sizes_independent_of_rounds(self, small_hyper):
        rng = np.random.default_rng(4)
        _, stats1, *_ = committed_history(rng, small_hyper, 1, 6)
        rng = np.random.default_rng(4)
        _, stats8, *_ = committed_history(rng, small_hyper, 8, 6)
        for key in STAT_KEYS:
            assert getattr(stats1, key).shape == getattr(stats8, key).shape


class TestRoundWork:
    PRODUCTS = ("c1", "c2", "c3", "phi_sq", "w_yt", "tag_sq")

    def assert_fresh(self, work, stats, state, w, b):
        fresh = RoundWork(work.chunk, stats, state, w, b)
        for name in self.PRODUCTS:
            assert np.array_equal(getattr(work, name),
                                  getattr(fresh, name)), name

    def test_changes_give_the_products_of_a_fresh_workspace(
            self, small_hyper):
        # every product read, then the codes and W changed one at a time:
        # the workspace must hold what one built on the new ones holds,
        # and must leave the statistics as they were
        h = small_hyper
        rng = np.random.default_rng(9)
        state, stats, *_ = committed_history(rng, h, 2, 7)
        before = {name: np.copy(getattr(stats, name)) for name in STAT_KEYS}
        chunk = random_round_data(rng, 6, h.m, h.c, h.f)
        b, b2 = random_codes(rng, 6, h.r), random_codes(rng, 6, h.r)
        w, w2 = rng.normal(size=(2, h.r, h.c))
        work = RoundWork(chunk, stats, state, w, b)
        c3 = work.c3
        for name in self.PRODUCTS:
            getattr(work, name)
        work.codes_changed(b2)
        self.assert_fresh(work, stats, state, w, b2)
        work.w_changed(w2)
        self.assert_fresh(work, stats, state, w2, b2)
        assert work.c3 is c3
        for name in STAT_KEYS:
            assert np.array_equal(getattr(stats, name), before[name]), name


def batch_objective(state, chunks, codes, weights, cur_chunk, cur_b, cur_k):
    """From-scratch evaluator over all stored chunks with frozen weights."""
    h = state.hyper
    total = 0.0
    all_chunks = chunks + [cur_chunk]
    all_codes = codes + [cur_b]
    all_weights = weights + [cur_k]
    for chunk, b, k in zip(all_chunks, all_codes, all_weights):
        b = np.asarray(b, float)
        if h.tag_regression:
            res = chunk.y - b @ state.w
            for i in range(b.shape[0]):
                total += k[i] * float(res[i] @ res[i])
        if h.beta > 0:
            res = chunk.phi - b @ state.u
            total += h.beta * float(np.sum(res * res))
        if h.theta > 0:
            res = chunk.z - b @ state.v
            total += h.theta * float(np.sum(res * res))
        if h.mu > 0:
            res = b - chunk.phi @ state.p
            total += h.mu * float(np.sum(res * res))
    total += h.alpha * sum(
        float(np.sum(a * a))
        for a in (state.w, state.u, state.v, state.p))
    return total


class TestObjectiveValue:
    def test_zero_parameters_literal_value(self, small_hyper):
        h = Hyperparams(r=3, m=4, f=2, c=3, alpha=0.0, beta=0.5, theta=0.25,
                        mu=2.0)
        rng = np.random.default_rng(5)
        state = make_state(h)
        stats = AccumStats.zeros(h)
        chunk = random_round_data(rng, 6, h.m, h.c, h.f)
        b = np.zeros((6, h.r))
        k = rng.uniform(0.5, 1.5, size=6)
        got = objective_value(stats, round_work(chunk, stats, state, b, k))
        want = (float(np.sum(k * np.sum(chunk.y ** 2, axis=1)))
                + h.beta * float(np.sum(chunk.phi ** 2))
                + h.theta * float(np.sum(chunk.z ** 2)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_perfect_fit_is_zero(self):
        h = Hyperparams(r=3, m=3, f=3, c=3, alpha=0.0, beta=0.5, theta=0.25,
                        mu=2.0)
        rng = np.random.default_rng(6)
        state = make_state(h)
        stats = AccumStats.zeros(h)
        b = random_codes(rng, 8, h.r)
        state.w = rng.normal(size=(h.r, h.c))
        state.v = rng.normal(size=(h.r, h.f))
        # m == r: taking phi = B makes both visual terms exact with identities
        state.u = np.eye(3)
        state.p = np.eye(3)
        chunk = RoundData(phi=b, y=b @ state.w, z=b @ state.v)
        got = objective_value(stats,
                              round_work(chunk, stats, state, b, np.ones(8)))
        assert got == pytest.approx(0.0, abs=1e-18)

    def test_matches_from_scratch_evaluator(self, small_hyper):
        rng = np.random.default_rng(7)
        state, stats, chunks, codes, weights = committed_history(
            rng, small_hyper, 3, 7)
        state.w = rng.normal(size=(small_hyper.r, small_hyper.c))
        state.u = rng.normal(size=(small_hyper.r, small_hyper.m))
        state.v = rng.normal(size=(small_hyper.r, small_hyper.f))
        state.p = rng.normal(size=(small_hyper.m, small_hyper.r))
        cur = random_round_data(rng, 6, small_hyper.m, small_hyper.c,
                                small_hyper.f)
        cur_b = random_codes(rng, 6, small_hyper.r)
        cur_k = rng.uniform(0.3, 1.8, size=6)
        got = objective_value(stats,
                              round_work(cur, stats, state, cur_b, cur_k))
        want = batch_objective(state, chunks, codes, weights, cur, cur_b,
                               cur_k)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["phi", "y", "z", "weights", "b"])
    def test_nan_rejected(self, small_hyper, where, value):
        rng = np.random.default_rng(8)
        state = make_state(small_hyper)
        stats = AccumStats.zeros(small_hyper)
        chunk = random_round_data(rng, 4, small_hyper.m, small_hyper.c,
                                  small_hyper.f)
        b = random_codes(rng, 4, small_hyper.r)
        k = np.ones(4)
        # y is held sparse: its stored tag values take the bad value
        bad = {"phi": chunk.phi, "y": chunk.y.data, "z": chunk.z,
               "weights": k, "b": b}[where]
        bad.flat[1] = value
        # the inf code poisons B'phi, B'B and the tag residuals
        with np.errstate(invalid="ignore"):
            work = round_work(chunk, stats, state, b, k)
            with pytest.raises(FloatingPointError):
                objective_value(stats, work)
