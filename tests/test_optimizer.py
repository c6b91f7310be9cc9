import dataclasses
import os

import numpy as np
import pytest
import scipy.linalg

from taghash import blas, model
from taghash.engine import StreamTrainer
from taghash.model import (AccumStats, Hyperparams, StateError, commit_round,
                           objective_value)
from taghash.optimizer import (CodeCoupling, RoundAborted, assemble_q,
                               compute_reweights, dcc_bit_column,
                               factor_p_system, init_round, run_round,
                               update_b_dcc, update_p, update_u, update_v,
                               update_w)
from taghash.semantics import EmbeddingTable
from taghash.synthetic import make_cluster_stream

from conftest import (committed_history, make_state, model_bytes,
                      random_codes, random_round_data, round_work)
from oracles import (as_dense, code_subproblem_value, dcc_fresh_products,
                     row_sq_norms, true_tag_objective)


def stacked_problem(rng, hyper, n_hist=3, n_rows=8, n_cur=6):
    """Committed history plus a live chunk, with everything stacked for
    batch reference solves."""
    state, stats, chunks, codes, weights = committed_history(
        rng, hyper, n_hist, n_rows)
    cur = random_round_data(rng, n_cur, hyper.m, hyper.c, hyper.f)
    cur_b = random_codes(rng, n_cur, hyper.r)
    cur_k = rng.uniform(0.2, 2.0, size=n_cur)
    b_all = np.vstack(codes + [cur_b])
    phi_all = np.vstack([ch.phi for ch in chunks] + [cur.phi])
    y_all = np.vstack([as_dense(ch.y) for ch in chunks + [cur]])
    z_all = np.vstack([ch.z for ch in chunks] + [cur.z])
    k_all = np.concatenate(weights + [cur_k])
    return state, stats, cur, cur_b, cur_k, b_all, phi_all, y_all, z_all, k_all


def ridge_lstsq(design, target, ridge):
    """Reference solve of min ||design @ X - target||^2 + ridge ||X||^2
    via an augmented least-squares system."""
    p = design.shape[1]
    aug = np.vstack([design, np.sqrt(ridge) * np.eye(p)])
    rhs = np.vstack([target, np.zeros((p, target.shape[1]))])
    return np.linalg.lstsq(aug, rhs, rcond=None)[0]


class TestClosedFormSolves:
    def test_u_matches_batch_lstsq(self, small_hyper):
        rng = np.random.default_rng(10)
        state, stats, cur, cur_b, cur_k, b_all, phi_all, *_ = \
            stacked_problem(rng, small_hyper)
        got = update_u(small_hyper,
                       round_work(cur, stats, state, cur_b, cur_k))
        want = ridge_lstsq(b_all, phi_all,
                           small_hyper.alpha / small_hyper.beta)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_p_matches_batch_lstsq(self, small_hyper):
        rng = np.random.default_rng(11)
        state, stats, cur, cur_b, cur_k, b_all, phi_all, *_ = \
            stacked_problem(rng, small_hyper)
        work = round_work(cur, stats, state, cur_b, cur_k)
        got = update_p(factor_p_system(small_hyper, work), work)
        want = ridge_lstsq(phi_all, b_all, small_hyper.alpha / small_hyper.mu)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_v_matches_batch_lstsq(self, small_hyper):
        rng = np.random.default_rng(12)
        state, stats, cur, cur_b, cur_k, b_all, _, _, z_all, _ = \
            stacked_problem(rng, small_hyper)
        got = update_v(stats, small_hyper,
                       round_work(cur, stats, state, cur_b, cur_k))
        want = ridge_lstsq(b_all, z_all, small_hyper.alpha / small_hyper.theta)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_w_matches_weighted_batch_lstsq(self, small_hyper):
        rng = np.random.default_rng(13)
        (state, stats, cur, cur_b, cur_k, b_all, _, y_all, _,
         k_all) = stacked_problem(rng, small_hyper)
        got = update_w(stats, small_hyper,
                       round_work(cur, stats, state, cur_b, cur_k))
        s = np.sqrt(k_all)[:, None]
        want = ridge_lstsq(s * b_all, s * y_all, small_hyper.alpha)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_normal_equation_residuals(self, small_hyper):
        rng = np.random.default_rng(14)
        h = small_hyper
        state, stats, cur, cur_b, cur_k, *_ = stacked_problem(rng, h)
        work = round_work(cur, stats, state, cur_b, cur_k)
        eye = np.eye(h.r)
        u = update_u(h, work)
        a = stats.c1 + cur_b.T @ cur_b + (h.alpha / h.beta) * eye
        assert np.max(np.abs(a @ u - (stats.c2 + cur_b.T @ cur.phi))) <= 1e-8
        p = update_p(factor_p_system(h, work), work)
        a = stats.c3 + cur.phi.T @ cur.phi + (h.alpha / h.mu) * np.eye(h.m)
        assert np.max(np.abs(a @ p - (stats.c2.T + cur.phi.T @ cur_b))) <= 1e-8
        v = update_v(stats, h, work)
        a = stats.c1 + cur_b.T @ cur_b + (h.alpha / h.theta) * eye
        assert np.max(np.abs(a @ v - (stats.c5 + cur_b.T @ cur.z))) <= 1e-8
        w = update_w(stats, h, work)
        bk = cur_b * cur_k[:, None]
        a = stats.d1 + bk.T @ cur_b + h.alpha * eye
        assert np.max(np.abs(a @ w - (stats.d2 + bk.T @ cur.y))) <= 1e-8

    def test_perturbations_never_improve(self, small_hyper):
        rng = np.random.default_rng(15)
        h = small_hyper
        (state, stats, cur, cur_b, cur_k, b_all, phi_all, y_all, z_all,
         k_all) = stacked_problem(rng, h)
        work = round_work(cur, stats, state, cur_b, cur_k)

        def quad(design, target, ridge, x):
            res = design @ x - target
            return float(np.sum(res * res)) + ridge * float(np.sum(x * x))

        s = np.sqrt(k_all)[:, None]
        solved = [
            (update_u(h, work), b_all, phi_all, h.alpha / h.beta),
            (update_p(factor_p_system(h, work), work), phi_all, b_all,
             h.alpha / h.mu),
            (update_v(stats, h, work), b_all, z_all, h.alpha / h.theta),
            (update_w(stats, h, work), s * b_all, s * y_all, h.alpha),
        ]
        for x, design, target, ridge in solved:
            base = quad(design, target, ridge, x)
            for _ in range(20):
                delta = rng.normal(scale=1e-3, size=x.shape)
                assert quad(design, target, ridge, x + delta) >= base - 1e-9

    def test_zero_ridge_falls_back(self):
        # alpha = 0 removes the ridge; the solve must still return a finite
        # least-squares answer even when the Gram matrix is rank deficient
        h = Hyperparams(r=4, m=3, f=2, c=2, alpha=0.0)
        rng = np.random.default_rng(16)
        state = make_state(h)
        stats = AccumStats.zeros(h)
        chunk = random_round_data(rng, 2, h.m, h.c, h.f)
        b = random_codes(rng, 2, h.r)  # rank <= 2 < r
        u = update_u(h, round_work(chunk, stats, state, b, np.ones(2)))
        assert np.all(np.isfinite(u))
        a = b.T @ b
        rhs = b.T @ chunk.phi
        # least-squares stationarity of the singular normal equations
        assert np.max(np.abs(a @ u - rhs)) <= 1e-8


class TestReweighting:
    def test_formula_on_known_residuals(self):
        y = np.array([[3.0, 4.0], [0.0, 0.0]])
        b = np.ones((2, 1))
        w = np.zeros((1, 2))
        k = compute_reweights(row_sq_norms(y, b, w), 1e-6)
        assert k[0] == pytest.approx(1.0 / 5.0, rel=1e-12)
        assert k[1] == pytest.approx(1e6, rel=1e-12)

    def test_floor_applies_only_to_tiny_rows(self):
        y = np.array([[1e-9], [2.0]])
        k = compute_reweights(
            row_sq_norms(y, np.zeros((2, 1)), np.zeros((1, 1))), 1e-6)
        assert k[0] == pytest.approx(1e6)
        assert k[1] == pytest.approx(0.5)

    def test_irls_alternation_descends(self, small_hyper):
        rng = np.random.default_rng(17)
        h = small_hyper
        state, stats, *_ = committed_history(rng, h, 2, 9)
        chunk = random_round_data(rng, 12, h.m, h.c, h.f)
        b = random_codes(rng, 12, h.r)
        state.w = rng.normal(scale=0.5, size=(h.r, h.c))
        values = [true_tag_objective(state, stats, chunk, b)]
        for _ in range(7):
            k = compute_reweights(row_sq_norms(chunk.y, b, state.w),
                                  h.epsilon_norm)
            state.w = update_w(stats, h,
                               round_work(chunk, stats, state, b, k))
            values.append(true_tag_objective(state, stats, chunk, b))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9), values


class TestCodeDescent:
    def test_single_bit_is_sign_of_q(self):
        h = Hyperparams(r=1, m=3, f=2, c=2, alpha=1.0)
        rng = np.random.default_rng(20)
        state = make_state(h)
        state.w = rng.normal(size=(1, 2))
        state.u = rng.normal(size=(1, 3))
        state.v = rng.normal(size=(1, 2))
        q = rng.normal(size=(10, 1))
        b0 = random_codes(rng, 10, 1)
        chunk = random_round_data(rng, 10, h.m, h.c, h.f)
        b = update_b_dcc(q, round_work(chunk, AccumStats.zeros(h), state, b0,
                                       np.ones(10)))
        assert np.array_equal(b[:, 0], np.where(q[:, 0] >= 0, 1.0, -1.0))

    def test_decoupled_terms_give_sign_of_projection(self):
        # with the quadratic couplings switched off the update reduces to the
        # sign of the hash-projection image, and zeros resolve to +1
        h = Hyperparams(r=3, m=4, f=2, c=2, beta=0.0, theta=0.0, mu=2.0)
        rng = np.random.default_rng(21)
        state = make_state(h)
        state.p = rng.normal(size=(h.m, h.r))
        state.p[:, 2] = 0.0  # forces a zero column in Q
        chunk = random_round_data(rng, 7, h.m, h.c, h.f)
        k = np.ones(7)
        b0 = random_codes(rng, 7, h.r)
        work = round_work(chunk, AccumStats.zeros(h), state, b0, k)
        b = update_b_dcc(assemble_q(work), work)
        want = np.where(chunk.phi @ state.p >= 0, 1.0, -1.0)
        assert np.array_equal(b, want)
        assert np.all(b[:, 2] == 1.0)

    def test_every_bit_update_non_increasing(self, small_hyper):
        rng = np.random.default_rng(22)
        h = small_hyper
        state = make_state(h)
        state.w = rng.normal(size=(h.r, h.c))
        state.u = rng.normal(size=(h.r, h.m))
        state.v = rng.normal(size=(h.r, h.f))
        chunk = random_round_data(rng, 15, h.m, h.c, h.f)
        k = rng.uniform(0.2, 2.0, size=15)
        b = random_codes(rng, 15, h.r)
        work = round_work(chunk, AccumStats.zeros(h), state, b, k)
        q = assemble_q(work)
        prev = code_subproblem_value(b, q, state, k)
        for _ in range(3):
            for l in range(h.r):
                b[:, l] = dcc_bit_column(q, b, l, CodeCoupling(b, work))
                cur = code_subproblem_value(b, q, state, k)
                assert cur <= prev + 1e-9
                prev = cur

    DCC_CASES = {
        "default": {},
        "no_tag_regression": {"tag_regression": False},
        "beta0": {"beta": 0.0},
        "theta0": {"theta": 0.0},
        "quadratic_off": {"beta": 0.0, "theta": 0.0,
                          "tag_regression": False},
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", list(DCC_CASES))
    def test_matches_fresh_product_reference(self, case, seed):
        # update_b_dcc builds its coupling products once and updates only
        # the flipped rows; it must give the codes of the column rule with
        # every product recomputed.  Random starting codes make the first
        # sweep dense, later sweeps flip few rows; weights span e^-9..e^9.
        h = Hyperparams(**{**dict(r=12, m=20, f=6, c=15, alpha=1.0,
                                  beta=0.5, theta=0.4, mu=3.0, dcc_sweeps=4),
                           **self.DCC_CASES[case]})
        rng = np.random.default_rng(40 + seed)
        state = make_state(h)
        state.w = rng.normal(scale=0.3, size=(h.r, h.c))
        state.u = rng.normal(scale=0.3, size=(h.r, h.m))
        state.v = rng.normal(scale=0.3, size=(h.r, h.f))
        state.p = rng.normal(size=(h.m, h.r))
        n = 400
        chunk = random_round_data(rng, n, h.m, h.c, h.f)
        k = np.exp(rng.normal(scale=3.0, size=n))
        b0 = random_codes(rng, n, h.r)
        work = round_work(chunk, AccumStats.zeros(h), state, b0, k)
        q = assemble_q(work)
        got = update_b_dcc(q, work)
        assert np.array_equal(got, dcc_fresh_products(q, b0, state, k))
        assert not np.array_equal(got, b0)

    def converged_instance(self, seed, n=4, r=3):
        h = Hyperparams(r=r, m=5, f=3, c=4, alpha=1.0, beta=0.5, theta=0.4,
                        mu=3.0, dcc_sweeps=1)
        rng = np.random.default_rng(seed)
        state = make_state(h)
        state.w = rng.normal(scale=0.3, size=(r, h.c))
        state.u = rng.normal(scale=0.3, size=(r, h.m))
        state.v = rng.normal(scale=0.3, size=(r, h.f))
        state.p = rng.normal(size=(h.m, r))
        chunk = random_round_data(rng, n, h.m, h.c, h.f)
        k = rng.uniform(0.5, 1.5, size=n)
        b = random_codes(rng, n, r)
        work = round_work(chunk, AccumStats.zeros(h), state, b, k)
        q = assemble_q(work)
        for _ in range(50):
            nxt = update_b_dcc(q, work)
            if np.array_equal(nxt, b):
                break
            b = nxt
            work.codes_changed(b)
        return h, state, q, b, k

    def test_fixed_point_is_columnwise_optimal(self):
        h, state, q, b, k = self.converged_instance(seed=23)
        n = b.shape[0]
        base = code_subproblem_value(b, q, state, k)
        for l in range(h.r):
            for pattern in range(2 ** n):
                trial = b.copy()
                trial[:, l] = [
                    1.0 if (pattern >> i) & 1 else -1.0 for i in range(n)]
                val = code_subproblem_value(trial, q, state, k)
                assert base <= val + 1e-9

    def test_beats_random_code_matrices(self):
        h, state, q, b, k = self.converged_instance(seed=24)
        rng = np.random.default_rng(25)
        base = code_subproblem_value(b, q, state, k)
        for _ in range(1000):
            trial = random_codes(rng, b.shape[0], h.r)
            assert base <= code_subproblem_value(trial, q, state, k) + 1e-9


class TestRunRound:
    def test_smoke_and_postconditions(self, small_hyper):
        rng = np.random.default_rng(30)
        state = make_state(small_hyper)
        stats = AccumStats.zeros(small_hyper)
        chunk = random_round_data(rng, 10, small_hyper.m, small_hyper.c,
                                  small_hyper.f)
        block, trace = run_round(state, stats, chunk, seed=0, rnd=0)
        assert block.dense.shape == (10, small_hyper.r)
        assert set(np.unique(block.dense)) <= {-1, 1}
        assert "rounds_committed" not in vars(stats)
        assert "round_index" not in vars(state)
        assert block.n == 10 and "total_seen" not in vars(state)
        assert len(trace) == small_hyper.iters
        assert np.all(np.isfinite(trace))

    def test_deterministic_for_fixed_seed(self, small_hyper):
        rng = np.random.default_rng(31)
        chunk = random_round_data(rng, 12, small_hyper.m, small_hyper.c,
                                  small_hyper.f)
        outs = []
        for _ in range(2):
            state = make_state(small_hyper)
            stats = AccumStats.zeros(small_hyper)
            block, trace = run_round(state, stats, chunk, seed=5, rnd=0)
            outs.append((block.dense.copy(), np.array(trace),
                         state.p.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])
        assert np.array_equal(outs[0][2], outs[1][2])

    def test_trace_monotone_without_reweighting(self):
        # with the tag term off every step exactly minimizes its block of the
        # surrogate, so the per-iteration trace can never increase
        h = Hyperparams(r=4, m=6, f=3, c=5, alpha=2.0, beta=0.5, theta=0.7,
                        mu=1.3, iters=6, dcc_sweeps=2, tag_regression=False)
        rng = np.random.default_rng(32)
        state = make_state(h)
        stats = AccumStats.zeros(h)
        chunk = random_round_data(rng, 14, h.m, h.c, h.f)
        _, trace = run_round(state, stats, chunk, seed=2, rnd=0)
        assert np.all(np.diff(trace) <= 1e-9), trace

    def test_second_round_extends_history(self, small_hyper):
        rng = np.random.default_rng(33)
        state = make_state(small_hyper)
        stats = AccumStats.zeros(small_hyper)
        c1_seen = []
        for rnd in range(2):
            chunk = random_round_data(rng, 8, small_hyper.m, small_hyper.c,
                                      small_hyper.f)
            run_round(state, stats, chunk, seed=1, rnd=rnd)
            c1_seen.append(np.trace(stats.c1))
        # trace of C1 counts committed rows times bits
        assert c1_seen[0] == pytest.approx(8 * small_hyper.r)
        assert c1_seen[1] == pytest.approx(16 * small_hyper.r)

    def test_nonfinite_input_rolls_back(self, small_hyper):
        rng = np.random.default_rng(34)
        state = make_state(small_hyper)
        stats = AccumStats.zeros(small_hyper)
        good = random_round_data(rng, 8, small_hyper.m, small_hyper.c,
                                 small_hyper.f)
        run_round(state, stats, good, seed=0, rnd=0)
        before = model_bytes(state, stats)
        bad = random_round_data(rng, 8, small_hyper.m, small_hyper.c,
                                small_hyper.f)
        bad.phi[3, 2] = np.nan
        with pytest.raises(RoundAborted):
            run_round(state, stats, bad, seed=1, rnd=1)
        assert model_bytes(state, stats) == before
        assert "rounds_committed" not in vars(stats)

    def test_round_one_warm_start_is_small(self, small_hyper):
        state = make_state(small_hyper)
        chunk = random_round_data(np.random.default_rng(35), 6,
                                  small_hyper.m, small_hyper.c,
                                  small_hyper.f)
        _, w = init_round(chunk, state, seed=9, rnd=0)
        assert np.max(np.abs(w)) < 0.1
        assert np.std(w) == pytest.approx(0.01, rel=0.5)
        assert not np.any(state.w)

    @pytest.mark.parametrize("tag_regression", [True, False])
    def test_tag_norms_formed_only_where_read(self, monkeypatch, small_hyper,
                                              tag_regression):
        # once for the first weights; with the tag term, once more after
        # each code step, for the objective and the next reweighting
        calls = []
        real = model.tag_residual_sq
        monkeypatch.setattr(model, "tag_residual_sq",
                            lambda *a: calls.append(1) or real(*a))
        h = dataclasses.replace(small_hyper, tag_regression=tag_regression)
        one_round(np.random.default_rng(41), h)
        assert len(calls) == (1 + h.iters if tag_regression else 1)

    REPLAY_CASES = {
        "default": ({}, 9),
        # alpha = 0 with fewer rows than anchors: the P system is singular
        # and every P solve takes the least-squares fallback
        "alpha0_n_below_m": ({"alpha": 0.0}, 4),
        # no P system is built, but commit still folds phi'phi into c3
        "mu0": ({"mu": 0.0}, 9),
        "beta0": ({"beta": 0.0}, 9),
        # the first weights, from the random codes, are never refreshed
        # and are what commit folds into d1, d2 and sy_weighted
        "no_tag_regression": ({"tag_regression": False}, 9),
        "theta0": ({"theta": 0.0}, 9),
    }

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_trace_matches_manual_replay(self, case):
        # replay the exact iteration schedule by hand with the standalone
        # steps, each reading a new RoundWork whose products are formed
        # afresh rather than refreshed through the round, and require the
        # same bits as run_round: trace, codes, projections and statistics
        overrides, n = self.REPLAY_CASES[case]
        h = Hyperparams(**{**dict(r=4, m=6, f=3, c=5, alpha=2.0, beta=0.5,
                                  theta=0.7, mu=1.3, iters=3, dcc_sweeps=2),
                           **overrides})
        rng = np.random.default_rng(36)
        chunk = random_round_data(rng, n, h.m, h.c, h.f)
        if case == "alpha0_n_below_m":
            with pytest.raises(np.linalg.LinAlgError):
                scipy.linalg.cho_factor(chunk.phi.T @ chunk.phi)

        state = make_state(h)
        stats = AccumStats.zeros(h)
        block, trace = run_round(state, stats, chunk, seed=3, rnd=0)

        manual = make_state(h)
        mstats = AccumStats.zeros(h)
        (b, manual.w), k = init_round(chunk, manual, seed=3, rnd=0), None

        def fresh():
            return round_work(chunk, mstats, manual, b, k)

        # the first weights come from the random codes
        k = compute_reweights(fresh().tag_sq, h.epsilon_norm)
        manual_trace = []
        for _ in range(h.iters):
            if h.beta > 0:
                manual.u = update_u(h, fresh())
            if h.mu > 0:
                manual.p = update_p(factor_p_system(h, fresh()), fresh())
            if h.theta > 0:
                manual.v = update_v(mstats, h, fresh())
            if h.tag_regression:
                k = compute_reweights(fresh().tag_sq, h.epsilon_norm)
                manual.w = update_w(mstats, h, fresh())
            b = update_b_dcc(assemble_q(fresh()), fresh())
            manual_trace.append(objective_value(mstats, fresh()))
        assert np.array_equal(block.dense.astype(float), b)
        assert manual_trace == trace
        for name in ("w", "u", "v", "p"):
            assert np.array_equal(getattr(state, name),
                                  getattr(manual, name)), name
        commit_round(manual, mstats, fresh())
        for field in dataclasses.fields(AccumStats):
            assert np.array_equal(getattr(stats, field.name),
                                  getattr(mstats, field.name)), field.name


def poison_stream():
    """A table of one tag more than a cluster stream's, whose row for it is
    so large that a round whose chunk carries it overflows the semantic
    term; chunk(i, poisoned) gives the stream's chunk i with that tag on
    every fifth row when poisoned, on none otherwise."""
    stream = make_cluster_stream(n_rounds=4, n_per_round=40, d=8, f=8,
                                 n_queries=10, seed=3)
    table = EmbeddingTable(np.vstack([stream.table.vectors,
                                      np.full((1, 8), 1e200)]))

    def chunk(i, poisoned=False):
        x, y = stream.chunks[i]
        extra = np.zeros((len(y), 1), dtype=y.dtype)
        extra[::5] = poisoned
        return x, np.hstack([y, extra])
    return table, chunk


def trainer_bytes(trainer):
    """What a trainer has committed, as bytes and numbers: its model, code
    blocks and projections, and its round times."""
    model = (trainer.state, trainer.stats) if trainer.state is None else \
        model_bytes(trainer.state, trainer.stats)
    return (model, [cb.packed.tobytes() for cb in trainer.code_blocks],
            [p.tobytes() for p in trainer.p_history], trainer.round_times[:])


@pytest.mark.parametrize("rnd", [1, 3])
def test_aborted_round_leaves_the_trainer_unchanged(tmp_path, rnd):
    # the abort happens inside the round, after the steps have run; the
    # trainer must hold what it held before the call, with no state after
    # an aborted first round, and the next valid chunk must train as if
    # the refused one had never come
    table, chunk = poison_stream()
    hyper = Hyperparams(r=8, m=16, f=8, c=10, iters=3, dcc_sweeps=2)
    trainer, clean = (StreamTrainer(hyper, table, seed=0) for _ in range(2))
    for t in (trainer, clean):
        for i in range(rnd - 1):
            t.process_chunk(*chunk(i))
    before = trainer_bytes(trainer)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RoundAborted, match=f"^non-finite objective at round {rnd}$"):
        trainer.process_chunk(*chunk(rnd - 1, poisoned=True))
    assert trainer_bytes(trainer) == before
    if rnd == 1:
        assert trainer.state is None
        with pytest.raises(StateError):
            trainer.save(str(tmp_path / "ck.bin"))
        assert os.listdir(tmp_path) == []
    codes, trace = trainer.process_chunk(*chunk(rnd))
    clean_codes, clean_trace = clean.process_chunk(*chunk(rnd))
    assert codes.packed.tobytes() == clean_codes.packed.tobytes()
    assert trace == clean_trace
    assert trainer_bytes(trainer)[:3] == trainer_bytes(clean)[:3]


def record_lapack_calls(monkeypatch):
    """Wrap scipy's cho_factor and cho_solve; returns a list that collects
    (function, system size, scipy LAPACK threads or None) per call."""
    pool = blas.scipy_openblas()
    calls = []
    for name in ("cho_factor", "cho_solve"):
        real = getattr(scipy.linalg, name)

        def wrapper(a, *args, _real=real, _name=name, **kwargs):
            size = (a[0] if _name == "cho_solve" else a).shape[0]
            calls.append((_name, size, pool and pool[0]()))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, wrapper)
    return calls


def one_round(rng, h, n=9):
    state = make_state(h)
    stats = AccumStats.zeros(h)
    chunk = random_round_data(rng, n, h.m, h.c, h.f)
    block, _ = run_round(state, stats, chunk, seed=3, rnd=0)
    return block, state


def test_p_system_factored_once_per_round(monkeypatch, small_hyper):
    h = small_hyper
    calls = record_lapack_calls(monkeypatch)
    one_round(np.random.default_rng(37), h)
    factors = [size for name, size, _ in calls if name == "cho_factor"]
    solves = [size for name, size, _ in calls if name == "cho_solve"]
    # one m x m factor per round serves the P solve of every iteration; the
    # r x r systems of U, V and W are factored and solved every iteration
    assert factors.count(h.m) == 1
    assert solves.count(h.m) == h.iters
    assert factors.count(h.r) == solves.count(h.r) == 3 * h.iters
    assert len(factors) + len(solves) == 1 + 7 * h.iters


def scipy_pool():
    pool = blas.scipy_openblas()
    if pool is None:
        pytest.skip("this scipy bundles no OpenBLAS")
    return pool


def test_iteration_solves_run_on_one_lapack_thread(monkeypatch, small_hyper):
    # every factor and solve of a round, the m x m one included, runs on
    # one thread, and the count is restored after a committed round and
    # after an aborted one
    get, put = scipy_pool()
    before = get()
    put(2)
    try:
        calls = record_lapack_calls(monkeypatch)
        one_round(np.random.default_rng(38), small_hyper)
        threads_after = get()
        state = make_state(small_hyper)
        stats = AccumStats.zeros(small_hyper)
        bad = random_round_data(np.random.default_rng(39), 8, small_hyper.m,
                                small_hyper.c, small_hyper.f)
        bad.phi[3, 2] = np.nan
        with pytest.raises(RoundAborted):
            run_round(state, stats, bad, seed=1, rnd=0)
        threads_after_abort = get()
    finally:
        put(before)
    assert any(name == "cho_factor" and size == small_hyper.m
               for name, size, _ in calls)
    assert calls and {t for _, _, t in calls} == {1}
    assert threads_after == threads_after_abort == 2


def test_round_ignores_scipy_thread_count():
    # the m x m system is large enough for OpenBLAS to split its Cholesky
    # over threads, which changes the factor's rounding
    h = Hyperparams(r=16, m=256, f=8, c=12, iters=2, dcc_sweeps=1)
    get, put = scipy_pool()
    before = get()
    runs = []
    try:
        for threads in (1, 2):
            put(threads)
            runs.append(one_round(np.random.default_rng(40), h, n=400))
    finally:
        put(before)
    (block1, state1), (block2, state2) = runs
    assert block1.dense.tobytes() == block2.dense.tobytes()
    assert state1.p.tobytes() == state2.p.tobytes()
