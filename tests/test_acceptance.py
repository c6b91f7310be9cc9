"""End-to-end acceptance checks for the streaming hashing engine.

Each test covers one numbered criterion and prints a single pass line; run
with `pytest -s tests/test_acceptance.py` to see them.  Criteria:
incremental-vs-batch statistics, closed-form optimality, reweighted descent,
code-descent fixed points, packed-vs-dense retrieval, MAP correctness, an
end-to-end learning-signal bound, linear per-round scaling, bit-identical
checkpoint resume, and the ablation ordering.
"""
import time

import numpy as np
import pytest

from taghash.codes import CodeBlock, pack_codes
from taghash.engine import StreamTrainer
from taghash.evaluation import (EvalJudgments, average_precision,
                                mean_average_precision)
from taghash.model import AccumStats, Hyperparams, RoundData, commit_round
from taghash.optimizer import (CodeCoupling, assemble_q, compute_reweights,
                               dcc_bit_column, factor_p_system, init_round,
                               update_b_dcc, update_p, update_u, update_v,
                               update_w)
from taghash.retrieval import hamming_rank, hash_queries
from taghash.synthetic import make_cluster_stream

from conftest import make_state, random_codes, random_round_data
from oracles import (batch_stats, code_subproblem_value,
                     naive_average_precision, naive_map, true_tag_objective)

PASS = "criterion {n:2d} ({name}): PASS"


# ----------------------------------------------------------------- helpers

def train_on_stream(stream, hyper, seed, n_rounds=None):
    trainer = StreamTrainer(hyper, stream.table, seed=seed)
    chunks = stream.chunks if n_rounds is None else stream.chunks[:n_rounds]
    for x, y in chunks:
        trainer.process_chunk(x, y)
    return trainer


def stream_map(trainer, stream, query_codes=None):
    judgments = EvalJudgments(query_labels=stream.query_labels,
                              db_labels=stream.db_labels)
    if query_codes is None:
        query_codes = hash_queries(stream.query_x, trainer.state)
    value, _ = mean_average_precision(query_codes, trainer.index(), judgments)
    return value


CAL_HYPER = dict(r=16, m=150, f=8, c=9)
CAL_SEEDS = [0, 1, 2, 3, 4]
MAP_FLOOR = 0.90  # pinned 5-seed regression bound (minimum 0.9350 - 0.03)


# ---------------------------------------------------------------- criteria

def test_criterion_01_incremental_matches_batch():
    start = time.perf_counter()
    hyper = Hyperparams(r=8, m=8, f=12, c=8, iters=4, dcc_sweeps=2)
    rng = np.random.default_rng(101)
    state = make_state(hyper, rng)
    stats = AccumStats.zeros(hyper)
    chunks, codes, frozen = [], [], []
    # real optimization rounds, replayed step by step so the commit-time
    # reweighting diagonals are available to the oracle
    for rnd in range(5):
        chunk = random_round_data(rng, 50, hyper.m, hyper.c, hyper.f)
        b, weights = init_round(chunk, state, seed=rnd)
        phi_gram = chunk.phi.T @ chunk.phi
        for _ in range(hyper.iters):
            state.u = update_u(stats, b, hyper, b.T @ chunk.phi)
            state.p = update_p(stats,
                               factor_p_system(stats, phi_gram, hyper),
                               b.T @ chunk.phi)
            state.v = update_v(stats, chunk, b, hyper)
            weights = compute_reweights(chunk.y, b, state.w,
                                        hyper.epsilon_norm)
            state.w = update_w(stats, chunk, b, weights, hyper)
            q = assemble_q(chunk, state, weights)
            b = update_b_dcc(q, b, state, weights)
        commit_round(state, stats, chunk, b, weights, phi_gram,
                     b.T @ chunk.phi)
        chunks.append(chunk)
        codes.append(b)
        frozen.append(weights)

    ref = batch_stats(chunks, codes, frozen, hyper)
    for key in ("c1", "c2", "c3", "c4", "c5", "d1", "d2"):
        got = getattr(stats, key)
        want = ref[key]
        denom = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(got - want)) / denom <= 1e-10, key
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(PASS.format(n=1, name="incremental stats match batch oracle"))


def test_criterion_02_closed_form_optimality(small_hyper):
    h = small_hyper
    rng = np.random.default_rng(102)
    state = make_state(h, rng)
    stats = AccumStats.zeros(h)
    hist_chunks, hist_codes, hist_weights = [], [], []
    for _ in range(3):
        chunk = random_round_data(rng, 10, h.m, h.c, h.f)
        b = random_codes(rng, 10, h.r)
        k = rng.uniform(0.2, 2.0, size=10)
        commit_round(state, stats, chunk, b, k, chunk.phi.T @ chunk.phi,
                     b.T @ chunk.phi)
        hist_chunks.append(chunk)
        hist_codes.append(b)
        hist_weights.append(k)
    cur = random_round_data(rng, 8, h.m, h.c, h.f)
    cur_b = random_codes(rng, 8, h.r)
    cur_k = rng.uniform(0.2, 2.0, size=8)
    b_all = np.vstack(hist_codes + [cur_b])
    phi_all = np.vstack([c.phi for c in hist_chunks] + [cur.phi])
    y_all = np.vstack([c.y for c in hist_chunks] + [cur.y])
    z_all = np.vstack([c.z for c in hist_chunks] + [cur.z])
    k_all = np.concatenate(hist_weights + [cur_k])
    s = np.sqrt(k_all)[:, None]

    bk = cur_b * cur_k[:, None]
    bt_phi = cur_b.T @ cur.phi
    p_factor = factor_p_system(stats, cur.phi.T @ cur.phi, h)
    steps = [
        (update_u(stats, cur_b, h, bt_phi),
         stats.c1 + cur_b.T @ cur_b + (h.alpha / h.beta) * np.eye(h.r),
         stats.c2 + cur_b.T @ cur.phi, b_all, phi_all, h.alpha / h.beta),
        (update_p(stats, p_factor, bt_phi),
         stats.c3 + cur.phi.T @ cur.phi + (h.alpha / h.mu) * np.eye(h.m),
         stats.c4 + cur.phi.T @ cur_b, phi_all, b_all, h.alpha / h.mu),
        (update_v(stats, cur, cur_b, h),
         stats.c1 + cur_b.T @ cur_b + (h.alpha / h.theta) * np.eye(h.r),
         stats.c5 + cur_b.T @ cur.z, b_all, z_all, h.alpha / h.theta),
        (update_w(stats, cur, cur_b, cur_k, h),
         stats.d1 + bk.T @ cur_b + h.alpha * np.eye(h.r),
         stats.d2 + bk.T @ cur.y, s * b_all, s * y_all, h.alpha),
    ]
    for x, a, rhs, design, target, ridge in steps:
        res = np.linalg.norm(a @ x - rhs)
        assert res / np.linalg.norm(rhs) <= 1e-8

        def quad(z):
            r = design @ z - target
            return float(np.sum(r * r)) + ridge * float(np.sum(z * z))

        base = quad(x)
        for _ in range(20):
            delta = rng.normal(scale=1e-3, size=x.shape)
            assert quad(x + delta) >= base
    print(PASS.format(n=2, name="closed-form solves are optimal"))


def test_criterion_03_irls_descent(small_hyper):
    h = small_hyper
    rng = np.random.default_rng(103)
    state = make_state(h, rng)
    stats = AccumStats.zeros(h)
    for _ in range(2):
        chunk = random_round_data(rng, 10, h.m, h.c, h.f)
        b = random_codes(rng, 10, h.r)
        commit_round(state, stats, chunk, b, rng.uniform(0.2, 2.0, size=10),
                     chunk.phi.T @ chunk.phi, b.T @ chunk.phi)
    chunk = random_round_data(rng, 14, h.m, h.c, h.f)
    b = random_codes(rng, 14, h.r)
    state.w = rng.normal(scale=0.5, size=(h.r, h.c))
    prev = true_tag_objective(state, stats, chunk, b)
    for _ in range(7):
        k = compute_reweights(chunk.y, b, state.w, h.epsilon_norm)
        state.w = update_w(stats, chunk, b, k, h)
        cur = true_tag_objective(state, stats, chunk, b)
        assert cur <= prev + 1e-9
        prev = cur
    print(PASS.format(n=3, name="reweighted tag solve never ascends"))


def test_criterion_04_dcc_descent_and_fixed_point():
    h = Hyperparams(r=3, m=5, f=3, c=4, alpha=1.0, beta=0.5, theta=0.4,
                    mu=3.0, dcc_sweeps=3)
    rng = np.random.default_rng(104)
    state = make_state(h, rng)
    state.w = rng.normal(scale=0.3, size=(h.r, h.c))
    state.u = rng.normal(scale=0.3, size=(h.r, h.m))
    state.v = rng.normal(scale=0.3, size=(h.r, h.f))
    state.p = rng.normal(size=(h.m, h.r))
    chunk = random_round_data(rng, 4, h.m, h.c, h.f)
    k = rng.uniform(0.5, 1.5, size=4)
    q = assemble_q(chunk, state, k)
    b = random_codes(rng, 4, h.r)

    # per-bit descent over the 3 sweeps
    prev = code_subproblem_value(b, q, state, k)
    for _ in range(h.dcc_sweeps):
        for l in range(h.r):
            b[:, l] = dcc_bit_column(q, b, l, CodeCoupling(b, state, k))
            cur = code_subproblem_value(b, q, state, k)
            assert cur <= prev + 1e-9
            prev = cur

    # fixed point: one more application of every bit rule changes nothing
    coupling = CodeCoupling(b, state, k)
    for l in range(h.r):
        assert np.array_equal(dcc_bit_column(q, b, l, coupling), b[:, l])

    base = code_subproblem_value(b, q, state, k)
    for _ in range(1000):
        trial = random_codes(rng, 4, h.r)
        assert base <= code_subproblem_value(trial, q, state, k) + 1e-9
    print(PASS.format(n=4, name="code descent reaches a bitwise optimum"))


def test_criterion_05_packed_ranking_matches_dense():
    rng = np.random.default_rng(105)
    for r in (8, 64, 96):
        db = random_codes(rng, 1000, r).astype(np.int8)
        queries = random_codes(rng, 50, r).astype(np.int8)
        db_packed = pack_codes(db)
        q_packed = pack_codes(queries)
        from taghash.retrieval import RetrievalIndex
        index = RetrievalIndex(packed=db_packed, r=r)
        for qi in range(50):
            ids, dists = hamming_rank(q_packed[qi], index)
            dense_d = np.sum(db != queries[qi], axis=1)
            order = np.argsort(dense_d, kind="stable")
            assert np.array_equal(ids, order)
            assert np.array_equal(dists, dense_d[order])
    print(PASS.format(n=5, name="packed ranking equals dense brute force"))


def test_criterion_06_map_matches_naive():
    rng = np.random.default_rng(106)
    rankings, rels = [], []
    for _ in range(200):
        n = int(rng.integers(3, 60))
        rankings.append(rng.permutation(n))
        rels.append(rng.random(n) < 0.3)
    got = float(np.mean([
        ap for ranked, rel in zip(rankings, rels)
        for ap in [average_precision(ranked, rel)] if ap is not None]))
    want = naive_map(rankings, rels)
    assert got == pytest.approx(want, abs=1e-12)

    # analytic anchor cases
    assert average_precision([0, 1], np.array([True, True])) == 1.0
    assert average_precision([0, 1, 2], np.array([True, False, True])) \
        == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)
    assert naive_average_precision([False, False]) is None
    print(PASS.format(n=6, name="MAP equals the naive reference"))


def test_criterion_07_end_to_end_learning_signal():
    start = time.perf_counter()
    for seed in CAL_SEEDS:
        stream = make_cluster_stream(seed=seed)
        hyper = Hyperparams(**CAL_HYPER)
        trainer = train_on_stream(stream, hyper, seed=seed + 100)

        final_map = stream_map(trainer, stream)

        # baseline (a): random query codes against the same database
        rng = np.random.default_rng(seed + 500)
        rand_codes = CodeBlock(
            random_codes(rng, len(stream.query_x), hyper.r).astype(np.int8))
        random_map = stream_map(trainer, stream, query_codes=rand_codes)

        # baseline (b): queries hashed with the round-1 projection
        snap1_state = trainer.round_snapshots()[0][1]
        round1_codes = hash_queries(stream.query_x, snap1_state)
        round1_map = stream_map(trainer, stream, query_codes=round1_codes)

        assert final_map >= random_map + 0.15, (seed, final_map, random_map)
        assert final_map >= round1_map + 0.15, (seed, final_map, round1_map)
        assert final_map >= MAP_FLOOR, (seed, final_map)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(PASS.format(n=7, name="learned codes beat both baselines"))


def test_criterion_08_linear_per_round_scaling():
    mixture = ((1 / 3, 1 / 3, 1 / 3),) * 8

    def round_times(n_per_round, repeats=3):
        best = None
        for rep in range(repeats):
            stream = make_cluster_stream(
                n_rounds=8, n_per_round=n_per_round, mixture=mixture,
                n_queries=5, seed=20)
            hyper = Hyperparams(r=16, m=100, f=8, c=9, iters=4)
            trainer = train_on_stream(stream, hyper, seed=21)
            t = np.asarray(trainer.round_times)
            best = t if best is None else np.minimum(best, t)
        return best

    base = round_times(300)
    # constant-size statistics: late rounds cost the same as early ones
    assert base[7] <= 1.5 * base[1], base

    doubled = round_times(600)
    assert np.mean(doubled[1:]) <= 2.6 * np.mean(base[1:]), (base, doubled)
    print(PASS.format(n=8, name="per-round cost flat over rounds, "
                              "linear in chunk size"))


def test_criterion_09_resume_equivalence(tmp_path):
    stream = make_cluster_stream(seed=0)
    hyper = Hyperparams(**CAL_HYPER)
    straight = train_on_stream(stream, hyper, seed=100)

    partial = train_on_stream(stream, hyper, seed=100, n_rounds=2)
    ckpt = str(tmp_path / "resume.ckpt")
    partial.save(ckpt)
    resumed = StreamTrainer.from_checkpoint(ckpt, stream.table)
    for x, y in stream.chunks[2:]:
        resumed.process_chunk(x, y)

    assert len(resumed.code_blocks) == len(straight.code_blocks)
    for got, want in zip(resumed.code_blocks, straight.code_blocks):
        assert np.array_equal(got.dense, want.dense)
    assert np.array_equal(resumed.state.p, straight.state.p)
    assert np.array_equal(resumed.state.w, straight.state.w)
    print(PASS.format(n=9, name="resumed run is bit-identical"))


def test_criterion_10_ablation_ordering():
    wins = 0
    for seed in CAL_SEEDS:
        stream = make_cluster_stream(seed=seed)
        full = train_on_stream(
            stream, Hyperparams(**CAL_HYPER), seed=seed + 100)
        reduced = train_on_stream(
            stream,
            Hyperparams(**CAL_HYPER, theta=0.0, tag_regression=False),
            seed=seed + 100)
        if stream_map(full, stream) >= stream_map(reduced, stream):
            wins += 1
    assert wins >= 4, wins
    print(PASS.format(n=10, name="full model beats the stripped variant "
                               f"on {wins}/5 seeds"))
