import numpy as np
import pytest

from taghash import evaluation
from taghash.codes import CodeBlock, pack_codes
from taghash.model import Hyperparams
from taghash.evaluation import (QUERY_BLOCK, EvalJudgments,
                                average_precision, map_per_round,
                                mean_average_precision, precision_at_k,
                                query_relevance)
from taghash.retrieval import hamming_rank, hash_queries, round_snapshots

from conftest import code_block, make_state, random_codes
from oracles import naive_average_precision, naive_map


def make_index(dense):
    return CodeBlock(pack_codes(dense), dense.shape[1])


def per_query_map(query_codes, index, query_labels, db_labels, cutoff=None):
    """MAP computed one query at a time: an integer label product per query
    and the AP as the mean of the cumulative precision at each hit."""
    aps, excluded = [], 0
    for qi in range(query_codes.n):
        rel = (db_labels @ query_labels[qi]) > 0
        in_db = int(rel[:index.n].sum())
        if in_db == 0:
            excluded += 1
            continue
        ids, _ = hamming_rank(query_codes.packed[qi], index, cutoff)
        hits = rel[ids]
        prec = np.cumsum(hits) / np.arange(1, len(ids) + 1)
        aps.append(float(np.sum(prec[hits]) / min(in_db, len(ids))))
    if not aps:
        return float("nan"), excluded
    return float(np.mean(aps)), excluded


class TestEvalJudgments:
    def test_shared_label_count_does_not_wrap_in_int8(self):
        # 256 shared labels wrap to 0 in an int8 accumulator
        query = np.zeros((1, 300), dtype=np.int8)
        query[0, :256] = 1
        db = np.zeros((2, 300), dtype=np.int8)
        db[0] = 1
        db[1, 256:] = 1
        judgments = EvalJudgments(query_labels=query, db_labels=db)
        assert judgments.relevance(0).tolist() == [True, False]

    def test_block_rows_equal_single_rows(self):
        rng = np.random.default_rng(5)
        labels_q = (rng.random((7, 5)) < 0.3).astype(np.int8)
        labels_db = (rng.random((40, 5)) < 0.3).astype(np.int8)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        block = judgments.relevance(slice(2, 6))
        assert block.dtype == bool and block.shape == (4, 40)
        for row, qi in zip(block, range(2, 6)):
            assert np.array_equal(row, judgments.relevance(qi))
        assert np.array_equal(judgments.relevance(np.array([5, 2])),
                              block[[3, 0]])

    @pytest.mark.parametrize("dtype", [np.int8, bool, np.float64])
    @pytest.mark.parametrize("n_q", [0, 1, QUERY_BLOCK, 2 * QUERY_BLOCK + 3])
    def test_relevant_is_label_intersection(self, dtype, n_q):
        rng = np.random.default_rng(n_q)
        labels_q = ((rng.random((n_q, 6)) < 0.3)
                    * rng.choice([-2, 1, 3], (n_q, 6))).astype(dtype)
        labels_db = ((rng.random((50, 6)) < 0.3)
                     * rng.choice([-2, 1, 3], (50, 6))).astype(dtype)
        if dtype is np.float64:
            labels_q = labels_q * 0.5
            labels_db = labels_db * 0.25
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        want = [[bool(set(np.flatnonzero(q)) & set(np.flatnonzero(d)))
                 for d in labels_db] for q in labels_q]
        assert judgments.relevant.dtype == bool
        assert judgments.relevant.shape == (n_q, 50)
        assert judgments.relevant.tolist() == want

    def test_relevant_is_read_only_and_fixed_when_built(self):
        labels_q = np.array([[1, 0], [0, 1]], dtype=np.int8)
        labels_db = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        want = [[True, True, False], [False, False, True]]
        with pytest.raises(ValueError, match="read-only"):
            judgments.relevant[0, 2] = True
        with pytest.raises(ValueError, match="read-only"):
            judgments.relevance(slice(0, 1))[0, 2] = True
        with pytest.raises(ValueError, match="read-only"):
            judgments.relevance(1)[0] = True
        labels_db[2] = 1
        assert judgments.relevant.tolist() == want

    def test_query_relevance_covers_every_query_in_order(self):
        rng = np.random.default_rng(6)
        n_q = 2 * QUERY_BLOCK + 3
        labels_q = (rng.random((n_q, 4)) < 0.4).astype(int)
        labels_db = (rng.random((25, 4)) < 0.4).astype(int)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        rows = list(query_relevance(judgments, n_q))
        assert [qi for qi, _ in rows] == list(range(n_q))
        for qi, rel in rows:
            assert np.array_equal(rel, labels_db @ labels_q[qi] > 0)

    def test_more_queries_than_label_rows_rejected(self):
        judgments = EvalJudgments(query_labels=np.ones((3, 2)),
                                  db_labels=np.ones((4, 2)))
        assert len(list(query_relevance(judgments, 2))) == 2
        with pytest.raises(ValueError, match="4 queries"):
            list(query_relevance(judgments, 4))

    @pytest.mark.parametrize("query_shape, db_shape", [
        ((3,), (5, 3)), ((2, 3), (5,)), ((2, 3, 1), (5, 3)), ((2, 3), (5, 4)),
    ])
    def test_bad_shapes_rejected(self, query_shape, db_shape):
        with pytest.raises(ValueError) as err:
            EvalJudgments(query_labels=np.zeros(query_shape),
                          db_labels=np.zeros(db_shape))
        assert str(query_shape) in str(err.value)
        assert str(db_shape) in str(err.value)


class TestAveragePrecision:
    def test_perfect_ranking_is_one(self):
        relevant = np.array([True, True, False, False])
        assert average_precision([0, 1, 2, 3], relevant) == 1.0

    def test_hand_computed_case(self):
        # hits at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        relevant = np.array([True, False, True])
        got = average_precision([0, 1, 2], relevant)
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)

    def test_all_relevant_at_bottom(self):
        relevant = np.array([False, False, True])
        got = average_precision([0, 1, 2], relevant)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_no_relevant_returns_none(self):
        assert average_precision([0, 1], np.array([False, False])) is None

    def test_truncated_list_denominator(self):
        # five relevant in the database but only two ranked: divide by 2
        relevant = np.ones(5, dtype=bool)
        got = average_precision([0, 1], relevant, total_relevant=5)
        assert got == 1.0

    def test_cutoff_misses_some_relevant(self):
        # 3 relevant overall, cutoff of 4 catches two of them
        relevant = np.array([True, True, False, False, True])
        got = average_precision([0, 2, 1, 3], relevant, total_relevant=3)
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 3.0, rel=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(2, 40)
            relevant = rng.random(n) < 0.3
            ranked = rng.permutation(n)
            got = average_precision(ranked, relevant)
            want = naive_average_precision(relevant[ranked])
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_below_last_relevant(self):
        rng = np.random.default_rng(1)
        relevant = np.zeros(20, dtype=bool)
        relevant[[2, 5, 7]] = True
        ranked = np.arange(20)
        base = average_precision(ranked, relevant)
        tail = ranked[8:].copy()
        rng.shuffle(tail)
        shuffled = np.concatenate([ranked[:8], tail])
        assert average_precision(shuffled, relevant) == pytest.approx(
            base, abs=1e-15)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError):
            average_precision([], np.array([True]))


class TestPrecisionAtK:
    def test_basic_counts(self):
        relevant = np.array([True, False, True, False])
        assert precision_at_k([0, 1, 2, 3], relevant, 1) == 1.0
        assert precision_at_k([0, 1, 2, 3], relevant, 2) == 0.5
        assert precision_at_k([0, 1, 2, 3], relevant, 4) == 0.5

    def test_k_past_list_end_uses_prefix(self):
        relevant = np.array([True, True])
        assert precision_at_k([0, 1], relevant, 10) == 1.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k([0], np.array([True]), 0)


class TestMeanAveragePrecision:
    def test_matches_naive_map_on_random_rankings(self):
        rng = np.random.default_rng(2)
        n_db, n_q, r = 50, 200, 16
        db = random_codes(rng, n_db, r).astype(np.int8)
        queries = code_block(random_codes(rng, n_q, r))
        labels_db = (rng.random((n_db, 3)) < 0.4).astype(int)
        labels_q = (rng.random((n_q, 3)) < 0.4).astype(int)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        index = make_index(db)
        got, _ = mean_average_precision(queries, index, judgments)

        rankings, rels = [], []
        for qi in range(n_q):
            rel = judgments.relevance(qi)
            if not rel.any():
                continue
            ids, _ = hamming_rank(queries.packed[qi], index)
            rankings.append(ids)
            rels.append(rel)
        want = naive_map(rankings, rels)
        assert got == pytest.approx(want, abs=1e-12)

    def test_exclusion_counting(self):
        db = np.ones((4, 4), dtype=np.int8)
        labels_db = np.array([[1, 0]] * 4)
        labels_q = np.array([[1, 0], [0, 1], [0, 1]])
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        queries = code_block(np.ones((3, 4)))
        value, excluded = mean_average_precision(queries, make_index(db),
                                                 judgments)
        assert excluded == 2
        assert value == 1.0

    def test_all_queries_excluded_is_nan(self):
        db = np.ones((2, 4), dtype=np.int8)
        judgments = EvalJudgments(query_labels=np.array([[0, 1]]),
                                  db_labels=np.array([[1, 0]] * 2))
        queries = code_block(np.ones((1, 4)))
        value, excluded = mean_average_precision(queries, make_index(db),
                                                 judgments)
        assert np.isnan(value)
        assert excluded == 1

    def test_sub_index_restricts_relevant_counting(self):
        # database rows 0 and 3 are relevant, but the index only holds
        # rows 0..2; the AP denominator must count only row 0
        db = np.array([[1, 1, 1, 1],
                       [-1, -1, -1, -1],
                       [-1, -1, 1, 1],
                       [1, 1, 1, 1]], dtype=np.int8)
        labels_db = np.array([[1], [0], [0], [1]])
        judgments = EvalJudgments(query_labels=np.array([[1]]),
                                  db_labels=labels_db)
        index = make_index(db[:3])
        queries = code_block(np.ones((1, 4)))
        value, excluded = mean_average_precision(queries, index, judgments)
        assert excluded == 0
        assert value == 1.0  # row 0 ranks first at distance 0

    def test_index_larger_than_labelled_database_rejected(self):
        db = np.ones((4, 4), dtype=np.int8)
        judgments = EvalJudgments(query_labels=np.array([[1]]),
                                  db_labels=np.array([[1]] * 3))
        queries = code_block(np.ones((1, 4)))
        with pytest.raises(ValueError, match="index holds 4 records but only "
                                             "3 database records"):
            mean_average_precision(queries, make_index(db), judgments)

    def test_random_codes_score_near_prevalence(self):
        rng = np.random.default_rng(3)
        n_db, n_q, r = 400, 200, 32
        db = random_codes(rng, n_db, r).astype(np.int8)
        queries = code_block(random_codes(rng, n_q, r))
        # one label out of four per record, uniform
        labels_db = np.eye(4, dtype=int)[rng.integers(0, 4, n_db)]
        labels_q = np.eye(4, dtype=int)[rng.integers(0, 4, n_q)]
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        value, _ = mean_average_precision(queries, make_index(db), judgments)
        prevalence = float(np.mean(labels_q @ labels_db.T.astype(float) > 0))
        assert value == pytest.approx(prevalence, abs=0.05)

    def test_cutoff_changes_denominator_consistently(self):
        rng = np.random.default_rng(4)
        db = random_codes(rng, 30, 8).astype(np.int8)
        queries = code_block(random_codes(rng, 5, 8))
        labels_db = (rng.random((30, 2)) < 0.5).astype(int)
        labels_q = np.ones((5, 2), dtype=int)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        index = make_index(db)
        full, _ = mean_average_precision(queries, index, judgments)
        cut, _ = mean_average_precision(queries, index, judgments, cutoff=5)
        assert np.isfinite(full) and np.isfinite(cut)
        assert 0.0 <= cut <= 1.0

    @pytest.mark.parametrize("cutoff", [0, -2])
    def test_cutoff_below_one_is_refused(self, cutoff):
        rng = np.random.default_rng(4)
        queries = code_block(random_codes(rng, 3, 8))
        judgments = EvalJudgments(query_labels=np.ones((3, 2), dtype=int),
                                  db_labels=np.ones((10, 2), dtype=int))
        index = make_index(random_codes(rng, 10, 8).astype(np.int8))
        with pytest.raises(ValueError,
                           match=f"cutoff must be >= 1 or None, got {cutoff}"):
            mean_average_precision(queries, index, judgments, cutoff=cutoff)

    @pytest.mark.parametrize("n_q, sub_index, cutoff", [
        (QUERY_BLOCK - 1, False, None),
        (3 * QUERY_BLOCK + 5, False, None),
        (3 * QUERY_BLOCK + 5, True, None),
        (3 * QUERY_BLOCK + 5, False, 12),
        (2 * QUERY_BLOCK, True, 12),
    ])
    def test_equals_per_query_formula(self, n_q, sub_index, cutoff):
        rng = np.random.default_rng(n_q + 10 * sub_index + (cutoff or 0))
        n_db, r, n_labels = 300, 12, 6
        db = random_codes(rng, n_db, r).astype(np.int8)
        queries = code_block(random_codes(rng, n_q, r))
        # multi-label records; some queries have no relevant item
        labels_db = (rng.random((n_db, n_labels)) < 0.25).astype(int)
        labels_q = (rng.random((n_q, n_labels)) < 0.2).astype(int)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        index = make_index(db[:170] if sub_index else db)
        got = mean_average_precision(queries, index, judgments, cutoff)
        want = per_query_map(queries, index, labels_q, labels_db, cutoff)
        assert want[1] > 0
        assert got == want


class TestMapPerRound:
    def curve_inputs(self, n_q):
        rng = np.random.default_rng(n_q)
        hyper = Hyperparams(r=16, m=6, f=3, c=5)
        state = make_state(hyper, rng)
        blocks = [code_block(random_codes(rng, n, hyper.r))
                  for n in (40, 25, 60)]
        p_history = [rng.normal(size=(hyper.m, hyper.r)) for _ in blocks]
        snapshots = round_snapshots(state, blocks, p_history)
        query_x = rng.normal(size=(n_q, 4))
        judgments = EvalJudgments(
            query_labels=(rng.random((n_q, 5)) < 0.2).astype(int),
            db_labels=(rng.random((125, 5)) < 0.25).astype(int))
        return snapshots, query_x, judgments

    @pytest.mark.parametrize("n_q, cutoff", [
        (QUERY_BLOCK - 1, None), (2 * QUERY_BLOCK + 5, None),
        (2 * QUERY_BLOCK + 5, 10)])
    def test_equals_mean_average_precision_per_round(self, n_q, cutoff):
        snapshots, query_x, judgments = self.curve_inputs(n_q)
        want = [(rnd, mean_average_precision(hash_queries(query_x, snap),
                                             index, judgments, cutoff)[0])
                for rnd, snap, index in snapshots]
        got = map_per_round(snapshots, query_x, judgments, cutoff)
        assert got == want

    def test_relevance_built_once_per_curve(self, monkeypatch):
        # one label product per QUERY_BLOCK queries when the judgments are
        # built, and none while curves are computed from them
        products, reads = [], []
        real_product = evaluation._intersects
        real_relevance = EvalJudgments.relevance
        monkeypatch.setattr(evaluation, "_intersects", lambda q, db: (
            products.append(len(q)) or real_product(q, db)))
        monkeypatch.setattr(EvalJudgments, "relevance", lambda self, idx: (
            reads.append(idx) or real_relevance(self, idx)))
        snapshots, query_x, judgments = self.curve_inputs(2 * QUERY_BLOCK + 5)
        assert products == [QUERY_BLOCK, QUERY_BLOCK, 5]
        first = map_per_round(snapshots, query_x, judgments)
        assert map_per_round(snapshots, query_x, judgments) == first
        assert products == [QUERY_BLOCK, QUERY_BLOCK, 5]
        assert reads == []
