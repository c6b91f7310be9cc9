import numpy as np
import pytest

from taghash.codes import CodeBlock, pack_codes
from taghash.evaluation import (EvalJudgments, average_precision,
                                mean_average_precision, precision_at_k)
from taghash.retrieval import RetrievalIndex

from conftest import random_codes
from oracles import naive_average_precision, naive_map


def make_index(dense, ids=None):
    return RetrievalIndex(packed=pack_codes(dense),
                          ids=np.arange(len(dense))
                          if ids is None else np.asarray(ids),
                          r=dense.shape[1], model_round=1)


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
        queries = CodeBlock(random_codes(rng, n_q, r).astype(np.int8))
        labels_db = (rng.random((n_db, 3)) < 0.4).astype(int)
        labels_q = (rng.random((n_q, 3)) < 0.4).astype(int)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        index = make_index(db)
        got, _ = mean_average_precision(queries, index, judgments)

        from taghash.retrieval import hamming_rank
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
        queries = CodeBlock(np.ones((3, 4), dtype=np.int8))
        value, excluded = mean_average_precision(queries, make_index(db),
                                                 judgments)
        assert excluded == 2
        assert value == 1.0

    def test_all_queries_excluded_is_nan(self):
        db = np.ones((2, 4), dtype=np.int8)
        judgments = EvalJudgments(query_labels=np.array([[0, 1]]),
                                  db_labels=np.array([[1, 0]] * 2))
        queries = CodeBlock(np.ones((1, 4), dtype=np.int8))
        value, excluded = mean_average_precision(queries, make_index(db),
                                                 judgments)
        assert np.isnan(value)
        assert excluded == 1

    def test_sub_index_restricts_relevant_counting(self):
        # database rows 0 and 1 are relevant, but the index only holds
        # rows 1..3; the AP denominator must count only row 1
        db = np.array([[1, 1, 1, 1],
                       [1, 1, 1, 1],
                       [-1, -1, -1, -1],
                       [-1, -1, 1, 1]], dtype=np.int8)
        labels_db = np.array([[1], [1], [0], [0]])
        judgments = EvalJudgments(query_labels=np.array([[1]]),
                                  db_labels=labels_db)
        index = make_index(db[1:], ids=[1, 2, 3])
        queries = CodeBlock(np.ones((1, 4), dtype=np.int8))
        value, excluded = mean_average_precision(queries, index, judgments)
        assert excluded == 0
        assert value == 1.0  # row 1 ranks first at distance 0

    def test_random_codes_score_near_prevalence(self):
        rng = np.random.default_rng(3)
        n_db, n_q, r = 400, 200, 32
        db = random_codes(rng, n_db, r).astype(np.int8)
        queries = CodeBlock(random_codes(rng, n_q, r).astype(np.int8))
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
        queries = CodeBlock(random_codes(rng, 5, 8).astype(np.int8))
        labels_db = (rng.random((30, 2)) < 0.5).astype(int)
        labels_q = np.ones((5, 2), dtype=int)
        judgments = EvalJudgments(query_labels=labels_q, db_labels=labels_db)
        index = make_index(db)
        full, _ = mean_average_precision(queries, index, judgments)
        cut, _ = mean_average_precision(queries, index, judgments, cutoff=5)
        assert np.isfinite(full) and np.isfinite(cut)
        assert 0.0 <= cut <= 1.0
