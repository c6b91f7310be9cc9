import numpy as np
import pytest

from taghash.semantics import EmbeddingTable, pool_semantics


def table_from(rows):
    return EmbeddingTable(vectors=np.asarray(rows, float))


def test_single_tag_copies_embedding():
    table = table_from([[1.0, 2.0], [3.0, -1.0]])
    y = np.array([[0, 1]])
    out = pool_semantics(y, table)
    assert np.array_equal(out.z[0], [3.0, -1.0])
    assert out.valid_mask[0]


def test_two_tag_mean():
    table = table_from([[1.0, 0.0], [0.0, 1.0]])
    out = pool_semantics(np.array([[1, 1]]), table)
    assert np.array_equal(out.z[0], [0.5, 0.5])


def test_matches_naive_row_loop():
    rng = np.random.default_rng(5)
    y = (rng.random((10, 6)) < 0.4).astype(int)
    table = table_from(rng.normal(size=(6, 3)))
    out = pool_semantics(y, table)
    for i in range(10):
        tags = [j for j in range(6) if y[i, j]]
        if tags:
            expected = sum(table.vectors[j] for j in tags) / len(tags)
            assert np.allclose(out.z[i], expected, atol=1e-14)
            assert out.valid_mask[i]
        else:
            assert np.array_equal(out.z[i], np.zeros(3))
            assert not out.valid_mask[i]


def test_tagless_row_is_zero_and_flagged():
    table = table_from([[2.0], [4.0]])
    out = pool_semantics(np.array([[0, 0], [1, 0]]), table)
    assert np.array_equal(out.z[0], [0.0])
    assert not out.valid_mask[0]
    assert out.valid_mask[1]


def test_tag_order_and_duplication_invariance():
    rng = np.random.default_rng(8)
    table = table_from(rng.normal(size=(5, 4)))
    row = np.array([1, 0, 1, 1, 0])
    out = pool_semantics(np.stack([row, row]), table)
    assert np.array_equal(out.z[0], out.z[1])


def test_infinity_norm_bound():
    rng = np.random.default_rng(3)
    table = table_from(rng.normal(size=(7, 4)))
    y = (rng.random((20, 7)) < 0.5).astype(int)
    out = pool_semantics(y, table)
    bound = np.max(np.abs(table.vectors))
    assert np.max(np.abs(out.z)) <= bound + 1e-12


def test_column_mismatch():
    table = table_from([[1.0], [2.0]])
    with pytest.raises(ValueError):
        pool_semantics(np.zeros((3, 3), dtype=int), table)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_table_rejected(value):
    with pytest.raises(ValueError, match="NaN or inf"):
        EmbeddingTable(vectors=[[1.0, 0.0], [0.5, value]])
