import numpy as np
import pytest

from grafn.augment import drop_edges
from grafn.sparse import SparseAdjacency, normalize_adjacency
from tests.conftest import sparse_features


def test_from_edges_materializes_both_directions():
    adj = SparseAdjacency.from_edges(2, [(0, 1)])
    np.testing.assert_array_equal(
        adj.csr.toarray(), [[0.0, 1.0], [1.0, 0.0]]
    )
    assert adj.num_undirected_edges == 1


def test_from_edges_collapses_duplicates():
    adj = SparseAdjacency.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert adj.csr.nnz == 2
    assert adj.csr.data.max() == 1.0


def test_undirected_edge_list_row_major_order():
    adj = SparseAdjacency.from_edges(4, [(2, 3), (0, 1), (0, 3)])
    np.testing.assert_array_equal(
        adj.undirected_edge_list(), [[0, 1], [0, 3], [2, 3]]
    )


def test_degrees_exclude_self_loops():
    """A normalized view stores the diagonal; degrees and edges leave it out."""
    adj = normalize_adjacency(SparseAdjacency.from_edges(3, [(0, 1), (1, 2)]))
    assert adj.csr.nnz == 7
    np.testing.assert_array_equal(adj.degrees(), [1, 2, 1])
    assert adj.num_undirected_edges == 2
    np.testing.assert_array_equal(adj.undirected_edge_list(), [[0, 1], [1, 2]])


def test_clean_graph_and_views_share_one_unwritten_a_plus_i(synthetic_ds):
    """normalize_adjacency renormalizes over the graph's cached A + I: an
    edge-dropped view in between changes nothing, and neither writes into it."""
    adj = synthetic_ds.adj
    first = normalize_adjacency(adj)
    drop_edges(adj, 0.5, np.random.default_rng(0))
    second = normalize_adjacency(adj)
    for name in ("data", "indices", "indptr"):
        assert getattr(first.csr, name).tobytes() == getattr(second.csr, name).tobytes()
    cached = adj._with_self_loops
    for result in (first, second):
        assert np.shares_memory(result.csr.indices, cached.indices)
        assert np.shares_memory(result.csr.indptr, cached.indptr)
    assert cached.nnz == adj.csr.nnz + adj.n and np.all(cached.data == 1.0)


def test_normalized_star_stores_no_zero_and_bottoms_at_hub_diagonal():
    """Every renormalized value is at least 1/(max degree + 1) > 0."""
    n = 6
    adj = normalize_adjacency(SparseAdjacency.from_edges(n, [(0, i) for i in range(1, n)]))
    assert adj.csr.nnz == n + 2 * (n - 1)
    assert adj.csr.data.min() == pytest.approx(1.0 / n)
    assert adj.csr.data.max() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# SparseFeatures


def test_sparse_features_roundtrip():
    rng = np.random.default_rng(0)
    x = (rng.random((6, 9)) < 0.3) * rng.random((6, 9))
    sf = sparse_features(x)
    np.testing.assert_array_equal(sf._csr.toarray(), x)
    assert sf.shape == (6, 9)


def test_sparse_features_matmul_matches_dense():
    rng = np.random.default_rng(1)
    x = (rng.random((7, 5)) < 0.4) * rng.standard_normal((7, 5))
    w = rng.standard_normal((5, 3))
    sf = sparse_features(x)
    np.testing.assert_allclose(sf.matmul(w), x @ w, atol=1e-12)
    g = rng.standard_normal((7, 3))
    np.testing.assert_allclose(sf.grad_right(g), x.T @ g, atol=1e-12)


def test_sparse_features_column_scale():
    x = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
    sf = sparse_features(x).scale_columns(np.array([1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(
        sf._csr.toarray(), [[1.0, 0.0, 0.0], [0.0, 0.0, 4.0]]
    )


def test_sparse_features_drop_entries_scales_survivors():
    x = np.ones((20, 50))
    sf = sparse_features(x)
    dropped = sf.drop_entries(0.5, np.random.default_rng(3))._csr.toarray()
    assert set(np.unique(dropped)) == {0.0, 2.0}
    assert abs(dropped.mean() - 1.0) < 0.1


def test_sparse_features_drop_entries_stores_no_zeros():
    """Masked columns and dropped entries leave the CSR; products equal, bit
    for bit, those of the CSR that keeps them as stored zeros."""
    rng = np.random.default_rng(6)
    x = (rng.random((40, 30)) < 0.2) * rng.standard_normal((40, 30))
    masked = sparse_features(x).scale_columns((rng.random(30) >= 0.5) * 1.0)
    dropped = masked.drop_entries(0.5, np.random.default_rng(8))
    assert np.all(dropped._csr.data != 0.0)
    ref = masked._csr.copy()
    ref.data = ref.data * (np.random.default_rng(8).random(ref.nnz) >= 0.5) / 0.5
    assert np.count_nonzero(ref.data) < ref.nnz
    w, g = rng.standard_normal((30, 8)), rng.standard_normal((40, 8))
    assert dropped.matmul(w).tobytes() == (ref @ w).tobytes()
    assert dropped.grad_right(g).tobytes() == (ref.T @ g).tobytes()
