import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import ConfigError, TrainConfig, random_dataset
from grafn.augment import augment_view, drop_edges, mask_features
from grafn.sparse import SparseAdjacency, normalize_adjacency
from grafn.sparse_features import SparseFeatures


def test_mask_p_zero_is_identity():
    x = np.random.default_rng(0).random((5, 8))
    out = mask_features(x, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(out, x)


def test_mask_column_fraction_concentrates():
    x = np.ones((3, 10_000))
    out = mask_features(x, 0.3, np.random.default_rng(2))
    zero_cols = np.mean(out[0] == 0.0)
    assert abs(zero_cols - 0.3) < 0.02
    # a masked column is masked for every node
    np.testing.assert_array_equal(out[0] == 0.0, out[2] == 0.0)


def test_mask_deterministic_per_seed():
    x = np.random.default_rng(3).random((6, 40))
    a = mask_features(x, 0.4, np.random.default_rng(7))
    b = mask_features(x, 0.4, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_mask_sparse_dense_column_equivalence():
    """Column masking consumes one draw per column, so dense and sparse
    inputs agree exactly under the same seed."""
    rng = np.random.default_rng(5)
    x = (rng.random((8, 30)) < 0.3) * rng.random((8, 30))
    dense = mask_features(x, 0.35, np.random.default_rng(11))
    sparse = mask_features(SparseFeatures.from_dense(x), 0.35, np.random.default_rng(11))
    np.testing.assert_array_equal(sparse._csr.toarray(), dense)


def test_drop_edges_p_zero_identity():
    adj = SparseAdjacency.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    out = drop_edges(adj, 0.0, rng)
    np.testing.assert_array_equal(out.csr.toarray(), normalize_adjacency(adj).csr.toarray())
    assert rng.bit_generator.state == state


def test_drop_edges_survival_fraction():
    rng = np.random.default_rng(21)
    n = 600
    edges = set()
    while len(edges) < 10_000:
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    adj = SparseAdjacency.from_edges(n, sorted(edges))
    out = drop_edges(adj, 0.5, np.random.default_rng(22))
    survived = out.num_undirected_edges / adj.num_undirected_edges
    assert abs(survived - 0.5) < 0.03


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_drop_edges_output_always_symmetric(seed):
    rng = np.random.default_rng(seed)
    n = 12
    m = np.triu(rng.random((n, n)) < 0.4, 1)
    adj = SparseAdjacency.from_edges(n, list(zip(*np.nonzero(m))))
    out = drop_edges(adj, 0.5, rng)
    out.validate()
    dense = out.csr.toarray()
    np.testing.assert_array_equal(dense, dense.T)


def test_augment_view_noop_config(synthetic_ds):
    adj_view, x_view = augment_view(synthetic_ds, 0.0, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(x_view, synthetic_ds.features)
    np.testing.assert_allclose(
        adj_view.csr.toarray(), normalize_adjacency(synthetic_ds.adj).csr.toarray(),
        atol=1e-14,
    )


def test_augment_view_seeds_differ(synthetic_ds):
    a = augment_view(synthetic_ds, 0.3, 0.3, np.random.default_rng(1))
    b = augment_view(synthetic_ds, 0.3, 0.3, np.random.default_rng(2))
    assert not np.array_equal(a[1], b[1]) or a[0].nnz != b[0].nnz


def test_augment_view_preserves_shape_and_invariants(synthetic_ds):
    adj_view, x_view = augment_view(synthetic_ds, 0.3, 0.3, np.random.default_rng(3))
    assert x_view.shape == synthetic_ds.features.shape
    assert adj_view.n == synthetic_ds.num_nodes
    adj_view.validate()
    assert adj_view.csr.data.min() > 0.0 and adj_view.csr.data.max() <= 1.0


def test_augment_view_normalizes_after_dropping():
    """Degrees entering normalization must reflect the thinned graph."""
    ds = random_dataset(30, num_classes=3, num_features=8, p_in=0.4, p_out=0.2, seed=1)
    rng = np.random.default_rng(77)
    adj_view, _ = augment_view(ds, 0.0, 0.5, rng)
    edges = ds.adj.undirected_edge_list()
    kept = edges[np.random.default_rng(77).random(len(edges)) >= 0.5]
    oracle = normalize_adjacency(SparseAdjacency.from_edges(ds.num_nodes, kept))
    np.testing.assert_allclose(adj_view.csr.toarray(), oracle.csr.toarray(), atol=1e-14)


def test_isolated_node_keeps_self_loop():
    # p=1.0 is out of range, so isolate via a one-edge graph and a seed
    # that happens to drop it
    adj = SparseAdjacency.from_edges(2, [(0, 1)])
    for seed in range(50):
        out = drop_edges(adj, 0.9, np.random.default_rng(seed))
        if out.num_undirected_edges == 0:
            np.testing.assert_allclose(out.csr.toarray(), np.eye(2), atol=1e-15)
            return
    pytest.fail("no seed dropped the edge at p=0.9")


def test_augment_config_validation():
    with pytest.raises(ConfigError, match="strong_feature_mask"):
        TrainConfig(strong_feature_mask=1.0)
    with pytest.raises(ConfigError, match="weak_edge_drop"):
        TrainConfig(weak_edge_drop=-0.1)
