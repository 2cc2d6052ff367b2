"""The array-built adjacency against the loop-based code it replaced.

The reference functions below are the former dict-based `from_edges`, the
tuple-based edge drop and a dense-outer-product normalization, kept as an
exact oracle. Stored arrays must match bit for bit, and dropping edges
must consume the random stream exactly as before.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grafn.augment import drop_edges
from grafn.sparse import SparseAdjacency, normalize_adjacency


def ref_from_edges(n, edges):
    entries = {}
    for i, j in edges:
        entries[(min(i, j), max(i, j))] = 1.0
    rows, cols, vals = [], [], []
    for (i, j), v in entries.items():
        rows += [i, j]
        cols += [j, i]
        vals += [v, v]
    mat = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    ).tocsr()
    mat.sort_indices()
    return mat


def ref_drop_edges(mat, p, rng):
    if p == 0.0:
        return mat
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    upper = rows < mat.indices
    edges = np.column_stack([rows[upper], mat.indices[upper]])
    keep = rng.random(len(edges)) >= p
    return ref_from_edges(mat.shape[0], [tuple(e) for e in edges[keep]])


def ref_normalize(mat):
    """a_ij * (s_i * s_j): one product per pair."""
    mat = mat + sp.identity(mat.shape[0], format="csr", dtype=np.float64)
    deg = np.asarray(mat.sum(axis=1)).reshape(-1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    out = sp.csr_matrix(mat.multiply(np.outer(inv_sqrt, inv_sqrt)))
    out.sort_indices()
    return out


def assert_same_csr(adj, ref):
    assert adj.csr.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(adj.csr, name), getattr(ref, name)), name


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    # repeated pairs in either orientation arise freely; graph.edges has no loops
    edges = [(i, j) for i, j in draw(st.lists(st.tuples(node, node), max_size=40)) if i != j]
    return n, edges


@settings(max_examples=300, deadline=None)
@given(graphs(), st.sampled_from([0.0, 0.3, 0.5, 0.9]), st.integers(0, 2**32 - 1))
@example((1, []), 0.5, 0)
@example((4, []), 0.3, 1)
@example((3, [(0, 1), (1, 0), (2, 1), (1, 2)]), 0.5, 2)
def test_matches_loop_reference(graph, p, seed):
    """Also checks the clean graph and the view for exact symmetry, which
    lets spmm's backward multiply by the matrix itself."""
    n, edges = graph
    adj = SparseAdjacency.from_edges(n, edges)
    ref = ref_from_edges(n, edges)
    assert_same_csr(adj, ref)
    clean = normalize_adjacency(adj)
    assert_same_csr(clean, ref_normalize(ref))

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    view = drop_edges(adj, p, rng)
    assert_same_csr(view, ref_normalize(ref_drop_edges(ref, p, ref_rng)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    g = np.random.default_rng(seed).standard_normal((n, 3))
    for out in (clean, view):
        assert np.array_equal(out.csr @ g, out.csr.T @ g)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**32 - 1))
def test_view_that_drops_nothing_is_the_clean_graph(graph, seed):
    """A view keeps the clean graph's diagonal."""
    n, edges = graph
    adj = SparseAdjacency.from_edges(n, edges)
    assert_same_csr(drop_edges(adj, 1e-300, np.random.default_rng(seed)),
                    normalize_adjacency(adj).csr)
