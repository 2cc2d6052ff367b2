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


def ref_from_edges(n, edges, values=None):
    entries = {}
    if values is None:
        for i, j in edges:
            entries[(min(i, j), max(i, j))] = 1.0
    else:
        for (i, j), v in zip(edges, values):
            entries.setdefault((min(i, j), max(i, j)), float(v))
    rows, cols, vals = [], [], []
    for (i, j), v in entries.items():
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
    mat = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    ).tocsr()
    mat.sort_indices()
    return mat


def ref_drop_edges(mat, p, rng):
    """A stored self-loop is no edge: it is never drawn and always kept."""
    if p == 0.0:
        return mat
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    upper, loop = rows < mat.indices, rows == mat.indices
    edges = np.column_stack([rows[upper], mat.indices[upper]])
    keep = rng.random(len(edges)) >= p
    loops = np.column_stack([rows[loop], rows[loop]])
    return ref_from_edges(
        mat.shape[0], [tuple(e) for e in np.concatenate([edges[keep], loops])],
        values=np.concatenate([mat.data[upper][keep], mat.data[loop]]),
    )


def ref_normalize(mat):
    """a_ij * (s_i * s_j): one product per pair, so weighted graphs stay
    exactly symmetric."""
    mat = mat + sp.identity(mat.shape[0], format="csr", dtype=np.float64)
    deg = np.asarray(mat.sum(axis=1)).reshape(-1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    out = sp.csr_matrix(mat.multiply(np.outer(inv_sqrt, inv_sqrt)))
    out.eliminate_zeros()
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
    # self-loops and repeated pairs in either orientation arise freely
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    weight = st.sampled_from([0.0, 1.0, 0.5, 2.0, 1e-3]) | st.floats(0.0, 10.0)
    values = draw(st.none() | st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return n, edges, values


@settings(max_examples=300, deadline=None)
@given(graphs(), st.sampled_from([0.0, 0.3, 0.5, 0.9]), st.integers(0, 2**32 - 1))
@example((1, [], None), 0.5, 0)
@example((1, [(0, 0)], [0.0]), 0.5, 0)
@example((4, [], None), 0.3, 1)
@example((3, [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)], [0.0, 3.0, 2.0, 0.5, 4.0]), 0.5, 2)
# a subnormal weight whose normalized value underflows to zero, which is not stored
@example((7, [(0, 1)] + [(0, j) for j in range(2, 7)], [5e-324] + [1.0] * 5), 0.3, 3)
def test_matches_loop_reference(graph, p, seed):
    n, edges, values = graph
    adj = SparseAdjacency.from_edges(n, edges, values=values)
    ref = ref_from_edges(n, edges, values)
    assert_same_csr(adj, ref)
    assert_same_csr(normalize_adjacency(adj), ref_normalize(ref))

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    view = drop_edges(adj, p, rng)
    assert_same_csr(view, ref_normalize(ref_drop_edges(ref, p, ref_rng)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**32 - 1))
@example((2, [(0, 0), (0, 1)], [3.0, 1.0]), 0)
def test_view_that_drops_nothing_is_the_clean_graph(graph, seed):
    """A view keeps the clean graph's diagonal, a stored self-loop included."""
    n, edges, values = graph
    adj = SparseAdjacency.from_edges(n, edges, values=values)
    assert_same_csr(drop_edges(adj, 1e-300, np.random.default_rng(seed)),
                    normalize_adjacency(adj).csr)


@settings(max_examples=300, deadline=None)
@given(graphs().filter(lambda graph: graph[2] is not None),
       st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 2**32 - 1))
def test_weighted_normalization_is_exactly_symmetric(graph, p, seed):
    """The clean graph and every view of a weighted graph keep the symmetry
    invariant, so spmm's backward may multiply by the matrix itself."""
    n, edges, values = graph
    adj = SparseAdjacency.from_edges(n, edges, values=values)
    g = np.random.default_rng(seed).standard_normal((n, 3))
    for out in (normalize_adjacency(adj), drop_edges(adj, p, np.random.default_rng(seed))):
        out.validate()
        assert np.array_equal(out.csr @ g, out.csr.T @ g)
