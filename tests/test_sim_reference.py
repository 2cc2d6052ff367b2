"""The selection-based `sim_at_k` against the full-sort code it replaced.

`ref_sim_at_k` is the former body: a stable argsort of every negated
similarity row, keeping the first k columns. It is kept as an exact oracle;
small integer embeddings make many similarities tie exactly, so the
"ties toward the lower index" rule is exercised on most rows.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grafn import evaluation, sim_at_k


def ref_sim_at_k(z, label_ids, k, query_nodes=None, block=512):
    n = z.shape[0]
    if query_nodes is None:
        query_nodes = np.arange(n)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    fractions = np.empty(len(query_nodes))
    for start in range(0, len(query_nodes), block):
        q = query_nodes[start:start + block]
        sims = zn[q] @ zn.T
        sims[np.arange(len(q)), q] = -np.inf
        nbrs = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        fractions[start:start + len(q)] = np.mean(
            label_ids[nbrs] == label_ids[q][:, None], axis=1
        )
    return float(np.mean(fractions))


@st.composite
def sim_cases(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    z = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64)
    z[np.linalg.norm(z, axis=1) == 0.0, 0] = 1.0  # zero rows are rejected
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    queries = draw(st.none() | st.lists(
        st.integers(0, n - 1), min_size=1, max_size=n, unique=True
    ).map(np.array))
    block = draw(st.integers(1, 8))
    return z, labels, queries, block


@settings(max_examples=200, deadline=None)
@given(sim_cases())
@example((np.ones((6, 2)), np.array([0, 1, 0, 1, 2, 2]), None, 4))
def test_sim_at_k_matches_sort_oracle_for_every_k(case):
    """Rows of 2 to 24 entries: g = max(k, n // 8) groups of one or a few
    columns, down to a single group holding the whole row."""
    z, labels, queries, block = case
    with mock.patch.object(evaluation, "QUERY_BLOCK", block):
        for k in range(1, z.shape[0]):
            assert sim_at_k(z, labels, k, queries) == ref_sim_at_k(
                z, labels, k, queries, block
            )


def test_sim_at_k_matches_sort_oracle_across_blocks():
    """Heavy ties at two sizes. A 700-node graph takes 87 column groups of 8-9
    entries for k <= 87 (k groups above): all 700 queries take two blocks,
    and for k = 50 the tied candidates cross them. A 300-node graph takes 37
    groups of 8-9 entries for k <= 37, and its queries fit one block. With
    d = 1 every cosine is +-1, so about half of each row ties at the bound,
    the widest candidate rows."""
    rng = np.random.default_rng(5)
    for n in (700, 300):
        for d in (3, 1):
            z = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            z[np.linalg.norm(z, axis=1) == 0.0, 0] = 1.0
            labels = rng.integers(0, 4, n)
            for queries in (None, rng.choice(n, 300, replace=False)):
                for k in (1, 5, 10, 37, 38, 50, 87, 88, 127, 128, 129):
                    assert sim_at_k(z, labels, k, queries) == ref_sim_at_k(
                        z, labels, k, queries
                    ), (n, d, k)
