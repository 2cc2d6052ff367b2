"""The selection-based `sim_at_k` against the full-sort code it replaced.

`ref_sim_at_k` is the former body: a stable argsort of every negated
similarity row, keeping the first k columns. It is kept as an exact oracle;
small integer embeddings make many similarities tie exactly, so the
"ties toward the lower index" rule is exercised on most rows.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grafn import sim_at_k


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
    z, labels, queries, block = case
    for k in range(1, z.shape[0]):
        assert sim_at_k(z, labels, k, queries, block) == ref_sim_at_k(
            z, labels, k, queries, block
        )
