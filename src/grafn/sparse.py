"""Undirected graph adjacency as one canonical scipy CSR, and its GCN
renormalization.

The CSR is symmetric with strictly increasing column indices per row. Only
this module reads its index arrays. A raw adjacency is unweighted (every
edge 1.0) with no self-loops; one cached A + I serves the renormalized clean
graph, itself cached, and every edge-dropped view; both caches are read-only.
Degrees and edge counts leave out I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """Symmetric sparse matrix held as one canonical CSR (see module docs)."""

    csr: sp.csr_matrix

    @classmethod
    def from_edges(cls, n: int, edges) -> "SparseAdjacency":
        """Build from (src, dst) pairs of distinct nodes in [0, n), each
        undirected edge once; a pair repeated in either orientation collapses
        to one edge. Both directions are stored, each with weight 1.0.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64).reshape(-1, 2)
        src, dst = pairs.T
        # row-major keys of both orientations, sorted: each row's columns increase
        keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
        keys = keys[np.diff(keys, prepend=-1) != 0]  # faster than np.unique
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return cls(sp.csr_matrix((np.ones(len(keys)), keys % n, indptr), shape=(n, n)))

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.csr.indptr))

    def degrees(self) -> np.ndarray:
        """Number of stored off-diagonal entries per row (raw degree)."""
        rows = self._entry_rows()
        return np.bincount(rows[rows != self.csr.indices], minlength=self.n)

    @property
    def num_undirected_edges(self) -> int:
        """Off-diagonal stored entries counted once per undirected edge."""
        return int(self.degrees().sum()) // 2

    def undirected_edge_list(self) -> np.ndarray:
        """Off-diagonal edges as an (m, 2) array with src < dst, row-major order."""
        rows, cols = self._entry_rows(), self.csr.indices
        upper = rows < cols
        return np.column_stack([rows[upper], cols[upper]])

    @cached_property
    def _with_self_loops(self) -> sp.csr_matrix:
        """A + I, built once and read-only: the clean graph and every view share it."""
        mat = self.csr + sp.identity(self.n, format="csr", dtype=np.float64)
        for a in (mat.data, mat.indices, mat.indptr):
            a.flags.writeable = False
        return mat

    @cached_property
    def _normalized(self) -> "SparseAdjacency":
        """The renormalized clean graph, built once; its index arrays are A + I's."""
        clean = _renormalize(sp.csr_matrix(self._with_self_loops, copy=False))
        clean.csr.data.flags.writeable = False
        return clean

    @cached_property
    def _view_base(self) -> tuple[int, sp.csr_matrix, np.ndarray]:
        """(m, A + I, edge) for edge-dropped views: `edge` holds each entry's index
        among the m undirected edges, -1 on the diagonal."""
        upper_keys = self.undirected_edge_list() @ [self.n, 1]
        mat = self._with_self_loops
        rows, cols = np.repeat(np.arange(self.n), np.diff(mat.indptr)), mat.indices
        key = np.minimum(rows, cols) * self.n + np.maximum(rows, cols)
        return len(upper_keys), mat, np.where(rows == cols, -1, np.searchsorted(upper_keys, key))


def normalize_adjacency(adj: SparseAdjacency) -> SparseAdjacency:
    """GCN renormalization D^-1/2 (A + I) D^-1/2: with degrees d_i of A + I
    and s_i = d_i^-1/2, each a_ij becomes a_ij * (s_i * s_j), exactly symmetric.
    All outputs lie in (0, 1]. Every call returns the graph's one read-only copy."""
    return adj._normalized


def drop_and_normalize(adj: SparseAdjacency, p: float,
                       rng: np.random.Generator) -> SparseAdjacency:
    """normalize_adjacency of the graph left after dropping each undirected edge
    with probability p, drawn as one rng.random(m) in undirected_edge_list order."""
    m, mat, edge = adj._view_base
    kept = np.flatnonzero(np.append(rng.random(m) >= p, True)[edge])  # edge -1: the diagonal
    return _renormalize(sp.csr_matrix(
        (mat.data.take(kept), mat.indices.take(kept), np.searchsorted(kept, mat.indptr)), mat.shape))


def _renormalize(mat: sp.csr_matrix) -> SparseAdjacency:
    """Rebind mat.data, never write into it or the shared index arrays; every
    diagonal entry is stored. Row sums as mat.sum(axis=1)."""
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(mat.data, mat.indptr[:-1]))
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data = mat.data * (inv_sqrt[rows] * inv_sqrt[mat.indices])
    return SparseAdjacency(mat)
