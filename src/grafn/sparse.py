"""Undirected graph adjacency as one canonical scipy CSR, and its GCN
renormalization.

The CSR is symmetric with non-negative float64 values and strictly
increasing column indices per row. Only this module reads its index arrays.
Degrees, edge counts and the self-loop check count stored entries, so an
explicit zero counts. A dataset's raw adjacency has no self-loops; they
enter only through normalize_adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import NumericsError


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """Symmetric sparse matrix held as one canonical CSR (see module docs)."""

    csr: sp.csr_matrix

    @classmethod
    def from_edges(cls, n: int, edges, values=None) -> "SparseAdjacency":
        """Build from (src, dst) pairs, each undirected edge once.

        Both directions are stored. Duplicate pairs, in either orientation,
        collapse to one entry that keeps the first value seen; without
        `values` every edge weighs 1.0.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64).reshape(-1, 2)
        vals = np.ones(len(pairs)) if values is None else np.asarray(values, dtype=np.float64)
        if vals.shape != (len(pairs),):
            raise NumericsError(f"{vals.size} values given for {len(pairs)} edges")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        bad = np.flatnonzero((lo < 0) | (hi >= n))
        if bad.size:
            raise NumericsError(f"edge ({lo[bad[0]]},{hi[bad[0]]}) out of range for n={n}")
        # np.unique reports each pair's first occurrence
        _, first = np.unique(lo * n + hi, return_index=True)
        lo, hi, vals = lo[first], hi[first], vals[first]
        off = lo != hi
        rows, cols = np.concatenate([lo, hi[off]]), np.concatenate([hi, lo[off]])
        data = np.concatenate([vals, vals[off]])
        # scipy sorts each row's column indices; no duplicates are left to sum
        return cls(sp.csr_matrix((data, (rows, cols)), shape=(n, n)))

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

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
    def _view_base(self) -> tuple[int, sp.csr_matrix, np.ndarray]:
        """(m, A + I, edge) for edge-dropped views: `edge` holds each entry's index
        among the m undirected edges, -1 on the diagonal. A + I is built as in
        normalize_adjacency, so a stored self-loop w (no edge, never drawn) stays
        w + 1 in every view, and scipy's + leaves out zero weights in both."""
        upper_keys = self.undirected_edge_list() @ [self.n, 1]
        mat = self.csr + sp.identity(self.n, format="csr", dtype=np.float64)
        rows, cols = np.repeat(np.arange(self.n), np.diff(mat.indptr)), mat.indices
        key = np.minimum(rows, cols) * self.n + np.maximum(rows, cols)
        return len(upper_keys), mat, np.where(rows == cols, -1, np.searchsorted(upper_keys, key))

    def validate(self) -> None:
        """Check the structural invariants; raises NumericsError on violation."""
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        if len(indptr) != self.n + 1:
            raise NumericsError("indptr length must be n+1")
        if indptr[0] != 0 or indptr[-1] != len(indices) or len(data) != len(indices):
            raise NumericsError("indptr endpoints inconsistent with nnz")
        if np.any(np.diff(indptr) < 0):
            raise NumericsError("indptr must be monotone")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.n):
            raise NumericsError("column indices out of range")
        rows = self._entry_rows()
        unsorted = np.flatnonzero((rows[1:] == rows[:-1]) & (np.diff(indices) <= 0))
        if unsorted.size:
            raise NumericsError(f"row {rows[unsorted[0]]}: column indices not strictly increasing")
        if not np.all(np.isfinite(data)) or np.any(data < 0):
            raise NumericsError("values must be finite and non-negative")
        if (self.csr != self.csr.T).nnz != 0:
            raise NumericsError("adjacency must be symmetric")


def normalize_adjacency(adj: SparseAdjacency) -> SparseAdjacency:
    """GCN renormalization D^-1/2 (A + I) D^-1/2: with degrees d_i of A + I
    and s_i = d_i^-1/2, each a_ij becomes a_ij * (s_i * s_j), exactly symmetric
    for any weights. All outputs lie in (0, 1] and zeros are not stored."""
    return _renormalize(adj.csr + sp.identity(adj.n, format="csr", dtype=np.float64))


def drop_and_normalize(adj: SparseAdjacency, p: float,
                       rng: np.random.Generator) -> SparseAdjacency:
    """normalize_adjacency of the graph left after dropping each undirected edge
    with probability p, drawn as one rng.random(m) in undirected_edge_list order."""
    m, mat, edge = adj._view_base
    keep = np.append(rng.random(m) >= p, True)[edge]  # edge -1 is the diagonal
    indptr = np.append(0, np.cumsum(keep))[mat.indptr]
    return _renormalize(sp.csr_matrix((mat.data[keep], mat.indices[keep], indptr), mat.shape))


def _renormalize(mat: sp.csr_matrix) -> SparseAdjacency:
    """Scale in place a CSR storing every diagonal entry; row sums as mat.sum(axis=1)."""
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(mat.data, mat.indptr[:-1]))
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data = mat.data * (inv_sqrt[rows] * inv_sqrt[mat.indices])
    mat.eliminate_zeros()
    return SparseAdjacency(mat)
