"""Sparse fast path for the feature matrix.

Citation-network feature matrices are >98% zeros, and the input-layer
product X @ W1 dominates a training step when done densely. This wrapper
keeps X in CSR form; masking and dropout act on stored values only (a
dropped zero is still zero, and dropout stores only the nonzero survivors),
and the W1 gradient is X^T @ G. No gradient ever flows into X itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class SparseFeatures:
    """Immutable CSR feature matrix; transforms return new value arrays."""

    def __init__(self, csr: sp.csr_matrix):
        self._csr = csr

    @classmethod
    def from_nonzeros(cls, shape: tuple[int, int], positions: np.ndarray,
                      values: np.ndarray) -> "SparseFeatures":
        """CSR of the matrix whose nonzeros sit at the sorted row-major
        `positions`; byte for byte `sp.csr_matrix` of that dense matrix, with
        read-only arrays, since a dataset shares its prepared CSR."""
        indptr = np.searchsorted(positions, np.arange(shape[0] + 1) * shape[1])
        csr = sp.csr_matrix((values, positions % shape[1], indptr), shape)
        for a in (csr.data, csr.indices, csr.indptr):
            a.flags.writeable = False
        return cls(csr)

    @property
    def shape(self):
        return self._csr.shape

    def scale_columns(self, col_scale: np.ndarray) -> "SparseFeatures":
        """Multiply each column by a scalar (0/1 for feature masking)."""
        out = self._csr.copy()
        out.data = out.data * col_scale[out.indices]
        return SparseFeatures(out)

    def drop_entries(self, p: float, rng: np.random.Generator) -> "SparseFeatures":
        """Dropout over stored values, scaled by 1/(1-p): one draw per stored
        entry, and only the nonzero survivors are stored. Products through
        the dropped zeros would add only +-0 to sums that start at +0."""
        csr = self._csr
        keep = np.flatnonzero((rng.random(csr.data.shape) >= p) & (csr.data != 0.0))
        return SparseFeatures(sp.csr_matrix(
            (csr.data[keep] / (1.0 - p), csr.indices[keep], np.searchsorted(keep, csr.indptr)),
            csr.shape,
        ))

    def matmul(self, w: np.ndarray) -> np.ndarray:
        return self._csr @ w

    def grad_right(self, g: np.ndarray) -> np.ndarray:
        """Gradient of (self @ W) w.r.t. W, given upstream gradient g."""
        return (self._csr.T @ g)
