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

from .errors import NumericsError


class SparseFeatures:
    """Immutable CSR feature matrix; transforms return new value arrays."""

    def __init__(self, csr: sp.csr_matrix):
        self._csr = csr

    @classmethod
    def from_dense(cls, x: np.ndarray, nonzero: np.ndarray | None = None) -> "SparseFeatures":
        """CSR of a float64 matrix, byte for byte `sp.csr_matrix(x)`, built
        from `nonzero = np.flatnonzero(x)` (computed here when not given)."""
        x = np.asarray(x, dtype=np.float64)
        if nonzero is None:
            nonzero = np.flatnonzero(x)
        rows, cols = np.divmod(nonzero, x.shape[1])
        indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=x.shape[0])))
        return cls(sp.csr_matrix((x.ravel()[nonzero], cols, indptr), x.shape))

    @property
    def shape(self):
        return self._csr.shape

    def scale_columns(self, col_scale: np.ndarray) -> "SparseFeatures":
        """Multiply each column by a scalar (0/1 for feature masking)."""
        if col_scale.shape != (self._csr.shape[1],):
            raise NumericsError(
                f"column scale shape {col_scale.shape} vs {self._csr.shape[1]} columns"
            )
        out = self._csr.copy()
        out.data = out.data * col_scale[out.indices]
        return SparseFeatures(out)

    def drop_entries(self, p: float, rng: np.random.Generator) -> "SparseFeatures":
        """Dropout over stored values, scaled by 1/(1-p): one draw per stored
        entry, and only the nonzero survivors are stored. Products through
        the dropped zeros would add only +-0 to sums that start at +0."""
        if not 0.0 <= p < 1.0:
            raise NumericsError(f"dropout probability out of range: {p}")
        if p == 0.0:
            return self
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
