"""Sparse fast path for the feature matrix.

Citation-network feature matrices are >98% zeros, and the input-layer
product X @ W1 dominates a training step when done densely. This wrapper
keeps X in CSR form; masking and dropout act on stored values only (a
dropped zero is still zero), and the W1 gradient is X^T @ G. No gradient
ever flows into X itself.
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
    def from_dense(cls, x: np.ndarray) -> "SparseFeatures":
        csr = sp.csr_matrix(np.asarray(x, dtype=np.float64))
        csr.sort_indices()
        return cls(csr)

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
        """Dropout over stored values, scaled by 1/(1-p)."""
        if not 0.0 <= p < 1.0:
            raise NumericsError(f"dropout probability out of range: {p}")
        if p == 0.0:
            return self
        out = self._csr.copy()
        keep = rng.random(out.data.shape) >= p
        out.data = out.data * keep / (1.0 - p)
        return SparseFeatures(out)

    def matmul(self, w: np.ndarray) -> np.ndarray:
        return self._csr @ w

    def grad_right(self, g: np.ndarray) -> np.ndarray:
        """Gradient of (self @ W) w.r.t. W, given upstream gradient g."""
        return (self._csr.T @ g)
