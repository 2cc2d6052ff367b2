"""CSR feature matrices: a dataset's raw features and its prepared copy.

Citation-network feature matrices are >98% zeros, and the input-layer
product X @ W1 dominates a training step when done densely. This wrapper
keeps X in CSR form; masking and dropout act on stored values only (a
dropped zero is still zero, and dropout stores only the nonzero survivors),
and the W1 gradient is X^T @ G. No gradient ever flows into X itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp


class SparseFeatures:
    """Immutable CSR feature matrix over read-only arrays, with scipy's index
    dtype; transforms return new value arrays."""

    def __init__(self, shape: tuple[int, int], data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray):
        index = np.int32 if max(*shape, len(data)) < 2**31 else np.int64
        self.shape, self.data = shape, data
        self.indices, self.indptr = (a.astype(index, copy=False) for a in (indices, indptr))
        for a in (self.data, self.indices, self.indptr):
            a.flags.writeable = False

    @classmethod
    def from_dense(cls, x: np.ndarray) -> "SparseFeatures":
        """The CSR of every cell whose bits are not those of +0.0, so a -0.0
        cell is stored and reads back; else byte for byte `sp.csr_matrix(x)`."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        nonzero = np.flatnonzero(x.view(np.uint64))
        return cls(x.shape, x.ravel().take(nonzero), nonzero % x.shape[1],
                   np.searchsorted(nonzero, np.arange(len(x) + 1) * x.shape[1]))

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        """scipy's matrix over the same arrays, built at the first product."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), self.shape)

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start to stop as a dense float64 array."""
        lo, hi = self.indptr[start], self.indptr[stop]
        out = np.zeros((stop - start, self.shape[1]))
        at = np.repeat(np.arange(stop - start), np.diff(self.indptr[start:stop + 1]))
        out[at, self.indices[lo:hi]] = self.data[lo:hi]
        return out

    def row_blocks(self):
        """The dense matrix as consecutive row blocks of about 1 MiB each."""
        step = 2**17 // self.shape[1] + 1
        for i in range(0, self.shape[0], step):
            yield self._rows(i, min(i + step, self.shape[0]))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense matrix: np.asarray(x) builds it."""
        return self._rows(0, self.shape[0]).astype(dtype, copy=False)

    def scale_columns(self, col_scale: np.ndarray) -> "SparseFeatures":
        """Multiply each column by a scalar (0/1 for feature masking)."""
        return SparseFeatures(self.shape, self.data * col_scale[self.indices], self.indices,
                              self.indptr)

    def drop_entries(self, p: float, rng: np.random.Generator) -> "SparseFeatures":
        """Dropout over stored values, scaled by 1/(1-p): one draw per stored
        entry, and only the nonzero survivors are stored. Products through
        the dropped zeros would add only +-0 to sums that start at +0."""
        keep = np.flatnonzero((rng.random(self.data.shape) >= p) & (self.data != 0.0))
        return SparseFeatures(self.shape, self.data[keep] / (1.0 - p), self.indices[keep],
                              np.searchsorted(keep, self.indptr))

    def matmul(self, w: np.ndarray) -> np.ndarray:
        return self._csr @ w

    def grad_right(self, g: np.ndarray) -> np.ndarray:
        """Gradient of (self @ W) w.r.t. W, given upstream gradient g."""
        return (self._csr.T @ g)
