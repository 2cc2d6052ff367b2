"""Reverse-mode differentiation over float64 matrices.

A Tape records primitive operations in execution order (a Wengert list);
backward() replays them in reverse, accumulating gradients into every
tensor that needs one. Only the kernels the training objective composes
are provided; this is not a general autodiff system.

Conventions:
  - all data is float64; scalars are 0-d arrays;
  - ReLU uses subgradient 0 at exactly 0;
  - detach() cuts gradient flow (stop-gradient boundary);
  - ops never mutate input arrays, so aliasing values is safe;
  - a backward closure holds only the arrays its formula reads and the
    gradient slots of the inputs that carry one, and a record its output's
    slot, so a value dies once its caller drops it;
  - a backward closure yields (slot, gradient) pairs, each gradient an
    array it has just made or the upstream gradient or a view of it, and
    backward() sums them: in place in a new array, never in the upstream
    one, which other slots may hold;
  - backward consumes the step: it drops each record and each gradient it
    has passed on;
  - backward takes a loss that carries no gradient or whose record the tape
    still holds: one from another tape, an ended step or a bare parameter
    is refused.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from .errors import NumericsError
from .sparse import SparseAdjacency
from .sparse_features import SparseFeatures

CE_FLOOR = 1e-12  # numerical floor inside log() for cross-entropy on probabilities


class Tensor:
    """A value on the tape: float64 ndarray plus a gradient slot."""

    __slots__ = ("data", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._slot = SimpleNamespace(grad=None)

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._slot.grad = g

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _slot_of(t: Tensor):
    """`t`'s gradient slot, or None when `t` carries no gradient."""
    return t._slot if t.requires_grad else None


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Tape:
    """Operation recorder and parameter registry for one training run."""

    def __init__(self):
        # (output slot, backward closure yielding (input slot, gradient) pairs)
        self._records: list[tuple[SimpleNamespace, Callable[[np.ndarray], Iterator[tuple]]]] = []
        self.parameters: dict[str, Tensor] = {}

    # -- parameter registry -------------------------------------------------

    def parameter(self, data, name: str) -> Tensor:
        """A trainable tensor registered under `name`."""
        p = Tensor(data, requires_grad=True)
        self.parameters[name] = p
        return p

    def new_step(self) -> None:
        """Discard the recorded graph; parameters persist."""
        self._records.clear()

    # -- recording / backward ----------------------------------------------

    def _emit(self, out_data, inputs: tuple[Tensor, ...], backprop) -> Tensor:
        out = Tensor(out_data)
        if any(t.requires_grad for t in inputs):
            out.requires_grad = True
            self._records.append((out._slot, backprop))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every registered parameter, then end the step,
        so the same loss cannot be backpropagated twice.

        Gradients of previous steps are cleared first; parameters that the
        loss does not reach end up with zero gradients.
        """
        if loss.requires_grad and all(s is not loss._slot for s, _ in self._records):
            raise NumericsError("loss was not produced on this tape's current step")
        for p in self.parameters.values():
            p.grad = None
        loss.grad = np.ones_like(loss.data)
        while self._records:
            slot, backprop = self._records.pop()
            g, slot.grad = slot.grad, None
            if g is not None:
                for target, new in backprop(g):
                    if target.grad is None:
                        target.grad = new
                    elif new.ndim and not np.may_share_memory(new, g):
                        target.grad = np.add(target.grad, new, out=new)
                    else:  # a 0-d product is a numpy scalar, which takes no out=
                        target.grad = target.grad + new
        for p in self.parameters.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)

    # -- primitive kernels ---------------------------------------------------

    def detach(self, x: Tensor) -> Tensor:
        """Stop-gradient boundary: same value, no lineage."""
        return Tensor(x.data)

    def matmul(self, a, b) -> Tensor:
        """Dense product a @ b; `a` may be a SparseFeatures constant."""
        b = _wrap(b)
        if isinstance(a, SparseFeatures):
            if a.shape[1] != b.data.shape[0]:
                raise NumericsError(
                    f"matmul shape mismatch: {a.shape} @ {b.data.shape}"
                )

            def backprop(g, a=a, gb=b._slot):
                yield gb, a.grad_right(g)

            return self._emit(a.matmul(b.data), (b,), backprop)

        a = _wrap(a)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise NumericsError(
                f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
            )
        ga, gb = _slot_of(a), _slot_of(b)

        def backprop(g, ga=ga, gb=gb, bt=b.data.T if ga else None,
                     at=a.data.T if gb else None):
            if ga:
                yield ga, g @ bt
            if gb:
                yield gb, at @ g

        return self._emit(a.data @ b.data, (a, b), backprop)

    def spmm(self, adj: SparseAdjacency, x) -> Tensor:
        """Sparse @ dense; differentiable w.r.t. the dense side only. Backward uses
        A for A.T: a SparseAdjacency is exactly symmetric (see normalize_adjacency)."""
        x = _wrap(x)
        if x.data.ndim != 2 or adj.n != x.data.shape[0]:
            raise NumericsError(
                f"spmm shape mismatch: sparse ({adj.n},{adj.n}) @ dense {x.data.shape}"
            )
        mat = adj.csr

        def backprop(g, mat=mat, gx=x._slot):
            yield gx, mat @ g

        return self._emit(mat @ x.data, (x,), backprop)

    def relu(self, x) -> Tensor:
        x = _wrap(x)

        def backprop(g, gx=x._slot, live=x.data > 0.0 if x.requires_grad else None):
            yield gx, g * live

        return self._emit(np.maximum(x.data, 0.0), (x,), backprop)

    def dropout(self, x, p: float, rng: np.random.Generator) -> Tensor:
        x = _wrap(x)
        if p == 0.0:
            return x
        keep = rng.random(x.data.shape) >= p

        def backprop(g, gx=x._slot, keep=keep):
            scale = keep / (1.0 - p)
            yield gx, np.multiply(g, scale, out=scale)

        scale = keep / (1.0 - p)
        return self._emit(np.multiply(x.data, scale, out=scale), (x,), backprop)

    def row_dot(self, x, y) -> Tensor:
        """Per-row inner product; returns a length-N vector."""
        x, y = _wrap(x), _wrap(y)
        gx, gy = _slot_of(x), _slot_of(y)

        def backprop(g, gx=gx, gy=gy, xd=x.data if gy else None, yd=y.data if gx else None):
            if gx:
                yield gx, g[:, None] * yd
            if gy:
                yield gy, g[:, None] * xd

        return self._emit(np.einsum("ij,ij->i", x.data, y.data), (x, y), backprop)

    def normalize_rows(self, x) -> Tensor:
        """Rows scaled to unit L2 norm; a zero-norm row stays zero and passes
        no gradient."""
        x = _wrap(x)
        norms = np.linalg.norm(x.data, axis=1, keepdims=True)
        live = norms[:, 0] > 0.0
        safe = np.where(norms > 0.0, norms, 1.0)
        u = x.data / safe

        def backprop(g, gx=x._slot, safe=safe, u=u, live=live):
            # (g - sum(g * u) * u) / safe * live, step by step in one buffer
            buf = g * u
            np.multiply(np.sum(buf, axis=1, keepdims=True), u, out=buf)
            np.subtract(g, buf, out=buf)
            np.divide(buf, safe, out=buf)
            yield gx, np.multiply(buf, live[:, None], out=buf)

        return self._emit(u, (x,), backprop)

    def transpose(self, x) -> Tensor:
        x = _wrap(x)

        def backprop(g, gx=x._slot):
            yield gx, g.T

        return self._emit(np.ascontiguousarray(x.data.T), (x,), backprop)

    def gather_rows(self, x, idx) -> Tensor:
        x = _wrap(x)
        idx = np.asarray(idx, dtype=np.int64)

        def backprop(g, gx=x._slot, shape=x.data.shape, idx=idx):
            buf = np.zeros(shape)
            np.add.at(buf, idx, g)
            yield gx, buf

        return self._emit(x.data[idx], (x,), backprop)

    def softmax_rows(self, x) -> Tensor:
        x = _wrap(x)
        shifted = x.data - x.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=1, keepdims=True)

        def backprop(g, gx=x._slot, s=s):
            yield gx, s * (g - np.sum(g * s, axis=1, keepdims=True))

        return self._emit(s, (x,), backprop)

    def scale(self, x, c: float) -> Tensor:
        x = _wrap(x)

        def backprop(g, gx=x._slot, c=c):
            yield gx, g * c

        return self._emit(x.data * c, (x,), backprop)

    def add(self, a, b) -> Tensor:
        """a + b, where `b` has the shape of `a` or is a (1, C) row added to every row."""
        a, b = _wrap(a), _wrap(b)

        def backprop(g, ga=_slot_of(a), gb=_slot_of(b), row=b.data.shape != a.data.shape):
            if ga:
                yield ga, g
            if gb:
                yield gb, g.sum(axis=0, keepdims=True) if row else g

        return self._emit(a.data + b.data, (a, b), backprop)

    def mean(self, x) -> Tensor:
        x = _wrap(x)

        def backprop(g, gx=x._slot, shape=x.data.shape, n=x.data.size):
            yield gx, np.full(shape, float(g) / n)

        return self._emit(np.asarray(x.data.mean()), (x,), backprop)

    def cross_entropy_rows(self, target, pred) -> Tensor:
        """Mean over rows of H(target, pred) = -sum_c t log max(p, floor).

        Both operands are probability rows; either side may carry gradient
        (the target side only does when stop-gradient is deliberately off).
        """
        target, pred = _wrap(target), _wrap(pred)
        gt, gp = _slot_of(target), _slot_of(pred)
        m = target.data.shape[0]
        clipped = np.maximum(pred.data, CE_FLOOR)
        logs = np.log(clipped)
        out = np.asarray(-(target.data * logs).sum() / m)

        def backprop(g, gt=gt, gp=gp, m=m, t=target.data if gp else None,
                     clipped=clipped if gp else None, logs=logs if gt else None):
            gm = float(g) / m
            if gp:  # p > floor exactly where max(p, floor) > floor
                yield gp, -gm * t * (clipped > CE_FLOOR) / clipped
            if gt:
                yield gt, -gm * logs

        return self._emit(out, (target, pred), backprop)

    def softmax_cross_entropy(self, logits, onehot) -> Tensor:
        """Mean softmax cross-entropy against constant one-hot targets."""
        logits = _wrap(logits)
        y = np.asarray(onehot, dtype=np.float64)
        m = y.shape[0]
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - lse
        out = np.asarray(-(y * log_probs).sum() / m)

        def backprop(g, gx=logits._slot, y=y, log_probs=log_probs, m=m):
            yield gx, float(g) / m * (np.exp(log_probs) - y)

        return self._emit(out, (logits,), backprop)
