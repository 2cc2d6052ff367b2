"""Finite-difference verification of tape gradients.

Central differences with a two-step-size consistency guard: an entry whose
finite-difference estimate is unstable between step sizes EPS and EPS/2 sits
within EPS of a kink (ReLU corner, confidence-set membership flip) and is
skipped; everywhere else the estimate is trustworthy to ~1e-10 in float64.
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericsError
from .tape import Tape, Tensor

ABS_FLOOR = 1e-8  # differences below this count as agreement
EPS = 1e-5  # central-difference step; EPS / 2 is the consistency step


def _value(tape: Tape, build_loss: Callable[[], Tensor]) -> float:
    tape.new_step()
    return float(build_loss().data)


def finite_diff_check(tape: Tape, build_loss: Callable[[], Tensor]) -> float:
    """Max relative error between tape gradients and central differences.

    `build_loss` must rebuild the forward pass from current parameter values
    and be deterministic (fix every seed it consumes). Kink-adjacent entries
    are skipped; differences below the 1e-8 absolute floor count as exact.
    """
    v0 = _value(tape, build_loss)
    if _value(tape, build_loss) != v0:
        raise NumericsError("loss function is not deterministic across evaluations")

    tape.new_step()
    loss = build_loss()
    tape.backward(loss)
    grads = {name: p.grad.copy() for name, p in tape.parameters.items()}

    max_rel = 0.0
    for name, p in tape.parameters.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]

            def fd(h: float) -> float:
                flat[i] = saved + h
                lp = _value(tape, build_loss)
                flat[i] = saved - h
                lm = _value(tape, build_loss)
                flat[i] = saved
                return (lp - lm) / (2.0 * h)

            d1 = fd(EPS)
            d2 = fd(EPS / 2.0)
            if abs(d1 - d2) > max(1e-3 * max(abs(d1), abs(d2)), 1e-7):
                continue  # kink within EPS: finite differences unreliable here
            diff = abs(d1 - gflat[i])
            if diff <= ABS_FLOOR:
                continue
            rel = diff / max(abs(d1), abs(gflat[i]), ABS_FLOOR)
            max_rel = max(max_rel, rel)
    return max_rel
