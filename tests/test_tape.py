"""Kernel-level tests: forward values against independent oracles, backward
against central finite differences."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import NumericsError
from grafn.cli import GRADCHECK_TOLERANCE
from grafn.sparse import SparseAdjacency
from grafn.sparse_features import SparseFeatures
from grafn.tape import Tape, Tensor
from grafn.gradcheck import EPS, finite_diff_check
from tests.conftest import sparse_features
from tests.test_trainer import TAPE_KERNELS, wide_step_check


def rand(rng, *shape):
    return rng.standard_normal(shape)


def total(tape, x):
    """Sum of every entry of `x`, built from kept kernels: the mean scaled
    by the entry count. Its gradient is exactly 1.0 per entry."""
    return tape.scale(tape.mean(x), x.data.size)


# ---------------------------------------------------------------------------
# spmm


def test_spmm_identity():
    tape = Tape()
    eye = SparseAdjacency(sp.csr_matrix(np.eye(3)))
    x = np.arange(12, dtype=float).reshape(3, 4)
    out = tape.spmm(eye, x)
    np.testing.assert_array_equal(out.data, x)


def test_spmm_zero_values():
    tape = Tape()
    # explicit zeros, stored at the entries of the path 0-1-2
    adj = SparseAdjacency(sp.csr_matrix((np.zeros(4), [1, 0, 2, 1], [0, 1, 3, 4]), shape=(3, 3)))
    assert adj.csr.nnz == 4
    x = np.ones((3, 2))
    out = tape.spmm(adj, x)
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_spmm_path_graph_matches_dense_oracle():
    tape = Tape()
    path = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
    x = np.eye(3)
    out = tape.spmm(path, x)
    np.testing.assert_allclose(out.data, path.csr.toarray() @ x, atol=1e-12)
    # row 1 sums its two neighbours' one-hots
    np.testing.assert_array_equal(out.data[1], [1.0, 0.0, 1.0])


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_spmm_equals_dense_product(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu((rng.random((n, n)) < 0.2) * rng.random((n, n)), 1)
    adj = SparseAdjacency(sp.csr_matrix(w + w.T))  # symmetric, weighted
    x = rng.standard_normal((n, 4))
    out = Tape().spmm(adj, x)
    np.testing.assert_allclose(out.data, adj.csr.toarray() @ x, atol=1e-10)


def test_spmm_shape_mismatch_names_both_shapes():
    adj = SparseAdjacency.from_edges(3, [(0, 1)])
    with pytest.raises(NumericsError, match=r"\(3,3\).*\(2, 2\)"):
        Tape().spmm(adj, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity_and_zero():
    tape = Tape()
    x = np.arange(6, dtype=float).reshape(2, 3)
    np.testing.assert_array_equal(tape.matmul(x, np.eye(3)).data, x)
    np.testing.assert_array_equal(
        tape.matmul(x, np.zeros((3, 2))).data, np.zeros((2, 2))
    )


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 4, 3), rand(rng, 3, 2)
    expected = np.zeros((4, 2))
    for i in range(4):
        for j in range(2):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    out = Tape().matmul(a, b)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(NumericsError, match="matmul shape mismatch"):
        Tape().matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_matmul_sparse_features_shape_mismatch():
    x = sparse_features(np.eye(3))
    with pytest.raises(NumericsError, match=r"^matmul shape mismatch: \(3, 3\) @ \(2, 2\)$"):
        Tape().matmul(x, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# relu / dropout


def test_relu_cases():
    tape = Tape()
    np.testing.assert_array_equal(
        tape.relu(np.full((2, 2), -3.0)).data, np.zeros((2, 2))
    )
    pos = np.full((2, 2), 3.0)
    np.testing.assert_array_equal(tape.relu(pos).data, pos)
    mixed = np.array([[-1.0, 0.0, 2.5]])
    np.testing.assert_array_equal(
        tape.relu(mixed).data, np.maximum(mixed, 0.0)
    )


def test_dropout_identity_cases():
    tape = Tape()
    x = np.ones((4, 4))
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(tape.dropout(x, 0.0, rng).data, x)


def test_dropout_mean_preserved():
    tape = Tape()
    x = np.ones((100, 1000))
    out = tape.dropout(x, 0.5, np.random.default_rng(42))
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_seed_bit_identical():
    x = np.ones((50, 50))
    a = Tape().dropout(x, 0.3, np.random.default_rng(9)).data
    b = Tape().dropout(x, 0.3, np.random.default_rng(9)).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# row_dot


def test_row_dot_trivials():
    tape = Tape()
    rng = np.random.default_rng(1)
    x = rand(rng, 5, 3)
    np.testing.assert_allclose(tape.row_dot(x, x).data, (x * x).sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(tape.row_dot(x, -x).data, -(x * x).sum(axis=1), atol=1e-12)
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 3.0], [4.0, 0.0]])
    np.testing.assert_array_equal(tape.row_dot(a, b).data, np.zeros(2))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_of_parameter_gives_ones():
    tape = Tape()
    w = tape.parameter(np.arange(6, dtype=float).reshape(2, 3), "w")
    tape.backward(total(tape, w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_constant_loss_gives_zero_grads():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    tape.backward(Tensor(np.asarray(3.0)))
    np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))


def test_backward_rejects_stale_graph():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    loss = total(tape, w)
    tape.new_step()
    with pytest.raises(NumericsError, match="not produced on this tape"):
        tape.backward(loss)


def test_backward_consumes_its_step():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    loss = total(tape, tape.relu(w))
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))
    assert tape._records == [] and loss.grad is None
    with pytest.raises(NumericsError, match="not produced on this tape"):
        tape.backward(loss)


def test_backward_rejects_loss_from_another_tape():
    other = Tape()
    loss = total(other, other.parameter(np.ones((2, 2)), "w"))
    tape = Tape()
    tape.parameter(np.ones((2, 2)), "w")
    with pytest.raises(NumericsError, match="not produced on this tape"):
        tape.backward(loss)


def test_backward_rejects_a_bare_parameter():
    """A parameter carries a gradient but no record of the tape's step."""
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    with pytest.raises(NumericsError, match="not produced on this tape"):
        tape.backward(w)


def test_dropped_tape_frees_its_outputs_without_cyclic_gc():
    gc.disable()
    try:
        tape = Tape()
        out = tape.relu(tape.parameter(np.ones((3, 3)), "w"))
        freed = weakref.ref(out.data)
        del tape, out
        assert freed() is None
    finally:
        gc.enable()


def test_zero_d_losses_summed_twice():
    """0-d gradients, which numpy hands back as scalars, add up both through
    `add` and through a kernel that makes a new one."""
    tape = Tape()
    a = tape.parameter(np.ones((2, 2)), "a")
    b = tape.parameter(np.ones((2, 2)), "b")
    l1, l2 = tape.mean(a), tape.scale(tape.mean(b), 3.0)
    twice = tape.scale(l1, 2.0)  # reaches l1 after add(l1, l2) has
    tape.backward(tape.add(tape.add(twice, l2), tape.add(l1, l2)))
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 3.0 / 4))
    np.testing.assert_array_equal(b.grad, np.full((2, 2), 6.0 / 4))


_X = np.array([[0.5, 1.5, 0.25], [2.0, 0.75, 1.25], [0.1, 0.2, 3.0], [1.0, 0.5, 0.3]])
_W = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])
_P = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5], [0.0, 0.4, 0.6]])
_ADJ = SparseAdjacency(sp.csr_matrix(np.array(
    [[0.5, 0.25, 0, 0], [0.25, 0.5, 0.25, 0], [0, 0.25, 0.5, 0.25], [0, 0, 0.25, 0.5]])))
_SF = sparse_features(np.array([[1.0, 0, 2.0, 0], [0, 0, 0, 3.0], [0.5, 0.5, 0, 0],
                                [0, 0, 0, 0], [0, 4.0, 0, 1.0]]))
# every Tape kernel applied to the (4, 3) parameter x; matmul in both forms
_KERNEL_USES = (
    ("detach", lambda tape, x: tape.detach(x)),
    ("matmul", lambda tape, x: tape.matmul(x, _W)),
    ("matmul", lambda tape, x: tape.matmul(_SF, x)),
    ("spmm", lambda tape, x: tape.spmm(_ADJ, x)),
    ("relu", lambda tape, x: tape.relu(tape.add(x, -np.ones((4, 3))))),
    ("dropout", lambda tape, x: tape.dropout(x, 0.5, np.random.default_rng(3))),
    ("row_dot", lambda tape, x: tape.row_dot(x, _P)),
    ("normalize_rows", lambda tape, x: tape.normalize_rows(x)),
    ("transpose", lambda tape, x: tape.transpose(x)),
    ("gather_rows", lambda tape, x: tape.gather_rows(x, [0, 2, 2])),
    ("softmax_rows", lambda tape, x: tape.softmax_rows(x)),
    ("scale", lambda tape, x: tape.scale(x, 3.0)),
    ("add", lambda tape, x: tape.add(x, _P)),
    ("add", lambda tape, x: tape.add(x, x)),
    ("mean", lambda tape, x: tape.mean(x)),
    ("cross_entropy_rows", lambda tape, x: tape.cross_entropy_rows(_P, x)),
    ("softmax_cross_entropy", lambda tape, x: tape.softmax_cross_entropy(x, np.eye(3)[[0, 2, 1, 1]])),
)


def test_kernel_uses_cover_every_kernel():
    assert {name for name, _ in _KERNEL_USES} == set(TAPE_KERNELS)


@pytest.mark.parametrize("kernel_first", [False, True])
@pytest.mark.parametrize("use", [use for _, use in _KERNEL_USES],
                         ids=[name for name, _ in _KERNEL_USES])
def test_every_kernel_keeps_a_shared_upstream_gradient(use, kernel_first):
    """The kernel's output y enters add(y, c), so its upstream gradient is
    the array c's gradient holds. Its input x also reaches the loss through
    scale(x, 2.0), whose gradient arrives after the kernel's or before it.
    However the two gradients of x are summed, c's gradient and x's sum
    equal those of two tapes that each hold one path."""

    def paths(tape, x, c, kernel=True, other=True):
        parts = []
        for first in (kernel_first, not kernel_first):
            if first and kernel:
                y = use(tape, x)
                c.data = np.zeros_like(y.data) + 0.5
                parts.append(total(tape, tape.add(y, c)))
            elif not first and other:
                parts.append(total(tape, tape.scale(x, 2.0)))
        return parts[0] if len(parts) == 1 else tape.add(*parts)

    grads = []
    for kernel, other in ((True, True), (True, False), (False, True)):
        tape = Tape()
        x, c = tape.parameter(_X.copy(), "x"), tape.parameter(np.zeros(()), "c")
        tape.backward(paths(tape, x, c, kernel, other))
        grads.append((x.grad.copy(), c.grad.copy()))
    (x_both, c_both), (x_kernel, c_kernel), (x_other, _) = grads
    np.testing.assert_array_equal(c_both, c_kernel)
    np.testing.assert_array_equal(x_both, x_kernel + x_other)


def test_parameter_is_a_tensor_kept_under_its_name():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    b = tape.parameter(np.zeros((1, 2)), "b")
    assert type(w) is Tensor and w.requires_grad
    assert list(tape.parameters) == ["w", "b"]
    assert tape.parameters["w"] is w and tape.parameters["b"] is b


def test_detach_blocks_gradient():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    loss = total(tape, tape.detach(tape.relu(w)))
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# finite differences through every kernel


def test_quadratic_loss_matches_analytic_gradient():
    tape = Tape()
    rng = np.random.default_rng(5)
    w = tape.parameter(rand(rng, 3, 4), "w")

    def build():
        # sum(W^T W) = sum_k (sum_i W_ki)^2, so dL/dW_ki = 2 sum_i W_ki
        return total(tape, tape.matmul(tape.transpose(w), w))

    err = finite_diff_check(tape, build)
    assert err < 1e-7
    tape.new_step()
    tape.backward(build())
    row_sums = w.data.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w.grad, np.broadcast_to(2.0 * row_sums, w.data.shape),
                               atol=1e-12)


@pytest.mark.parametrize("op_name", [
    "relu", "normalize_rows", "softmax_rows", "transpose", "gather",
    "row_dot", "cross_entropy", "softmax_ce", "add_row", "add_same_shape",
    "add_one_row", "dropout", "spmm_chain",
])
def test_each_kernel_gradient(op_name):
    rng = np.random.default_rng(17)
    tape = Tape()
    w = tape.parameter(rand(rng, 5, 4), "w")
    adj = SparseAdjacency.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    targets = np.abs(rand(rng, 3, 4)) + 0.1
    targets /= targets.sum(axis=1, keepdims=True)
    onehot = np.eye(4)[[0, 2, 1, 3, 0]]
    bias_w = tape.parameter(rand(rng, 1, 4), "b")
    other = rand(rng, 5, 4)

    builders = {
        "relu": lambda: total(tape, tape.relu(w)),
        "normalize_rows": lambda: total(tape, tape.normalize_rows(w)),
        "softmax_rows": lambda: total(tape, tape.matmul(tape.softmax_rows(w), rand(np.random.default_rng(3), 4, 2))),
        "transpose": lambda: total(tape, tape.matmul(tape.transpose(w), w)),
        "gather": lambda: total(tape, tape.gather_rows(w, np.array([0, 2, 2]))),
        "row_dot": lambda: tape.mean(tape.row_dot(tape.normalize_rows(w), tape.add(w, other))),
        "cross_entropy": lambda: tape.cross_entropy_rows(
            targets, tape.softmax_rows(tape.gather_rows(w, np.array([0, 1, 3])))
        ),
        "softmax_ce": lambda: tape.softmax_cross_entropy(w, onehot),
        "add_row": lambda: tape.softmax_cross_entropy(tape.add(w, bias_w), onehot),
        "add_same_shape": lambda: tape.softmax_cross_entropy(tape.add(w, tape.relu(w)), onehot),
        # the N = 1 head: both (1, C) operands get the gradient unchanged
        "add_one_row": lambda: tape.softmax_cross_entropy(
            tape.add(tape.gather_rows(w, np.array([1])), bias_w), onehot[:1]
        ),
        "dropout": lambda: total(
            tape, tape.dropout(tape.relu(w), 0.4, np.random.default_rng(8))
        ),
        "spmm_chain": lambda: tape.softmax_cross_entropy(
            tape.spmm(adj, tape.relu(tape.spmm(adj, w))), onehot
        ),
    }
    err = finite_diff_check(tape, builders[op_name])
    assert err < 1e-4, f"{op_name}: {err:.3e}"


def test_cross_entropy_gradient_flows_into_live_target():
    """Both operands of the probability cross-entropy carry gradients when
    not detached (needed by the stop-gradient regression check)."""
    rng = np.random.default_rng(23)
    tape = Tape()
    w = tape.parameter(np.abs(rand(rng, 4, 3)) + 0.2, "w")

    def build():
        p = tape.softmax_rows(w)
        q = tape.softmax_rows(tape.scale(w, 0.5))
        return tape.cross_entropy_rows(p, q)

    err = finite_diff_check(tape, build)
    assert err < 1e-4


def test_finite_diff_check_detects_broken_gradient():
    """Meta-test: a corrupted backward rule must be reported."""
    tape = Tape()
    w = tape.parameter(np.array([[0.5, -0.3], [0.2, 0.8]]), "w")

    def build():
        out = tape.relu(w)
        # splice in an op with a deliberately wrong backward

        def bad_backprop(g, x=out):
            yield x._slot, 3.0 * np.full_like(x.data, float(g))

        wrong = tape._emit(np.asarray(out.data.sum()), (out,), bad_backprop)
        return wrong

    err = finite_diff_check(tape, build)
    assert err > 0.1


def backward_yielding(kernel, edit):
    """`Tape.<kernel>` whose backward yields edit(g, gradient) in place of
    each gradient it computes from the upstream g."""
    raw = getattr(Tape, kernel)

    def edited(self, *args):
        out = raw(self, *args)
        if out.requires_grad:
            slot, backprop = self._records[-1]
            self._records[-1] = (slot, lambda g: ((t, edit(g, new)) for t, new in backprop(g)))
        return out

    return edited


def backward_flipping_w1_row(raw=Tape.backward):
    def backward(self, loss):
        raw(self, loss)
        self.parameters["enc.w1"].grad[0] *= -1.0

    return backward


def drop_keeping_full_grad(raw=SparseFeatures.drop_entries):
    def drop_entries(self, p, rng):
        dropped = raw(self, p, rng)
        dropped.grad_right = self.grad_right
        return dropped

    return drop_entries


# Each broken gradient, as (class, attribute, replacement), with its readings
# at nu = 0 and 0.9: 0.65 / 0.35, 1.0 / 1.0, 1.48 / 1.01, 6.1e-2 / 1.1e-2.
MUTATIONS = {
    "w1_row_sign_flipped": (Tape, "backward", backward_flipping_w1_row()),
    "bias_row_not_summed": (Tape, "add", backward_yielding(
        "add", lambda g, new: g[:1] if new.shape != g.shape else new)),
    "grad_right_on_undropped_x": (SparseFeatures, "drop_entries", drop_keeping_full_grad()),
    "softmax_backward_scaled": (Tape, "softmax_rows", backward_yielding(
        "softmax_rows", lambda g, new: 1.01 * new)),
}


@pytest.mark.parametrize("nu", [0.0, 0.9])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_finite_diff_check_detects_mutations_at_training_shape(monkeypatch, mutation, nu):
    """Meta-test at 600 nodes with CSR features and width 128: each broken
    gradient reads above the `grafn gradcheck` tolerance."""
    monkeypatch.setattr(*MUTATIONS[mutation])
    err = wide_step_check(nu)
    assert err > GRADCHECK_TOLERANCE, f"{mutation}: {err:.3e}"


def test_finite_diff_check_refuses_to_pass_on_nothing():
    """A 1 x 1 parameter 0.75 EPS above a ReLU corner: fd(EPS) = 0.875 and
    fd(EPS / 2) = 1.0, so every direction is skipped, and that is an error."""
    tape = Tape()
    w = tape.parameter(np.array([[0.75 * EPS]]), "w")
    with pytest.raises(NumericsError, match="directions cross a kink"):
        finite_diff_check(tape, lambda: tape.mean(tape.relu(w)))
    assert "detach" not in vars(tape)
    assert w.data.tolist() == [[0.75 * EPS]]


def test_finite_diff_check_holds_detached_values():
    """A stop-gradient value is held at its base value while differencing,
    so the check verifies the gradient `backward` computes; the tape's own
    `detach` is back afterwards."""
    rng = np.random.default_rng(29)
    tape = Tape()
    w = tape.parameter(rand(rng, 4, 3), "w")

    def build():
        return tape.cross_entropy_rows(tape.detach(tape.softmax_rows(w)),
                                       tape.softmax_rows(tape.scale(w, 0.5)))

    assert 0.0 < finite_diff_check(tape, build) < 1e-7
    assert "detach" not in vars(tape)
    assert tape.detach(w).requires_grad is False


@pytest.mark.parametrize("detached", [
    lambda tape, w, n: [w] * (n % 2),
    lambda tape, w, n: [w] * (1 + (n > 1)),
    lambda tape, w, n: [w if n == 1 else tape.gather_rows(w, [0])],
], ids=["fewer", "more", "reshaped"])
def test_finite_diff_check_rejects_changing_detached_values(detached):
    """The values to hold are those of the first evaluation; another count
    or shape later means the loss is not the same function."""
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    calls = []

    def build():
        calls.append(None)
        loss = tape.mean(w)
        for x in detached(tape, w, len(calls)):
            loss = tape.add(loss, tape.mean(tape.detach(x)))
        return loss

    with pytest.raises(NumericsError, match="not deterministic"):
        finite_diff_check(tape, build)
    assert "detach" not in vars(tape)


def test_nondeterministic_loss_detected():
    tape = Tape()
    tape.parameter(np.ones((2, 2)), "w")
    state = {"n": 0}

    def build():
        state["n"] += 1
        return Tensor(np.asarray(float(state["n"])))

    with pytest.raises(NumericsError, match="not deterministic"):
        finite_diff_check(tape, build)


def test_kernels_produce_finite_outputs():
    rng = np.random.default_rng(101)
    tape = Tape()
    x = rand(rng, 6, 5) * 50
    adj = SparseAdjacency.from_edges(6, [(i, i + 1) for i in range(5)])
    outputs = [
        tape.relu(x),
        tape.softmax_rows(x),
        tape.normalize_rows(x),
        tape.spmm(adj, x),
        tape.row_dot(x, x + 1.0),
        tape.dropout(x, 0.5, rng),
    ]
    for out in outputs:
        assert np.all(np.isfinite(out.data))
