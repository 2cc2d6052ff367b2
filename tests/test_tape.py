"""Kernel-level tests: forward values against independent oracles, backward
against central finite differences."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import NumericsError
from grafn.sparse import SparseAdjacency
from grafn.tape import Tape
from grafn.gradcheck import finite_diff_check


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
    eye = SparseAdjacency.from_edges(3, [(0, 0), (1, 1), (2, 2)])
    x = np.arange(12, dtype=float).reshape(3, 4)
    out = tape.spmm(eye, x)
    np.testing.assert_array_equal(out.data, x)


def test_spmm_zero_values():
    tape = Tape()
    adj = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)], values=[0.0, 0.0])
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
    m = rng.random((n, n)) < 0.2
    m = np.triu(m, 1)
    edges = list(zip(*np.nonzero(m)))
    adj = SparseAdjacency.from_edges(n, edges, values=rng.random(len(edges)))
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
    with pytest.raises(NumericsError, match="row_dot shape mismatch"):
        tape.row_dot(a, b[:1])


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
    from grafn.tape import Tensor

    tape.backward(Tensor(np.asarray(3.0)))
    np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))


def test_backward_rejects_non_scalar():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    with pytest.raises(NumericsError, match="scalar"):
        tape.backward(tape.relu(w))


def test_backward_rejects_stale_graph():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    loss = total(tape, w)
    tape.new_step()
    with pytest.raises(NumericsError, match="not produced on this tape"):
        tape.backward(loss)


def test_backward_rejects_loss_from_another_tape():
    other = Tape()
    loss = total(other, other.parameter(np.ones((2, 2)), "w"))
    tape = Tape()
    tape.parameter(np.ones((2, 2)), "w")
    with pytest.raises(NumericsError, match="not produced on this tape"):
        tape.backward(loss)


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


def test_duplicate_parameter_name_rejected():
    tape = Tape()
    tape.parameter(np.ones((1, 1)), "w")
    with pytest.raises(NumericsError, match="registered twice"):
        tape.parameter(np.ones((1, 1)), "w")


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

    err = finite_diff_check(tape, build, eps=1e-5)
    assert err < 1e-7
    tape.new_step()
    tape.backward(build())
    row_sums = w.data.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w.grad, np.broadcast_to(2.0 * row_sums, w.data.shape),
                               atol=1e-12)


@pytest.mark.parametrize("op_name", [
    "relu", "normalize_rows", "softmax_rows", "transpose", "gather",
    "row_dot", "cross_entropy", "softmax_ce", "add_bias", "dropout",
    "spmm_chain",
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
        "add_bias": lambda: tape.softmax_cross_entropy(tape.add_bias(w, bias_w), onehot),
        "dropout": lambda: total(
            tape, tape.dropout(tape.relu(w), 0.4, np.random.default_rng(8))
        ),
        "spmm_chain": lambda: tape.softmax_cross_entropy(
            tape.spmm(adj, tape.relu(tape.spmm(adj, w))), onehot
        ),
    }
    err = finite_diff_check(tape, builders[op_name], eps=1e-5)
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

    err = finite_diff_check(tape, build, eps=1e-5)
    assert err < 1e-4


def test_finite_diff_check_detects_broken_gradient():
    """Meta-test: a corrupted backward rule must be reported."""
    tape = Tape()
    w = tape.parameter(np.array([[0.5, -0.3], [0.2, 0.8]]), "w")

    def build():
        out = tape.relu(w)
        # splice in an op with a deliberately wrong backward
        from grafn.tape import _accumulate

        def bad_backprop(g, x=out):
            _accumulate(x, 3.0 * np.full_like(x.data, float(g)))

        wrong = tape._emit(np.asarray(out.data.sum()), (out,), bad_backprop)
        return wrong

    err = finite_diff_check(tape, build, eps=1e-5)
    assert err > 0.1


def test_nondeterministic_loss_detected():
    tape = Tape()
    tape.parameter(np.ones((2, 2)), "w")
    state = {"n": 0}

    def build():
        from grafn.tape import Tensor

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
