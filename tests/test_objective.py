import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import ConfigError, NumericsError, SplitSpec, TrainConfig
from grafn.objective import (
    SupportSet,
    confident_set,
    label_consistency_loss,
    node_consistency_loss,
    sample_support,
    snn_distribution,
    supervised_loss,
    total_loss,
)
from grafn.tape import Tape, Tensor


def snn_two_loop_oracle(z, support_idx, y_support, tau):
    """Independent brute-force evaluation of the soft-nearest-neighbor rows."""
    n = z.shape[0]
    c = y_support.shape[1]
    out = np.zeros((n, c))
    for i in range(n):
        logits = []
        for j in support_idx:
            zi, zj = z[i], z[j]
            cos = zi @ zj / (np.linalg.norm(zi) * np.linalg.norm(zj))
            logits.append(cos / tau)
        logits = np.array(logits)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j_pos in range(len(support_idx)):
            out[i] += w[j_pos] * y_support[j_pos]
    return out


def make_support(indices, labels_of, c):
    indices = np.asarray(indices)
    y = np.zeros((len(indices), c))
    y[np.arange(len(indices)), labels_of] = 1.0
    return SupportSet(indices=indices, y_support=y)


# ---------------------------------------------------------------------------
# loss settings of TrainConfig


def test_loss_config_validation():
    with pytest.raises(ConfigError, match="tau"):
        TrainConfig(tau=0.0)
    with pytest.raises(ConfigError, match="nu"):
        TrainConfig(nu=1.5)
    with pytest.raises(ConfigError, match="non-negative"):
        TrainConfig(lambda1=-0.5)
    with pytest.raises(ConfigError, match="weak"):
        TrainConfig(weak_feature_mask=0.6, weak_edge_drop=0.6,
                    strong_feature_mask=0.5, strong_edge_drop=0.5)
    # the unfiltered limit nu=0 is a valid configuration
    assert TrainConfig(nu=0.0).nu == 0.0


# ---------------------------------------------------------------------------
# node consistency


def test_node_consistency_equal_views():
    tape = Tape()
    u = tape.normalize_rows(np.random.default_rng(0).standard_normal((4, 3)))
    assert node_consistency_loss(tape, u, u).item() == pytest.approx(-1.0)


def test_node_consistency_opposite_views():
    tape = Tape()
    z = np.random.default_rng(1).standard_normal((4, 3))
    loss = node_consistency_loss(tape, tape.normalize_rows(z), tape.normalize_rows(-z))
    assert loss.item() == pytest.approx(1.0)


def test_node_consistency_matches_row_oracle():
    rng = np.random.default_rng(2)
    z, zp = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    cos = [
        z[i] @ zp[i] / (np.linalg.norm(z[i]) * np.linalg.norm(zp[i]))
        for i in range(5)
    ]
    tape = Tape()
    loss = node_consistency_loss(tape, tape.normalize_rows(z), tape.normalize_rows(zp)).item()
    assert loss == pytest.approx(-np.mean(cos), abs=1e-12)


def test_node_consistency_gradients_reach_both_views():
    tape = Tape()
    rng = np.random.default_rng(3)
    a = tape.parameter(rng.standard_normal((4, 3)), "a")
    b = tape.parameter(rng.standard_normal((4, 3)), "b")
    tape.backward(node_consistency_loss(tape, tape.normalize_rows(a), tape.normalize_rows(b)))
    assert np.abs(a.grad).max() > 0 and np.abs(b.grad).max() > 0


def test_node_consistency_zero_row_has_similarity_zero_and_no_gradient():
    tape = Tape()
    a = tape.parameter(np.array([[1.0, 0.0], [0.0, 0.0]]), "a")
    b = tape.parameter(np.array([[3.0, 4.0], [1.0, 2.0]]), "b")
    loss = node_consistency_loss(tape, tape.normalize_rows(a), tape.normalize_rows(b))
    assert loss.item() == pytest.approx(-(3 / 5 + 0.0) / 2, abs=1e-15)  # row 0: cos = 3/5
    tape.backward(loss)
    assert not a.grad[1].any() and not b.grad[1].any()
    assert a.grad[0].any() and b.grad[0].any()


# ---------------------------------------------------------------------------
# support sampling


def _split_with(labeled):
    labeled = np.asarray(labeled)
    return SplitSpec(labeled=labeled, val=np.array([], dtype=int),
                     test=np.array([], dtype=int), seed=0, label_rate=0.0)


def test_sample_support_b_is_min_class_count():
    label_ids = np.array([0] * 3 + [1] * 1 + [2] * 2 + [0])
    split = _split_with(np.arange(6))  # classes among labeled: {0:3, 1:1, 2:2}
    sup = sample_support(split, label_ids, 3, np.random.default_rng(0))
    assert len(sup.indices) == 1 * 3
    np.testing.assert_array_equal(
        label_ids[sup.indices], [0, 1, 2]
    )


def test_sample_support_two_per_class():
    label_ids = np.repeat(np.arange(7), 2)
    split = _split_with(np.arange(14))
    sup = sample_support(split, label_ids, 7, np.random.default_rng(1))
    assert len(sup.indices) == 2 * 7
    # one-hot rows are class-major
    np.testing.assert_array_equal(np.argmax(sup.y_support, axis=1), np.repeat(np.arange(7), 2))


def test_sample_support_without_replacement_and_seeded():
    label_ids = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    split = _split_with(np.arange(8))
    a = sample_support(split, label_ids, 2, np.random.default_rng(5))
    b = sample_support(split, label_ids, 2, np.random.default_rng(5))
    np.testing.assert_array_equal(a.indices, b.indices)
    for k in (0, 1):
        picked = a.indices[label_ids[a.indices] == k]
        assert len(set(picked)) == len(picked)


# ---------------------------------------------------------------------------
# SNN distribution


def test_snn_uniform_for_equidistant_anchor():
    tape = Tape()
    z = np.zeros((4, 3))
    z[0] = [1.0, 1.0, 1.0]   # anchor equidistant to the three axis supports
    z[1] = [1.0, 0.0, 0.0]
    z[2] = [0.0, 1.0, 0.0]
    z[3] = [0.0, 0.0, 1.0]
    sup = make_support([1, 2, 3], [0, 1, 2], 3)
    p = snn_distribution(tape, tape.normalize_rows(z), sup, tau=0.1)
    np.testing.assert_allclose(p.data[0], [1 / 3] * 3, atol=1e-12)


def test_snn_anchor_identical_to_one_support():
    # anchor == class-0 support, other supports orthogonal, tau=0.1:
    # p_0 = e^{10} / (e^{10} + (C-1) e^0) for C = 3
    tape = Tape()
    z = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    sup = make_support([1, 2, 3], [0, 1, 2], 3)
    p = snn_distribution(tape, tape.normalize_rows(z), sup, tau=0.1)
    expected = np.exp(10.0) / (np.exp(10.0) + 2.0)
    assert p.data[0, 0] == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.99991, abs=1e-5)


def test_snn_matches_two_loop_oracle_small():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 4))
    sup = make_support([0, 2, 4], [0, 1, 2], 3)
    tape = Tape()
    p = snn_distribution(tape, tape.normalize_rows(z), sup, tau=0.1)
    oracle = snn_two_loop_oracle(z, sup.indices, sup.y_support, 0.1)
    np.testing.assert_allclose(p.data, oracle, atol=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_snn_rows_are_distributions(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 10)
    c = rng.integers(2, 4)
    d = rng.integers(2, 6)
    z = rng.standard_normal((n, d))
    idx = rng.choice(n, size=c, replace=False)
    tape = Tape()
    p = snn_distribution(
        tape, tape.normalize_rows(z), make_support(idx, np.arange(c), c),
        tau=float(rng.uniform(0.05, 2.0)),
    ).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(n), atol=1e-10)
    assert np.all(p >= 0.0)


def test_snn_invariant_to_anchor_row_scaling():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((5, 4))
    sup = make_support([1, 3], [0, 1], 2)
    tape = Tape()
    base = snn_distribution(tape, tape.normalize_rows(z), sup, tau=0.1).data
    scaled = z.copy()
    scaled[0] *= 37.5
    # row 0 is not a support, so only the anchor changes
    out = snn_distribution(tape, tape.normalize_rows(scaled), sup, tau=0.1).data
    np.testing.assert_allclose(out[0], base[0], atol=1e-10)


# ---------------------------------------------------------------------------
# confidence filter


def test_confident_set_strict_threshold():
    p = np.array([[0.95, 0.05], [0.5, 0.5], [0.9, 0.1]])
    out = confident_set(p, 0.9, np.arange(3))
    np.testing.assert_array_equal(out, [0])  # row 2 max == nu: excluded


def test_confident_set_nu_one_empty():
    p = np.array([[0.7, 0.3], [0.99, 0.01]])
    assert len(confident_set(p, 1.0, np.arange(2))) == 0


def test_confident_set_restricted_to_unlabeled():
    p = np.array([[0.99, 0.01], [0.99, 0.01], [0.99, 0.01]])
    np.testing.assert_array_equal(confident_set(p, 0.9, np.array([2])), [2])


def test_confident_set_nu_zero_selects_all_unlabeled():
    p = np.full((4, 4), 0.25)
    np.testing.assert_array_equal(confident_set(p, 0.0, np.arange(4)), np.arange(4))


# ---------------------------------------------------------------------------
# label consistency


def test_label_consistency_zero_when_predictions_exact():
    tape = Tape()
    labels = np.array([0, 1, 2, 0])
    p_pred = np.eye(3)[labels]  # matches one-hot targets everywhere
    p_target = Tensor(p_pred.copy())
    loss = label_consistency_loss(
        tape, Tensor(p_pred), p_target, labels,
        labeled=np.array([0, 1]), v_conf=np.array([2, 3]),
    )
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_label_consistency_uniform_pred_empty_conf():
    tape = Tape()
    c = 4
    labels = np.array([0, 1])
    p_pred = np.full((2, c), 1.0 / c)
    loss = label_consistency_loss(
        tape, Tensor(p_pred), Tensor(p_pred.copy()), labels,
        labeled=np.array([0, 1]), v_conf=np.array([], dtype=int),
    )
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_label_consistency_matches_hand_rolled_oracle():
    rng = np.random.default_rng(13)
    n, c = 6, 3
    p_pred = rng.dirichlet(np.ones(c), size=n)
    p_target = rng.dirichlet(np.ones(c), size=n)
    labels = rng.integers(0, c, n)
    labeled = np.array([0, 1])
    v_conf = np.array([2, 4, 5])
    loss = label_consistency_loss(
        Tape(), Tensor(p_pred), Tensor(p_target), labels, labeled, v_conf
    ).item()
    oracle = np.mean(
        [-(p_target[i] * np.log(p_pred[i])).sum() for i in v_conf]
    ) + np.mean(
        [-(np.eye(c)[labels[i]] * np.log(p_pred[i])).sum() for i in labeled]
    )
    assert loss == pytest.approx(oracle, abs=1e-12)


def test_label_consistency_requires_detached_target():
    tape = Tape()
    w = tape.parameter(np.abs(np.random.default_rng(1).standard_normal((3, 2))) + 0.1, "w")
    live = tape.softmax_rows(w)
    labels = np.array([0, 1, 0])
    with pytest.raises(NumericsError, match="detached"):
        label_consistency_loss(
            tape, live, live, labels, np.array([0]), np.array([1])
        )


def test_label_consistency_uses_one_hot_for_labeled():
    """Labeled rows always compare against Y, never against the SNN target."""
    tape = Tape()
    c = 3
    labels = np.array([2, 1])
    p_pred = np.array([[0.1, 0.1, 0.8], [0.2, 0.6, 0.2]])
    # target rows deliberately contradict the labels; they must not matter
    p_target = Tensor(np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]]))
    loss = label_consistency_loss(
        tape, Tensor(p_pred), p_target, labels,
        labeled=np.array([0, 1]), v_conf=np.array([], dtype=int),
    ).item()
    oracle = np.mean([-np.log(0.8), -np.log(0.6)])
    assert loss == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# supervised loss


def test_supervised_loss_confident_logits_near_zero():
    tape = Tape()
    labels = np.array([0, 2])
    logits = np.array([[50.0, 0.0, 0.0], [0.0, 0.0, 50.0]])
    loss = supervised_loss(tape, Tensor(logits), labels, np.array([0, 1]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_supervised_loss_zero_logits_is_log_c():
    tape = Tape()
    c = 7
    labels = np.array([3, 5, 0])
    loss = supervised_loss(tape, Tensor(np.zeros((3, c))), labels, np.arange(3))
    assert loss.item() == pytest.approx(np.log(7.0), abs=1e-12)
    assert loss.item() == pytest.approx(1.9459, abs=1e-4)


# ---------------------------------------------------------------------------
# combination


def test_total_loss_zero_lambdas_equals_supervised():
    tape = Tape()
    nc, lc, sup = Tensor(np.asarray(0.7)), Tensor(np.asarray(1.3)), Tensor(np.asarray(2.1))
    assert total_loss(tape, nc, lc, sup, 0.0, 0.0).item() == 2.1


def test_total_loss_unit_sublosses():
    tape = Tape()
    one = lambda: Tensor(np.asarray(1.0))
    assert total_loss(tape, one(), one(), one(), 1.0, 1.0).item() == pytest.approx(3.0)


def test_total_loss_ablation_coefficients():
    tape = Tape()
    nc, lc, sup = Tensor(np.asarray(0.5)), Tensor(np.asarray(0.25)), Tensor(np.asarray(1.0))
    assert total_loss(tape, nc, lc, sup, 1.0, 0.0).item() == pytest.approx(1.5)
