import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grafn import (
    ConfigError,
    DataError,
    DivergenceError,
    SplitSpec,
    TrainConfig,
    fit,
    generate_splits,
    random_dataset,
)
from grafn.tape import Tape
from grafn.model import build_from_checkpoint, init_params, predict
from grafn.sparse import normalize_adjacency
from grafn.sparse_features import SparseFeatures
from grafn.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    adam_update,
    build_step_loss,
    prepare_features,
    train_step,
)
from tests.conftest import make_dataset
from tests.test_cli import SPLIT_EDITS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def small_cfg(**kw):
    defaults = dict(
        hidden_dim=16, embed_dim=16, max_epochs=5, dropout=0.1,
        learning_rate=0.01, seed=1,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture()
def tiny_setup():
    ds = random_dataset(24, num_classes=3, num_features=16, feature_signal=0.5, seed=4)
    split = generate_splits(ds, 0.15, 1, 0)[0]
    return ds, split


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_no_movement():
    tape = Tape()
    w = tape.parameter(np.full((2, 3), 1.5), "w")
    w.grad = np.zeros((2, 3))
    adam_update(tape.parameters, {}, lr=0.1, weight_decay=0.0, step=1)
    np.testing.assert_array_equal(w.data, np.full((2, 3), 1.5))


def test_adam_first_step_magnitude_is_lr():
    tape = Tape()
    w = tape.parameter(np.zeros((3, 3)), "w")
    w.grad = np.full((3, 3), 0.37)
    state = {}
    adam_update(tape.parameters, state, lr=0.01, weight_decay=0.0, step=1)
    # bias-corrected m_hat/sqrt(v_hat) = sign(g) at step 1
    np.testing.assert_allclose(w.data, np.full((3, 3), -0.01), rtol=1e-6)
    np.testing.assert_allclose(state["w"][0], np.full((3, 3), 0.037), rtol=1e-12)


def test_adam_weight_decay_is_decoupled():
    tape = Tape()
    w = tape.parameter(np.full((1, 1), 2.0), "w")
    w.grad = np.zeros((1, 1))
    adam_update(tape.parameters, {}, lr=0.1, weight_decay=0.5, step=1)
    np.testing.assert_allclose(w.data, [[2.0 * (1 - 0.1 * 0.5)]])


def ref_adam_update(params, m, v, lr, weight_decay, step):
    """The update over zero-initialized moment arrays `m` and `v`, which
    `adam_update`'s missing names stand in for."""
    for name, p in params.items():
        g = p.grad
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
        m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = m[name] / (1 - ADAM_BETA1 ** step)
        v_hat = v[name] / (1 - ADAM_BETA2 ** step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_adam_from_empty_moments_matches_zero_arrays(weight_decay):
    """Signed zeros, a subnormal and ordinary values give the same bits from
    an empty `moments` dict as from zero moment arrays, after every step: a
    sign-of-zero difference at step 1 would be overwritten by step 2."""
    tiny = np.finfo(np.float64).smallest_subnormal
    start = {"w": np.array([[-0.0, 0.0, -0.0, 0.0, 0.5, -1.5]]),
             "b": np.array([[0.0, -0.0, 2.0]])}
    grads = [
        {"w": np.array([[-0.0, 0.0, 0.0, -0.0, tiny, -0.3]]), "b": np.array([[-0.0, tiny, 1.0]])},
        {"w": np.array([[0.0, -0.0, -tiny, 0.7, -0.0, 0.0]]), "b": np.array([[-tiny, 0.0, -0.0]])},
        {"w": np.array([[-0.0, tiny, -0.0, -0.0, 2.5, 0.0]]), "b": np.array([[0.0, -0.25, -0.0]])},
    ]
    got, want = Tape(), Tape()
    for tape in (got, want):
        for name, value in start.items():
            tape.parameter(value.copy(), name)
    moments = {}
    m = {name: np.zeros_like(value) for name, value in start.items()}
    v = {name: np.zeros_like(value) for name, value in start.items()}
    for step, grad in enumerate(grads, 1):
        for tape in (got, want):
            for name, p in tape.parameters.items():
                p.grad = grad[name].copy()
        adam_update(got.parameters, moments, 0.01, weight_decay, step)
        ref_adam_update(want.parameters, m, v, 0.01, weight_decay, step)
        for name in start:
            assert got.parameters[name].data.tobytes() == want.parameters[name].data.tobytes()
            assert moments[name][0].tobytes() == m[name].tobytes()
            assert moments[name][1].tobytes() == v[name].tobytes()


def test_adam_trajectories_reproducible(tiny_setup):
    ds, split = tiny_setup
    runs = []
    for _ in range(2):
        res = fit(ds, split, small_cfg(max_epochs=8))
        runs.append(res)
    assert runs[0].loss_history == runs[1].loss_history
    for name in runs[0].params:
        np.testing.assert_array_equal(runs[0].params[name], runs[1].params[name])


# ---------------------------------------------------------------------------
# train_step


def test_step_with_zero_lambdas_is_supervised_step(tiny_setup):
    ds, split = tiny_setup
    tape = Tape()
    rng = np.random.default_rng(2)
    encoder, head = init_params(tape, ds.num_features, 8, 8, ds.class_count, 0.1, rng)
    cfg = TrainConfig(lambda1=0.0, lambda2=0.0)
    total, (_, _, sup, row_total) = build_step_loss(tape, ds, split, encoder, head, cfg, rng)
    assert row_total == sup
    assert total.item() == sup


def test_step_total_satisfies_combination_identity(tiny_setup):
    ds, split = tiny_setup
    tape = Tape()
    rng = np.random.default_rng(3)
    encoder, head = init_params(tape, ds.num_features, 8, 8, ds.class_count, 0.1, rng)
    cfg = TrainConfig(lambda1=0.5, lambda2=2.0)
    _, (nc, lc, sup, row_total) = build_step_loss(tape, ds, split, encoder, head, cfg, rng)
    assert row_total == (0.5 * nc + 2.0 * lc) + sup
    assert all(np.isfinite(v) for v in (nc, lc, sup, row_total))


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_step_gradcheck_full_objective(tiny_setup, layout):
    """Central finite differences over the complete step objective, on the
    features `fit` trains on: dense, or CSR at most 5% nonzero (column
    masking by `scale_columns`, feature dropout by `drop_entries`)."""
    from grafn.gradcheck import finite_diff_check

    ds, split = tiny_setup
    if layout == "csr":
        ds = random_dataset(24, num_classes=3, num_features=40, feature_signal=0.08,
                            feature_noise=0.005, seed=4)
        split = generate_splits(ds, 0.15, 1, 0)[0]
    assert isinstance(ds.prepared_features, SparseFeatures) == (layout == "csr")
    tape = Tape()
    encoder, head = init_params(
        tape, ds.num_features, 6, 6, ds.class_count, 0.2, np.random.default_rng(5)
    )
    cfg = TrainConfig(nu=0.0)

    def build():
        total, _ = build_step_loss(tape, ds, split, encoder, head, cfg,
                                   np.random.default_rng(6))
        return total

    assert finite_diff_check(tape, build) < 1e-4


def wide_step_check(nu):
    """`finite_diff_check` of the full step at the shape that trains: 600
    nodes, CSR features at about 1.3% nonzero, hidden and embedding width
    128, dropout 0.5."""
    from grafn.gradcheck import finite_diff_check

    ds = random_dataset(600, num_classes=5, num_features=300, p_in=0.02, p_out=0.002,
                        feature_signal=0.05, feature_noise=0.004, seed=3)
    split = generate_splits(ds, 0.02, 1, 0)[0]
    assert isinstance(ds.prepared_features, SparseFeatures)
    cfg = TrainConfig(hidden_dim=128, embed_dim=128, dropout=0.5, nu=nu)
    tape = Tape()
    encoder, head = init_params(tape, ds.num_features, 128, 128, ds.class_count, 0.5,
                                np.random.default_rng(5))

    def build():
        total, _ = build_step_loss(tape, ds, split, encoder, head, cfg,
                                   np.random.default_rng(6))
        return total

    return finite_diff_check(tape, build)


@pytest.mark.parametrize("nu", [0.0, 0.9])
def test_step_gradcheck_at_training_shape(nu):
    err = wide_step_check(nu)
    assert 0.0 < err < 1e-6, f"{err:.3e}"


def ten_node_setup():
    from grafn import random_dataset

    ds = random_dataset(10, num_classes=2, num_features=10, p_in=0.5, p_out=0.2,
                        feature_signal=0.6, seed=12)
    split = generate_splits(ds, 0.3, 1, 1)[0]
    tape = Tape()
    encoder, head = init_params(
        tape, ds.num_features, 5, 5, ds.class_count, 0.0, np.random.default_rng(13)
    )
    return ds, split, tape, encoder, head


def test_node_consistency_gradcheck_ten_nodes():
    from grafn.augment import augment_view
    from grafn.gradcheck import finite_diff_check
    from grafn.objective import node_consistency_loss

    ds, split, tape, encoder, head = ten_node_setup()
    x = ds.prepared_features

    def build():
        rng = np.random.default_rng(14)
        adj_a, x_a = augment_view(ds.adj, x, 0.2, 0.2, rng)
        adj_b, x_b = augment_view(ds.adj, x, 0.2, 0.2, rng)
        z_a = encoder.encode(tape, adj_a, x_a, training=False)
        z_b = encoder.encode(tape, adj_b, x_b, training=False)
        return node_consistency_loss(tape, tape.normalize_rows(z_a), tape.normalize_rows(z_b))

    assert finite_diff_check(tape, build) < 1e-4


def test_label_consistency_gradcheck_ten_nodes_all_confident():
    """nu = 0 admits every unlabeled node, exercising both terms."""
    from grafn.gradcheck import finite_diff_check
    from grafn.objective import (
        confident_set,
        label_consistency_loss,
        sample_support,
        snn_distribution,
    )

    ds, split, tape, encoder, head = ten_node_setup()
    adj = normalize_adjacency(ds.adj)
    unlabeled = np.setdiff1d(np.arange(10), split.labeled)
    support = sample_support(split, ds.labels, ds.class_count,
                             np.random.default_rng(15))
    confident = []

    def build():
        u = tape.normalize_rows(encoder.encode(tape, adj, ds.features, training=False))
        p_target = snn_distribution(tape, tape.detach(u), support, 0.1)
        v_conf = confident_set(p_target.data, 0.0, unlabeled)
        confident.append(len(v_conf))
        return label_consistency_loss(tape, snn_distribution(tape, u, support, 0.1), p_target,
                                      ds.labels, split.labeled, v_conf)

    assert finite_diff_check(tape, build) < 1e-4
    assert set(confident) == {len(unlabeled)}


def test_step_applies_adam(tiny_setup):
    ds, split = tiny_setup
    tape = Tape()
    rng = np.random.default_rng(7)
    encoder, head = init_params(tape, ds.num_features, 8, 8, ds.class_count, 0.1, rng)
    before = encoder.w1.data.copy()
    cfg = small_cfg()
    row = train_step(tape, ds, split, encoder, head, cfg, {}, rng, 1)
    assert type(row) is tuple and [type(v) for v in row] == [float] * 4
    assert not np.array_equal(encoder.w1.data, before)


# Tape methods that are not kernels: the parameter registry and the backward pass.
TAPE_NON_KERNELS = {"parameter", "new_step", "backward"}
TAPE_KERNELS = (
    "detach", "matmul", "spmm", "relu", "dropout", "row_dot", "normalize_rows",
    "transpose", "gather_rows", "softmax_rows", "scale", "add", "mean",
    "cross_entropy_rows", "softmax_cross_entropy",
)


def test_every_tape_kernel_is_in_use(tiny_setup, monkeypatch):
    """One step plus a head and an SNN `predict` call every public Tape
    kernel, and the step normalizes each view's embedding exactly once: a
    dead or a duplicated kernel fails here. The kernel set is pinned, so a
    kernel added or removed shows in this file."""
    ds, split = tiny_setup
    kernels = {name for name, raw in vars(Tape).items() if callable(raw)
               and not name.startswith("_") and name not in TAPE_NON_KERNELS}
    assert kernels == set(TAPE_KERNELS)
    calls = dict.fromkeys(kernels, 0)
    for name in kernels:
        def counted(*args, _raw=getattr(Tape, name), _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(Tape, name, counted)
    tape = Tape()
    encoder, head = init_params(tape, ds.num_features, 8, 8, ds.class_count, 0.1,
                                np.random.default_rng(0))
    build_step_loss(tape, ds, split, encoder, head, small_cfg(), np.random.default_rng(1))
    assert calls["normalize_rows"] == 2
    for snn_inference in (False, True):
        predict(encoder, head, ds, small_cfg(snn_inference=snn_inference), split.labeled)
    assert {name for name, n in calls.items() if n == 0} == set()


# ---------------------------------------------------------------------------
# what a step holds


def sparse_step_setup(n=60, hidden=8, seed=4):
    """A CSR-featured graph (about 3.6% nonzero), its split, and a fresh
    tape with initialized parameters."""
    ds = random_dataset(n, num_classes=3, num_features=200, p_in=0.06, p_out=0.01,
                        feature_signal=0.1, feature_noise=0.005, seed=seed)
    split = generate_splits(ds, 0.1, 1, 0)[0]
    cfg = small_cfg(hidden_dim=hidden, embed_dim=hidden, dropout=0.5)
    tape = Tape()
    encoder, head = init_params(tape, ds.num_features, hidden, hidden, ds.class_count,
                                cfg.dropout, np.random.default_rng(0))
    assert isinstance(ds.prepared_features, SparseFeatures)
    return ds, split, cfg, tape, encoder, head


@pytest.fixture()
def no_cyclic_gc():
    """Values must be freed by reference counting alone."""
    gc.disable()
    yield
    gc.enable()


def record_outputs(monkeypatch):
    """Every output `Tape._emit` makes, as (kernel name, weakref to its data,
    its gradient slot, the indices of the earlier outputs alive when it was
    made), in emission order."""
    emitted = []
    emit = Tape._emit

    def recording(self, out_data, inputs, backprop):
        alive = {i for i, (_, ref, _, _) in enumerate(emitted) if ref() is not None}
        out = emit(self, out_data, inputs, backprop)
        emitted.append((backprop.__qualname__.split(".")[1], weakref.ref(out.data),
                        out._slot, alive))
        return out

    monkeypatch.setattr(Tape, "_emit", recording)
    return emitted


@pytest.mark.parametrize("sparse_input", [False, True])
def test_training_encode_frees_what_backward_does_not_read(monkeypatch, no_cyclic_gc,
                                                           sparse_input):
    """X.W1, A.(X.W1), the ReLU output and H.W2 die inside the encode: the
    closures keep the ReLU mask and the dropped H, not the tensors."""
    ds, _, _, tape, encoder, _ = sparse_step_setup()
    x = ds.prepared_features if sparse_input else ds.features
    emitted = record_outputs(monkeypatch)
    z = encoder.encode(tape, normalize_adjacency(ds.adj), x, training=True,
                       rng=np.random.default_rng(1))
    layers = emitted[-6:]
    assert [kind for kind, _, _, _ in layers] == ["matmul", "spmm", "relu", "dropout",
                                                  "matmul", "spmm"]
    assert [ref() is not None for _, ref, _, _ in layers] == [False, False, False, True,
                                                              False, True]
    assert layers[-1][1]() is z.data


def test_backward_leaves_no_recorded_output_or_gradient(monkeypatch, no_cyclic_gc):
    """The weak view's embedding is gone before the strong view is encoded;
    after backward, only the loss and the parameter gradients are left."""
    ds, split, cfg, tape, encoder, head = sparse_step_setup()
    emitted = record_outputs(monkeypatch)
    total, _ = build_step_loss(tape, ds, split, encoder, head, cfg, np.random.default_rng(1))
    # outputs 0-5 encode the weak view, 6 is u_w, 7-12 encode the strong view
    assert [emitted[i][0] for i in (5, 6, 7)] == ["spmm", "normalize_rows", "matmul"]
    assert 5 not in emitted[7][3]
    tape.backward(total)
    assert tape._records == []
    assert [ref() for _, ref, _, _ in emitted if ref() is not None] == [total.data]
    assert all(slot.grad is None for _, _, slot, _ in emitted)
    assert all(p.grad.shape == p.data.shape for p in tape.parameters.values())


def test_default_target_records_no_weak_view_snn_kernel():
    """The L_LC target is built from the detached weak view, so of the two
    SNN distributions only the strong view's is on the tape."""
    ds, split, cfg, tape, encoder, head = sparse_step_setup()
    build_step_loss(tape, ds, split, encoder, head, cfg, np.random.default_rng(1))
    kinds = [backprop.__qualname__.split(".")[1] for _, backprop in tape._records]
    assert kinds.count("softmax_rows") == 1


def test_train_step_traced_peak_is_bounded():
    """One warmed-up step on a 1500-node CSR graph holds at most 11 N x H
    float64 arrays at once (about 9.4 in practice: the dropped hidden
    layers, the unit-row embeddings of both views, the gradients in flight,
    and the boolean dropout masks). Float dropout scales and a new array for
    every gradient sum peaked at about 11.8, and a tape that kept every
    output and its gradient until the next step at about 37."""
    n, hidden = 1500, 64
    ds = random_dataset(n, num_classes=4, num_features=400, p_in=0.01, p_out=0.001,
                        feature_signal=0.1, feature_noise=0.01, seed=5)
    split = generate_splits(ds, 0.02, 1, 0)[0]
    cfg = small_cfg(hidden_dim=hidden, embed_dim=hidden, dropout=0.5)
    tape = Tape()
    rng = np.random.default_rng(1)
    encoder, head = init_params(tape, ds.num_features, hidden, hidden, ds.class_count,
                                cfg.dropout, rng)
    adam = {}
    assert isinstance(ds.prepared_features, SparseFeatures)
    train_step(tape, ds, split, encoder, head, cfg, adam, rng, 1)
    tracemalloc.start()
    try:
        train_step(tape, ds, split, encoder, head, cfg, adam, rng, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * hidden * 8) < 11


# ---------------------------------------------------------------------------
# fit


def test_fit_single_epoch(tiny_setup):
    ds, split = tiny_setup
    res = fit(ds, split, small_cfg(max_epochs=1))
    assert len(res.loss_history) == 1
    assert res.epoch_of_best == 1
    assert 0.0 <= res.best_val_accuracy <= 1.0
    assert 0.0 <= res.test_accuracy_at_best_val <= 1.0


def test_fit_reports_best_epoch_not_last(tiny_setup):
    ds, split = tiny_setup
    res = fit(ds, split, small_cfg(max_epochs=40))
    assert 1 <= res.epoch_of_best <= 40
    assert len(res.loss_history) == 40


def test_fit_selects_first_epoch_of_max_validation(tiny_setup):
    """The reported checkpoint is the earliest epoch attaining the best
    validation accuracy, never simply the final epoch."""
    ds, split = tiny_setup
    res = fit(ds, split, small_cfg(max_epochs=30))
    vals = np.asarray(res.val_accuracy_history)
    assert res.epoch_of_best == int(np.argmax(vals)) + 1
    assert res.best_val_accuracy == vals.max()


def test_fit_history_satisfies_combination_identity(tiny_setup):
    ds, split = tiny_setup
    res = fit(ds, split, small_cfg(max_epochs=6))
    for nc, lc, sup, total in res.loss_history:
        assert total == (1.0 * nc + 1.0 * lc) + sup


def test_fit_divergence_guard_saves_history():
    ds = random_dataset(16, num_classes=2, num_features=8, seed=9)
    ds.features[0, 0] = np.nan  # survives row normalization: forward goes non-finite
    split = generate_splits(ds, 0.2, 1, 0)[0]
    with pytest.raises(DivergenceError) as err:
        fit(ds, split, small_cfg())
    assert len(err.value.history) >= 1


# the cases SplitSpec.from_json already rejects are left out
PARSE_FAULTS = {"test entry 0.5", "seed 1.7", "seed true", "seed '7'", "label_rate 'nan'"}


@pytest.mark.parametrize("case", [case for case in SPLIT_EDITS if case not in PARSE_FAULTS])
def test_fit_rejects_every_bad_split(case):
    ds = random_dataset(60, num_classes=3, num_features=24, seed=6)
    obj = json.loads(generate_splits(ds, 0.1, 1, 0)[0].to_json())
    SPLIT_EDITS[case](obj, ds.labels)
    with pytest.raises(DataError):
        fit(ds, SplitSpec.from_json(json.dumps(obj)), small_cfg(max_epochs=1))


def test_fit_bit_reproducible(tiny_setup):
    ds, split = tiny_setup
    a = fit(ds, split, small_cfg(max_epochs=6))
    b = fit(ds, split, small_cfg(max_epochs=6))
    assert a.to_dict() == b.to_dict()


def test_trained_synthetic_loss_digest_is_pinned(trained_synthetic, synthetic_ds,
                                                 synthetic_split):
    """The benchmark's sweep trains the same split and seed; any change to a
    training bit shows here as well as there. A second fit on the dataset
    reads its prepared features from the first and keeps the bits."""
    cfg, result = trained_synthetic
    again = fit(synthetic_ds, synthetic_split, cfg)
    for res in (result, again):
        blob = np.asarray(res.loss_history, dtype="<f8").tobytes()
        assert hashlib.sha256(blob).hexdigest()[:16] == "fd4eadd152642d03"


def test_sparse_feature_loss_digest_is_pinned():
    """A fit on 3.2% dense features (the CSR path, with masked columns and
    feature dropout) keeps its loss bits."""
    ds = random_dataset(150, num_classes=3, num_features=240, p_in=0.06, p_out=0.01,
                        feature_signal=0.08, feature_noise=0.005, seed=5)
    cfg = TrainConfig(hidden_dim=16, embed_dim=16, max_epochs=40, dropout=0.3,
                      learning_rate=0.01, seed=4)
    assert isinstance(prepare_features(ds, cfg), SparseFeatures)
    result = fit(ds, generate_splits(ds, 0.1, 1, base_seed=2)[0], cfg)
    blob = np.asarray(result.loss_history, dtype="<f8").tobytes()
    assert hashlib.sha256(blob).hexdigest()[:16] == "e1cd4578500e9945"


WIDE_CSR_FIT = """
import hashlib
import numpy as np
from grafn import TrainConfig, fit, generate_splits, random_dataset
from grafn.sparse_features import SparseFeatures
from grafn.trainer import prepare_features
ds = random_dataset(600, num_classes=5, num_features=500, p_in=0.03, p_out=0.003,
                    feature_signal=0.04, feature_noise=0.0025, seed=8)
cfg = TrainConfig(hidden_dim=128, embed_dim=128, max_epochs=5, dropout=0.5,
                  learning_rate=0.01, seed=2)
assert isinstance(prepare_features(ds, cfg), SparseFeatures)
split = generate_splits(ds, 0.05, 1, base_seed=1)[0]
for _ in range(2):  # the second fit reads the features the first prepared
    result = fit(ds, split, cfg)
    print(hashlib.sha256(np.asarray(result.loss_history, dtype="<f8").tobytes()).hexdigest()[:16])
"""


def test_wide_csr_loss_digest_is_pinned():
    """A fit past 512 nodes, at width 128, on CSR features at 1% density:
    the regime of the Cora-shaped benchmark, which the other pinned digests
    do not reach. Its weight gradients, products whose inner dimension is N,
    change bits with the OpenBLAS thread count, so the fit runs in a child
    process with one thread."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", WIDE_CSR_FIT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "bb12384e96d26029\n" * 2


STEP_FAULTS_FIT = """
import resource
import grafn.trainer as trainer
from grafn import TrainConfig, generate_splits, random_dataset
ds = random_dataset(600, num_classes=5, num_features=500, p_in=0.03, p_out=0.003,
                    feature_signal=0.04, feature_noise=0.0025, seed=8)
faults, step = [], trainer.train_step
def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    row = step(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return row
trainer.train_step = counted
trainer.fit(ds, generate_splits(ds, 0.05, 1, base_seed=1)[0],
            TrainConfig(hidden_dim=128, embed_dim=128, max_epochs=20, dropout=0.5,
                        learning_rate=0.01, seed=2))
print(sum(faults[5:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_fresh_process_steps_do_not_fault_their_arrays_in_again():
    """In a fresh process, the steps after the first few take their 600 x 128
    arrays from memory the process already holds: the 15 steps past the
    fifth take under 1,500 minor page faults in all (40-180 measured), where
    a heap that glibc trims at the end of every step takes 6,000-11,000."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", STEP_FAULTS_FIT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout) < 1500


def test_fit_sparse_dense_paths_both_run(tiny_setup):
    """One dataset on each side of prepare_features' 5% density rule."""
    dense_ds, dense_split = tiny_setup
    sparse_ds = random_dataset(24, num_classes=3, num_features=200, feature_signal=0.05,
                               feature_noise=0.005, seed=4)
    sparse_split = generate_splits(sparse_ds, 0.15, 1, 0)[0]
    assert isinstance(prepare_features(dense_ds, small_cfg()), np.ndarray)
    assert isinstance(prepare_features(sparse_ds, small_cfg()), SparseFeatures)
    dense = fit(dense_ds, dense_split, small_cfg(max_epochs=4))
    sparse = fit(sparse_ds, sparse_split, small_cfg(max_epochs=4))
    assert len(dense.loss_history) == len(sparse.loss_history) == 4


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0)


# ---------------------------------------------------------------------------
# helpers and evaluation


def row_normalize(features):
    """The dense row normalization `prepare_features` matches bit for bit:
    each row divided by its L2 norm, zero rows left as they are."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return features / norms


def test_row_normalize_unit_rows_and_zero_guard():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    ds = make_dataset(2, [(0, 1)], [0, 0], 1, features=x)
    for out in (row_normalize(x), prepare_features(ds, TrainConfig())):
        np.testing.assert_allclose(out[0], [0.6, 0.8])
        np.testing.assert_array_equal(out[1], [0.0, 0.0])


def test_prepare_features_auto_density():
    dense_ds = make_dataset(4, [(0, 1)], [0, 1, 0, 1], 2,
                            features=np.ones((4, 3)))
    assert isinstance(prepare_features(dense_ds, TrainConfig()), np.ndarray)
    sparse_x = np.zeros((50, 100))
    sparse_x[0, 0] = 1.0
    sparse_ds = make_dataset(50, [(0, 1)], [0] * 50, 1, features=sparse_x)
    assert isinstance(prepare_features(sparse_ds, TrainConfig()), SparseFeatures)


def test_prepare_features_makes_no_n_by_f_temporary():
    """At 5% nonzero, the CSR and the work of making it add less than a
    quarter of the matrix's N x F float64 bytes; np.linalg.norm over the
    whole matrix alone made a temporary of all of them."""
    n, f = 3000, 1000
    x = np.zeros(n * f)
    x[np.random.default_rng(0).choice(n * f, n * f // 20, replace=False)] = 1.0
    ds = make_dataset(n, [(0, 1)], [0] * n, 1, features=x.reshape(n, f))
    tracemalloc.start()
    try:
        out = prepare_features(ds, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, SparseFeatures)
    assert peak < n * f * 8 / 4


@pytest.mark.parametrize("n", [4, 40], ids=["dense", "csr"])
def test_prepare_features_keeps_one_read_only_copy(n):
    """The dataset prepares its features once; after that neither they nor
    the prepared arrays can be edited, and no field can be rebound."""
    ds = make_dataset(n, [], [0] * n, 1, features=np.eye(n))
    out = prepare_features(ds, TrainConfig())
    assert prepare_features(ds, small_cfg()) is out
    if isinstance(out, np.ndarray):
        arrays = [out]
    else:
        arrays = [out._csr.data, out._csr.indices, out._csr.indptr]
    for a in [ds.features, *arrays]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.features = np.eye(n)


def test_predict_after_fit_matches_a_fresh_dataset(trained_synthetic, synthetic_ds,
                                                   synthetic_split):
    """Inference on features that `fit` prepared equals inference on a copy
    prepared from scratch."""
    cfg, result = trained_synthetic
    fresh = dataclasses.replace(synthetic_ds, features=synthetic_ds.features.copy())
    assert fresh.prepared_features is not synthetic_ds.prepared_features
    _, encoder, head = build_from_checkpoint(result.params)
    preds = [predict(encoder, head, ds, cfg, synthetic_split.labeled)
             for ds in (synthetic_ds, fresh)]
    np.testing.assert_array_equal(*preds)


@st.composite
def feature_matrices(draw):
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    cell = st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 1.0, -2.5, 0.3, 5e-324, -1e-310])
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(feature_matrices())
@example(np.zeros((3, 4)))                                # all zero
@example(np.pad([[0.3]], ((0, 3), (0, 4))))                # 5%, empty rows
@example(np.pad([[5e-324, -1e-310]], ((1, 0), (0, 18))))   # 5%, subnormal
@example(np.pad([[5e-324, -1e-310]], ((1, 0), (0, 17))))   # 5.3%: dense
@example(np.pad([[5e-324, 2.0, 1.0]], ((1, 0), (0, 17))))  # 7.5%, 5% normalized
def test_prepare_features_csr_is_scipy_csr_byte_for_byte(x):
    """CSR exactly at or below 5% nonzero; its arrays and their dtypes are
    those of scipy.sparse.csr_matrix of the row-normalized matrix. Above 5%
    the dense result is the row-normalized matrix, bit for bit."""
    ds = make_dataset(len(x), [(0, 1)], [0] * len(x), 1, features=x)
    out = prepare_features(ds, TrainConfig())
    x = row_normalize(x)  # may round a subnormal to 0
    if 20 * np.count_nonzero(x) > x.size:
        assert isinstance(out, np.ndarray)
        assert out.dtype == x.dtype and out.shape == x.shape
        assert out.tobytes() == x.tobytes()
        return
    want = sp.csr_matrix(x)
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(out._csr, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


def clean_accuracy(ds, encoder, head, index_set, cfg=TrainConfig(), labeled=None):
    labeled = np.arange(ds.num_nodes) if labeled is None else labeled
    pred = predict(encoder, head, ds, cfg, labeled)
    return float(np.mean(pred[index_set] == ds.labels[index_set]))


def test_evaluate_accuracy_all_correct():
    # no edges: encoder sees pure features; craft weights to copy them through
    ds = make_dataset(6, [], [0, 1, 2, 0, 1, 2], 3)
    tape = Tape()
    encoder, head = init_params(tape, 3, 3, 3, 3, 0.0, np.random.default_rng(0))
    encoder.w1.data = np.eye(3)
    encoder.w2.data = np.eye(3)
    head.w.data = np.eye(3) * 10.0
    head.b.data[:] = 0.0
    assert clean_accuracy(ds, encoder, head, np.arange(6)) == 1.0


def test_evaluate_accuracy_constant_predictor_hits_class_share():
    ds = make_dataset(30, [], np.arange(30) % 3, 3)
    tape = Tape()
    encoder, head = init_params(tape, 3, 3, 3, 3, 0.0, np.random.default_rng(0))
    head.w.data[:] = 0.0   # ties everywhere: always predicts class 0
    head.b.data[:] = 0.0
    acc = clean_accuracy(ds, encoder, head, np.arange(30))
    assert acc == pytest.approx(1.0 / 3.0)


def test_snn_predict_labels_supports_correctly():
    # no edges and identity weights: the clean embedding is the unit feature row
    z = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    ds = make_dataset(4, [], [0, 0, 1, 1], 2, features=z)
    tape = Tape()
    encoder, head = init_params(tape, 2, 2, 2, 2, 0.0, np.random.default_rng(0))
    encoder.w1.data = np.eye(2)
    encoder.w2.data = np.eye(2)
    head.w.data = np.array([[0.0, 1.0], [1.0, 0.0]])  # the head alone gets all wrong
    cfg = TrainConfig(snn_inference=True, tau=0.1)
    assert clean_accuracy(ds, encoder, head, np.arange(4)) == 0.0
    assert clean_accuracy(ds, encoder, head, np.arange(4), cfg, np.array([0, 2])) == 1.0


@pytest.mark.parametrize("snn_inference", [False, True])
def test_predict_on_checkpoint_reproduces_fit_accuracy(tiny_setup, snn_inference):
    ds, split = tiny_setup
    norms = np.linalg.norm(ds.features, axis=1)
    assert norms.min() < norms.max()  # row normalization changes the input
    cfg = small_cfg(max_epochs=6, snn_inference=snn_inference)
    result = fit(ds, split, cfg)
    _, encoder, head = build_from_checkpoint(result.params)
    acc = clean_accuracy(ds, encoder, head, split.test, cfg, split.labeled)
    assert acc == result.test_accuracy_at_best_val


def test_fit_snn_inference_mode(tiny_setup):
    ds, split = tiny_setup
    res = fit(ds, split, small_cfg(max_epochs=4, snn_inference=True))
    assert 0.0 <= res.test_accuracy_at_best_val <= 1.0
