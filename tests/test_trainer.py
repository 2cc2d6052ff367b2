import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grafn import (
    ConfigError,
    DataError,
    DivergenceError,
    NumericsError,
    SplitSpec,
    TrainConfig,
    fit,
    generate_splits,
    random_dataset,
)
from grafn.tape import Tape, Tensor
from grafn.model import build_from_checkpoint, init_params, predict
from grafn.sparse import normalize_adjacency
from grafn.sparse_features import SparseFeatures
from grafn.trainer import (
    AdamState,
    StepLosses,
    adam_update,
    build_step_loss,
    prepare_features,
    row_normalize,
    train_step,
)
from tests.conftest import make_dataset
from tests.test_cli import SPLIT_EDITS


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
    state = AdamState([w])
    adam_update([w], state, lr=0.1, weight_decay=0.0, step=1)
    np.testing.assert_array_equal(w.data, np.full((2, 3), 1.5))


def test_adam_first_step_magnitude_is_lr():
    tape = Tape()
    w = tape.parameter(np.zeros((3, 3)), "w")
    w.grad = np.full((3, 3), 0.37)
    state = AdamState([w])
    adam_update([w], state, lr=0.01, weight_decay=0.0, step=1)
    # bias-corrected m_hat/sqrt(v_hat) = sign(g) at step 1
    np.testing.assert_allclose(w.data, np.full((3, 3), -0.01), rtol=1e-6)


def test_adam_weight_decay_is_decoupled():
    tape = Tape()
    w = tape.parameter(np.full((1, 1), 2.0), "w")
    w.grad = np.zeros((1, 1))
    adam_update([w], AdamState([w]), lr=0.1, weight_decay=0.5, step=1)
    np.testing.assert_allclose(w.data, [[2.0 * (1 - 0.1 * 0.5)]])


def test_adam_missing_gradient_rejected():
    tape = Tape()
    w = tape.parameter(np.ones((2, 2)), "w")
    with pytest.raises(NumericsError, match="gradient"):
        adam_update([w], AdamState([w]), lr=0.1, weight_decay=0.0, step=1)


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
    total, parts = build_step_loss(tape, ds, split, encoder, head, cfg, rng)
    assert parts.total == parts.sup
    assert total.item() == parts.sup


def test_step_total_satisfies_combination_identity(tiny_setup):
    ds, split = tiny_setup
    tape = Tape()
    rng = np.random.default_rng(3)
    encoder, head = init_params(tape, ds.num_features, 8, 8, ds.class_count, 0.1, rng)
    cfg = TrainConfig(lambda1=0.5, lambda2=2.0)
    _, parts = build_step_loss(tape, ds, split, encoder, head, cfg, rng)
    assert parts.total == (0.5 * parts.nc + 2.0 * parts.lc) + parts.sup
    assert all(np.isfinite(v) for v in (parts.nc, parts.lc, parts.sup, parts.total))


def test_step_gradcheck_full_objective(tiny_setup):
    """Central finite differences over the complete step objective."""
    from grafn.gradcheck import finite_diff_check

    ds, split = tiny_setup
    tape = Tape()
    encoder, head = init_params(
        tape, ds.num_features, 6, 6, ds.class_count, 0.2, np.random.default_rng(5)
    )
    cfg = TrainConfig(nu=0.0)
    frozen = {}

    def record(tape, p):
        frozen["p"] = p.data.copy()
        return tape.detach(p)

    build_step_loss(tape, ds, split, encoder, head, cfg,
                    np.random.default_rng(6), target=record)

    def build():
        total, _ = build_step_loss(
            tape, ds, split, encoder, head, cfg, np.random.default_rng(6),
            target=lambda tape, p: Tensor(frozen["p"]),
        )
        return total

    assert finite_diff_check(tape, build, eps=1e-5) < 1e-4


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

    def build():
        rng = np.random.default_rng(14)
        adj_a, x_a = augment_view(ds, 0.2, 0.2, rng)
        adj_b, x_b = augment_view(ds, 0.2, 0.2, rng)
        z_a = encoder.encode(tape, adj_a, x_a, training=False)
        z_b = encoder.encode(tape, adj_b, x_b, training=False)
        return node_consistency_loss(tape, tape.normalize_rows(z_a), tape.normalize_rows(z_b))

    assert finite_diff_check(tape, build, eps=1e-5) < 1e-4


def test_label_consistency_gradcheck_ten_nodes_all_confident():
    """nu = 0 admits every unlabeled node, exercising both terms."""
    from grafn.data import normalize_adjacency
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
    support = sample_support(split, ds.label_ids(), ds.class_count,
                             np.random.default_rng(15))
    base_tape = Tape()
    base = base_tape.normalize_rows(encoder.encode(base_tape, adj, ds.features, training=False))
    p_target_frozen = snn_distribution(base_tape, base, support, 0.1).data
    v_conf = confident_set(p_target_frozen, 0.0, unlabeled)
    assert len(v_conf) == len(unlabeled)

    def build():
        z = encoder.encode(tape, adj, ds.features, training=False)
        p_pred = snn_distribution(tape, tape.normalize_rows(z), support, 0.1)
        return label_consistency_loss(
            tape, p_pred, Tensor(p_target_frozen), ds.labels, split.labeled, v_conf
        )

    assert finite_diff_check(tape, build, eps=1e-5) < 1e-4


def test_step_applies_adam(tiny_setup):
    ds, split = tiny_setup
    tape = Tape()
    rng = np.random.default_rng(7)
    encoder, head = init_params(tape, ds.num_features, 8, 8, ds.class_count, 0.1, rng)
    before = encoder.w1.data.copy()
    cfg = small_cfg()
    parts = train_step(tape, ds, split, encoder, head, cfg, AdamState(tape.parameters.values()), rng, 1)
    assert isinstance(parts, StepLosses)
    assert not np.array_equal(encoder.w1.data, before)


# Tape methods that are not kernels: the parameter registry and the backward pass.
TAPE_NON_KERNELS = {"parameter", "zero_grad", "new_step", "backward"}


def test_every_tape_kernel_is_in_use(tiny_setup, monkeypatch):
    """One step plus a head and an SNN `predict` call every public Tape
    kernel, and the step normalizes each view's embedding exactly once: a
    dead or a duplicated kernel fails here."""
    ds, split = tiny_setup
    kernels = {name for name, raw in vars(Tape).items() if callable(raw)
               and not name.startswith("_") and name not in TAPE_NON_KERNELS}
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
        predict(encoder, head, normalize_adjacency(ds.adj), ds.features,
                small_cfg(snn_inference=snn_inference), split.labeled, ds.label_ids())
    assert {name for name, n in calls.items() if n == 0} == set()


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
    ds.features[0, 0] = np.nan  # poisoned input: forward goes non-finite
    split = generate_splits(ds, 0.2, 1, 0)[0]
    with pytest.raises(DivergenceError) as err:
        fit(ds, split, small_cfg(feature_row_normalize=False))
    assert len(err.value.history) >= 1


# "test entry 0.5" is left out: SplitSpec.from_json already rejects it
@pytest.mark.parametrize("case", [case for case in SPLIT_EDITS if case != "test entry 0.5"])
def test_fit_rejects_every_bad_split(case):
    ds = random_dataset(60, num_classes=3, num_features=24, seed=6)
    obj = json.loads(generate_splits(ds, 0.1, 1, 0)[0].to_json())
    SPLIT_EDITS[case](obj, ds.label_ids())
    with pytest.raises(DataError):
        fit(ds, SplitSpec.from_json(json.dumps(obj)), small_cfg(max_epochs=1))


def test_fit_bit_reproducible(tiny_setup):
    ds, split = tiny_setup
    a = fit(ds, split, small_cfg(max_epochs=6))
    b = fit(ds, split, small_cfg(max_epochs=6))
    assert a.to_dict() == b.to_dict()


def test_trained_synthetic_loss_digest_is_pinned(trained_synthetic):
    """The benchmark's sweep trains the same split and seed; any change to a
    training bit shows here as well as there."""
    _, result = trained_synthetic
    blob = np.asarray(result.loss_history, dtype="<f8").tobytes()
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


def test_row_normalize_unit_rows_and_zero_guard():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = row_normalize(x)
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


@st.composite
def feature_matrices(draw):
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    cell = st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 1.0, -2.5, 0.3, 5e-324, -1e-310])
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells).reshape(rows, cols), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(feature_matrices())
@example((np.zeros((3, 4)), True))                           # all zero
@example((np.pad([[0.3]], ((0, 3), (0, 4))), True))           # 5%, empty rows
@example((np.pad([[5e-324, -1e-310]], ((1, 0), (0, 18))), False))  # 5%, subnormal
@example((np.pad([[5e-324, -1e-310]], ((1, 0), (0, 17))), False))  # 5.3%: dense
@example((np.pad([[5e-324, 2.0, 1.0]], ((1, 0), (0, 17))), True))  # 7.5%, 5% normalized
def test_prepare_features_csr_is_scipy_csr_byte_for_byte(case):
    """CSR exactly at or below 5% nonzero; its arrays and their dtypes are
    those of scipy.sparse.csr_matrix of the (row-normalized) matrix."""
    x, normalize = case
    ds = make_dataset(len(x), [(0, 1)], [0] * len(x), 1, features=x)
    out = prepare_features(ds, TrainConfig(feature_row_normalize=normalize))
    x = row_normalize(x) if normalize else x  # may round a subnormal to 0
    if 20 * np.count_nonzero(x) > x.size:
        assert isinstance(out, np.ndarray)
        return
    want = sp.csr_matrix(x)
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(out._csr, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


def clean_accuracy(ds, encoder, head, index_set, cfg=TrainConfig(), labeled=None):
    labeled = np.arange(ds.num_nodes) if labeled is None else labeled
    pred = predict(encoder, head, normalize_adjacency(ds.adj), prepare_features(ds, cfg),
                   cfg, labeled, ds.label_ids())
    return float(np.mean(pred[index_set] == ds.label_ids()[index_set]))


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
