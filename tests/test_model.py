import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import (DataError, NumericsError, TrainConfig, load_checkpoint, predict,
                   save_checkpoint)
from grafn.gradcheck import finite_diff_check
from grafn.model import build_from_checkpoint, embed, init_params
from grafn.objective import SupportSet, snn_distribution
from grafn.sparse import SparseAdjacency, normalize_adjacency
from grafn.sparse_features import SparseFeatures
from grafn.tape import Tape
from tests.conftest import make_dataset, sparse_features


def fresh(seed=0, f=6, h=4, d=4, c=3, dropout=0.0):
    tape = Tape()
    encoder, head = init_params(
        tape, f, h, d, c, dropout, np.random.default_rng(seed)
    )
    return tape, encoder, head


def test_init_deterministic_per_seed():
    _, enc_a, head_a = fresh(seed=3)
    _, enc_b, head_b = fresh(seed=3)
    np.testing.assert_array_equal(enc_a.w1.data, enc_b.w1.data)
    np.testing.assert_array_equal(head_a.w.data, head_b.w.data)


def test_init_seeds_differ():
    _, enc_a, _ = fresh(seed=1)
    _, enc_b, _ = fresh(seed=2)
    assert not np.array_equal(enc_a.w1.data, enc_b.w1.data)


def test_init_glorot_bound():
    f, h = 40, 10
    tape = Tape()
    encoder, head = init_params(tape, f, h, 8, 3, 0.0, np.random.default_rng(0))
    limit = np.sqrt(6.0 / (f + h))
    assert np.all(np.abs(encoder.w1.data) <= limit)
    np.testing.assert_array_equal(head.b.data, np.zeros((1, 3)))


def test_encode_zero_weights_gives_zero():
    tape, encoder, _ = fresh()
    encoder.w1.data[:] = 0.0
    encoder.w2.data[:] = 0.0
    adj = normalize_adjacency(SparseAdjacency.from_edges(3, [(0, 1), (1, 2)]))
    z = encoder.encode(tape, adj, np.random.default_rng(0).random((3, 6)), training=False)
    np.testing.assert_array_equal(z.data, np.zeros((3, 4)))


def test_encode_isolated_node_identity_weights():
    """Single node, unit self-loop, identity weights: Z follows ReLU(x)."""
    tape = Tape()
    f = 4
    encoder, _ = init_params(tape, f, f, f, 2, 0.0, np.random.default_rng(0))
    encoder.w1.data = np.eye(f)
    encoder.w2.data = np.eye(f)
    adj = normalize_adjacency(SparseAdjacency.from_edges(1, []))
    x = np.array([[-1.0, 2.0, 0.0, 3.0]])
    z = encoder.encode(tape, adj, x, training=False)
    np.testing.assert_allclose(z.data, [[0.0, 2.0, 0.0, 3.0]], atol=1e-14)


def test_encode_output_shape_fixed_under_edge_drop():
    tape, encoder, _ = fresh(f=5)
    x = np.random.default_rng(1).random((7, 5))
    full = normalize_adjacency(SparseAdjacency.from_edges(7, [(i, i + 1) for i in range(6)]))
    empty = normalize_adjacency(SparseAdjacency.from_edges(7, []))
    assert encoder.encode(tape, full, x, training=False).data.shape == (7, 4)
    assert encoder.encode(tape, empty, x, training=False).data.shape == (7, 4)


def test_encode_eval_mode_deterministic():
    tape, encoder, _ = fresh(dropout=0.5)
    adj = normalize_adjacency(SparseAdjacency.from_edges(4, [(0, 1), (2, 3)]))
    x = np.random.default_rng(2).random((4, 6))
    a = encoder.encode(tape, adj, x, training=False).data
    b = encoder.encode(tape, adj, x, training=False).data
    np.testing.assert_array_equal(a, b)


def test_encode_sparse_dense_paths_agree():
    tape, encoder, _ = fresh(f=10)
    rng = np.random.default_rng(4)
    x = (rng.random((8, 10)) < 0.4) * rng.random((8, 10))
    adj = normalize_adjacency(
        SparseAdjacency.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    )
    dense = encoder.encode(tape, adj, x, training=False).data
    sparse = encoder.encode(tape, adj, sparse_features(x), training=False).data
    np.testing.assert_allclose(sparse, dense, atol=1e-12)


@pytest.mark.parametrize("sparse_input", [False, True])
def test_embed_records_nothing_and_equals_eval_encode(monkeypatch, sparse_input):
    """`embed` encodes the dataset's prepared features (dense at 40% nonzero,
    CSR at about 3%) over its renormalized clean graph."""
    f = 120 if sparse_input else 10
    _, encoder, _ = fresh(f=f, dropout=0.5)
    rng = np.random.default_rng(4)
    x = (rng.random((8, f)) < (0.04 if sparse_input else 0.4)) * rng.random((8, f))
    ds = make_dataset(8, [(i, (i + 1) % 8) for i in range(8)], [0] * 8, 3, features=x)
    assert isinstance(ds.prepared_features, SparseFeatures) == sparse_input
    adj, x = normalize_adjacency(ds.adj), ds.prepared_features
    recorded = []
    emit = Tape._emit

    def counted(self, *args):
        out = emit(self, *args)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(Tape, "_emit", counted)
    expected = encoder.encode(Tape(), adj, x, training=False).data
    assert sum(recorded) == 5  # the counter sees a recording encode
    recorded.clear()
    z = embed(encoder, ds)
    assert len(recorded) == 5 and sum(recorded) == 0
    assert z.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sparse_input", [False, True])
def test_encode_classify_cross_entropy_gradcheck(sparse_input):
    """Finite differences through the full supervised path on a 15-node graph."""
    rng = np.random.default_rng(9)
    n, f = 15, 8
    tape = Tape()
    encoder, head = init_params(tape, f, 6, 5, 3, 0.3, np.random.default_rng(10))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    adj = normalize_adjacency(SparseAdjacency.from_edges(n, edges))
    x_dense = (rng.random((n, f)) < 0.5) * rng.random((n, f))
    x = sparse_features(x_dense) if sparse_input else x_dense
    onehot = np.eye(3)[rng.integers(0, 3, n)]

    def build():
        z = encoder.encode(tape, adj, x, training=True, rng=np.random.default_rng(55))
        return tape.softmax_cross_entropy(head.classify(tape, z), onehot)

    err = finite_diff_check(tape, build)
    assert err < 1e-4, f"{err:.3e}"


def test_classify_zero_head_uniform():
    tape, encoder, head = fresh()
    head.w.data[:] = 0.0
    z = tape.matmul(np.random.default_rng(0).random((5, 4)), np.eye(4))
    logits = head.classify(tape, z)
    np.testing.assert_array_equal(logits.data, np.zeros((5, 3)))
    sm = tape.softmax_rows(logits)
    np.testing.assert_allclose(sm.data, np.full((5, 3), 1.0 / 3.0), atol=1e-15)


def test_classify_one_hot_head_selects_columns():
    tape, _, head = fresh(d=4, c=3)
    head.w.data = np.zeros((4, 3))
    head.w.data[2, 0] = 1.0
    head.w.data[0, 1] = 1.0
    head.w.data[3, 2] = 1.0
    head.b.data[:] = 0.0
    z = np.random.default_rng(1).random((6, 4))
    from grafn.tape import Tensor

    logits = head.classify(tape, Tensor(z))
    np.testing.assert_allclose(logits.data, z[:, [2, 0, 3]], atol=1e-15)


def clean_predict(ds, encoder, head):
    return predict(encoder, head, ds, TrainConfig(), np.arange(ds.num_nodes))


def test_predict_tie_breaks_to_lower_class():
    ds = make_dataset(4, [(0, 1), (2, 3)], [1, 3, 0, 2], 4)
    tape = Tape()
    encoder, head = init_params(tape, 4, 4, 4, 4, 0.0, np.random.default_rng(0))
    head.w.data[:] = 0.0  # all logits equal: every prediction ties
    head.b.data[:] = 0.0
    pred = clean_predict(ds, encoder, head)
    np.testing.assert_array_equal(pred, np.zeros(4))
    # exact tie between classes 1 and 3 only
    head.b.data[0, 1] = 5.0
    head.b.data[0, 3] = 5.0
    pred = clean_predict(ds, encoder, head)
    np.testing.assert_array_equal(pred, np.ones(4))


def test_predict_repeated_calls_identical():
    ds = make_dataset(5, [(0, 1), (1, 2), (3, 4)], [0, 1, 2, 0, 1], 3)
    tape = Tape()
    encoder, head = init_params(tape, 3, 4, 4, 3, 0.5, np.random.default_rng(8))
    np.testing.assert_array_equal(clean_predict(ds, encoder, head),
                                  clean_predict(ds, encoder, head))


def test_predict_snn_zero_embedding_support_matches_training_distribution():
    # path 0-6 plus node 7, isolated with zero features: its embedding is the
    # zero row, which training's normalize_rows keeps at zero
    labels = [0, 0, 1, 1, 2, 2, 0, 1]
    ds = make_dataset(8, [(i, i + 1) for i in range(6)], labels, 3)
    ds.features[7] = 0.0
    tape = Tape()
    encoder, head = init_params(tape, 3, 4, 4, 3, 0.0, np.random.default_rng(0))
    cfg = TrainConfig(snn_inference=True)
    labeled = np.array([0, 2, 4, 7])
    pred = predict(encoder, head, ds, cfg, labeled)
    z = encoder.encode(tape, normalize_adjacency(ds.adj), ds.prepared_features, training=False)
    support = SupportSet(indices=labeled, y_support=np.eye(3)[ds.labels[labeled]])
    dist = snn_distribution(tape, tape.normalize_rows(z), support, cfg.tau)
    np.testing.assert_array_equal(pred, np.argmax(dist.data, axis=1))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(12)
    params = {
        "enc.w1": rng.standard_normal((5, 4)),
        "enc.w2": rng.standard_normal((4, 3)),
        "head.w": rng.standard_normal((3, 2)),
        "head.b": rng.standard_normal((1, 2)),
    }
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_array_equal(back[name], params[name])


def test_checkpoint_magic_prefix(tmp_path):
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, {"enc.w1": np.zeros((1, 1))})
    with open(path, "rb") as fh:
        assert fh.read(6) == b"GRAFN1"


def test_checkpoint_rejects_non_2d_parameter_before_writing(tmp_path):
    path = tmp_path / "model.bin"
    with pytest.raises(NumericsError, match="^checkpoint parameter 'bad' must be 2-d$"):
        save_checkpoint(str(path), {"enc.w1": np.ones((2, 2)), "bad": np.ones(3)})
    assert not path.exists()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTGRA" + b"\x00" * 10)
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(str(path))


def test_checkpoint_truncation_rejected(tmp_path):
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, {"enc.w1": np.ones((4, 4))})
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob, match", [
    (b"GRAFN1" + struct.pack("<I", 1) + b"w" + struct.pack("<I", 2), "truncated"),
    (b"GRAFN1" + struct.pack("<I", 1) + b"\xff" + struct.pack("<II", 0, 0), "UTF-8"),
    (b"GRAFN1" + struct.pack("<I", 1) + b"w" + struct.pack("<II", 2**32 - 1, 2**32 - 1),
     "truncated"),
], ids=["header-cut-in-shape", "name-not-utf8", "shape-beyond-file"])
def test_checkpoint_corrupt_header_rejected(tmp_path, blob, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=match):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_rejected(tmp_path, value):
    params = {"enc.w1": np.ones((2, 3)), "head.b": np.ones((1, 2))}
    params["head.b"][0, 1] = value
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, params)
    with pytest.raises(DataError, match=rf"parameter 'head.b' holds {value} at \(0, 1\)$"):
        load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_corruption_raises_only_data_error(data):
    params = {"enc.w1": np.arange(6.0).reshape(2, 3), "head.b": np.ones((1, 2))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_checkpoint(path, params)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            for _ in range(data.draw(st.integers(1, 4), label="flips")):
                at = data.draw(st.integers(0, len(blob) - 1), label="at")
                blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            loaded = load_checkpoint(path)
        except DataError:
            return
        assert all(isinstance(v, np.ndarray) and v.ndim == 2 and np.isfinite(v).all()
                   for v in loaded.values())


def test_build_from_checkpoint_requires_all_params():
    with pytest.raises(DataError, match="missing parameter"):
        build_from_checkpoint({"enc.w1": np.zeros((2, 2))})


@pytest.mark.parametrize("name, shape", [
    ("enc.w2", (4, 3)),    # rows differ from enc.w1's 3 columns
    ("head.w", (2, 2)),    # rows differ from enc.w2's 3 columns
    ("head.b", (1, 3)),    # columns differ from head.w's 2 classes
    ("head.b", (2, 2)),    # not a single row
])
def test_build_from_checkpoint_rejects_unchained_shapes(name, shape):
    params = {"enc.w1": np.zeros((5, 3)), "enc.w2": np.zeros((3, 3)),
              "head.w": np.zeros((3, 2)), "head.b": np.zeros((1, 2))}
    build_from_checkpoint(params)
    params[name] = np.zeros(shape)
    with pytest.raises(DataError, match="do not chain"):
        build_from_checkpoint(params)
