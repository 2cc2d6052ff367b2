import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import (
    ConfigError,
    DataError,
    SplitSpec,
    generate_splits,
    load_dataset,
    random_dataset,
    write_dataset,
)
from grafn import data
from grafn.data import convert_content_cites, degree_buckets
from grafn.sparse import SparseAdjacency, normalize_adjacency
from grafn.sparse_features import SparseFeatures
from tests.conftest import SYNTH_KW, make_dataset


def write_toy_dir(path, edges, features, labels, meta=None):
    path.mkdir(parents=True, exist_ok=True)
    n = len(features)
    default_meta = {
        "name": "toy",
        "num_nodes": n,
        "num_features": len(features[0]),
        "num_classes": max(labels) + 1,
    }
    default_meta.update(meta or {})
    (path / "meta.json").write_text(json.dumps(default_meta))
    (path / "graph.edges").write_text(
        "".join(f"{a} {b}\n" for a, b in edges)
    )
    (path / "features.tsv").write_text(
        "".join("\t".join(str(v) for v in row) + "\n" for row in features)
    )
    (path / "labels.txt").write_text("".join(f"{v}\n" for v in labels))
    return str(path)


# ---------------------------------------------------------------------------
# loader


def test_load_two_node_toy(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [(0, 1)], [[1.0, 0.0], [0.0, 1.0]], [0, 1])
    ds = load_dataset(d)
    assert ds.num_nodes == 2 and ds.num_features == 2 and ds.class_count == 2
    np.testing.assert_array_equal(ds.adj.csr.toarray(), [[0, 1], [1, 0]])


def test_load_collapses_repeated_edge_line(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [(0, 1), (1, 2), (0, 1)], [[1.0]] * 3, [0, 0, 0])
    adj = load_dataset(d).adj
    np.testing.assert_array_equal(adj.csr.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert adj.num_undirected_edges == 2


def test_load_reports_malformed_edge_line(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [(0, 1)], [[1.0], [1.0]], [0, 0])
    (tmp_path / "toy" / "graph.edges").write_text("0 1\nbroken\n")
    with pytest.raises(DataError, match=r"graph.edges:2"):
        load_dataset(d)


def test_load_rejects_label_out_of_range(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 0])
    (tmp_path / "toy" / "labels.txt").write_text("0\n7\n")
    with pytest.raises(DataError, match=r"labels.txt:2.*out of range"):
        load_dataset(d)


def test_load_rejects_node_out_of_range(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [(0, 9)], [[1.0], [1.0]], [0, 0])
    with pytest.raises(DataError, match="out of range"):
        load_dataset(d)


@pytest.mark.parametrize("key, value, message", [
    ("num_nodes", "abc", "'num_nodes' must be an integer, got 'abc'"),
    ("num_features", None, "'num_features' must be an integer, got None"),
    ("num_classes", 2.7, "'num_classes' must be an integer, got 2.7"),
    ("num_nodes", True, "'num_nodes' must be an integer, got True"),
    ("num_nodes", 2.0, "'num_nodes' must be an integer, got 2.0"),
])
def test_load_rejects_non_integer_meta(tmp_path, key, value, message):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 1], meta={key: value})
    with pytest.raises(DataError, match=rf"meta.json: {re.escape(message)}$"):
        load_dataset(d)


def test_load_rejects_meta_that_is_not_an_object(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 1])
    (tmp_path / "toy" / "meta.json").write_text('["toy", 2, 1, 2]')
    with pytest.raises(DataError, match=r"meta.json: expected a JSON object$"):
        load_dataset(d)


def test_load_rejects_invalid_meta_json(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 1])
    (tmp_path / "toy" / "meta.json").write_text("{")
    try:
        json.loads("{")
    except json.JSONDecodeError as exc:
        reason = str(exc)
    message = f"{tmp_path / 'toy' / 'meta.json'}: invalid JSON ({reason})"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_dataset(d)


def test_load_rejects_meta_missing_key(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 1])
    (tmp_path / "toy" / "meta.json").write_text(
        json.dumps({"name": "toy", "num_nodes": 2, "num_features": 1}))
    with pytest.raises(DataError, match=r"meta.json: missing key 'num_classes'$"):
        load_dataset(d)


@pytest.mark.parametrize("key, value", [
    ("num_nodes", 0), ("num_features", -1), ("num_classes", 0),
])
def test_load_rejects_non_positive_meta(tmp_path, key, value):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 1], meta={key: value})
    with pytest.raises(DataError, match=r"meta.json: N, F, C must be positive$"):
        load_dataset(d)


def test_every_constructor_holds_class_ids(tmp_path, monkeypatch):
    """`labels` is an N-vector of int64 class ids, never an N x C matrix."""
    built = [random_dataset(20, seed=1), make_dataset(3, [], [0, 1, 1], 2)]
    d = write_toy_dir(tmp_path / "toy", [(0, 1)], [[1.0], [1.0], [0.0]], [1, 0, 1])
    built.append(load_dataset(d))  # the array path
    (tmp_path / "toy" / "labels.txt").write_text("1\r\n0\n1\n")
    built.append(load_dataset(d))  # the per-line path
    monkeypatch.setattr(data, "write_dataset", lambda ds, *args, **kw: built.append(ds))
    (tmp_path / "x.content").write_text("a 1 0 ml\nb 0 1 db\nc 1 1 ml\n")
    (tmp_path / "x.cites").write_text("a b\n")
    convert_content_cites(str(tmp_path / "x.content"), str(tmp_path / "x.cites"),
                          str(tmp_path / "out"))
    assert len(built) == 5
    for ds in built:
        assert ds.labels.dtype == np.int64 and ds.labels.shape == (ds.num_nodes,)
        assert 0 <= ds.labels.min() and ds.labels.max() < ds.class_count
        assert ds.label_ids() is ds.labels
    for ds in built[2:]:
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])


def test_load_rejects_wrong_feature_arity(tmp_path):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0], [1.0]], [0, 0])
    (tmp_path / "toy" / "features.tsv").write_text("1.0\n1.0\t2.0\n")
    with pytest.raises(DataError, match=r"features.tsv:2.*expected 1 columns"):
        load_dataset(d)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_feature(tmp_path, value):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0, 2.0], [3.0, 4.0]], [0, 0])
    (tmp_path / "toy" / "features.tsv").write_text(f"1.0\t2.0\n3.0\t{value}\n")
    with pytest.raises(DataError, match=f"^node 1 feature 1 is not finite: {value}$"):
        load_dataset(d)


def test_non_finite_feature_is_reported_before_a_label_fault(tmp_path):
    """The cells are checked while features.tsv is read, before labels.txt."""
    d = write_toy_dir(tmp_path / "toy", [], [[1.0, 2.0], [3.0, 4.0]], [0, 0])
    (tmp_path / "toy" / "features.tsv").write_text("1.0\t2.0\n3.0\tnan\n")
    (tmp_path / "toy" / "labels.txt").write_text("0\n1\n")  # a label of C = 1
    with pytest.raises(DataError, match="^node 1 feature 1 is not finite: nan$"):
        load_dataset(d)


@pytest.mark.parametrize("name, text, token", [
    ("labels.txt", "0\n1_0\n", "1_0"),          # digit grouping, class 10 to int()
    ("labels.txt", "0\n\u0661\n", "\u0661"),    # Arabic-Indic one, class 1 to int()
    ("graph.edges", "0 1\n0 1_1\n", "1_1"),      # edge (0, 11) to int()
    ("graph.edges", "0 1\n\u0660 2\n", "\u0660"),  # edge (0, 2) to int()
])
def test_load_rejects_integers_only_int_takes(tmp_path, name, text, token):
    d = write_toy_dir(tmp_path / "toy", [], [[1.0]] * 12, list(range(12)))
    (tmp_path / "toy" / name).write_text(text, encoding="utf-8")
    message = f"{name}:2: invalid literal for int() with base 10: {token!r}"
    with pytest.raises(DataError, match=rf"/{re.escape(message)}$"):
        load_dataset(d)


def test_binary_features_are_read_without_numpys_reader(tmp_path, monkeypatch):
    ds = random_dataset(**SYNTH_KW)  # 0.0/1.0 features
    write_dataset(ds, str(tmp_path / "written"))
    (tmp_path / "x.content").write_text("a 1 0 ml\nb 0 1 db\nc 1 1 ml\n")
    (tmp_path / "x.cites").write_text("a b\n")
    convert_content_cites(str(tmp_path / "x.content"), str(tmp_path / "x.cites"),
                          str(tmp_path / "converted"))

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert (np.asarray(load_dataset(str(tmp_path / "written")).features).tobytes()
            == np.asarray(ds.features).tobytes())
    converted = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert (np.asarray(load_dataset(str(tmp_path / "converted")).features).tobytes()
            == converted.tobytes())
    tsv = tmp_path / "written" / "features.tsv"
    tsv.write_text("0.5" + tsv.read_text()[3:])  # same size, one cell not 0/1
    with pytest.raises(AssertionError, match="np.loadtxt called"):
        load_dataset(str(tmp_path / "written"))


def test_binary_features_load_within_a_block_of_the_output(tmp_path):
    """A 0/1 features.tsv of eight 1 MiB blocks loads at a traced peak under
    the CSR's stored bytes plus 2 MiB: the file is read a block at a time, of
    which only the '1.0' positions are kept, and no N x F array is made."""
    n, f = 1000, 2000
    x = (np.random.default_rng(0).random((n, f)) < 0.02).astype(np.float64)
    write_dataset(make_dataset(n, [(0, 1)], [0] * n, 1, features=x), str(tmp_path))
    tracemalloc.start()
    try:
        ds = load_dataset(str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.asarray(ds.features).tobytes() == x.tobytes()
    stored = sum(a.nbytes for a in (ds.features.data, ds.features.indices, ds.features.indptr))
    assert peak < stored + 2 * 2**20


def test_canonical_labels_and_edges_are_read_as_arrays(tmp_path, monkeypatch):
    """`write_dataset` and `convert` output loads without the per-line
    reader's `_int`, and byte-read features without the finite scan; a CRLF
    line, a signed label or a tab separator reaches the per-line reader, and
    text-read features the scan."""
    ds = random_dataset(**SYNTH_KW)
    write_dataset(ds, str(tmp_path / "written"))
    (tmp_path / "x.content").write_text("a 1 0 ml\nb 0 1 db\nc 1 1 ml\n")
    (tmp_path / "x.cites").write_text("a b\nc b\n")
    converted = tmp_path / "converted"
    convert_content_cites(str(tmp_path / "x.content"), str(tmp_path / "x.cites"),
                          str(converted))

    def refuse(name):
        def raise_(*args):
            raise AssertionError(f"{name} called")
        return raise_

    monkeypatch.setattr(data, "_int", refuse("_int"))
    monkeypatch.setattr(data, "_check_finite", refuse("_check_finite"))
    back = load_dataset(str(tmp_path / "written"))
    for a, b in ((back.adj.csr.indptr, ds.adj.csr.indptr),
                 (back.adj.csr.indices, ds.adj.csr.indices),
                 (back.adj.csr.data, ds.adj.csr.data),
                 (back.labels, ds.labels), (back.features.data, ds.features.data),
                 (back.features.indices, ds.features.indices),
                 (back.features.indptr, ds.features.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    small = load_dataset(str(converted))
    np.testing.assert_array_equal(small.labels, [1, 0, 1])
    np.testing.assert_array_equal(small.adj.undirected_edge_list(), [[0, 1], [1, 2]])
    for name, text in (("labels.txt", "1\r\n0\n1\n"), ("labels.txt", "+1\n0\n1\n"),
                       ("graph.edges", "0\t1\n1 2\n")):
        saved = (converted / name).read_bytes()
        (converted / name).write_bytes(text.encode())
        with pytest.raises(AssertionError, match="^_int called$"):
            load_dataset(str(converted))
        (converted / name).write_bytes(saved)
    (converted / "features.tsv").write_text("1\t0\n0\t1\n1\t1\n")
    with pytest.raises(AssertionError, match="^_check_finite called$"):
        load_dataset(str(converted))


def test_write_load_roundtrip_is_identity(tmp_path):
    ds = random_dataset(25, num_classes=3, num_features=6, seed=5)
    x = np.asarray(ds.features)
    x[0, :3] = [-0.0, 5e-324, 0.1 + 0.2]  # signed zero, subnormal, 17 digits
    ds = dataclasses.replace(ds, features=SparseFeatures.from_dense(x))
    assert ds.features.data[:3].tobytes() == x[0, :3].tobytes()  # -0.0 is stored
    write_dataset(ds, str(tmp_path / "rt"))
    back = load_dataset(str(tmp_path / "rt"))
    assert np.asarray(back.features).tobytes() == x.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.adj.csr.toarray(), ds.adj.csr.toarray())
    assert back.name == ds.name


def test_features_are_read_only_csr_that_np_asarray_densifies(tmp_path):
    """Loaded (text and byte path), converted and random datasets hold their
    features as CSR over read-only arrays, a -0.0 cell among the stored ones,
    and np.asarray gives the dense matrix bit for bit."""
    x = np.array([[1.0, -0.0, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 3.0]])
    text = write_toy_dir(tmp_path / "text", [(0, 1)], x.tolist(), [0, 1, 0])
    (tmp_path / "x.content").write_text("a 1 -0.0 0 ml\nb 0 0 0 db\nc 0.25 0 3 ml\n")
    (tmp_path / "x.cites").write_text("a b\n")
    convert_content_cites(str(tmp_path / "x.content"), str(tmp_path / "x.cites"),
                          str(tmp_path / "converted"))
    rand = random_dataset(**SYNTH_KW)
    f = rand.features
    dense = sp.csr_matrix((f.data, f.indices, f.indptr), f.shape).toarray()
    assert set(f.data) == {1.0} and dense.sum() == len(f.data)
    write_dataset(rand, str(tmp_path / "binary"))
    for features, want, stored in (
            (load_dataset(text).features, x, 4),
            (load_dataset(str(tmp_path / "converted")).features, x, 4),
            (f, dense, len(f.data)),
            (load_dataset(str(tmp_path / "binary")).features, dense, len(f.data))):
        assert isinstance(features, SparseFeatures) and len(features.data) == stored
        got = np.asarray(features)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        for a in (features.data, features.indices, features.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


@pytest.mark.parametrize("kwargs, prefix", [
    (SYNTH_KW, "54e6189761cb9e20"),
    # the `gradcheck` command's default graph
    (dict(n=20, num_classes=3, num_features=12, p_in=0.3, p_out=0.1, seed=0),
     "f52c8778862671a1"),
], ids=["synthetic300", "gradcheck"])
def test_random_dataset_bytes_are_pinned(kwargs, prefix):
    """SHA-256 of the adjacency's CSR arrays, the features and the one-hot
    rows of the labels."""
    ds = random_dataset(**kwargs)
    h = hashlib.sha256()
    for a in (ds.adj.csr.indptr, ds.adj.csr.indices, ds.adj.csr.data, ds.features,
              np.eye(ds.class_count)[ds.labels]):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == prefix


@pytest.mark.parametrize("n, num_classes", [(1, 1), (0, 1), (2, 3)])
def test_random_dataset_rejects_too_few_nodes(n, num_classes):
    """A lone node could only attach to itself, and the raw graph has no loops."""
    with pytest.raises(DataError, match=f"need at least {max(num_classes, 2)} nodes, got n={n}$"):
        random_dataset(n, num_classes=num_classes)


# ---------------------------------------------------------------------------
# converter


def test_convert_isolated_nodes(tmp_path):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("a 1 0 ml\nb 0 1 db\nc 1 1 ml\n")
    cites.write_text("")
    summary = convert_content_cites(str(content), str(cites), str(tmp_path / "out"))
    assert summary["num_nodes"] == 3
    assert summary["undirected_edges"] == 0
    ds = load_dataset(str(tmp_path / "out"))
    assert ds.adj.csr.nnz == 0


def test_convert_drops_dangling_edge_with_count(tmp_path):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("a 1 0 ml\nb 0 1 db\n")
    cites.write_text("a b\na ghost\n")
    summary = convert_content_cites(str(content), str(cites), str(tmp_path / "out"))
    assert summary["dropped_dangling"] == 1
    assert summary["undirected_edges"] == 1


def test_convert_rejects_duplicate_node_id(tmp_path):
    content = tmp_path / "x.content"
    content.write_text("a 1 0 ml\na 0 1 db\n")
    (tmp_path / "x.cites").write_text("")
    with pytest.raises(DataError, match="duplicate node id"):
        convert_content_cites(str(content), str(tmp_path / "x.cites"), str(tmp_path / "o"))


def test_convert_rejects_inconsistent_arity(tmp_path):
    content = tmp_path / "x.content"
    content.write_text("a 1 0 ml\nb 1 db\n")
    (tmp_path / "x.cites").write_text("")
    with pytest.raises(DataError, match="arity"):
        convert_content_cites(str(content), str(tmp_path / "x.cites"), str(tmp_path / "o"))


def test_convert_rejects_non_finite_feature(tmp_path):
    content = tmp_path / "x.content"
    content.write_text("a 1 0 ml\nb 0 inf db\n")
    (tmp_path / "x.cites").write_text("")
    with pytest.raises(DataError, match="node 1 feature 1 is not finite: inf"):
        convert_content_cites(str(content), str(tmp_path / "x.cites"), str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_convert_reports_non_finite_feature_before_a_cites_fault(tmp_path):
    """The content cells are checked before the cites file is read."""
    content = tmp_path / "x.content"
    content.write_text("a 1 0 ml\nb 0 inf db\n")
    (tmp_path / "x.cites").write_text("a b\nb\n")  # one field on line 2
    with pytest.raises(DataError, match="^node 1 feature 1 is not finite: inf$"):
        convert_content_cites(str(content), str(tmp_path / "x.cites"), str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content, cites, where, message", [
    ("a 1 0 ml\nb ml\n", "", "content", ":2: too few fields"),
    ("a 1 0 ml\nb 0 x db\n", "", "content", ":2: could not convert string to float: 'x'"),
    ("\n", "", "content", ": no nodes"),
    ("a 1 ml\nb 0 db\n", "a b\nb\n", "cites", ":2: expected '<cited> <citing>'"),
], ids=["too-few-fields", "non-float-feature", "empty-content", "one-field-cites"])
def test_convert_rejects_malformed_input(tmp_path, content, cites, where, message):
    paths = {"content": tmp_path / "x.content", "cites": tmp_path / "x.cites"}
    paths["content"].write_text(content)
    paths["cites"].write_text(cites)
    with pytest.raises(DataError, match=f"^{re.escape(str(paths[where]) + message)}$"):
        convert_content_cites(str(paths["content"]), str(paths["cites"]),
                              str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_convert_classes_lexicographic_and_first_appearance_order(tmp_path):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("n9 1 zebra\nn1 1 apple\nn5 1 zebra\n")
    cites.write_text("n9 n1\nn1 n9\nn9 n9\n")
    summary = convert_content_cites(str(content), str(cites), str(tmp_path / "out"))
    assert summary["class_names"] == ["apple", "zebra"]
    assert summary["collapsed_duplicates"] == 1
    assert summary["dropped_self_loops"] == 1
    ds = load_dataset(str(tmp_path / "out"))
    # first-appearance order: n9 -> 0, n1 -> 1, n5 -> 2
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])
    np.testing.assert_array_equal(ds.adj.undirected_edge_list(), [[0, 1]])


def test_convert_load_roundtrip_preserves_toy(tmp_path):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("a 1 0 ml\nb 0 1 db\nc 1 1 ml\n")
    cites.write_text("a b\nb c\n")
    convert_content_cites(str(content), str(cites), str(tmp_path / "out"))
    ds = load_dataset(str(tmp_path / "out"))
    write_dataset(ds, str(tmp_path / "out2"))
    again = load_dataset(str(tmp_path / "out2"))
    np.testing.assert_array_equal(again.features, ds.features)
    np.testing.assert_array_equal(again.adj.csr.toarray(), ds.adj.csr.toarray())


# ---------------------------------------------------------------------------
# normalization


def test_normalize_single_isolated_node():
    adj = SparseAdjacency.from_edges(1, [])
    out = normalize_adjacency(adj)
    np.testing.assert_allclose(out.csr.toarray(), [[1.0]], atol=1e-15)


def test_normalize_two_node_edge_gives_half_everywhere():
    adj = SparseAdjacency.from_edges(2, [(0, 1)])
    out = normalize_adjacency(adj)
    np.testing.assert_allclose(out.csr.toarray(), np.full((2, 2), 0.5), atol=1e-15)


def test_normalize_star_matches_dense_oracle():
    adj = SparseAdjacency.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    out = normalize_adjacency(adj).csr.toarray()
    dense = adj.csr.toarray() + np.eye(4)
    deg = dense.sum(axis=1)
    oracle = dense / np.sqrt(np.outer(deg, deg))
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    assert abs(out[0, 1] - 1.0 / np.sqrt(4 * 2)) < 1e-12


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=9999))
@settings(max_examples=25, deadline=None)
def test_normalize_symmetric_spectral_radius_at_most_one(n, seed):
    rng = np.random.default_rng(seed)
    m = np.triu(rng.random((n, n)) < 0.3, 1)
    adj = SparseAdjacency.from_edges(n, list(zip(*np.nonzero(m))))
    out = normalize_adjacency(adj)
    dense = out.csr.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-14)
    assert out.csr.data.min() > 0.0 and out.csr.data.max() <= 1.0 + 1e-14
    # power iteration
    v = np.ones(n) / np.sqrt(n)
    for _ in range(50):
        w = dense @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            break
        v = w / norm
    assert np.linalg.norm(dense @ v) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# splits


def test_split_arithmetic_matches_citation_network_shape():
    # 2708 nodes, 7 classes: rate 0.005 must give round(13.54) = 14 labeled,
    # every class covered
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, size=2708)
    labels[:7] = np.arange(7)
    ds = make_dataset(2708, [(0, 1)], labels, 7, num_features=4)
    splits = generate_splits(ds, 0.005, 3, base_seed=42)
    for split in splits:
        assert len(split.labeled) == 14
        assert set(ds.labels[split.labeled]) == set(range(7))


def test_split_rate_too_small_for_classes():
    ds = make_dataset(100, [(0, 1)], np.arange(100) % 5, 5)
    with pytest.raises(DataError, match="fewer than 5 classes"):
        generate_splits(ds, 0.02, 1, 0)  # round(2) < 5


def test_split_rejects_class_without_nodes():
    ds = make_dataset(20, [(0, 1)], np.arange(20) % 2, 3)
    with pytest.raises(DataError, match="^class 2 has no nodes$"):
        generate_splits(ds, 0.2, 1, 0)


def test_split_hands_excess_of_a_small_class_on():
    """Class sizes (1, 1, 11) at rate 0.6: 8 labeled nodes apportion to
    (2, 1, 5), and class 0's excess node goes to class 2."""
    ds = make_dataset(13, [(0, 1)], [0, 1] + [2] * 11, 3)
    split = generate_splits(ds, 0.6, 1, 0)[0]
    np.testing.assert_array_equal(np.bincount(ds.labels[split.labeled]), [1, 1, 6])
    assert len(split.val) == 1 and len(split.test) == 4


@pytest.mark.parametrize("rate", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_split_rate_outside_unit_interval_is_config_error(rate):
    ds = random_dataset(30, seed=0)
    with pytest.raises(ConfigError, match=r"label_rate must be in \(0,1\)"):
        generate_splits(ds, rate, 1, 0)


def test_split_deterministic_per_base_seed():
    ds = make_dataset(60, [(0, 1)], np.arange(60) % 3, 3)
    a = generate_splits(ds, 0.1, 4, base_seed=9)
    b = generate_splits(ds, 0.1, 4, base_seed=9)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.labeled, sb.labeled)
        np.testing.assert_array_equal(sa.val, sb.val)
        np.testing.assert_array_equal(sa.test, sb.test)
        assert sa.seed == sb.seed


@given(
    st.integers(min_value=40, max_value=200),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.05, max_value=0.3),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=25, deadline=None)
def test_split_partition_invariants(n, c, rate, seed):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    ds = make_dataset(n, [(0, 1)], labels, c)
    n_labeled = int(np.floor(rate * n + 0.5))
    if n_labeled < c:
        return
    split = generate_splits(ds, rate, 1, seed)[0]
    lab, val, test = set(split.labeled), set(split.val), set(split.test)
    assert len(split.labeled) == n_labeled
    assert not (lab & val) and not (lab & test) and not (val & test)
    assert len(lab | val | test) == n
    assert set(labels[split.labeled]) == set(range(c))
    rest = n - n_labeled
    # 1:9 within rounding of the remainder
    assert abs(len(val) - rest / 10.0) <= 0.5 + 1e-9
    assert len(val) + len(test) == rest


def test_split_json_roundtrip():
    spec = SplitSpec(
        labeled=np.array([1, 5]), val=np.array([2]), test=np.array([0, 3, 4]),
        seed=17, label_rate=0.25,
    )
    back = SplitSpec.from_json(spec.to_json())
    np.testing.assert_array_equal(back.labeled, spec.labeled)
    np.testing.assert_array_equal(back.val, spec.val)
    np.testing.assert_array_equal(back.test, spec.test)
    assert back.seed == 17 and back.label_rate == 0.25


SPLIT_SETS = '"labeled": [0], "val": [1], "test": [2]'


@pytest.mark.parametrize("text, message", [
    ('{"seed": 1}', "'labeled'"),
    ("null", "expected a JSON object"),
    ('"no error here"', "expected a JSON object"),
    ('["labeled"]', "expected a JSON object"),
    ("42", "expected a JSON object"),
    (f'{{"seed": 1.7, "label_rate": 0.1, {SPLIT_SETS}}}', "'seed' must be an integer, got 1.7"),
    (f'{{"seed": true, "label_rate": 0.1, {SPLIT_SETS}}}', "'seed' must be an integer, got True"),
    (f'{{"seed": "7", "label_rate": 0.1, {SPLIT_SETS}}}', "'seed' must be an integer, got '7'"),
    (f'{{"seed": 1, "label_rate": "nan", {SPLIT_SETS}}}',
     "'label_rate' must be a finite number, got 'nan'"),
    (f'{{"seed": 1, "label_rate": NaN, {SPLIT_SETS}}}',
     "'label_rate' must be a finite number, got nan"),
    (f'{{"seed": 1, "label_rate": -Infinity, {SPLIT_SETS}}}',
     "'label_rate' must be a finite number, got -inf"),
    (f'{{"seed": 1, "label_rate": false, {SPLIT_SETS}}}',
     "'label_rate' must be a finite number, got False"),
])
def test_split_malformed_json(text, message):
    with pytest.raises(DataError, match=f"^malformed split file: {re.escape(message)}$"):
        SplitSpec.from_json(text)


# ---------------------------------------------------------------------------
# degree buckets


def test_degree_buckets_star_graph():
    ds = make_dataset(10, [(0, i) for i in range(1, 10)], [0] * 10, 1)
    buckets = degree_buckets(ds, [7])
    assert buckets[0] == 1
    np.testing.assert_array_equal(buckets[1:], np.zeros(9))


def test_degree_buckets_isolated_node():
    ds = make_dataset(2, [], [0, 0], 1)
    np.testing.assert_array_equal(degree_buckets(ds, [1, 3]), [0, 0])


def test_degree_buckets_histogram_matches_independent_count(synthetic_ds):
    boundaries = [2, 4, 7]
    buckets = degree_buckets(synthetic_ds, boundaries)
    # independent count straight from the undirected edge list
    deg = np.zeros(synthetic_ds.num_nodes, dtype=int)
    for i, j in synthetic_ds.adj.undirected_edge_list():
        deg[i] += 1
        deg[j] += 1
    expected = np.zeros(4, dtype=int)
    for d in deg:
        if d < 2:
            expected[0] += 1
        elif d < 4:
            expected[1] += 1
        elif d < 7:
            expected[2] += 1
        else:
            expected[3] += 1
    np.testing.assert_array_equal(np.bincount(buckets, minlength=4), expected)

