"""The numpy-parsed features.tsv against the line-by-line loop it replaced.

`ref_read_features` is the former loop of `load_dataset`, one `float()` per
cell, followed by the former finite scan of the loaded matrix, kept as an
exact oracle. Files it accepts must load to the same bytes; files it
rejects must give the same message. The one intended difference,
cells that float() takes but numpy's reader does not ('1_0', non-ASCII
digits), has its own test. Files of '0.0'/'1.0' cells, which the loader reads
from their bytes, and near misses of them are drawn too.

`ref_write_features` is the former per-cell writer of `write_dataset`, kept
as the oracle of its byte path for +0.0/1.0 matrices.

`ref_read_binary_features` is the former whole-file byte reader of '0.0'/'1.0'
files. The loader reads such files in row blocks of about 1 MiB; files over
several blocks, near misses in a later block and short reads must give the
same bytes or the same refusal.

`ref_prepare_features` is the former body of `trainer.prepare_features`, with
np.linalg.norm over the whole matrix and one N x F nonzero mask. The blocked
version must give the same CSR arrays or the same dense bytes.

`ref_read_labels_edges` is the former per-line loop of `load_dataset` over
labels.txt and graph.edges. The loader reads canonical files as arrays and
walks every other file line by line; either way it must give the same arrays
or the same message.

`ref_convert_cites` is the former set-based cites loop of
`convert_content_cites`. The converter de-duplicates with
`SparseAdjacency.from_edges` and derives its counts from arrays; it must give
the same summary, the same graph.edges bytes or the same message.
"""

import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import DataError, TrainConfig
from grafn.data import (
    _read_binary_features,
    _read_text_features,
    convert_content_cites,
    load_dataset,
    write_dataset,
)
from grafn.sparse import SparseAdjacency
from grafn.sparse_features import SparseFeatures
from grafn.trainer import prepare_features
from tests.conftest import make_dataset


def ref_read_features(feat_path, n, f):
    features = np.zeros((n, f), dtype=np.float64)
    with open(feat_path, encoding="utf-8") as fh:
        count = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if count >= n:
                raise DataError(f"{feat_path}: more than {n} feature rows")
            parts = line.split("\t")
            if len(parts) != f:
                raise DataError(
                    f"{feat_path}:{lineno}: expected {f} columns, got {len(parts)}"
                )
            try:
                features[count] = [float(v) for v in parts]
            except ValueError as exc:
                raise DataError(f"{feat_path}:{lineno}: {exc}") from exc
            count += 1
    if count != n:
        raise DataError(f"{feat_path}: expected {n} rows, got {count}")
    finite = np.isfinite(features)
    if not finite.all():
        node, feature = np.argwhere(~finite)[0]
        raise DataError(f"node {node} feature {feature} is not finite: "
                        f"{features[node, feature]}")
    return features


def read_features(path, n, f):
    """The loader's features.tsv reader: the byte path, else the text path."""
    features = _read_binary_features(path, n, f)
    return _read_text_features(path, n, f) if features is None else features


def ref_write_features(features, feat_path):
    with open(feat_path, "w", encoding="utf-8") as fh:
        for row in features:
            fh.write("\t".join(repr(float(v)) for v in row))
            fh.write("\n")


def outcome(read, path, n, f):
    """('ok', bytes, shape) or ('error', message)."""
    try:
        x = np.asarray(read(path, n, f))
    except DataError as exc:
        return ("error", str(exc))
    except UnicodeDecodeError as exc:  # the reference's open(); loaders name the file
        return ("error", f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})")
    return ("ok", x.dtype.str, x.shape, x.tobytes())


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
NUMBERS = st.one_of(
    FLOATS.map(repr),
    FLOATS.map(lambda v: format(v, ".17g")),          # 17 significant digits
    st.sampled_from(["-0.0", "0", "-0", "5e-324", "2.2250738585072009e-308",
                     "1e400", "-1e-400", "nan", "-nan", "NaN", "inf", "-Infinity",
                     "1.", ".5", "+.5e-3", "0.1000000000000000055511151231257827"]),
)
# padding both parsers strip; \x1c-\x1f only numpy's reader strips
PADDING = st.sampled_from([""] * 60 + [" ", "  ", "\x0b", "\x0c", "\xa0", "\u2003", "\x1c", "\x1f"])
JUNK = st.one_of(
    st.sampled_from(["", " ", "abc", "1e", "0x10", "#", "#1", "1,5", "--1", '"1"',
                     "1 2", "nana", "in f", "\x00", "1\x00", "\x1c", "\x1e1"]),
    st.text(alphabet="0123456789.eE+-naifINF x#,\x0b\x1d\xa0 ", max_size=6),
)


@st.composite
def cell(draw):
    if draw(st.integers(0, 59)) == 0:
        return draw(JUNK)
    return draw(PADDING) + draw(NUMBERS) + draw(PADDING)


# cells a byte away from '0.0'/'1.0'; '\udcff' is written as the byte ff
NEAR_MISSES = ["1.00", "-0.0", "0.5", " 1.0", "1.0 ", "2.0", "\udcff.0", "1.0\udcff"]


@st.composite
def binary_file(draw, n, f):
    """n rows of f '0.0'/'1.0' cells with LF endings, the bytes the fast path
    reads, and sometimes one near miss: a cell, CRLF or CR endings, no final
    newline, a blank line or a row too many."""
    miss = draw(st.sampled_from(["none", "cell", "\r\n", "\r", "no final newline", "blank",
                                 "extra row"]))
    rows = [[draw(st.sampled_from(["0.0", "1.0"])) for _ in range(f)]
            for _ in range(n + (miss == "extra row"))]
    if miss == "cell":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, f - 1))] = draw(
            st.sampled_from(NEAR_MISSES))
    lines = ["\t".join(row) for row in rows]
    if miss == "blank":
        lines.insert(draw(st.integers(0, n)), "")
    newline = miss if miss in ("\r\n", "\r") else "\n"
    return newline.join(lines) + ("" if miss == "no final newline" else newline)


@st.composite
def features_file(draw):
    """(text, n, f): rows of f cells, sometimes a row too long or too short,
    blank lines, LF/CRLF/CR endings and an optional final newline; or, one
    time in four, a 0.0/1.0 file or a near miss of one."""
    n, f = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        return draw(binary_file(n, f)), n, f
    rows = []
    for _ in range(n if draw(st.booleans()) else draw(st.integers(0, n + 2))):
        width = f if draw(st.integers(0, 19)) else draw(st.integers(1, f + 2))
        rows.append("\t".join(draw(cell()) for _ in range(width)))
        rows.extend([""] * draw(st.integers(0, 1)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(rows) + (newline if draw(st.booleans()) else "")
    return text, n, f


CASES = {
    "valid": ("1.0\t-0.0\n5e-324\t0.30000000000000004\n", 2, 2),
    "blank lines and CRLF": ("\r\n1\t2\r\n\r\n3\t4\r\n\r\n", 2, 2),
    "no final newline": ("1\t2\n3\t4", 2, 2),
    "too many rows": ("1\n2\n3\n", 2, 1),
    "too few rows": ("1\n\n", 2, 1),
    "no rows": ("\n\n", 2, 1),
    "wrong column count": ("1\t2\n3\n", 2, 2),
    "empty cell": ("1\t\n", 1, 2),
    "whitespace-only row": ("1\n  \n", 2, 1),
    "junk token": ("1\t2\n3\tabc\n", 2, 2),
    "padded cells": (" 1\t2\x0b\n\xa03\t4 \n", 2, 2),
    "numpy-only padding": ("1\t2\n3\t4\x1c\n", 2, 2),
    "numpy-only padding after a structural fault": ("1\t2\n3\n4\t5\x1c\n", 3, 2),
    "bad cell before bad column count": ("1\t2\nx\t2\n1\t2\t3\n", 3, 2),
    "bad column count before bad cell": ("1\t2\n1\t2\t3\nx\t2\n", 3, 2),
    "bad cell before surplus row": ("1\nx\n2\n", 1, 1),
    "0.0/1.0 cells": ("1.0\t0.0\t0.0\n0.0\t0.0\t1.0\n", 2, 3),
    "0.0/1.0 cells, rows of F+1 and F-1": ("1.0\t0.0\t0.0\n0.0\n", 2, 2),
    "every row has F+1 cells": ("1\t2\t3\n4\t5\t6\n", 2, 2),
    "every row has F-1 cells": ("1\n2\n", 2, 2),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("features")


@settings(max_examples=300, deadline=None)
@given(case=features_file())
def test_read_features_matches_reference(workdir, case):
    text, n, f = case
    path = workdir / "features.tsv"
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
    assert outcome(read_features, str(path), n, f) == outcome(ref_read_features, str(path), n, f)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_read_features_matches_reference_on_named_cases(tmp_path, case):
    text, n, f = case
    path = tmp_path / "features.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(read_features, str(path), n, f) == outcome(ref_read_features, str(path), n, f)


def test_first_fault_in_file_order_wins(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("1\t2\nx\t2\n1\t2\t3\n")
    with pytest.raises(DataError) as err:
        read_features(str(path), 3, 2)
    assert str(err.value) == f"{path}:2: could not convert string to float: 'x'"
    path.write_text("1\t2\n1\t2\t3\nx\t2\n")
    with pytest.raises(DataError) as err:
        read_features(str(path), 3, 2)
    assert str(err.value) == f"{path}:2: expected 2 columns, got 3"


@pytest.mark.parametrize("value", ["1_0", "\u0661"])  # digit grouping, Arabic-Indic one
def test_cells_only_float_takes_are_rejected(tmp_path, value):
    path = tmp_path / "features.tsv"
    path.write_text(f"1\t2\n3\t{value}\n")
    assert ref_read_features(str(path), 2, 2)[1, 1] == float(value)
    message = f"{path}:2: could not convert string '{value}' to float64 at column 2."
    with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
        read_features(str(path), 2, 2)


@pytest.mark.parametrize("last_cell", ["1.0", "2.0"])
def test_binary_file_over_several_check_blocks(tmp_path, last_cell):
    """Rows of 2**16 cells are checked 5 at a time, so a sixth row is a
    second block, and a near miss there still reaches the text path."""
    n, f = 6, 2**16
    text = ("0.0\t1.0\t" * (f // 2))[:-1] + "\n"
    text = text * (n - 1) + text[:-4] + last_cell + "\n"
    path = tmp_path / "features.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(read_features, str(path), n, f) == outcome(ref_read_features, str(path), n, f)


def ref_read_binary_features(path, n, f):
    """The former byte reader: the whole file as one bytes object, checked
    against '0.0'/'1.0' cells; None for any other file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 4 * n * f:
        cells = np.frombuffer(raw, "<u4").reshape(n, f)
        ones = np.frombuffer(b"1.0\t" * (f - 1) + b"1.0\n", "<u4")
        if ((cells | 1) == ones).all():
            return np.bitwise_and(cells, 1, out=np.empty((n, f)))
    return None


def binary_bytes(bits):
    """The '0.0'/'1.0' file of a boolean matrix, LF after each row."""
    f = bits.shape[1]
    zeros = np.frombuffer(b"0.0\t" * (f - 1) + b"0.0\n", "<u4")
    return (bits.astype("<u4") | zeros).tobytes()


def same_binary_read(path, n, f):
    got, want = _read_binary_features(str(path), n, f), ref_read_binary_features(str(path), n, f)
    if want is None or got is None:
        return got is want
    got = np.asarray(got)
    return (got.dtype, got.shape, got.tobytes()) == (
        want.dtype, want.shape, want.tobytes())


def block_rows(f):
    """Rows per block of the byte reader."""
    return 2**18 // f + 1


# a 3-byte cell or a separator byte away from '0.0\t', '1.0\t', '0.0\n', '1.0\n'
BAD_CELLS = [b"0.5", b"2.0", b"1.5", b"1,0", b"\x00.0", b"3.0", b"0.1"]
BAD_SEPARATORS = [b" ", b"\r", b",", b"\x00"]
BLOCKED_MISSES = ["none", "cell", "separator", "CRLF", "CRLF first row, no final LF",
                  "no final LF", "byte too many", "row too few"]


def blocked_file(rng, n, f, miss, where):
    """The bytes of n random 0/1 rows with one near miss; `where` in [0, 1)
    places a bad cell or separator among the cells."""
    raw = bytearray(binary_bytes(rng.random((n, f)) < 0.3))
    at = 4 * int(where * n * f)
    if miss == "cell":
        raw[at:at + 3] = BAD_CELLS[int(rng.integers(len(BAD_CELLS)))]
    elif miss == "separator":
        raw[at + 3:at + 4] = BAD_SEPARATORS[int(rng.integers(len(BAD_SEPARATORS)))]
    elif miss == "CRLF":
        raw = raw.replace(b"\n", b"\r\n")
    elif miss == "CRLF first row, no final LF":  # the size still matches
        raw = raw[:4 * f - 1] + b"\r" + raw[4 * f - 1:-1]
    elif miss == "no final LF":
        raw = raw[:-1]
    elif miss == "byte too many":
        raw += b"\n"
    elif miss == "row too few":
        raw = raw[:-4 * f]
    return bytes(raw)


@settings(max_examples=60, deadline=None)
@given(f=st.sampled_from([1000, 4096, 2**16 - 1]), last=st.floats(0.0, 1.0),
       miss=st.sampled_from(BLOCKED_MISSES), where=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_binary_reader_over_blocks_matches_reference(workdir, f, last, miss, where, seed):
    """Files of 3 blocks, the last one full or not, so that most near
    misses fall in a later block."""
    n = 2 * block_rows(f) + max(1, round(last * block_rows(f)))
    path = workdir / "blocked.tsv"
    path.write_bytes(blocked_file(np.random.default_rng(seed), n, f, miss, where))
    assert same_binary_read(path, n, f)


@pytest.mark.parametrize("miss", BLOCKED_MISSES)
def test_binary_reader_near_miss_in_last_block(tmp_path, miss):
    n, f = 3 * block_rows(4096) - 7, 4096
    path = tmp_path / "features.tsv"
    path.write_bytes(blocked_file(np.random.default_rng(3), n, f, miss, 1 - 1 / (n * f)))
    assert same_binary_read(path, n, f)
    assert (_read_binary_features(str(path), n, f) is None) == (miss != "none")


@pytest.mark.parametrize("missing", [1, 5 * 4 * 4096, 20 * 4 * 4096, 150 * 4 * 4096],
                         ids=["a byte", "5 rows", "the last block", "every row"])
def test_binary_reader_rejects_a_short_read(tmp_path, monkeypatch, missing):
    """A file that ends before the size fstat reported, as one that shrinks
    while it is read."""
    n, f = 150, 4096  # blocks of 65, 65 and 20 rows
    path = tmp_path / "features.tsv"
    path.write_bytes(binary_bytes(np.random.default_rng(4).random((n, f)) < 0.5)[:-missing])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size
                                                                 + missing))
    assert _read_binary_features(str(path), n, f) is None


def ref_prepare_features(x):
    """The former body of `prepare_features`, with the former CSR constructor
    of `SparseFeatures.from_nonzeros`."""
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = 1.0
    nonzero = np.flatnonzero(x != 0.0)
    values = x.ravel()[nonzero] / norms[nonzero // x.shape[1]]
    kept = values != 0.0
    nonzero, values = nonzero[kept], values[kept]
    if nonzero.size / x.size <= 0.05:
        rows, cols = np.divmod(nonzero, x.shape[1])
        indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=x.shape[0])))
        return sp.csr_matrix((values, cols, indptr), x.shape)
    return x / norms[:, None]


def prepared(out):
    """The bytes and dtypes of a CSR's arrays, or of a dense matrix."""
    out = out._csr if isinstance(out, SparseFeatures) else out
    if sp.issparse(out):
        return ("csr", *((a.dtype.str, a.tobytes()) for a in (out.data, out.indices, out.indptr)))
    return ("dense", out.dtype.str, out.shape, out.tobytes())


# -0.0, subnormals, the smallest normal, and magnitudes whose squares stay finite
CELL_VALUES = [-0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e150, -3e-150, 0.3, 1.0,
               -2.5]
SPECIAL_ROWS = {
    "all zero": [],
    "-0.0 only": [(0, -0.0), (1, -0.0)],
    "NaN": [(0, np.nan), (1, 1.0)],
    "underflowing quotients": [(0, 5e-324), (1, 2.0), (2, -5e-324)],  # 5e-324 / 2 is 0
    "subnormal only": [(0, 5e-324), (2, -1e-310)],
}


@st.composite
def wide_matrix(draw):
    """An n x f matrix over 1 to 4 blocks of `prepare_features`, at one of a few
    densities around 5%, with some of `SPECIAL_ROWS` written in."""
    f = draw(st.sampled_from([1, 7, 48, 2**14 + 3, 2**16]))
    rows = 2**17 // f + 1
    n = draw(st.integers(1, 3 * rows + 2)) if rows < 20 else draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.001, 0.03, 0.049, 0.05, 0.051, 0.2, 1.0]))
    x = np.where(rng.random((n, f)) < density, rng.choice(CELL_VALUES, (n, f)), 0.0)
    for name in draw(st.lists(st.sampled_from(sorted(SPECIAL_ROWS)), max_size=3)):
        row = draw(st.integers(0, n - 1))
        x[row] = 0.0
        for col, value in SPECIAL_ROWS[name]:
            x[row, col % f] = value
    return x


@settings(max_examples=80, deadline=None)
@given(x=wide_matrix())
def test_prepare_features_matches_reference(x):
    ds = make_dataset(len(x), [], [0] * len(x), 1, features=x)
    want = prepared(ref_prepare_features(x))
    assert prepared(prepare_features(ds, TrainConfig())) == want
    assert prepared(prepare_features(ds, TrainConfig())) == want  # the cached copy


def every_20th(start, subnormals=0):
    """9 rows of 2**16, three blocks: a 1.0 in every 20th cell from `start`,
    then 5e-324 in the `subnormals` cells after the first few of those,
    where its quotient underflows to 0."""
    x = np.zeros(9 * 2**16)
    x[start::20] = 1.0
    x[start + 1::20][:subnormals] = 5e-324
    return x.reshape(9, 2**16)


def dense_rows(rows):
    x = np.zeros((9, 2**16))
    x[rows] = 0.5
    return x


PREPARE_CASES = {
    "5% exactly": every_20th(19),
    "one entry over 5%": every_20th(0),
    "underflow takes 5.3% to 5%": every_20th(19, subnormals=1966),
    "dense rows in the last block only": dense_rows(np.s_[7:]),
    "dense first block": dense_rows(np.s_[:1]),
}


@pytest.mark.parametrize("x", PREPARE_CASES.values(), ids=PREPARE_CASES.keys())
def test_prepare_features_matches_reference_on_named_cases(x):
    ds = make_dataset(len(x), [], [0] * len(x), 1, features=x)
    want = prepared(ref_prepare_features(x))
    assert prepared(prepare_features(ds, TrainConfig())) == want
    assert prepared(prepare_features(ds, TrainConfig())) == want  # the cached copy


@st.composite
def binary_matrix(draw):
    """An n x f matrix of +0.0 and 1.0, or, half the time, one that holds
    another value in one cell: -0.0 and values a bit away from 0 or 1."""
    n, f = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    x = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * f,
                               max_size=n * f))).reshape(n, f)
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1)), draw(st.integers(0, f - 1))] = draw(st.sampled_from(
            [-0.0, -1.0, 0.5, 2.0, 3.0, 1.0000000000000002, 5e-324, np.inf, np.nan]))
    return x


@settings(max_examples=200, deadline=None)
@given(x=binary_matrix())
def test_write_dataset_matches_per_cell_writer(workdir, x):
    n, f = x.shape
    write_dataset(make_dataset(n, [], [0] * n, 1, features=x), str(workdir / "written"))
    written = workdir / "written" / "features.tsv"
    ref_write_features(x, workdir / "reference.tsv")
    assert written.read_bytes() == (workdir / "reference.tsv").read_bytes()
    read_back = outcome(read_features, str(written), n, f)
    assert read_back == outcome(ref_read_features, str(written), n, f)
    if np.isfinite(x).all():  # a NaN or inf reads back as the DataError
        assert read_back[-1] == x.tobytes()
    # +0.0/1.0 matrices, and only those, take the byte path
    byte_cells = np.isin(x.view(np.uint64), np.array([0.0, 1.0]).view(np.uint64))
    assert (_read_binary_features(str(written), n, f) is None) == (not byte_cells.all())


def ref_int(text):
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def ref_read_labels_edges(directory, n, c):
    """(label ids, edge pairs) as the per-line loop read them."""
    labels_path = os.path.join(directory, "labels.txt")
    label_ids = np.zeros(n, dtype=np.int64)
    count = 0
    with open(labels_path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if count >= n:
            raise DataError(f"{labels_path}: more than {n} label lines")
        try:
            val = ref_int(line)
        except ValueError as exc:
            raise DataError(f"{labels_path}:{lineno}: {exc}") from exc
        if not 0 <= val < c:
            raise DataError(f"{labels_path}:{lineno}: label {val} out of range [0,{c})")
        label_ids[count] = val
        count += 1
    if count != n:
        raise DataError(f"{labels_path}: expected {n} labels, got {count}")

    edges_path = os.path.join(directory, "graph.edges")
    edges = []
    with open(edges_path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{edges_path}:{lineno}: expected 'src dst'")
        try:
            src, dst = ref_int(parts[0]), ref_int(parts[1])
        except ValueError as exc:
            raise DataError(f"{edges_path}:{lineno}: {exc}") from exc
        for node in (src, dst):
            if not 0 <= node < n:
                raise DataError(f"{edges_path}:{lineno}: node {node} out of range [0,{n})")
        if src == dst:
            raise DataError(f"{edges_path}:{lineno}: self-loop {src}")
        if src > dst:
            raise DataError(f"{edges_path}:{lineno}: src must be < dst")
        edges.append((src, dst))
    return label_ids, edges


def arrays(adj, label_ids, c):
    labels = np.zeros((len(label_ids), c))
    labels[np.arange(len(label_ids)), label_ids] = 1.0
    return ("ok", labels.tobytes(),
            *((a.dtype.str, a.tobytes()) for a in (adj.csr.indptr, adj.csr.indices,
                                                    adj.csr.data)))


def load_outcome(directory, n, c):
    """What `load_dataset` and the reference loop make of one directory."""
    try:
        ds = load_dataset(str(directory))
        got = arrays(ds.adj, ds.labels, c)
    except DataError as exc:
        got = ("error", str(exc))
    try:
        label_ids, edges = ref_read_labels_edges(str(directory), n, c)
        want = arrays(SparseAdjacency.from_edges(n, edges), label_ids, c)
    except DataError as exc:
        want = ("error", str(exc))
    return got, want


def write_int_dir(directory, n, c, labels_text, edges_text):
    """A dataset directory of N rows of one 0.0/1.0 feature and the given
    labels.txt and graph.edges text."""
    directory.mkdir(exist_ok=True)
    (directory / "meta.json").write_text(json.dumps(
        {"name": "ints", "num_nodes": n, "num_features": 1, "num_classes": c}))
    (directory / "features.tsv").write_text("1.0\n" * n)
    (directory / "labels.txt").write_text(labels_text, encoding="utf-8", newline="")
    (directory / "graph.edges").write_text(edges_text, encoding="utf-8", newline="")


def token(v):
    """`v` as written, or a near miss of the canonical digits: a sign,
    leading zeros up to and past 18 digits, a digit group, a non-ASCII digit,
    a letter or padding."""
    return st.sampled_from([str(v)] * 60 + [
        f"+{v}", f"-{v}", f"0{v}", f"{v:018d}", f"{v:019d}", f"1_{v}", "\u0661", "p",
        f" {v}", f"{v}\t", "999999999999999999", str(10**18)])


@st.composite
def int_file(draw, rows):
    """Lines of the integer tuples `rows`, mostly canonical: tokens joined by
    one space, LF at each line's end. Near misses: a token (see `token`), a
    tab, two spaces or \\x1c between tokens, a CR or CRLF line end, a blank
    line, no final LF."""
    lines = []
    for row in rows:
        sep = draw(st.sampled_from([" "] * 24 + ["\t", "  ", "\x1c"]))
        end = draw(st.sampled_from(["\n"] * 24 + ["\r\n", "\r"]))
        lines.append(sep.join([draw(token(v)) for v in row]) + end)
    if draw(st.integers(0, 11)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["\n", " \n"])))
    text = "".join(lines)
    return text[:-1] if text.endswith("\n") and draw(st.integers(0, 11)) == 0 else text


@st.composite
def labels_and_edges(draw):
    """(labels text, edges text, N, C): N labels in [0, C) and a few src < dst
    pairs, with now and then a label line too many or too few, a label of C,
    and an edge reversed, a self-loop, a node of N, or three fields."""
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    count = n + draw(st.sampled_from([0] * 10 + [-1, 1]))
    labels = [(draw(st.integers(0, c - 1 + (draw(st.integers(0, 11)) == 0))),)
              for _ in range(count)]
    edges = []
    for _ in range(draw(st.integers(0, 5)) if n > 1 else 0):
        src, dst = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True)))
        edges.append(draw(st.sampled_from([(src, dst)] * 12 + [
            (dst, src), (src, src), (src, n), (src, dst, dst), (src,)])))
    return draw(int_file(labels)), draw(int_file(edges)), n, c


@settings(max_examples=400, deadline=None)
@given(case=labels_and_edges())
def test_load_labels_and_edges_match_reference(workdir, case):
    labels_text, edges_text, n, c = case
    write_int_dir(workdir / "ints", n, c, labels_text, edges_text)
    got, want = load_outcome(workdir / "ints", n, c)
    assert got == want


INT_CASES = {
    "canonical": ("1\n0\n2\n", "0 1\n1 2\n0 2\n0 1\n"),
    "no edges": ("0\n0\n1\n", ""),
    "18-digit tokens": ("000000000000000001\n0\n0\n", "000000000000000000 000000000000000002\n"),
    "19-digit tokens": ("0000000000000000001\n0\n0\n", "0 0000000000000000002\n"),
    "signs": ("+1\n-0\n0\n", "+0 1\n"),
    "CRLF line": ("1\r\n0\n0\n", "0 1\r\n1 2\n"),
    "CR line": ("1\n0\r0\n", "0 1\r1 2\n"),
    "tab separator": ("1\n0\n0\n", "0\t1\n"),
    "two spaces": ("1\n0\n0\n", "0  1\n"),
    "blank line": ("1\n\n0\n0\n", "0 1\n\n1 2\n"),
    "padded line": (" 1\n0\n0\n", "0 1 \n"),
    "no final LF": ("1\n0\n0", "0 1\n1 2"),
    "digit group": ("1_0\n0\n0\n", "0 1\n"),
    "non-ASCII digit": ("1\n\u0660\n0\n", "\u0660 1\n"),
    "letter": ("1\np\n0\n", "0 p\n"),  # 'p' & 15 == 0
    "label of C": ("1\n3\n0\n", "0 1\n"),
    "too many labels": ("1\n0\n0\n2\n", "0 1\n"),
    "too few labels": ("1\n0\n", "0 1\n"),
    "node of N": ("1\n0\n0\n", "0 1\n1 3\n"),
    "self-loop": ("1\n0\n0\n", "0 1\n2 2\n"),
    "src > dst": ("1\n0\n0\n", "0 1\n2 1\n"),
    "three fields": ("1\n0\n0\n", "0 1 2\n"),
    "overlong node": ("1\n0\n0\n", "0 99999999999999999999\n"),
}


@pytest.mark.parametrize("case", INT_CASES.values(), ids=INT_CASES.keys())
def test_load_labels_and_edges_match_reference_on_named_cases(tmp_path, case):
    write_int_dir(tmp_path / "ints", 3, 3, *case)
    got, want = load_outcome(tmp_path / "ints", 3, 3)
    assert got == want


def ref_convert_cites(cites_path, node_index):
    """(edge statistics of the summary, sorted src < dst pairs) as the
    set-based loop counted and kept them."""
    raw_lines = 0
    dangling = 0
    self_loops = 0
    pairs = set()
    duplicates = 0
    with open(cites_path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise DataError(f"{cites_path}:{lineno}: expected '<cited> <citing>'")
        raw_lines += 1
        a, b = parts
        if a not in node_index or b not in node_index:
            dangling += 1
            continue
        i, j = node_index[a], node_index[b]
        if i == j:
            self_loops += 1
            continue
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            duplicates += 1
        else:
            pairs.add(pair)
    stats = {
        "raw_edge_lines": raw_lines,
        "undirected_edges": len(pairs),
        "dropped_dangling": dangling,
        "dropped_self_loops": self_loops,
        "collapsed_duplicates": duplicates,
    }
    return stats, sorted(pairs)


NODE_IDS = ["p0", "p1", "p2", "p3", "p4"]
CONTENT = "".join(f"{node} {k % 2} {k // 2 % 2} {'ab'[k % 2]}\n"
                  for k, node in enumerate(NODE_IDS))
CONTENT_SUMMARY = {"num_nodes": 5, "num_features": 2, "num_classes": 2,
                   "class_names": ["a", "b"]}
# separators str.split() takes, and lines it reads as blank
SEPARATORS = st.sampled_from([" "] * 12 + ["\t", "  ", "\xa0", "\x0b", "\x0c", " \xa0 "])
BLANKS = st.sampled_from(["", " ", "\t", "\xa0", "\x0b", " \x0b\xa0 "])


@st.composite
def cites_file(draw):
    """Citations between known ids and two dangling ones, so duplicates in
    both orientations and self-loops are common; blank and whitespace-only
    lines; now and then a line of 1 or 3 fields; LF, CRLF or CR endings."""
    ids = st.sampled_from(NODE_IDS[:draw(st.integers(1, 5))] + ["q7", "p00"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["cite"] * 30 + ["blank", "one field", "three fields"]))
        if kind == "blank":
            lines.append(draw(BLANKS))
            continue
        fields = [draw(ids) for _ in range({"cite": 2, "one field": 1, "three fields": 3}[kind])]
        lines.append(draw(BLANKS) + draw(SEPARATORS).join(fields) + draw(BLANKS))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def convert_outcome(directory, cites_text):
    """What `convert_content_cites` and the reference loop make of one cites
    file: ('ok', summary, graph.edges bytes) or ('error', message)."""
    content, cites = directory / "raw.content", directory / "raw.cites"
    content.write_text(CONTENT, encoding="utf-8")
    cites.write_text(cites_text, encoding="utf-8", newline="")
    out = directory / "converted"
    try:
        summary = convert_content_cites(str(content), str(cites), str(out))
        got = ("ok", summary, (out / "graph.edges").read_bytes())
    except DataError as exc:
        got = ("error", str(exc))
    try:
        stats, pairs = ref_convert_cites(str(cites), {node: k for k, node in enumerate(NODE_IDS)})
        want = ("ok", {**CONTENT_SUMMARY, **stats},
                "".join(f"{i} {j}\n" for i, j in pairs).encode())
    except DataError as exc:
        want = ("error", str(exc))
    return got, want


@settings(max_examples=300, deadline=None)
@given(cites_text=cites_file())
def test_convert_cites_matches_reference(workdir, cites_text):
    got, want = convert_outcome(workdir, cites_text)
    assert got == want
