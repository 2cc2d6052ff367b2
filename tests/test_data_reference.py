"""The numpy-parsed features.tsv against the line-by-line loop it replaced.

`ref_read_features` is the former loop of `load_dataset`, one `float()` per
cell, kept as an exact oracle. Files it accepts must load to the same bytes;
files it rejects must give the same message. The one intended difference,
cells that float() takes but numpy's reader does not ('1_0', non-ASCII
digits), has its own test.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import DataError
from grafn.data import _read_features


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
    return features


def outcome(read, path, n, f):
    """('ok', bytes, shape) or ('error', message)."""
    try:
        x = read(path, n, f)
    except DataError as exc:
        return ("error", str(exc))
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


@st.composite
def features_file(draw):
    """(text, n, f): rows of f cells, sometimes a row too long or too short,
    blank lines, LF/CRLF/CR endings and an optional final newline."""
    n, f = draw(st.integers(1, 5)), draw(st.integers(1, 4))
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
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("features")


@settings(max_examples=300, deadline=None)
@given(case=features_file())
def test_read_features_matches_reference(workdir, case):
    text, n, f = case
    path = workdir / "features.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(_read_features, str(path), n, f) == outcome(ref_read_features, str(path), n, f)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_read_features_matches_reference_on_named_cases(tmp_path, case):
    text, n, f = case
    path = tmp_path / "features.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(_read_features, str(path), n, f) == outcome(ref_read_features, str(path), n, f)


def test_first_fault_in_file_order_wins(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("1\t2\nx\t2\n1\t2\t3\n")
    with pytest.raises(DataError) as err:
        _read_features(str(path), 3, 2)
    assert str(err.value) == f"{path}:2: could not convert string to float: 'x'"
    path.write_text("1\t2\n1\t2\t3\nx\t2\n")
    with pytest.raises(DataError) as err:
        _read_features(str(path), 3, 2)
    assert str(err.value) == f"{path}:2: expected 2 columns, got 3"


@pytest.mark.parametrize("value", ["1_0", "\u0661"])  # digit grouping, Arabic-Indic one
def test_cells_only_float_takes_are_rejected(tmp_path, value):
    path = tmp_path / "features.tsv"
    path.write_text(f"1\t2\n3\t{value}\n")
    assert ref_read_features(str(path), 2, 2)[1, 1] == float(value)
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: could not convert string '{value}'"):
        _read_features(str(path), 2, 2)
