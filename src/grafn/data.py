"""Dataset representation, file formats and splits.

The adjacency type and its GCN normalization live in grafn.sparse;
`normalize_adjacency` is re-exported here because the benchmark's
inference path calls `grafn.data.normalize_adjacency`.

Dataset directory format (text, UTF-8, LF):
    graph.edges   one "src dst" pair per line, 0-indexed, src < dst, an
                  unweighted edge; a repeated line collapses to one edge
    features.tsv  N lines of F tab-separated finite reals
    labels.txt    N lines, one integer in [0, C)
    meta.json     {"name", "num_nodes", "num_features", "num_classes"}
                  (extra keys such as converter statistics are permitted)

Split file: JSON with "seed", "label_rate", "labeled", "val", "test".
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .sparse import SparseAdjacency, normalize_adjacency  # noqa: F401 (re-exported)


@dataclass
class GraphDataset:
    adj: SparseAdjacency          # raw unweighted adjacency, no self-loops
    features: np.ndarray          # N x F float64
    labels: np.ndarray            # N int64 class ids in [0, class_count)
    class_count: int
    name: str

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def label_ids(self) -> np.ndarray:
        return self.labels


@dataclass
class SplitSpec:
    labeled: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int
    label_rate: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "label_rate": self.label_rate,
                "labeled": [int(i) for i in self.labeled],
                "val": [int(i) for i in self.val],
                "test": [int(i) for i in self.test],
            },
            indent=None,
        )

    @classmethod
    def from_json(cls, text: str) -> "SplitSpec":
        """Parse a split file; "seed" and every index entry must be JSON
        integers, "label_rate" a finite JSON number."""
        try:
            obj = json.loads(text)
            sets = {}
            for key in ("labeled", "val", "test"):
                if not set(map(type, obj[key])) <= {int}:  # bool and float fail
                    raise ValueError(f"{key!r} entries must be integers")
                sets[key] = np.asarray(obj[key], dtype=np.int64)
            seed, rate = obj["seed"], obj["label_rate"]
            if type(seed) is not int:
                raise ValueError(f"'seed' must be an integer, got {seed!r}")
            if type(rate) not in (int, float) or not math.isfinite(rate):
                raise ValueError(f"'label_rate' must be a finite number, got {rate!r}")
            return cls(**sets, seed=seed, label_rate=float(rate))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed split file: {exc}") from exc

    def validate(self, ds: GraphDataset) -> None:
        """Raise DataError unless every set is non-empty with indices in
        [0, num_nodes), no node appears twice across the sets, and the
        labeled set holds a node of every class."""
        num_nodes = ds.num_nodes
        for name in ("labeled", "val", "test"):
            idx = getattr(self, name)
            if len(idx) == 0:
                raise DataError(f"split set {name!r} is empty")
            if idx.min() < 0 or idx.max() >= num_nodes:
                raise DataError(f"split set {name!r} has an index outside [0, {num_nodes})")
        nodes = np.concatenate([self.labeled, self.val, self.test])
        if np.unique(nodes).size != nodes.size:
            raise DataError("split sets share or repeat a node")
        counts = np.bincount(ds.labels[self.labeled], minlength=ds.class_count)
        if not counts.all():
            raise DataError(f"split set 'labeled' has no node of class {np.argmin(counts)}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# loading / writing the neutral directory format


def _read_text(path: str) -> str:
    """The file as UTF-8 text with universal newlines; a file that cannot be
    opened or decoded raises DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _lines(path: str):
    """(line number, stripped line) for each non-blank line of the file."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if line := line.strip():
            yield lineno, line


def _int(text: str) -> int:
    """int() of ASCII sign and digits: like numpy's reader in features.tsv, it
    rejects the digit-grouping '1_0' and non-ASCII digits that int() takes."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _int_array(path: str, per_line: int) -> np.ndarray | None:
    """The (lines, per_line) int64 array of a file in canonical form: lines of
    `per_line` runs of 1-18 ASCII digits joined by single spaces, each line
    ended by LF; None for any other file, which the per-line reader takes."""
    with contextlib.suppress(OSError), open(path, "rb") as fh:
        raw = fh.read()
        if re.fullmatch(rb"(?:[0-9]{1,18}" + rb" [0-9]{1,18}" * (per_line - 1) + rb"\n)*", raw):
            return np.fromstring(raw, np.int64, sep=" ").reshape(-1, per_line)
    return None


def _read_binary_features(path: str, n: int, f: int) -> np.ndarray | None:
    """A file of exactly N rows of F '0.0'/'1.0' cells with LF endings, read from
    its bytes, 4 per cell, in row blocks of about 1 MiB into the output; None
    for any other file."""
    with contextlib.suppress(OSError), open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 4 * n * f:
            zeros = np.frombuffer(b"0.0\t" * (f - 1) + b"0.0\n", "<u4")  # first byte lowest
            buf = np.empty((2**18 // f + 1, f), "<u4")
            out = np.empty((n, f))
            for i in range(0, n, len(buf)):
                cells = buf[:n - i]
                # c ^ zeros is 0 for '0.0' and 1 for '1.0', and above 1 for any other cell
                if (fh.readinto(cells) != cells.nbytes
                        or np.bitwise_xor(cells, zeros, out=cells).max() > 1):
                    return None
                out[i:i + len(cells)] = cells
            return out
    return None


def _check_finite(features: np.ndarray) -> None:
    """Raise DataError at the first non-finite feature."""
    finite = np.isfinite(features)
    if not finite.all():
        node, feature = np.argwhere(~finite)[0]
        raise DataError(f"node {node} feature {feature} is not finite: "
                        f"{features[node, feature]}")


def _read_text_features(path: str, n: int, f: int) -> np.ndarray:
    """numpy's reader parses the non-empty rows; a file it rejects, or one of
    the wrong shape, is walked row by row and its first fault raised. A
    non-finite cell is a fault too."""
    text = _read_text(path)
    rows = [(k, line) for k, line in enumerate(text.split("\n"), start=1) if line]
    # numpy strips \x1c-\x1f around a cell, float() does not; numpy warns on no rows
    if rows and not any(c in text for c in "\x1c\x1d\x1e\x1f"):
        with contextlib.suppress(ValueError):
            features = np.loadtxt([line for _, line in rows], delimiter="\t", comments=None,
                                  ndmin=2)
            if features.shape == (n, f):
                _check_finite(features)
                return features
    for i, (lineno, line) in enumerate(rows):
        cols = line.count("\t") + 1
        if i == n:
            raise DataError(f"{path}: more than {n} feature rows")
        if cols != f:
            raise DataError(f"{path}:{lineno}: expected {f} columns, got {cols}")
        try:  # float()'s own message for a cell it rejects
            [float(v) for v in line.split("\t")]
            np.loadtxt([line], delimiter="\t", comments=None)  # float() also takes '1_0'
        except ValueError as exc:  # numpy's "row 0" counts within this one line
            raise DataError(f"{path}:{lineno}: " + str(exc).replace(" at row 0,", " at")) from None
    raise DataError(f"{path}: expected {n} rows, got {len(rows)}")


def load_dataset(directory: str) -> GraphDataset:
    """Load and validate a dataset directory; edges are materialized in both
    CSR directions with duplicates collapsed."""
    meta_path = os.path.join(directory, "meta.json")
    try:
        meta = json.loads(_read_text(meta_path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: expected a JSON object")
    for key in ("name", "num_nodes", "num_features", "num_classes"):
        if key not in meta:
            raise DataError(f"{meta_path}: missing key {key!r}")
        if key != "name" and type(meta[key]) is not int:  # bool, float and str fail
            raise DataError(f"{meta_path}: {key!r} must be an integer, got {meta[key]!r}")
    n, f, c = meta["num_nodes"], meta["num_features"], meta["num_classes"]
    if min(n, f, c) <= 0:
        raise DataError(f"{meta_path}: N, F, C must be positive")

    features_path = os.path.join(directory, "features.tsv")
    features = _read_binary_features(features_path, n, f)
    if features is None:
        features = _read_text_features(features_path, n, f)

    labels_path = os.path.join(directory, "labels.txt")
    label_ids = _int_array(labels_path, 1)
    if label_ids is None or len(label_ids) != n or label_ids.max() >= c:  # walk to the fault
        label_ids = []
        for lineno, line in _lines(labels_path):
            if len(label_ids) == n:
                raise DataError(f"{labels_path}: more than {n} label lines")
            try:
                val = _int(line)
            except ValueError as exc:
                raise DataError(f"{labels_path}:{lineno}: {exc}") from exc
            if not 0 <= val < c:
                raise DataError(f"{labels_path}:{lineno}: label {val} out of range [0,{c})")
            label_ids.append(val)
        if len(label_ids) != n:
            raise DataError(f"{labels_path}: expected {n} labels, got {len(label_ids)}")

    edges_path = os.path.join(directory, "graph.edges")
    edges = _int_array(edges_path, 2)
    if edges is None or not ((edges[:, 1] < n) & (edges[:, 0] < edges[:, 1])).all():
        edges = []
        for lineno, line in _lines(edges_path):
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{edges_path}:{lineno}: expected 'src dst'")
            try:
                src, dst = _int(parts[0]), _int(parts[1])
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

    return GraphDataset(adj=SparseAdjacency.from_edges(n, edges), features=features,
                        labels=np.ravel(np.asarray(label_ids, dtype=np.int64)), class_count=c,
                        name=str(meta["name"]))


def write_dataset(ds: GraphDataset, directory: str, extra_meta: dict | None = None) -> None:
    os.makedirs(directory, exist_ok=True)
    meta = {
        "name": ds.name,
        "num_nodes": ds.num_nodes,
        "num_features": ds.num_features,
        "num_classes": ds.class_count,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    bits = np.ascontiguousarray(ds.features, dtype=np.float64).view(np.uint64)
    ones = bits == np.float64(1.0).view(np.uint64)
    with open(os.path.join(directory, "features.tsv"), "wb") as fh:
        if (ones | (bits == 0)).all():  # +0.0 and 1.0 only: what _read_binary_features reads
            # each cell is repr(float(v)) and a tab, or LF at a row's end; '1' is '0' | 1
            cells = ones.astype("<u4")
            cells |= np.frombuffer(b"0.0\t" * (ds.num_features - 1) + b"0.0\n", "<u4")
            fh.write(cells)
        else:
            for row in ds.features:
                fh.write(("\t".join(repr(float(v)) for v in row) + "\n").encode())
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as fh:
        for v in ds.labels:
            fh.write(f"{int(v)}\n")
    with open(os.path.join(directory, "graph.edges"), "w", encoding="utf-8") as fh:
        for i, j in ds.adj.undirected_edge_list():
            fh.write(f"{int(i)} {int(j)}\n")


# ---------------------------------------------------------------------------
# raw citation-network conversion


def convert_content_cites(content_path: str, cites_path: str, out_dir: str) -> dict:
    """Convert the classic citation format to the neutral directory format.

    content: one line per node, "<id> <f_1> ... <f_F> <class>"
    cites:   one line per citation, "<cited> <citing>"

    Node order is first appearance in the content file; class names map to
    indices in lexicographic order; cites lines with an endpoint missing
    from content are dropped (counted in the summary).
    """
    node_index: dict[str, int] = {}
    feat_rows: list[list[float]] = []
    class_names: list[str] = []
    arity: int | None = None

    for lineno, line in _lines(content_path):
        parts = line.split()
        if len(parts) < 3:
            raise DataError(f"{content_path}:{lineno}: too few fields")
        node_id, cls = parts[0], parts[-1]
        feats = parts[1:-1]
        if arity is None:
            arity = len(feats)
        elif len(feats) != arity:
            raise DataError(
                f"{content_path}:{lineno}: feature arity {len(feats)} != {arity}"
            )
        if node_id in node_index:
            raise DataError(f"{content_path}:{lineno}: duplicate node id {node_id!r}")
        node_index[node_id] = len(node_index)
        try:
            feat_rows.append([float(v) for v in feats])
        except ValueError as exc:
            raise DataError(f"{content_path}:{lineno}: {exc}") from exc
        class_names.append(cls)

    if not node_index:
        raise DataError(f"{content_path}: no nodes")
    features = np.asarray(feat_rows, dtype=np.float64)
    _check_finite(features)
    classes = sorted(set(class_names))
    class_to_idx = {name: i for i, name in enumerate(classes)}
    n = len(node_index)

    raw_lines = 0
    pairs = []  # (i, j) of each citation whose ids are both known
    for lineno, line in _lines(cites_path):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{cites_path}:{lineno}: expected '<cited> <citing>'")
        raw_lines += 1
        if parts[0] in node_index and parts[1] in node_index:
            pairs.append((node_index[parts[0]], node_index[parts[1]]))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]

    ds = GraphDataset(
        adj=SparseAdjacency.from_edges(n, pairs[~loops]),
        features=features,
        labels=np.array([class_to_idx[cls] for cls in class_names], dtype=np.int64),
        class_count=len(classes),
        name=os.path.basename(os.path.normpath(out_dir)) or "converted",
    )
    summary = {
        "num_nodes": n,
        "num_features": int(ds.num_features),
        "num_classes": len(classes),
        "raw_edge_lines": raw_lines,
        "undirected_edges": ds.adj.num_undirected_edges,
        "dropped_dangling": raw_lines - len(pairs),
        "dropped_self_loops": int(loops.sum()),
        "collapsed_duplicates": int((~loops).sum()) - ds.adj.num_undirected_edges,
        "class_names": classes,
    }
    write_dataset(ds, out_dir, extra_meta={"converter": summary})
    return summary


# ---------------------------------------------------------------------------
# split generation


def generate_splits(
    ds: GraphDataset, label_rate: float, n_splits: int, base_seed: int
) -> list[SplitSpec]:
    """Stratified labeled sampling, then a 1:9 val:test split of the rest.

    Per split: round(label_rate * N) labeled nodes with at least one per
    class, the remainder apportioned by class frequency (largest-remainder,
    ties toward lower class index); split i is seeded with base_seed + i.
    Each split passes `SplitSpec.validate`, which rejects a rate that
    leaves no node for val or test.
    """
    if n_splits < 1:
        raise ConfigError(f"the number of splits must be >= 1, got {n_splits}")
    if base_seed < 0:
        raise ConfigError(f"the split seed must be >= 0, got {base_seed}")
    if not 0.0 < label_rate < 1.0:
        raise ConfigError(f"label_rate must be in (0,1), got {label_rate}")
    n = ds.num_nodes
    c = ds.class_count
    n_labeled = _round_half_up(label_rate * n)
    if n_labeled < c:
        raise DataError(
            f"label_rate {label_rate} yields {n_labeled} labeled nodes, "
            f"fewer than {c} classes"
        )
    class_members = [np.flatnonzero(ds.labels == k) for k in range(c)]
    for k, members in enumerate(class_members):
        if len(members) == 0:
            raise DataError(f"class {k} has no nodes")
    class_sizes = np.array([len(m) for m in class_members], dtype=np.float64)

    remainder = n_labeled - c
    quota = remainder * class_sizes / n
    alloc = np.floor(quota).astype(np.int64)
    short = remainder - int(alloc.sum())
    order = sorted(range(c), key=lambda k: (-(quota[k] - alloc[k]), k))
    for k in order[:short]:
        alloc[k] += 1
    per_class = alloc + 1
    # a class smaller than its allocation hands the excess on, in `order`
    for k in range(c):
        if per_class[k] > len(class_members[k]):
            excess = per_class[k] - len(class_members[k])
            per_class[k] = len(class_members[k])
            for other in order:
                room = len(class_members[other]) - per_class[other]
                take = min(room, excess)
                per_class[other] += take
                excess -= take
                if excess == 0:
                    break

    splits = []
    for i in range(n_splits):
        seed = base_seed + i
        rng = np.random.default_rng(seed)
        labeled_parts = [
            rng.choice(class_members[k], size=int(per_class[k]), replace=False)
            for k in range(c)
        ]
        labeled = np.sort(np.concatenate(labeled_parts))
        rest = np.setdiff1d(np.arange(n), labeled, assume_unique=False)
        rest = rng.permutation(rest)
        n_val = _round_half_up(len(rest) / 10.0)
        val = np.sort(rest[:n_val])
        test = np.sort(rest[n_val:])
        split = SplitSpec(labeled=labeled, val=val, test=test, seed=seed, label_rate=label_rate)
        split.validate(ds)
        splits.append(split)
    return splits


def degree_buckets(ds: GraphDataset, boundaries: list[int]) -> np.ndarray:
    """Bucket id per node from the raw self-loop-free degree.

    Bucket k holds nodes with boundaries[k-1] <= degree < boundaries[k];
    the last bucket is degree >= boundaries[-1]. `boundaries` is non-empty
    and strictly increasing.
    """
    deg = ds.adj.degrees()
    return np.searchsorted(np.asarray(boundaries), deg, side="right").astype(np.int64)
