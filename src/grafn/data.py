"""Dataset representation, file formats and splits.

The adjacency type and its GCN normalization live in grafn.sparse;
`normalize_adjacency` is re-exported here because the benchmark's
inference path calls `grafn.data.normalize_adjacency`.

Dataset directory format (text, UTF-8, LF):
    graph.edges   one "src dst" pair per line, 0-indexed, src < dst, each
                  undirected edge once
    features.tsv  N lines of F tab-separated reals
    labels.txt    N lines, one integer in [0, C)
    meta.json     {"name", "num_nodes", "num_features", "num_classes"}
                  (extra keys such as converter statistics are permitted)

Split file: JSON with "seed", "label_rate", "labeled", "val", "test".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .sparse import SparseAdjacency, normalize_adjacency  # noqa: F401 (re-exported)


@dataclass
class GraphDataset:
    adj: SparseAdjacency          # raw symmetric adjacency, no self-loops
    features: np.ndarray          # N x F float64
    labels: np.ndarray            # N x C one-hot float64
    class_count: int
    name: str

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def label_ids(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)

    def validate(self) -> None:
        n, _ = self.features.shape
        if self.adj.n != n:
            raise DataError(f"adjacency size {self.adj.n} != node count {n}")
        if self.labels.shape != (n, self.class_count):
            raise DataError(f"label matrix shape {self.labels.shape} unexpected")
        if not np.allclose(self.labels.sum(axis=1), 1.0):
            raise DataError("label rows must be one-hot")
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            node, feature = bad[0]
            raise DataError(f"node {node} feature {feature} is not finite: "
                            f"{self.features[node, feature]}")
        self.adj.validate()
        # degrees() leaves out stored diagonal entries
        if self.adj.degrees().sum() != self.adj.nnz:
            raise DataError("raw adjacency must not store self-loops")


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
        """Parse a split file; every index entry must be a JSON integer."""
        try:
            obj = json.loads(text)
            sets = {}
            for key in ("labeled", "val", "test"):
                if not set(map(type, obj[key])) <= {int}:  # bool and float fail
                    raise ValueError(f"{key!r} entries must be integers")
                sets[key] = np.asarray(obj[key], dtype=np.int64)
            return cls(**sets, seed=int(obj["seed"]), label_rate=float(obj["label_rate"]))
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
        counts = np.bincount(ds.label_ids()[self.labeled], minlength=ds.class_count)
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


def _read_features(path: str, n: int, f: int) -> np.ndarray:
    """One pass checks the row and column counts, numpy's reader parses the rows
    before the first structural fault; the first fault in file order is raised."""
    text = _read_text(path)
    rows = [(k, line) for k, line in enumerate(text.split("\n"), start=1) if line]
    fault = None
    for i, (lineno, line) in enumerate(rows):
        cols = line.count("\t") + 1
        if i == n or cols != f:
            fault = (f"{path}: more than {n} feature rows" if i == n
                     else f"{path}:{lineno}: expected {f} columns, got {cols}")
            del rows[i:]
            break
    try:
        if any(c in text for c in "\x1c\x1d\x1e\x1f"):  # numpy strips these, float() does not
            raise ValueError
        features = (np.loadtxt([line for _, line in rows], delimiter="\t", comments=None,
                               ndmin=2) if rows else None)
    except ValueError:
        for lineno, line in rows:  # float()'s own message for a cell it rejects
            try:
                [float(v) for v in line.split("\t")]
                np.loadtxt([line], delimiter="\t", comments=None)  # float() also takes '1_0'
            except ValueError as exc:  # numpy's "row 0" counts within this one line
                message = str(exc).replace(" at row 0,", " at")
                raise DataError(f"{path}:{lineno}: {message}") from None
    if fault:
        raise DataError(fault)
    if len(rows) != n:
        raise DataError(f"{path}: expected {n} rows, got {len(rows)}")
    return features


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

    features = _read_features(os.path.join(directory, "features.tsv"), n, f)

    labels_path = os.path.join(directory, "labels.txt")
    label_ids = np.zeros(n, dtype=np.int64)
    count = 0
    for lineno, line in enumerate(_read_text(labels_path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if count >= n:
            raise DataError(f"{labels_path}: more than {n} label lines")
        try:
            val = int(line)
        except ValueError as exc:
            raise DataError(f"{labels_path}:{lineno}: {exc}") from exc
        if not 0 <= val < c:
            raise DataError(
                f"{labels_path}:{lineno}: label {val} out of range [0,{c})"
            )
        label_ids[count] = val
        count += 1
    if count != n:
        raise DataError(f"{labels_path}: expected {n} labels, got {count}")

    edges_path = os.path.join(directory, "graph.edges")
    edges = []
    for lineno, line in enumerate(_read_text(edges_path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{edges_path}:{lineno}: expected 'src dst'")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataError(f"{edges_path}:{lineno}: {exc}") from exc
        for node in (src, dst):
            if not 0 <= node < n:
                raise DataError(
                    f"{edges_path}:{lineno}: node {node} out of range [0,{n})"
                )
        if src == dst:
            raise DataError(f"{edges_path}:{lineno}: self-loop {src}")
        if src > dst:
            raise DataError(f"{edges_path}:{lineno}: src must be < dst")
        edges.append((src, dst))

    adj = SparseAdjacency.from_edges(n, edges)
    labels = np.zeros((n, c), dtype=np.float64)
    labels[np.arange(n), label_ids] = 1.0
    ds = GraphDataset(adj=adj, features=features, labels=labels, class_count=c,
                      name=str(meta["name"]))
    ds.validate()
    return ds


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
    with open(os.path.join(directory, "features.tsv"), "w", encoding="utf-8") as fh:
        for row in ds.features:
            fh.write("\t".join(repr(float(v)) for v in row))
            fh.write("\n")
    label_ids = ds.label_ids()
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as fh:
        for v in label_ids:
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
    node_order: list[str] = []
    node_index: dict[str, int] = {}
    feat_rows: list[list[float]] = []
    class_names: list[str] = []
    arity: int | None = None

    for lineno, line in enumerate(_read_text(content_path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
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
        node_index[node_id] = len(node_order)
        node_order.append(node_id)
        try:
            feat_rows.append([float(v) for v in feats])
        except ValueError as exc:
            raise DataError(f"{content_path}:{lineno}: {exc}") from exc
        class_names.append(cls)

    if not node_order:
        raise DataError(f"{content_path}: no nodes")
    classes = sorted(set(class_names))
    class_to_idx = {name: i for i, name in enumerate(classes)}
    n = len(node_order)

    raw_lines = 0
    dangling = 0
    self_loops = 0
    pairs: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, line in enumerate(_read_text(cites_path).split("\n"), start=1):
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

    adj = SparseAdjacency.from_edges(n, sorted(pairs))
    labels = np.zeros((n, len(classes)), dtype=np.float64)
    for i, cls in enumerate(class_names):
        labels[i, class_to_idx[cls]] = 1.0
    ds = GraphDataset(
        adj=adj,
        features=np.asarray(feat_rows, dtype=np.float64),
        labels=labels,
        class_count=len(classes),
        name=os.path.basename(os.path.normpath(out_dir)) or "converted",
    )
    ds.validate()
    summary = {
        "num_nodes": n,
        "num_features": int(ds.num_features),
        "num_classes": len(classes),
        "raw_edge_lines": raw_lines,
        "undirected_edges": len(pairs),
        "dropped_dangling": dangling,
        "dropped_self_loops": self_loops,
        "collapsed_duplicates": duplicates,
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
        raise DataError(f"label_rate must be in (0,1), got {label_rate}")
    n = ds.num_nodes
    c = ds.class_count
    n_labeled = _round_half_up(label_rate * n)
    if n_labeled < c:
        raise DataError(
            f"label_rate {label_rate} yields {n_labeled} labeled nodes, "
            f"fewer than {c} classes"
        )
    label_ids = ds.label_ids()
    class_members = [np.flatnonzero(label_ids == k) for k in range(c)]
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
    # defensive: a class smaller than its allocation hands the excess on
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
