"""Benchmark inputs: a vectorized planted-partition graph shaped like Cora,
and a writer for grafn's dataset directory format.

The graph is degree-corrected: each node draws a heavy-tailed weight, a
class pair is drawn per edge (same class with probability HOMOPHILY), and
both endpoints are drawn within their classes in proportion to weight. No
loop runs over node pairs, so a 2708-node graph takes milliseconds where
`grafn.synthetic.random_dataset` takes seconds. Features are binary
bag-of-words rows: each node draws about `density * F` words, a share
SIGNAL_SHARE of them from its class's preferred block of the vocabulary.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Class sizes of the Cora citation network, used as class shares.
CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)
HOMOPHILY = 0.81        # share of edges within a class
DEGREE_TAIL = 2.5       # Pareto shape of the node weights
SIGNAL_SHARE = 0.8      # share of a node's words drawn from its class's block
EDGE_TOLERANCE = 0.03   # allowed miss, as a share of the target edge count
DENSITY_TOLERANCE = 0.15  # allowed miss, as a share of the target feature density


@dataclass(frozen=True)
class ShapeTarget:
    num_nodes: int = 2708
    num_features: int = 1433
    num_classes: int = 7
    num_edges: int = 5400
    feature_density: float = 0.0127


CORA_SHAPE = ShapeTarget()


@dataclass(frozen=True)
class Graph:
    name: str
    features: np.ndarray  # N x F bool
    labels: np.ndarray    # N int64 in [0, C)
    edges: np.ndarray     # (m, 2) int64, src < dst, lexicographically sorted, unique
    num_classes: int

    @property
    def density(self) -> float:
        return float(self.features.mean())


def _class_sizes(n: int, c: int) -> np.ndarray:
    shares = np.resize(np.asarray(CORA_CLASS_SIZES, dtype=np.float64), c)
    sizes = np.floor(shares / shares.sum() * n).astype(np.int64)
    sizes[np.argsort(-shares, kind="stable")[: n - sizes.sum()]] += 1
    return sizes


def _canonical(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Unique undirected edge codes src * n + dst, self-loops removed."""
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    return np.unique(lo * n + hi)


def planted_partition(seed: int, target: ShapeTarget = CORA_SHAPE) -> Graph:
    """Degree-corrected planted-partition graph with class-correlated binary
    features, deterministic in `seed`; raises ValueError when the result
    misses `target` (see `check_shape`)."""
    n, f, c, m = target.num_nodes, target.num_features, target.num_classes, target.num_edges
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(c), _class_sizes(n, c))
    rng.shuffle(labels)

    # Nodes sorted by class, with a cumulative weight per position, so that a
    # weighted draw within class k is a searchsorted over its slice.
    order = np.argsort(labels, kind="stable")
    weight = rng.pareto(DEGREE_TAIL, n) + 1.0
    cum = np.cumsum(weight[order])
    bounds = np.concatenate([[0.0], cum[np.cumsum(np.bincount(labels, minlength=c)) - 1]])
    class_mass = np.diff(bounds)

    def draw_nodes(classes: np.ndarray) -> np.ndarray:
        r = bounds[classes] + rng.random(len(classes)) * class_mass[classes]
        return order[np.minimum(np.searchsorted(cum, r, side="right"), n - 1)]

    def draw_classes(size: int) -> np.ndarray:
        return np.minimum(
            np.searchsorted(np.cumsum(class_mass), rng.random(size) * cum[-1], side="right"),
            c - 1,
        )

    codes = np.empty(0, dtype=np.int64)
    while len(codes) < m:
        want = int((m - len(codes)) * 1.1) + 16
        a = draw_classes(want)
        b = a.copy()
        clash = rng.random(want) >= HOMOPHILY  # inter-class edges still to place
        while clash.any():
            b[clash] = draw_classes(int(clash.sum()))
            clash &= a == b
        codes = np.union1d(codes, _canonical(draw_nodes(a), draw_nodes(b), n))
    codes = np.sort(rng.permutation(codes)[:m])

    # Attach every isolated node to one node of its own class, as in Cora,
    # where each paper has at least one citation.
    for _ in range(8):
        lonely = np.setdiff1d(np.arange(n), np.concatenate([codes // n, codes % n]))
        if not len(lonely):
            break
        codes = np.union1d(codes, _canonical(lonely, draw_nodes(labels[lonely]), n))
    edges = np.column_stack([codes // n, codes % n])

    words = 1 + rng.poisson(max(target.feature_density * f - 1.0, 0.0), n)
    owner = np.repeat(np.arange(n), words)
    block = max(1, f // c)
    signal = rng.random(len(owner)) < SIGNAL_SHARE
    cols = np.where(
        signal,
        labels[owner] * block + rng.integers(0, block, len(owner)),
        rng.integers(0, f, len(owner)),
    )
    features = np.zeros((n, f), dtype=bool)
    features[owner, np.minimum(cols, f - 1)] = True

    graph = Graph(name="cora-shape", features=features, labels=labels.astype(np.int64),
                  edges=edges.astype(np.int64), num_classes=c)
    check_shape(graph, target)
    return graph


def check_shape(graph: Graph, target: ShapeTarget) -> None:
    """Raise ValueError unless N, F and C match `target` exactly and the
    feature density and edge count are within the tolerances."""
    n, f = graph.features.shape
    problems = []
    if (n, f, graph.num_classes) != (target.num_nodes, target.num_features, target.num_classes):
        problems.append(f"N, F, C = {n}, {f}, {graph.num_classes}")
    if set(np.unique(graph.labels)) != set(range(target.num_classes)):
        problems.append("a class has no node")
    if abs(graph.density - target.feature_density) > DENSITY_TOLERANCE * target.feature_density:
        problems.append(f"feature density {graph.density:.5f}")
    m = len(graph.edges)
    if abs(m - target.num_edges) > EDGE_TOLERANCE * target.num_edges:
        problems.append(f"{m} edges")
    if np.any(graph.edges[:, 0] >= graph.edges[:, 1]):
        problems.append("an edge with src >= dst")
    if len(np.unique(graph.edges[:, 0] * n + graph.edges[:, 1])) != m:
        problems.append("duplicate edges")
    if np.any(np.bincount(graph.edges.ravel(), minlength=n) == 0):
        problems.append("an isolated node")
    if np.any(graph.features.sum(axis=1) == 0):
        problems.append("an all-zero feature row")
    if problems:
        raise ValueError(f"{graph.name} misses its target: " + "; ".join(problems))


def from_dataset(ds, name: str) -> Graph:
    """A binary-featured grafn GraphDataset as a Graph."""
    features = np.asarray(ds.features)
    if not np.isin(features, (0.0, 1.0)).all():
        raise ValueError(f"{name}: features are not binary")
    return Graph(name=name, features=features == 1.0, labels=ds.label_ids(),
                 edges=np.asarray(ds.adj.undirected_edge_list(), dtype=np.int64),
                 num_classes=ds.class_count)


def write_dataset_dir(graph: Graph, directory: str) -> None:
    """Write `graph` in grafn's dataset directory format, with features as
    `0.0`/`1.0` cells as `grafn convert` writes them."""
    os.makedirs(directory, exist_ok=True)
    n, f = graph.features.shape
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"name": graph.name, "num_nodes": n, "num_features": f,
                   "num_classes": graph.num_classes}, fh)
    zeros = ["0.0"] * f
    with open(os.path.join(directory, "features.tsv"), "w", encoding="utf-8") as fh:
        for row in graph.features:
            cells = list(zeros)
            for j in np.flatnonzero(row):
                cells[j] = "1.0"
            fh.write("\t".join(cells))
            fh.write("\n")
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(k)}\n" for k in graph.labels))
    with open(os.path.join(directory, "graph.edges"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(i)} {int(j)}\n" for i, j in graph.edges))
