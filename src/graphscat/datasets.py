"""Dataset ingestion, text-format persistence, and synthetic block-model data.

A dataset directory holds edges.tsv (edge-list format), features.csv (one
comma-separated float row per node), labels.csv (one class id per line) and
splits.json (train/val/test index arrays). Everything is plain line-oriented
text and round-trips exactly.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadClassIds,
    BadSplitIndex,
    FieldRangeError,
    InfeasibleSpec,
    IsolatedNodeWarning,
    MissingFile,
    RowCountMismatch,
    SplitIndexOutOfRange,
)
from .graph import Graph, build_graph, read_edge_list, write_edge_list, write_rows
from .theory import homophily
from .train import SplitMasks


@dataclass
class Dataset:
    name: str
    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    splits: SplitMasks

    def __post_init__(self):
        n = self.graph.n
        for part in ("train", "val", "test"):
            idx = getattr(self.splits, part)
            bad = idx[(idx < 0) | (idx >= n)]
            if bad.size:
                raise SplitIndexOutOfRange(
                    f"{part} split index {int(bad[0])} outside 0..{n - 1}")

    @property
    def n_classes(self) -> int:
        return int(np.max(self.labels)) + 1


def describe(ds: Dataset) -> str:
    return (f"{ds.name}: n={ds.graph.n} edges={ds.graph.num_edges} "
            f"d={ds.features.shape[1]} classes={ds.n_classes} "
            f"homophily={homophily(ds.graph, ds.labels):.3f}")


SBM_SPLIT_RATIOS = (5.0, 1.0, 1.0)   # train:val:test
SBM_MAX_RESAMPLES = 100


@dataclass
class SBMSpec:
    """Stochastic block model with per-block Gaussian feature clouds."""

    block_sizes: tuple[int, ...]
    p_in: float = 0.1
    p_out: float = 0.01
    feature_dim: int = 8
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.block_sizes = tuple(int(b) for b in self.block_sizes)
        if len(self.block_sizes) < 2:
            raise FieldRangeError(f"block_sizes needs at least 2 blocks, got {self.block_sizes}",
                                  "block_sizes")
        if min(self.block_sizes) < 1:
            raise FieldRangeError(
                f"every block needs at least 1 node, got block_sizes {self.block_sizes}",
                "block_sizes")
        for name in ("p_in", "p_out"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise FieldRangeError(f"{name} must lie in [0, 1], got {getattr(self, name)}",
                                      name)


def _sample_sbm_edges(spec: SBMSpec, rng: np.random.Generator) -> list[tuple[int, int]]:
    sizes = spec.block_sizes
    starts = np.cumsum((0,) + sizes)
    edges = []
    B = len(sizes)
    for i in range(B):
        for j in range(i, B):
            p = spec.p_in if i == j else spec.p_out
            ni, nj = sizes[i], sizes[j]
            draw = rng.random((ni, nj)) < p
            if i == j:
                draw = np.triu(draw, k=1)
            ui, uj = np.nonzero(draw)
            edges.extend(zip((starts[i] + ui).tolist(), (starts[j] + uj).tolist()))
    return edges


def stratified_splits(labels: np.ndarray, ratios, rng: np.random.Generator) -> SplitMasks:
    """Per-class shuffled split at the given train:val:test ratios."""
    ratios = np.asarray(ratios, dtype=np.float64)
    fracs = ratios / ratios.sum()
    train, val, test = [], [], []
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        m = idx.size
        n_tr = max(1, int(round(m * fracs[0])))
        n_va = int(round(m * fracs[1]))
        n_tr = min(n_tr, m - 1)                      # keep at least one test node
        n_va = min(n_va, m - n_tr - 1) if m - n_tr > 1 else 0
        train.extend(idx[:n_tr].tolist())
        val.extend(idx[n_tr:n_tr + n_va].tolist())
        test.extend(idx[n_tr + n_va:].tolist())
    return SplitMasks(train=np.sort(train), val=np.sort(val), test=np.sort(test))


def generate_sbm(spec: SBMSpec) -> Dataset:
    """Deterministic SBM dataset; resamples the graph until no node is isolated."""
    rng = np.random.default_rng(spec.seed)
    n = sum(spec.block_sizes)
    labels = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)
    for _ in range(SBM_MAX_RESAMPLES):
        edges = _sample_sbm_edges(spec, rng)
        if not edges:
            continue
        with warnings.catch_warnings():
            # isolated draws are expected here; rejection handles them
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(edges, n=n)
        if not g.has_isolated_nodes:
            break
    else:
        raise InfeasibleSpec(
            f"could not avoid isolated nodes in {SBM_MAX_RESAMPLES} resamples")
    B, d = len(spec.block_sizes), spec.feature_dim
    # block i's cloud centre is +1 on its own slice of the dimensions, -1 elsewhere
    means = np.where((np.arange(d) * B) // d == np.arange(B)[:, None], 1.0, -1.0)
    features = means[labels] + spec.noise_scale * rng.standard_normal((n, d))
    splits = stratified_splits(labels, SBM_SPLIT_RATIOS, rng)
    return Dataset(name=f"sbm-{'x'.join(map(str, spec.block_sizes))}-seed{spec.seed}",
                   graph=g, features=features, labels=labels, splits=splits)


def save_dataset(ds: Dataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_edge_list(ds.graph, os.path.join(out_dir, "edges.tsv"))
    with open(os.path.join(out_dir, "features.csv"), "w", encoding="utf-8") as fh:
        write_rows(fh, ",".join(["%.17g"] * ds.features.shape[1]), ds.features)
    with open(os.path.join(out_dir, "labels.csv"), "w", encoding="utf-8") as fh:
        write_rows(fh, "%d", ds.labels.reshape(-1, 1))
    with open(os.path.join(out_dir, "splits.json"), "w", encoding="utf-8") as fh:
        json.dump({"train": ds.splits.train.tolist(),
                   "val": ds.splits.val.tolist(),
                   "test": ds.splits.test.tolist()}, fh)
        fh.write("\n")


DATASET_FILES = ("edges.tsv", "features.csv", "labels.csv", "splits.json")


def load_dataset(data_dir, name: str | None = None) -> Dataset:
    """Validated dataset from a directory of the four text files."""
    paths = [os.path.join(data_dir, fname) for fname in DATASET_FILES]
    for p in paths:
        if not os.path.exists(p):
            raise MissingFile(f"missing {os.path.basename(p)} in {data_dir}")
    return read_dataset(*paths, name=name or os.path.basename(os.path.normpath(data_dir)))


def read_dataset(edges_path, features_path, labels_path, splits_path,
                 name: str) -> Dataset:
    """Validated dataset from its four files.

    Features must be finite and rectangular, labels one dense class id per
    feature row, the graph on as many nodes, and split indices integers in
    range.
    """
    features = read_features(features_path)
    n = features.shape[0]

    labels = []
    with open(labels_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    labels.append(int(line))
                except ValueError as exc:
                    raise ValueError(f"{labels_path}:{lineno}: {exc}") from None
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != n:
        raise RowCountMismatch(
            f"{os.path.basename(labels_path)} has {labels.shape[0]} rows, "
            f"{os.path.basename(features_path)} has {n}")
    if labels.min(initial=0) < 0 or set(np.unique(labels)) != set(range(int(labels.max()) + 1)):
        raise BadClassIds("class ids must be dense integers starting at 0")

    g = read_edge_list(edges_path, n=n)
    return Dataset(name=name, graph=g, features=features, labels=labels,
                   splits=read_splits(splits_path))


def read_features(path) -> np.ndarray:
    """Node-feature matrix from comma-separated rows of equal length, all finite.

    The file is opened here, so path names a local file and nothing else
    (np.loadtxt would also read a compressed sibling or fetch a URL).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            features = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise RowCountMismatch(f"{path}: {exc}") from None
    if features.size == 0 or not np.all(np.isfinite(features)):
        raise RowCountMismatch(f"{path} must hold rectangular finite rows")
    return features


def read_splits(path) -> SplitMasks:
    """Train/val/test index arrays from a splits.json file of JSON integers."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise BadSplitIndex("splits.json must be an object of train/val/test lists")
    parts = {}
    for key in ("train", "val", "test"):
        if key not in raw:
            raise MissingFile(f"splits.json lacks key {key!r}")
        if not isinstance(raw[key], list):
            raise BadSplitIndex(f"{key} split must be a list of integers")
        bad = [v for v in raw[key] if type(v) is not int]   # bool is an int subclass
        if bad:
            raise BadSplitIndex(f"{key} split index {bad[0]!r} is not an integer")
        parts[key] = np.asarray(raw[key], dtype=np.int64)
    return SplitMasks(**parts)
