"""Dataset ingestion, text-format persistence, and synthetic block-model data.

A dataset directory holds edges.tsv (edge-list format), features.csv (one
comma-separated float row per node), labels.csv (one class id per line) and
splits.json (train/val/test index arrays). These four files are plain
line-oriented text and round-trip exactly. The one binary file is a cache:
read_features keeps the parsed feature matrix in a hidden .npy beside the
features file, keyed by the SHA-256 of the file's bytes (see read_features).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    BadClassIds,
    BadSplitIndex,
    FieldRangeError,
    InfeasibleSpec,
    IsolatedNodeWarning,
    MissingFile,
    RowCountMismatch,
    require_integers,
)
from .graph import Graph, build_graph, read_edge_list, write_edge_list, write_rows
from .theory import homophily
from .train import SplitMasks


@dataclass(eq=False)
class Dataset:
    name: str
    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    splits: SplitMasks

    def __post_init__(self):
        self.splits.check_range(self.graph.n)

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
    """Stochastic block model with per-block Gaussian feature clouds.

    At least 2 blocks of at least 1 node, p_in and p_out in [0, 1], at least
    one feature column, a finite noise_scale >= 0 and a seed >= 0, the block
    sizes, feature_dim and seed integers; a value out of range or not an
    integer (a boolean, 2.7) raises FieldRangeError naming its field.
    """

    block_sizes: tuple[int, ...]
    p_in: float = 0.1
    p_out: float = 0.01
    feature_dim: int = 8
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_integers("block_sizes", *self.block_sizes)
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
        require_integers("feature_dim", self.feature_dim)
        if self.feature_dim < 1:
            raise FieldRangeError(f"feature_dim must be >= 1, got {self.feature_dim}",
                                  "feature_dim")
        if not 0.0 <= self.noise_scale < np.inf:
            raise FieldRangeError(f"noise_scale must be finite and >= 0, got {self.noise_scale}",
                                  "noise_scale")
        require_integers("seed", self.seed)
        if self.seed < 0:
            raise FieldRangeError(f"seed must be >= 0, got {self.seed}", "seed")


def _sample_sbm_edges(spec: SBMSpec, rng: np.random.Generator) -> np.ndarray:
    """(m, 2) int64 edges of one draw, block pair after block pair, each in
    the row-major order of its 0/1 draw."""
    sizes = spec.block_sizes
    starts = np.cumsum((0,) + sizes)
    edges = []
    for i, j in combinations_with_replacement(range(len(sizes)), 2):   # i <= j, row-major
        p = spec.p_in if i == j else spec.p_out
        draw = rng.random((sizes[i], sizes[j])) < p
        if i == j:
            draw = np.triu(draw, k=1)
        edges.append(np.argwhere(draw) + starts[[i, j]])
    return np.concatenate(edges)


def stratified_splits(labels: np.ndarray, ratios, rng: np.random.Generator) -> SplitMasks:
    """Per-class shuffled split at the given train:val:test ratios."""
    ratios = np.asarray(ratios, dtype=np.float64)
    fracs = ratios / ratios.sum()
    train, val, test = [], [], []
    ids = np.sort(labels)
    for c in ids[np.diff(ids, prepend=ids[:1] - 1) != 0]:    # the classes, ascending
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
        with warnings.catch_warnings():
            # isolated draws, an empty one included, are expected here; rejection handles them
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(_sample_sbm_edges(spec, rng), n=n)
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
    # sorted ids are dense from 0 when they start at 0 and never step by more
    # than 1; np.unique would import numpy.ma (1.3 MB) into every run
    ids = np.sort(labels)
    if ids[0] != 0 or np.any(np.diff(ids) > 1):
        raise BadClassIds("class ids must be dense integers starting at 0")

    g = read_edge_list(edges_path, n=n)
    return Dataset(name=name, graph=g, features=features, labels=labels,
                   splits=read_splits(splits_path))


# Names the parser and numpy's version, so a copy written by another parser
# or numpy is never taken for this one's result.
FEATURES_FORMAT = f"graphscat features np.loadtxt(delimiter=',', ndmin=2) numpy {np.__version__}"
HASH_BLOCK = 1 << 20


def read_features(path) -> np.ndarray:
    """Node-feature matrix from comma-separated rows of equal length, all finite.

    The file is opened here, so path names a local file and nothing else
    (np.loadtxt would also read a compressed sibling or fetch a URL).

    The result is also kept in a hidden sibling, `.<name>.npy` beside the
    file: two arrays written one after the other with np.save, the key (the
    SHA-256 of FEATURES_FORMAT and the file's bytes) and the matrix. A later
    call returns that copy when the file's digest matches it and the array
    passes the same checks as a parse, so the result is bit for bit the
    parse's. The copy is written, through a temporary file and os.replace,
    only after a parse has passed its checks, and its key is the digest of
    the very bytes that parse read. A copy that cannot be read or written
    (read-only directory, truncated or foreign file, stale key) only costs a
    parse; results and errors are those of the parse.
    """
    import hashlib   # here, so that `import graphscat` does not load libcrypto

    copy = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.npy")
    if os.path.exists(copy):
        digest = hashlib.sha256(FEATURES_FORMAT.encode())
        with open(path, "rb") as fh:    # a missing file is an error naming path
            while block := fh.read(HASH_BLOCK):
                digest.update(block)
        features = _read_copy(copy, digest.digest())
        if features is not None:
            return features
    digest = hashlib.sha256(FEATURES_FORMAT.encode())
    features = _parse_features(path, digest)
    _write_copy(copy, path, digest.digest(), features)
    return features


def _parse_features(path, digest) -> np.ndarray:
    """The checked parse of path, feeding every byte it reads to digest."""
    try:
        with open(path, "rb") as raw, \
                io.TextIOWrapper(_HashedReads(raw, digest), encoding="utf-8") as fh:
            fh.mode = "r"       # as open() sets it; numpy's empty-file warning shows it
            features = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise RowCountMismatch(f"{path}: {exc}") from None
    if not _valid_features(features):
        raise RowCountMismatch(f"{path} must hold rectangular finite rows")
    return features


def _valid_features(features) -> bool:
    return (isinstance(features, np.ndarray) and features.dtype == np.float64
            and features.ndim == 2 and features.size > 0
            and bool(np.all(np.isfinite(features))))


class _HashedReads(io.BufferedIOBase):
    """Binary reader that feeds every byte it hands out to a hash.

    It passes on the chunks and the name of the buffered file it wraps
    unchanged, so a text layer over it decodes, and reports decode errors and
    warnings, exactly as one that open() builds over the file itself.
    """

    def __init__(self, fh, digest):
        self._fh, self._digest = fh, digest

    @property
    def name(self):
        return self._fh.name

    def readable(self):
        return True

    def read(self, size=-1):
        data = self._fh.read(size)
        self._digest.update(data)
        return data

    def read1(self, size=-1):
        data = self._fh.read1(size)
        self._digest.update(data)
        return data


def _read_copy(path, key: bytes):
    """The feature matrix stored in path under key, or None if it holds anything else."""
    try:
        with open(path, "rb") as fh:
            if np.load(fh, allow_pickle=False).tobytes() != key:
                return None
            features = np.load(fh, allow_pickle=False)
    except Exception:   # numpy's reader fails a truncated or foreign file in
        return None     # many ways; each only costs a parse
    return features if _valid_features(features) else None


def _write_copy(path, source, key: bytes, features: np.ndarray) -> None:
    """Store features under key in path, readable by whoever may read source;
    write nothing if the directory refuses it."""
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=os.path.dirname(path) or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, np.frombuffer(key, dtype=np.uint8))
            np.save(fh, features)
        shutil.copymode(source, tmp)    # mkstemp's file is private to its owner
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


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
