"""Immutable CSR graphs and the diffusion operators built on them.

The central object is the lazy random walk P = (I + W D^-1) / 2, applied
column-wise to feature matrices without ever materializing an n x n power.
All arithmetic is float64; neighbor lists are sorted so runs are
bit-reproducible. Hop distances, which only the theory checks ask for, come
from one n x n table that a Graph builds on first use (Graph.hops).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    IsolatedNodeError,
    IsolatedNodeWarning,
    NonSymmetricInput,
    SelfLoopError,
)


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph in CSR form with cached weighted degrees.

    Invariants: every edge is stored in both directions with the same
    positive weight, no self-loops, and degrees[v] equals the row sum of W.
    Arrays are frozen (non-writeable), so instances are safely shareable.
    The kernel's row segmentation and unit-weight flag, the isolated-node
    flag and the operator divisors are derived once at construction; the
    hop table is derived on first use, since training never reads it.
    """

    n: int
    csr_offsets: np.ndarray   # int64, shape (n+1,)
    csr_targets: np.ndarray   # int64, shape (nnz,) sorted within each row
    csr_weights: np.ndarray   # float64, shape (nnz,)
    degrees: np.ndarray       # float64, shape (n,)
    has_isolated_nodes: bool = field(init=False, compare=False)
    unit_weights: bool = field(init=False, repr=False, compare=False)
    nonempty_rows: np.ndarray = field(init=False, repr=False, compare=False)
    row_starts: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_degrees: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_degrees_plus_one: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nonempty = np.flatnonzero(np.diff(self.csr_offsets) > 0)
        derived = {"has_isolated_nodes": bool(np.any(self.degrees == 0.0)),
                   # x * 1.0 == x bit for bit, so the kernel skips unit weights
                   "unit_weights": bool(np.all(self.csr_weights == 1.0)),
                   "nonempty_rows": nonempty,
                   # reduceat segments are contiguous because empty rows hold no entries
                   "row_starts": self.csr_offsets[nonempty],
                   "sqrt_degrees": np.sqrt(self.degrees),
                   "sqrt_degrees_plus_one": np.sqrt(self.degrees + 1.0)}
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in CSR)."""
        return self.csr_targets.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.csr_targets[self.csr_offsets[v]:self.csr_offsets[v + 1]]

    def entry_rows(self) -> np.ndarray:
        """Source node of every CSR entry, aligned with csr_targets."""
        return np.repeat(np.arange(self.n), np.diff(self.csr_offsets))

    @cached_property
    def hops(self) -> np.ndarray:
        """Read-only (n, n) int64 hop distances, -1 between components, built on first use.

        One breadth-first search from all sources at once expands each level's
        (source, node) pairs through their CSR rows: O(n (n + nnz)) array work.
        """
        n = self.n
        row_len = np.diff(self.csr_offsets)
        table = np.full(n * n, -1, dtype=np.int64)
        frontier, level = np.arange(n) * (n + 1), 0     # flat (v, v) pairs
        while frontier.size:
            table[frontier] = level
            level += 1
            sources, nodes = np.divmod(frontier, n)
            deg = row_len[nodes]
            ends = np.cumsum(deg)
            entries = np.arange(ends[-1]) + np.repeat(self.csr_offsets[nodes] + deg - ends, deg)
            reached = np.repeat(sources * n, deg) + self.csr_targets[entries]
            # repeats dropped after a sort: np.unique would import numpy.ma (1.2 MB)
            reached = np.sort(reached[table[reached] < 0])
            frontier = reached[np.diff(reached, prepend=-1) != 0]
        table = table.reshape(n, n)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class OperatorKind:
    """Tag selecting one of the diffusion operators; alpha only for residual_diffusion."""

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag == "residual_diffusion":
            if self.alpha is None or self.alpha < 0:
                raise ValueError("residual_diffusion requires alpha >= 0")
        elif self.alpha is not None:
            raise ValueError(f"{self.tag} takes no alpha parameter")

    @property
    def needs_inverse_degree(self) -> bool:
        # renorm_adjacency uses degrees + 1, which never vanishes
        return self.tag in ("lazy_walk", "residual_diffusion", "sym_norm_adjacency")


LAZY_WALK = OperatorKind("lazy_walk")
RENORM_ADJACENCY = OperatorKind("renorm_adjacency")
SYM_NORM_ADJACENCY = OperatorKind("sym_norm_adjacency")


def residual_diffusion(alpha: float) -> OperatorKind:
    """Adaptive low-pass operator (I + alpha W D^-1) / (alpha + 1); alpha=0 is the identity."""
    return OperatorKind("residual_diffusion", float(alpha))


def build_graph(edges, n: int | None = None) -> Graph:
    """Build a Graph from (u, v) pairs or (u, v, weight) triples, or an (m, 2|3) array.

    Rejects self-loops, negative ids, non-finite or non-positive weights,
    duplicate undirected edges and conflicting weights for the same pair,
    naming the first offending edge in input order, and finite weights
    whose sum at a node overflows, naming the node. Emits
    IsolatedNodeWarning when some degree is zero.
    """
    E = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if E.size == 0:
        E = E.reshape(0, 2)
    if E.ndim != 2 or E.shape[1] not in (2, 3):
        raise ValueError("edges must be (u, v) pairs or (u, v, weight) triples")
    u, v = E[:, 0].astype(np.int64), E[:, 1].astype(np.int64)
    w = E[:, 2].astype(np.float64) if E.shape[1] == 3 else np.ones(E.shape[0])
    _check_edges(u, v, w, _first_occurrences(np.minimum(u, v), np.maximum(u, v)))
    max_id = int(max(u.max(), v.max())) if u.size else -1
    if n is None:
        n = max_id + 1
    elif max_id >= n:
        raise ValueError(f"node id {max_id} out of range for n={n}")
    return _csr_graph(u, v, w, n)


def _first_occurrences(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Index of the first edge, in input order, with each edge's key (lo, hi), lo <= hi.

    When the ids are non-negative and lo * (max_id + 1) + hi fits in int64,
    one stable argsort of that key replaces the two-key lexsort; both give
    the same order. On the 4360-edge sbm-gsan benchmark file this function
    takes 69 us that way against 479 us on a 2-core x86 box with numpy
    2.4.6 (376 against 605 us on a shuffled copy); on about 100 edges it
    is 3 us slower.
    """
    span = int(hi.max()) + 1 if hi.size else 0
    if hi.size and lo.min() >= 0 and span * span <= 2 ** 63:
        keys = (lo * span + hi,)
        order = np.argsort(keys[0], kind="stable")   # stable: equal keys keep input order
    else:
        keys = (lo, hi)
        order = np.lexsort((hi, lo))
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        key = key[order]
        starts[1:] |= key[1:] != key[:-1]
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _raise_edge_error(u: int, v: int, w: float, w_first: float):
    """The error of the first rejected edge; w_first is its key's first weight."""
    if u == v:
        raise SelfLoopError(f"self-loop at node {u}")
    if u < 0 or v < 0:
        raise ValueError(f"negative node id in edge ({u}, {v})")
    if not np.isfinite(w):
        raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
    if w <= 0:
        raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
    key = (min(u, v), max(u, v))
    if w_first != w:
        raise NonSymmetricInput(
            f"edge {key} given with conflicting weights {w_first} and {w}")
    raise DuplicateEdge(f"duplicate undirected edge {key}")


def _check_edges(u: np.ndarray, v: np.ndarray, w: np.ndarray, first: np.ndarray):
    """Raise the error of the first rejected edge in input order.

    first[i] is the index of the first edge with edge i's undirected key;
    an edge with an earlier first occurrence is a duplicate.
    """
    bad = ((u == v) | (u < 0) | (v < 0) | ~(np.isfinite(w) & (w > 0))
           | (first != np.arange(u.size)))
    if bad.any():
        i = int(np.argmax(bad))
        _raise_edge_error(int(u[i]), int(v[i]), float(w[i]), float(w[first[i]]))


def _csr_graph(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> Graph:
    """The CSR Graph of checked, distinct int64 edges with ids in 0..n-1."""
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(rows * n + cols)     # the keys are distinct
    rows, cols, wts = rows[order], cols[order], np.concatenate((w, w))[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    # bincount adds each row's weights in CSR order, one after another
    degrees = np.bincount(rows, weights=wts, minlength=n).astype(np.float64, copy=False)
    overflow = ~np.isfinite(degrees)
    if overflow.any():
        raise ValueError(f"node {int(np.argmax(overflow))} has non-finite degree: "
                         "its edge weights sum past the float range")

    for a in (offsets, cols, wts, degrees):
        a.flags.writeable = False
    g = Graph(n=n, csr_offsets=offsets, csr_targets=cols, csr_weights=wts,
              degrees=degrees)
    if g.has_isolated_nodes:
        warnings.warn(IsolatedNodeWarning(f"{int(np.sum(degrees == 0))} isolated node(s)"))
    return g


def _check_features(g: Graph, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise DimensionMismatch(f"feature rows {X.shape[0]} != node count {g.n}")
    return X


def adjacency_matvec(g: Graph, X: np.ndarray) -> np.ndarray:
    """W @ X for (n,) or (n, d) inputs, O(nnz * d) time and memory.

    The kernel works on a contiguous (d, n) copy of X. It gathers each CSR
    entry's target along the last axis, scales by the edge weights (unless
    all are 1.0, when the product would change no bit) and sums each row's
    segment with one reduceat along that axis. Every column is summed on
    its own, in CSR order, so the bits are those of the row-major
    (n, d) form, which was 2-3x slower at widths 16, 32 and 64 than at their
    neighbours. On the 2100-node wide-scgcn graph this layout takes
    0.82-0.88x the row-major time at widths 6-10 and 0.37x at 32 and 64. A
    2-D result is the transpose of the (d, n) sums, so it is F-ordered.

    scipy.sparse is 5-25x faster per call, but its 0.25-0.36 s import is as
    long as the whole ~0.3 s setup_s of the sbm-gsan and theory-cli
    benchmark workloads, so the kernel stays numpy-only.
    """
    Xt = np.ascontiguousarray(np.transpose(X), dtype=np.float64)
    if not g.row_starts.size:
        return np.zeros_like(Xt).T
    contrib = Xt.take(g.csr_targets, axis=-1)
    if not g.unit_weights:
        contrib *= g.csr_weights
    sums = np.add.reduceat(contrib, g.row_starts, axis=-1)
    if g.row_starts.size == g.n:
        return sums.T
    out = np.zeros_like(Xt)
    out[..., g.nonempty_rows] = sums
    return out.T


def _require_no_isolated(g: Graph, kind: OperatorKind):
    if kind.needs_inverse_degree and g.has_isolated_nodes:
        raise IsolatedNodeError(
            f"operator {kind.tag} undefined on degree-zero nodes")


def _column(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-node vector v shaped to divide X row-wise."""
    return v if X.ndim == 1 else v[:, None]


def apply_operator(g: Graph, kind: OperatorKind, X: np.ndarray) -> np.ndarray:
    """Apply one diffusion operator column-wise; the input is left unchanged.

    lazy_walk          P          = (I + W D^-1) / 2
    renorm_adjacency   A          = (D+I)^-1/2 (W+I) (D+I)^-1/2
    residual_diffusion A_res(a)   = (I + a W D^-1) / (a + 1)
    sym_norm_adjacency             I + D^-1/2 W D^-1/2
    """
    X = _check_features(g, X)
    _require_no_isolated(g, kind)
    d = _column(g.degrees, X)
    if kind.tag == "lazy_walk":
        return 0.5 * X + 0.5 * adjacency_matvec(g, X / d)
    if kind.tag == "residual_diffusion":
        a = kind.alpha
        if a == 0.0:
            return X.copy()
        return (X + a * adjacency_matvec(g, X / d)) / (a + 1.0)
    if kind.tag == "renorm_adjacency":
        s = _column(g.sqrt_degrees_plus_one, X)
        Y = X / s
        return (Y + adjacency_matvec(g, Y)) / s
    if kind.tag == "sym_norm_adjacency":
        s = _column(g.sqrt_degrees, X)
        return X + adjacency_matvec(g, X / s) / s
    raise ValueError(f"unknown operator kind {kind.tag!r}")


def apply_operator_transpose(g: Graph, kind: OperatorKind, X: np.ndarray) -> np.ndarray:
    """Apply the transpose of an operator (used by reverse-mode gradients).

    W is symmetric, so transposition swaps the side on which D^-1 acts;
    the two symmetric operators are their own transposes.
    """
    X = _check_features(g, X)
    _require_no_isolated(g, kind)
    d = _column(g.degrees, X)
    if kind.tag == "lazy_walk":
        return 0.5 * X + 0.5 * adjacency_matvec(g, X) / d
    if kind.tag == "residual_diffusion":
        a = kind.alpha
        if a == 0.0:
            return X.copy()
        return (X + a * adjacency_matvec(g, X) / d) / (a + 1.0)
    # renorm_adjacency and sym_norm_adjacency are symmetric
    return apply_operator(g, kind, X)


# record layouts numpy's C reader fills, by field count of the data lines
_EDGE_RECORDS = {2: np.dtype([("u", np.int64), ("v", np.int64)]),
                 3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])}


def read_edge_list(path, n: int | None = None) -> Graph:
    """Read the one-edge-per-line text format: "u<TAB>v[<TAB>weight]", '#' comments.

    Node ids are dense 0-based integers. Exact duplicates and mirrored pairs
    are deduplicated, keeping the first, with one sort of the edges (see
    _first_occurrences); conflicting weights raise NonSymmetricInput. Errors
    name the offending line as path:lineno, an id >= n included.

    An ASCII file whose data lines all have two fields, or all three, is
    parsed by one np.loadtxt call, numpy's C reader, at about 0.1 us a line
    on a 2-core x86 box. On ASCII tokens it reads what it accepts as int()
    and float() do, and it refuses every token they reject and some they
    accept (underscores, as in "1_0"). Every other file, and every file
    whose error must name a line (a weight clash, an id >= n), goes through
    the per-line parser, at about 0.8 us a line, which stays the reference:
    both give the same graph or the same exception.
    """
    table = _load_uniform(path)
    g = None if table is None else _graph_from_lines(path, n, *table)
    return g if g is not None else _graph_from_lines(path, n, *_parse_lines(path))


def _load_uniform(path):
    """(u, v, w) from np.loadtxt, or None when the C reader cannot take the file.

    Only ASCII files qualify: numpy 2.4's integer parser reads some
    non-ASCII letters as digits ("1" then U+01FE gives 472), and a U+10FFFF
    in an id made it segfault. The lines are those of text-mode iteration, so they match the
    per-line parser's. The field count of the first data line picks the
    record layout; a later line with another count, like any token the
    reader refuses, makes np.loadtxt raise. A file without data lines is
    left to the per-line parser, since np.loadtxt warns on it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except ValueError:          # UnicodeDecodeError: the per-line parser raises it
        return None
    if not text.isascii():
        return None
    lines = text.split("\n")
    fields = 0
    for line in lines:
        fields = len(line.split("#", 1)[0].split())
        if fields:
            break
    if fields not in _EDGE_RECORDS:
        return None
    try:
        table = np.loadtxt(lines, dtype=_EDGE_RECORDS[fields], comments="#", ndmin=1)
    except ValueError:
        return None
    w = table["w"] if fields == 3 else np.ones(table.size)
    return table["u"], table["v"], w


def _parse_lines(path):
    """(u, v, w, linenos, error), parsed one line at a time.

    Parsing stops at the first malformed line; error is then its
    path:lineno ValueError, else None.
    """
    us, vs, ws, linenos = [], [], [], []
    error = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                if len(parts) not in (2, 3):
                    raise ValueError("expected 'u v [weight]'")
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                error = ValueError(f"{path}:{lineno}: {exc}")
                break
            us.append(u)
            vs.append(v)
            ws.append(w)
            linenos.append(lineno)
    return (np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64), linenos, error)


def _graph_from_lines(path, n, u, v, w, linenos=None, error=None):
    """The graph of parsed edge lines, checked in a fixed order.

    A weight clash comes first (it may sit on a line before the malformed
    one), then the malformed line, then the first bad kept edge, then the
    first line with an id >= n. Returns None when an error must name its
    line and linenos is None.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first = _first_occurrences(lo, hi)
    keep = first == np.arange(w.size)
    # a repeat whose weight compares unequal to the first one's (NaN included)
    clash = ~keep & (w != w[first])
    if clash.any():
        if linenos is None:
            return None
        i = int(np.argmax(clash))
        raise NonSymmetricInput(f"{path}:{linenos[i]}: edge {(int(lo[i]), int(hi[i]))} "
                                "has conflicting weights")
    if error is not None:
        raise error
    kept = np.flatnonzero(keep)
    lo, hi, w = lo[kept], hi[kept], w[kept]
    _check_edges(lo, hi, w, np.arange(kept.size))   # kept keys are distinct
    if n is None:
        n = int(hi.max()) + 1 if hi.size else 0
    out = hi >= n
    if out.any():
        if linenos is None:
            return None
        i = int(np.argmax(out))
        raise ValueError(f"{path}:{linenos[kept[i]]}: node id {int(hi[i])} "
                         f"out of range for n={n}")
    return _csr_graph(lo, hi, w, n)


def write_edge_list(g: Graph, path):
    """Write the graph in the read_edge_list format, one undirected edge per line.

    Edges come in CSR order, each once as its u < v entry.
    """
    rows = g.entry_rows()
    upper = rows < g.csr_targets
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, "%d\t%d\t%.17g", np.column_stack(
            [rows[upper], g.csr_targets[upper], g.csr_weights[upper]]))


def write_rows(fh, fmt: str, table: np.ndarray):
    """Write each row of a 2-D table as one line, with a single % operation.

    fmt is the %-format of a whole row, without the newline.
    """
    fmt += "\n"
    fh.writelines(fmt % tuple(row) for row in table.tolist())
