"""Immutable CSR graphs and the diffusion operators built on them.

The central object is the lazy random walk P = (I + W D^-1) / 2, applied
column-wise to feature matrices without ever materializing an n x n power.
Every operator runs on one sparse kernel, adjacency_matvec, which follows
the jagged-diagonal SlotPlan a Graph builds on first use. All
arithmetic is float64; neighbor lists are sorted and each row is summed in
CSR order, so runs are bit-reproducible. Hop distances and the dense weight
matrix, which only the theory checks and spectral tools ask for, are n x n
arrays that a Graph builds on first use (Graph.hops, Graph.dense_weights).
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


# Rows longer than this are summed as chunks of this many entries, then the
# chunk sums in order, so one kernel call makes at most
# ROW_CHUNK + ceil(max degree / ROW_CHUNK) slot adds.
ROW_CHUNK = 64

# write_rows formats about this many values per % operation
WRITE_BLOCK = 32768


@dataclass(frozen=True, eq=False)
class SlotPlan:
    """Jagged-diagonal layout of a CSR matrix, which adjacency_matvec runs.

    Segments (each row, or for a row longer than ROW_CHUNK each of its
    ROW_CHUNK-entry chunks) are sorted by descending length, stably. Slot j
    lists the j-th entry of every segment longer than j, so slot 0 starts
    one sum per segment and slot j adds into the first count_j of them. A
    second, smaller layout of the same kind adds each long row's chunk sums.
    """

    targets: np.ndarray               # CSR targets, slot after slot
    weights: np.ndarray | None        # their weights; None when all are 1.0
    slots: tuple                      # (sums, entries) slices of slots 1, 2, ... in targets
    chunk_take: np.ndarray | None     # segment sums of the long rows' chunks, slot after slot
    chunk_slots: tuple                # (sums, entries) slices of its slots 1, 2, ...
    chunk_rows: np.ndarray | None     # the segment that takes each long row's total
    rows: np.ndarray                  # (n,) segment holding each row's sum; -1 if it has none


def _slots(starts: np.ndarray, sizes: np.ndarray):
    """Jagged-diagonal order of the segments [start, start + size), sizes >= 1.

    Returns the stable descending-size order of the segments, the entries
    slot after slot and, for slots 1, 2, ..., the slices of the first count
    sums and of the slot's count entries among them.
    """
    order = np.argsort(-sizes, kind="stable")
    # counts[j]: the segments longer than j, which slot j holds
    counts = sizes.size - np.cumsum(np.bincount(sizes, minlength=1))[:-1]
    bounds = np.cumsum(counts) - counts
    slot = np.repeat(np.arange(counts.size), counts)
    entries = starts[order][np.arange(slot.size) - bounds[slot]] + slot
    return order, entries, tuple((slice(count), slice(start, start + count))
                                 for count, start in zip(counts[1:].tolist(), bounds[1:].tolist()))


def _slot_plan(offsets: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> SlotPlan:
    """The SlotPlan of a CSR matrix, O(nnz + n) array work.

    The chunk arithmetic runs only when some row is longer than ROW_CHUNK;
    otherwise each non-empty row is one segment, which is what it gives.
    """
    lengths = np.diff(offsets)
    filled = lengths > 0
    chunked = lengths.size > 0 and lengths.max() > ROW_CHUNK
    if chunked:
        chunks = -(-lengths // ROW_CHUNK)
        first = np.cumsum(chunks) - chunks              # each row's first chunk
        row = np.repeat(np.arange(lengths.size), chunks)
        skip = (np.arange(row.size) - first[row]) * ROW_CHUNK   # entries of the row before the chunk
        starts, sizes = offsets[row] + skip, np.minimum(lengths[row] - skip, ROW_CHUNK)
        heads = first[filled]
    else:
        row = np.flatnonzero(filled)
        starts, sizes = offsets[row], lengths[row]
        heads = slice(None)                             # the first chunk of a row is the row
    order, entries, slots = _slots(starts, sizes)
    segment = np.empty(order.size, dtype=np.intp)       # chunk -> segment holding its sum
    segment[order] = np.arange(order.size)
    rows = np.full(lengths.size, -1, dtype=np.intp)
    rows[filled] = segment[heads]
    chunk_take = chunk_rows = None
    chunk_slots = ()
    if chunked:
        long_rows = np.flatnonzero(chunks > 1)
        by_chunks, chunk_entries, chunk_slots = _slots(first[long_rows], chunks[long_rows])
        chunk_take = segment[chunk_entries]
        chunk_rows = segment[first[long_rows[by_chunks]]]
    plan = SlotPlan(targets=targets[entries],
                    # x * 1.0 == x bit for bit, so the kernel skips unit weights
                    weights=None if np.all(weights == 1.0) else weights[entries],
                    slots=slots, chunk_take=chunk_take, chunk_slots=chunk_slots,
                    chunk_rows=chunk_rows, rows=rows)
    for a in (plan.targets, plan.weights, plan.chunk_take, plan.chunk_rows, plan.rows):
        if a is not None:
            a.flags.writeable = False
    return plan


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph in CSR form with cached weighted degrees.

    Invariants: every edge is stored in both directions with the same
    positive weight, no self-loops, and degrees[v] equals the row sum of W.
    Arrays are frozen (non-writeable), so instances are safely shareable.
    The isolated-node flag and the operator divisors are derived once at
    construction; the kernel's slot plan, hop table and dense W on first
    use, as some graphs never reach the kernel and training needs neither.
    """

    n: int
    csr_offsets: np.ndarray   # int64, shape (n+1,)
    csr_targets: np.ndarray   # int64, shape (nnz,) sorted within each row
    csr_weights: np.ndarray   # float64, shape (nnz,)
    degrees: np.ndarray       # float64, shape (n,)
    has_isolated_nodes: bool = field(init=False)
    sqrt_degrees: np.ndarray = field(init=False, repr=False)
    sqrt_degrees_plus_one: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        derived = {"has_isolated_nodes": bool(np.any(self.degrees == 0.0)),
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
    def kernel_plan(self) -> SlotPlan:
        """The jagged-diagonal SlotPlan that adjacency_matvec runs, built on first use.

        A plan costs about 35 us on a 30-node graph and 85 us on a 400-node
        one; the spectra command's graph and 2 of verify-theory's 13 never
        reach the kernel.
        """
        return _slot_plan(self.csr_offsets, self.csr_targets, self.csr_weights)

    @cached_property
    def hops(self) -> np.ndarray:
        """Read-only (n, n) int64 hop distances, -1 between components, built on first use.

        One breadth-first search from all sources at once, level by level, as
        products of n x n float32 0/1 matrices: the frontier times the 0/1
        adjacency counts the walks into each node (exact while n < 2**24), and
        the pairs already reached are masked out. d(u, v) is the number of
        levels after which v is still unreached from u, so the table is a sum
        of the unreached masks. Level 1 is the adjacency itself, and a
        connected graph stops once every pair is reached. O(levels * n**3)
        flops through BLAS sgemm, and n x n float32 working memory: about 24
        n**2 bytes at the peak, the int64 table included. On the 2100-node
        wide-scgcn graph (7 levels) that is 0.45-0.68 s and a tracemalloc
        peak of 106 MB on a 2-core x86 box, against 1.2-1.9 s and 759 MB
        for expanding each level's (source, node) pairs through their CSR
        rows.
        """
        n = self.n
        adj = np.zeros((n, n), dtype=np.float32)
        adj[self.entry_rows(), self.csr_targets] = 1.0
        unreached = 1.0 - adj                       # after level 1
        np.fill_diagonal(unreached, 0.0)
        dist = unreached + 1.0                      # the masks after levels 0 and 1
        np.fill_diagonal(dist, 0.0)
        frontier = adj
        remaining = n * n - n - self.csr_targets.size
        while remaining:
            frontier = frontier @ adj
            np.minimum(frontier, unreached, out=frontier)   # the unreached ends, as 0/1
            reached = np.count_nonzero(frontier)
            if not reached:                         # the rest lie in other components
                break
            remaining -= reached
            unreached -= frontier
            dist += unreached
        table = dist.astype(np.int64)
        if remaining:
            table[unreached > 0] = -1
        table.flags.writeable = False
        return table

    @cached_property
    def dense_weights(self) -> np.ndarray:
        """Read-only (n, n) float64 W, built on first use. hops fills its own
        float32 0/1 operand, so a graph that needs only hops never holds W."""
        W = np.zeros((self.n, self.n))
        W[self.entry_rows(), self.csr_targets] = self.csr_weights
        W.flags.writeable = False
        return W


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


def int64_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values as int64, and where a value is not an integer that int64 holds:
    1.5, NaN, 2**63 or a boolean, and in a text or object array also None or
    'a' (read as 0) or '1'."""
    if values.dtype.kind not in "OSU":
        with np.errstate(invalid="ignore"):     # NaN, inf and |x| >= 2**63 fail the round trip
            ints = values.astype(np.int64)
        return ints, (ints != values) | (values.dtype == bool)
    # the cast raises on None, on text that is no integer and on ints beyond int64
    ints, bad = np.zeros(values.shape, dtype=np.int64), np.ones(values.shape, dtype=bool)
    for i, x in enumerate(values.flat):
        try:
            ints.flat[i] = x
        except (TypeError, ValueError, OverflowError):
            continue
        bad.flat[i] = ints.flat[i] != x or isinstance(x, (bool, np.bool_))
    return ints, bad


def build_graph(edges, n: int | None = None) -> Graph:
    """Build a Graph from (u, v) pairs or (u, v, weight) triples, or an (m, 2|3) array.

    First rejects an id that is not an integer int64 holds (1.5, NaN, None,
    'a', False), an integral float such as 2.0 passing, then a weight that is
    not a number float64 holds (None, 'x', 2**1024, True); then self-loops,
    negative ids, non-finite or non-positive weights, duplicate undirected
    edges and conflicting weights for the same pair. Each names the first
    offending edge in input order. Finite weights whose sum at a node
    overflows are rejected naming the node. Emits IsolatedNodeWarning when
    some degree is zero.
    """
    E = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if E.size == 0:
        E = E.reshape(0, 2)
    if E.ndim != 2 or E.shape[1] not in (2, 3):
        raise ValueError("edges must be (u, v) pairs or (u, v, weight) triples")
    ids, bad = int64_values(E[:, :2])
    bad = np.any(bad, axis=1)
    if bad.any():
        raise ValueError(f"edge {tuple(E[np.argmax(bad), :2].tolist())} has a node id "
                         "that is not an int64 integer")
    u, v = ids[:, 0], ids[:, 1]
    w = np.ones(E.shape[0])
    if E.shape[1] == 3 and E.dtype.kind not in "OSU":
        w = E[:, 2].astype(np.float64)
    elif E.shape[1] == 3:
        for i, x in enumerate(E[:, 2]):     # float64 reads None as NaN, parses text, takes bools
            if x is not None and not isinstance(x, (str, bytes, bool, np.bool_)):
                try:
                    w[i] = x
                    continue
                except (TypeError, ValueError, OverflowError):
                    pass
            raise ValueError(f"edge {tuple(ids[i].tolist())} has weight {x!r}, "
                             "which is not a float64 number")
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


def check_features(g: Graph, X: np.ndarray) -> np.ndarray:
    """X as a float64 array, refused with DimensionMismatch unless it has one row per node."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise DimensionMismatch(f"feature rows {X.shape[0]} != node count {g.n}")
    return X


def adjacency_matvec(g: Graph, X: np.ndarray) -> np.ndarray:
    """W @ X for (n,) or (n, d) inputs, O(nnz * d) time and memory.

    Runs the graph's jagged-diagonal SlotPlan: one gather of X's rows in
    slot order, one product with the edge weights (skipped when all are
    1.0, which changes no bit), one in-place vector add per slot into the
    first count_j sums, the same for the chunk sums of rows longer than
    ROW_CHUNK, and one take that puts the sums back in node order. So each
    row is summed strictly in CSR order (a long row as its chunk sums, in
    order) and each column on its own, and the result is C-ordered. At
    width 10 a call takes 0.22 ms on the 2100-node wide-scgcn graph and
    0.27 ms on a 5000-node star, against 0.70 and 0.52 ms for the former
    per-row reduceat over a (d, n) copy; at widths 1-2 the adds are mostly
    call overhead, so a graph with long rows is slower there (42 against
    18 us at width 1 on the 400-node block model).

    scipy.sparse is 5-25x faster per call, but importing it takes 0.15-0.2 s
    and adds about 20 MB of peak RSS (29.4 -> 49.5 MB after importing the
    package), against the ~0.2-0.3 s setup_s of the sbm-gsan and theory-cli
    benchmark workloads and the 10 % bound on wide-scgcn's ~83.5 MB, so the
    kernel stays numpy-only.
    """
    plan = g.kernel_plan
    sums = np.asarray(X, dtype=np.float64).take(plan.targets, axis=0)
    if plan.weights is not None:
        sums *= plan.weights if sums.ndim == 1 else plan.weights[:, None]
    _add_slots(sums, plan.slots)
    if plan.chunk_take is not None:
        totals = sums.take(plan.chunk_take, axis=0)
        _add_slots(totals, plan.chunk_slots)
        sums[plan.chunk_rows] = totals[:plan.chunk_rows.size]
    if g.has_isolated_nodes:            # their rows take the zero row put last
        sums = np.concatenate((sums, np.zeros((1,) + sums.shape[1:])))
    return sums.take(plan.rows, axis=0)


def _add_slots(sums: np.ndarray, slots: tuple):
    """Add each slot's entries into the first count of sums, slot after slot.

    The slices are built with the plan and out is passed by position, since
    at small widths an add is mostly call overhead: the 37 adds of the
    400-node block model took 28-53 us at widths 1-10 this way, against
    31-60 us slicing by count with out= by keyword.
    """
    for first, entries in slots:
        head = sums[first]
        np.add(head, sums[entries], head)


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

    The scalings and the identity term update the kernel's fresh output in
    place; each sum is the one the closed forms write, with its terms
    swapped, which changes no bit. Each formula is written once, in
    _operator, which apply_operator_transpose shares.
    """
    return _operator(g, kind, X, transpose=False)


def apply_operator_transpose(g: Graph, kind: OperatorKind, X: np.ndarray) -> np.ndarray:
    """Apply the transpose of an operator (used by reverse-mode gradients).

    W is symmetric, so the transpose of a walk operator divides by D after
    the kernel instead of before it: P^T = (I + D^-1 W) / 2 and
    A_res(a)^T = (I + a D^-1 W) / (a + 1). The two normalized adjacencies
    are their own transposes. Runs apply_operator's body, with the same
    in-place updates.
    """
    return _operator(g, kind, X, transpose=True)


def _operator(g: Graph, kind: OperatorKind, X: np.ndarray, transpose: bool) -> np.ndarray:
    """The body of apply_operator, or with transpose of apply_operator_transpose."""
    X = check_features(g, X)
    _require_no_isolated(g, kind)
    if kind.tag in ("lazy_walk", "residual_diffusion"):
        lazy = kind.tag == "lazy_walk"
        a = 0.5 if lazy else kind.alpha
        if a == 0.0:
            return X.copy()
        d = _column(g.degrees, X)
        out = adjacency_matvec(g, X if transpose else X / d)
        out *= a
        if transpose:
            out /= d
        if lazy:
            # P as two halves, not A_res(1): (X + W D^-1 X) / 2 overflows sooner
            out += 0.5 * X
        else:
            out += X
            out /= a + 1.0
        return out
    if kind.tag == "renorm_adjacency":
        s = _column(g.sqrt_degrees_plus_one, X)
        Y = X / s
        out = adjacency_matvec(g, Y)
        out += Y
        out /= s
        return out
    if kind.tag == "sym_norm_adjacency":
        s = _column(g.sqrt_degrees, X)
        out = adjacency_matvec(g, X / s)
        out /= s
        out += X
        return out
    raise ValueError(f"unknown operator kind {kind.tag!r}")


# record layouts numpy's C reader fills, by field count of the data lines
_EDGE_RECORDS = {2: np.dtype([("u", np.int64), ("v", np.int64)]),
                 3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])}


def read_edge_list(path, n: int | None = None) -> Graph:
    """Read the one-edge-per-line text format: "u<TAB>v[<TAB>weight]", '#' comments.

    Node ids are dense 0-based integers. Exact duplicates and mirrored pairs
    are deduplicated, keeping the first, with one sort of the edges (see
    _first_occurrences); conflicting weights raise NonSymmetricInput. Errors
    name the offending line as path:lineno, an id >= n included.

    The file is read once, as UTF-8, into the lines of text-mode iteration.
    If it is ASCII and its data lines all have two fields, or all three, one
    np.loadtxt call, numpy's C reader, parses them at about 0.1 us a line on
    a 2-core x86 box. On ASCII tokens it reads what it accepts as int() and
    float() do, and it refuses every token they reject and some they accept
    (underscores, as in "1_0"). Else the per-line parser takes them, at about
    0.8 us a line; it stays the reference: both give the same graph or the
    same exception.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    table = _load_uniform(lines) if text.isascii() else None
    return _graph_from_lines(path, lines, n, *(table or _parse_lines(path, lines)))


def _load_uniform(lines):
    """(u, v, w) from np.loadtxt, or None when the C reader cannot take the lines.

    Only the lines of an ASCII file qualify: numpy 2.4's integer parser reads
    some non-ASCII letters as digits ("1" then U+01FE gives 472), and a
    U+10FFFF in an id made it segfault. The field count of the first data
    line picks the record layout; a later line with another count, like any
    token the reader refuses, makes np.loadtxt raise. Lines without data are
    left to the per-line parser, since np.loadtxt warns on them.
    """
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


def _parse_lines(path, lines):
    """(u, v, w, linenos, error), parsed one line at a time.

    Parsing stops at the first malformed line; error is then its
    path:lineno ValueError, else None.
    """
    us, vs, ws, linenos = [], [], [], []
    error = None
    for lineno, raw in enumerate(lines, start=1):
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


def _graph_from_lines(path, lines, n, u, v, w, linenos=None, error=None):
    """The graph of parsed edge lines, checked in a fixed order.

    A weight clash comes first (it may sit on a line before the malformed
    one), then the malformed line, then the first bad kept edge, then the
    first line with an id >= n. An error that must name a line takes the
    linenos of the C reader's edges from _parse_lines of the same lines.
    """
    def where(i):
        return f"{path}:{(_parse_lines(path, lines)[3] if linenos is None else linenos)[i]}"

    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first = _first_occurrences(lo, hi)
    keep = first == np.arange(w.size)
    # a repeat whose weight compares unequal to the first one's (NaN included)
    clash = ~keep & (w != w[first])
    if clash.any():
        i = int(np.argmax(clash))
        raise NonSymmetricInput(f"{where(i)}: edge {(int(lo[i]), int(hi[i]))} "
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
        i = int(np.argmax(out))
        raise ValueError(f"{where(kept[i])}: node id {int(hi[i])} out of range for n={n}")
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
    """Write each row of a 2-D table as one line, a block of rows per % operation.

    fmt is the %-format of a whole row, without the newline. A block holds
    about WRITE_BLOCK values, so its string stays small on wide tables.
    """
    fmt += "\n"
    block = max(1, WRITE_BLOCK // max(1, table.shape[1]))
    for start in range(0, table.shape[0], block):
        rows = table[start:start + block]
        fh.write((fmt * rows.shape[0]) % tuple(rows.ravel().tolist()))
