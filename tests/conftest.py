"""Shared oracle helpers: dense operator constructions independent of the
package's CSR/matvec path, built straight from edge lists; the per-filter
composition of the attention layer and the tape ops only tests compose
(Hadamard product, constant scaling, filter-axis stack, slice and softmax);
the per-edge, per-node, per-trial and per-value loops that the array-built
graph, the CSR array expressions, the batched random-GCN trials and the row
writer replace; and the always-weighted kernel, the per-parameter optimizers
and the per-mask loss and accuracy that the unit-weight skip, the flat
optimizers and the one-pass epoch metrics replace."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from graphscat import autodiff as autodiff_module
from graphscat import graph as graph_module
from graphscat import spectral as spectral_module
from graphscat.errors import DuplicateEdge, IsolatedNodeWarning, NonSymmetricInput, SelfLoopError
from graphscat.graph import RENORM_ADJACENCY, Graph, apply_operator, build_graph
from graphscat.layers import ATTENTION_LEAKY_SLOPE, AttentionState, HeadAttention, layer_filters


def dense_w(n, edges):
    W = np.zeros((n, n))
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) == 3 else 1.0
        W[u, v] = W[v, u] = w
    return W


def dense_ops(n, edges):
    """Dense realizations of every operator, from scratch."""
    W = dense_w(n, edges)
    d = W.sum(axis=1)
    D_inv = np.diag(1.0 / d)
    P = 0.5 * (np.eye(n) + W @ D_inv)
    dt = d + 1.0
    s = 1.0 / np.sqrt(dt)
    A = (s[:, None] * (np.eye(n) + W)) * s[None, :]
    R = W @ D_inv
    sroot = 1.0 / np.sqrt(d)
    sym = np.eye(n) + (sroot[:, None] * W) * sroot[None, :]
    lap = np.eye(n) - (sroot[:, None] * W) * sroot[None, :]
    return {"W": W, "d": d, "P": P, "A": A, "R": R, "sym": sym, "L": lap,
            "res": lambda a: (np.eye(n) + a * W @ D_inv) / (a + 1.0)}


def dense_wavelet(P, k):
    if k == 0:
        return np.eye(P.shape[0]) - P
    return (np.linalg.matrix_power(P, 2 ** (k - 1))
            - np.linalg.matrix_power(P, 2 ** k))


def random_connected_edges(rng, n, extra=None):
    """Random spanning tree plus extra random edges; never isolated."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[rng.integers(0, i)])
        v = int(order[i])
        edges.add((min(u, v), max(u, v)))
    if extra is None:
        extra = n // 2
    tries = 0
    while len(edges) < n - 1 + extra and tries < 50 * (extra + 1):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        tries += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_connected_graph(rng, n, extra=None, weighted=False):
    edges = random_connected_edges(rng, n, extra)
    if weighted:
        edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in edges]
    return edges, build_graph(edges, n=n)


@st.composite
def weighted_graphs(draw, max_n=12):
    """Graphs on 1..max_n nodes, isolated nodes allowed, with any positive finite weights
    whose sum at a node stays finite (each at most float max / max_n)."""
    n = draw(st.integers(1, max_n))
    pairs = sorted(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))), max_size=3 * n)))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=np.finfo(float).max / max_n,
                                      exclude_min=True),
                            min_size=len(pairs), max_size=len(pairs)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolatedNodeWarning)
        return build_graph([(u, v, w) for (u, v), w in zip(pairs, weights)], n=n)


@st.composite
def hop_graphs(draw, max_n=30, weighted=False):
    """(n, edges) on 1..max_n nodes, often split into components or with isolated
    nodes; above 20 nodes, sometimes a hub joined to at least 20 others. Unit
    weights (pairs), or with weighted, sometimes positive weights ((u, v, w))."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))), max_size=2 * n))
    if n > 20 and draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        others = draw(st.permutations([v for v in range(n) if v != hub]))
        pairs |= {(min(hub, v), max(hub, v)) for v in others[:draw(st.integers(20, n - 1))]}
    edges = sorted(pairs)
    if weighted and draw(st.booleans()):
        weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(edges), max_size=len(edges)))
        edges = [(u, v, w) for (u, v), w in zip(edges, weights)]
    return n, edges


def count_kernel_calls(monkeypatch):
    """List that gets each graph.adjacency_matvec call's column count from now on.

    Its length is the number of kernel calls; a vector input counts as one
    column.
    """
    calls = []
    orig = graph_module.adjacency_matvec

    def counted(g, X):
        calls.append(1 if np.ndim(X) == 1 else np.shape(X)[1])
        return orig(g, X)

    monkeypatch.setattr(graph_module, "adjacency_matvec", counted)
    return calls


def count_hop_builds(monkeypatch):
    """List that gets each Graph whose hop table is built from now on."""
    built = []
    build = Graph.hops.func

    def counted(g):
        built.append(g)
        return build(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(Graph, "hops")
    monkeypatch.setattr(Graph, "hops", prop)
    return built


def record_matmul_operands(monkeypatch):
    """List that gets each autodiff.matmul call's left operand array from now on."""
    lefts = []
    orig = autodiff_module.matmul

    def recorded(a, b):
        lefts.append(a.value if isinstance(a, autodiff_module.Tensor) else a)
        return orig(a, b)

    monkeypatch.setattr(autodiff_module, "matmul", recorded)
    return lefts


def mul(a, b):
    """Elementwise (Hadamard) product with numpy broadcasting, on the tape."""
    ad = autodiff_module
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    av, bv = a.value, b.value
    return ad.Tensor(av * bv, (a, b), lambda g: (ad._unbroadcast(g * bv, a.shape),
                                                 ad._unbroadcast(g * av, b.shape)))


def scale(a, c):
    """a times the constant c, on the tape."""
    a = autodiff_module._as_tensor(a)
    return autodiff_module.Tensor(a.value * c, (a,), lambda g: (g * c,))


def stack_filters(tensors):
    """Stack equal-shape tensors along a new leading (filter) axis."""
    tensors = [autodiff_module._as_tensor(t) for t in tensors]
    out = np.stack([t.value for t in tensors], axis=0)
    return autodiff_module.Tensor(out, tensors,
                                  lambda g: tuple(g[i] for i in range(len(tensors))))


def take_filter(a, i):
    """Slice i along the leading axis."""
    shape = a.value.shape

    def vjp(g):
        full = np.zeros(shape)
        full[i] = g
        return (full,)

    return autodiff_module.Tensor(a.value[i], (a,), vjp)


def softmax_filters(a):
    """Softmax along axis 0 of a (filters, nodes[, width]) score stack."""
    z = a.value - np.max(a.value, axis=0, keepdims=True)
    e = np.exp(z)
    s = e / np.sum(e, axis=0, keepdims=True)
    return autodiff_module.Tensor(
        s, (a,), lambda g: (s * (g - np.sum(g * s, axis=0, keepdims=True)),))


def per_filter_attention(g, specs, params, X, responses=None):
    """The attention layer composed head by head and filter by filter.

    params is the layer's (theta, a) pair; head h takes its Theta_h and a_h
    as column slices of them. Each head multiplies X by its own Theta, runs
    its own filters (or multiplies each precomputed F_c X by its Theta),
    scores every filter with its own matmul and LeakyReLU, and sums
    alpha_c R_c filter by filter; the heads are concatenated. Shares only
    layer_filters and the elementary tape ops with the stacked layer.
    Returns (output tensor, AttentionState).
    """
    ad = autodiff_module
    x = ad._as_tensor(X)
    n_low = sum(spec.kind == "low" for spec in specs)
    thetas, attention = (ad._as_tensor(p) for p in params)
    heads = attention.value.shape[1]
    width = thetas.value.shape[1] // heads
    outs, state = [], AttentionState()
    for h in range(heads):
        theta = ad.take_cols(thetas, h * width, (h + 1) * width)
        a = ad.take_cols(attention, h, h + 1)
        xbar = ad.matmul(x, theta)
        filters = (layer_filters(g, specs, xbar) if responses is None
                   else [ad.matmul(ad.constant(F), theta) for F in responses])
        resps = filters[:n_low] + [ad.abs_val(t) for t in filters[n_low:]]
        scores = [ad.leaky_relu(ad.matmul(ad.concat_cols([xbar, r]), a), ATTENTION_LEAKY_SLOPE)
                  for r in resps]
        alpha = softmax_filters(stack_filters(scores))
        acc = None
        for i, r in enumerate(resps):
            term = mul(take_filter(alpha, i), r)
            acc = term if acc is None else ad.add(acc, term)
        outs.append(scale(ad.relu(acc), 1.0 / len(resps)))
        state.heads.append(HeadAttention(
            alpha_low=alpha.value[:n_low, :, 0].copy(), alpha_band=alpha.value[n_low:, :, 0].copy()))
    return (outs[0] if len(outs) == 1 else ad.concat_cols(outs)), state


def count_eigendecompositions(monkeypatch):
    """List that gets each spectral.eigendecompose call's matrix size from now on."""
    calls = []
    orig = spectral_module.eigendecompose

    def counted(M):
        calls.append(np.shape(M)[0])
        return orig(M)

    monkeypatch.setattr(spectral_module, "eigendecompose", counted)
    return calls


def per_edge_build_graph(edges, n=None, where=None):
    """graph.build_graph as one Python step per edge, with the same checks
    in the same order, and the CSR filled two entries per edge.

    where, when given, labels each edge; an id >= n then names the label of
    the first edge holding one, and that edge's larger id, as
    graph.read_edge_list does."""
    seen = {}
    max_id = -1
    for e in edges:
        if len(e) == 2:
            u, v = e
            w = 1.0
        else:
            u, v, w = e
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if u < 0 or v < 0:
            raise ValueError(f"negative node id in edge ({u}, {v})")
        if not math.isfinite(w):
            raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
        if w <= 0:
            raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            if seen[key] != w:
                raise NonSymmetricInput(
                    f"edge {key} given with conflicting weights {seen[key]} and {w}")
            raise DuplicateEdge(f"duplicate undirected edge {key}")
        seen[key] = w
        max_id = max(max_id, u, v)

    if n is None:
        n = max_id + 1
    elif max_id >= n:
        if where is None:
            raise ValueError(f"node id {max_id} out of range for n={n}")
        for e, label in zip(edges, where):
            if max(int(e[0]), int(e[1])) >= n:
                raise ValueError(f"{label}: node id {max(int(e[0]), int(e[1]))} "
                                 f"out of range for n={n}")

    rows = np.empty(2 * len(seen), dtype=np.int64)
    cols = np.empty(2 * len(seen), dtype=np.int64)
    wts = np.empty(2 * len(seen), dtype=np.float64)
    for i, ((u, v), w) in enumerate(seen.items()):
        rows[2 * i], cols[2 * i], wts[2 * i] = u, v, w
        rows[2 * i + 1], cols[2 * i + 1], wts[2 * i + 1] = v, u, w

    order = np.lexsort((cols, rows))
    rows, cols, wts = rows[order], cols[order], wts[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    offsets = np.cumsum(offsets)
    degrees = np.zeros(n, dtype=np.float64)
    np.add.at(degrees, rows, wts)
    g = Graph(n=n, csr_offsets=offsets, csr_targets=cols, csr_weights=wts,
              degrees=degrees)
    if g.has_isolated_nodes:
        warnings.warn(IsolatedNodeWarning(f"{int(np.sum(degrees == 0))} isolated node(s)"))
    return g


def per_edge_read_edge_list(path, n=None):
    """graph.read_edge_list deduplicating through a dict, one line at a time."""
    seen, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'u v [weight]'")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            key = (min(u, v), max(u, v))
            if key in seen:
                if seen[key] != w:
                    raise NonSymmetricInput(
                        f"{path}:{lineno}: edge {key} has conflicting weights")
                continue
            seen[key] = w
            lines[key] = f"{path}:{lineno}"
    return per_edge_build_graph([(u, v, w) for (u, v), w in seen.items()], n=n,
                                where=list(lines.values()))


def per_edge_write_edge_list(g, path):
    """graph.write_edge_list as one f-string per edge, node by node."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.n):
            row = slice(g.csr_offsets[u], g.csr_offsets[u + 1])
            for v, w in zip(g.csr_targets[row], g.csr_weights[row]):
                if u < v:
                    fh.write(f"{u}\t{v}\t{w:.17g}\n")


def per_node_homophily(g, labels):
    """theory.homophily counting edges node by node."""
    same = total = 0
    for u in range(g.n):
        for w in g.neighbors(u):
            if u < w:
                total += 1
                same += bool(labels[u] == labels[w])
    if total == 0:
        raise ValueError("graph has no edges")
    return same / total


def per_node_avg_degree(g, K):
    """avg_degree(K) node by node: the mean degree over each closed (K-1)-hop ball."""
    out = np.zeros((g.n, 1))
    for v in range(g.n):
        ball = [u for u in range(g.n) if 0 <= g.hops[v, u] <= K - 1]
        out[v, 0] = float(np.mean(g.degrees[ball]))
    return out


def per_node_dense_adjacency(g):
    """spectral.dense_adjacency filled one row at a time."""
    W = np.zeros((g.n, g.n))
    for u in range(g.n):
        row = slice(g.csr_offsets[u], g.csr_offsets[u + 1])
        W[u, g.csr_targets[row]] = g.csr_weights[row]
    return W


def per_trial_gcn_deviation(g, v, pv, X, L, trials, seed, hidden=4):
    """theory._random_gcn_deviation running one trial and one layer per operator call."""
    rng = np.random.default_rng(seed)
    max_dev = float(np.max(np.abs(X[v] - X[pv])))
    for _ in range(trials):
        H = X
        for _ in range(L):
            theta = rng.standard_normal((H.shape[1], hidden))
            H = apply_operator(g, RENORM_ADJACENCY, H @ theta)
            H = np.maximum(H, 0.0)
            max_dev = max(max_dev, float(np.max(np.abs(H[v] - H[pv]))))
    return max_dev


def per_value_csv(header, columns, specs):
    """CSV text with every value formatted on its own, format(value, spec),
    as the commands wrote it before the one-%-per-row writer."""
    lines = [",".join(header) + "\n"] if header is not None else []
    for i in range(len(columns[0]) if columns else 0):
        lines.append(",".join(format(col[i], spec) for col, spec in zip(columns, specs)) + "\n")
    return "".join(lines)


def weighted_matvec(g, X):
    """graph.adjacency_matvec scaling every gathered entry by its weight, 1.0 or not."""
    Xt = np.ascontiguousarray(np.transpose(X), dtype=np.float64)
    if not g.row_starts.size:
        return np.zeros_like(Xt).T
    contrib = Xt.take(g.csr_targets, axis=-1)
    contrib *= g.csr_weights
    sums = np.add.reduceat(contrib, g.row_starts, axis=-1)
    if g.row_starts.size == g.n:
        return sums.T
    out = np.zeros_like(Xt)
    out[..., g.nonempty_rows] = sums
    return out.T


class PerParameterOptimizer:
    """train._Adam / train._SGD as a loop over parameters, each with its own
    moment arrays and a fresh value array per update."""

    def __init__(self, values, cfg, betas=(0.9, 0.999), eps=1e-8):
        self.values = [np.array(v, dtype=np.float64) for v in values]
        self.cfg, self.betas, self.eps = cfg, betas, eps
        self.m = [np.zeros_like(v) for v in self.values]
        self.v = [np.zeros_like(v) for v in self.values]
        self.t = 0

    def step(self, grads):
        b1, b2 = self.betas
        self.t += 1
        for i, grad in enumerate(grads):
            g = grad + self.cfg.weight_decay * self.values[i]
            if self.cfg.optimizer == "sgd":
                self.values[i] = self.values[i] - self.cfg.lr * g
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            self.values[i] = self.values[i] - self.cfg.lr * mhat / (np.sqrt(vhat) + self.eps)


def per_mask_cross_entropy(logits, labels, mask):
    """(loss, logits gradient, accuracy) of one mask from its own rows, the
    per-mask formulas the loss and fit's metrics used."""
    z = logits[mask]
    y = labels[mask]
    zmax = np.max(z, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(z - zmax), axis=1))
    loss = float(np.mean(lse - z[np.arange(z.shape[0]), y]))
    p = np.exp(z - zmax)
    p /= np.sum(p, axis=1, keepdims=True)
    p[np.arange(z.shape[0]), y] -= 1.0
    grad = np.zeros_like(logits)
    grad[mask] = p * (1.0 / z.shape[0])
    return loss, grad, float(np.mean(np.argmax(z, axis=1) == y))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
