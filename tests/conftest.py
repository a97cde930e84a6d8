"""Shared oracle helpers: dense operator constructions independent of the
package's CSR/matvec path, built straight from edge lists; the per-filter
composition of the attention layer and the tape ops only tests compose
(Hadamard product, constant scaling, filter-axis stack, slice and softmax);
the per-edge, per-node, per-trial and per-value loops that the array-built
graph, the CSR array expressions, the batched random-GCN trials and the row
writer replace; the per-node difference, coincidence and onion checks and
the Theorem 2 and 3 checks that ran them, each diffusing the features on
its own, which one shared list of diffusion stages replaces; the per-row
kernel, the former reduceat kernel and the closed-form operators that the
slot kernel and the in-place operators replace; the per-parameter
optimizers and the per-mask loss and accuracy that the flat optimizers and
the one-pass epoch metrics replace;
the backward that kept its graph and summed zero-filled arrays, which
the consuming, block-gathering backward replaces; the per-source
breadth-first search that the hop table's frontier products replace; the
per-node triangle loop that one enumeration of the triangles replaces and
the whole-graph shortest-path counter that Theorem 3's count along the
generalized path replaces; a triangle-rich graph sampler and a Theorem 3
family with k shortest paths; and the suite's theorem cases for tests that
pick one by name."""

import collections
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from graphscat import autodiff as autodiff_module
from graphscat import fixtures as fixtures_module
from graphscat import graph as graph_module
from graphscat import spectral as spectral_module
from graphscat import theory
from graphscat.datasets import SBMSpec, generate_sbm
from graphscat.errors import (DuplicateEdge, HypothesisViolated, IsolatedNodeWarning,
                              NonSymmetricInput, PartialMap, SelfLoopError)
from graphscat.graph import LAZY_WALK, RENORM_ADJACENCY, Graph, apply_operator, build_graph
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


def count_operator_calls(monkeypatch):
    """List that gets each graph.apply_operator call's operator tag from now on."""
    tags = []
    orig = graph_module._operator

    def counted(g, kind, X, transpose):
        if not transpose:
            tags.append(kind.tag)
        return orig(g, kind, X, transpose)

    monkeypatch.setattr(graph_module, "_operator", counted)
    return tags


def count_builds(monkeypatch, name):
    """List that gets each Graph whose cached property name (hops or
    dense_weights) is built from now on."""
    built = []
    build = getattr(Graph, name).func

    def counted(g):
        built.append(g)
        return build(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(Graph, name)
    monkeypatch.setattr(Graph, name, prop)
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
                   else [ad.matmul(ad.constant(F), theta) for F in responses[1:]])
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


# Block models for training-level checks: the criterion-7 shape (d_in 8, at
# most sc-gcn's 47 stacked Theta columns and gsan's 2 x 16, so both hybrid
# presets precompute their responses) and a small wide-feature one (d_in 64,
# above both, so both run per-epoch chains, sc-gcn's on take_cols blocks).
TRAINING_SBMS = {
    "criterion-7": SBMSpec(block_sizes=(200, 200), p_in=0.1, p_out=0.01, seed=0),
    "wide": SBMSpec(block_sizes=(60, 60), p_in=0.1, p_out=0.01, feature_dim=64, seed=0),
}


@functools.cache
def training_sbm(shape):
    return generate_sbm(TRAINING_SBMS[shape])


def assert_plan(model, plan):
    """Assert the filter plan, "precomputed" or "per-call", that a hybrid model
    fixed when it was built (or that a layers.FilterPlan holds); returns model.

    Every test that covers one plan states it here, so a rule change that
    moves the test off its plan fails instead of silently testing the other.
    """
    assert plan in ("precomputed", "per-call")
    got = "precomputed" if getattr(model, "plan", model).precomputed else "per-call"
    assert got == plan, f"the plan is {got}, not {plan}"
    return model


def reference_backward(root):
    """autodiff.backward as it was before it consumed the graph: every parent
    gradient is summed as acc + pgrad in arrival order, a (start, stop, g)
    column block first widened to a zero-filled full array, and no node is
    released, so the same graph can be walked again."""
    ad = autodiff_module
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, ad.Parameter):
            node.grad += g
        if node._vjp is None:
            continue
        for parent, pgrad in zip(node.parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            if isinstance(pgrad, tuple):
                start, stop, block = pgrad
                pgrad = np.zeros(parent.value.shape)
                pgrad[:, start:stop] = block
            acc = grads.get(id(parent))
            grads[id(parent)] = pgrad if acc is None else acc + pgrad


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


def not_utf8_edge_file():
    """Bytes of a 3002-line edge file: line 1 is "0<TAB>x", lines 2-3001 are
    good edges, and line 3002 holds the byte 0xff, past the first 8 KB."""
    return b"0\tx\n" + b"".join(b"%d\t%d\n" % (i, i + 1) for i in range(3000)) + b"\xff\n"


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


def per_node_triangle_count(g, K):
    """triangle_count(K) node by node: the closed 3-walks of the 0/1 adjacency
    induced on each closed K-hop ball, divided by 6."""
    out = np.zeros((g.n, 1))
    adj = (g.hops == 1).astype(np.int64)
    for v in range(g.n):
        ball = np.flatnonzero((g.hops[v] >= 0) & (g.hops[v] <= K))
        A = adj[np.ix_(ball, ball)]
        out[v, 0] = float(np.sum((A @ A) * A) // 6)
    return out


def count_shortest_paths(g, a, b):
    """Number of distinct shortest a-b paths over the whole graph: a node at
    distance k from a is reached by the paths of its neighbors at distance k - 1."""
    dist = g.hops[a]
    adj = (g.hops == 1).astype(np.int64)
    count = (dist == 0).astype(np.int64)
    for k in range(1, int(dist[b]) + 1):
        count = np.where(dist == k, adj @ count, 0)
    return int(count[b])


def clustered_edges(rng, n, closures):
    """A random connected graph on n nodes plus up to `closures` triadic
    closures, each joining two neighbors of a random node, so triangles
    abound."""
    edges = set(random_connected_edges(rng, n))
    for _ in range(closures):
        hub = int(rng.integers(n))
        nbrs = [u for e in edges if hub in e for u in e if u != hub]
        if len(nbrs) > 1:
            a, b = (int(u) for u in rng.choice(nbrs, 2, replace=False))
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def parallel_path_pair(k):
    """fixtures.square_double_path_pair with k parallel middle nodes: v joins
    x_1..x_k, each joins z, then z-w1-w2-w3, and side A hangs a leaf on w1. The
    one nearest difference node is z, at distance 2 by k shortest paths."""
    def component(edges, start, decorated):
        v, z, w1, w2, w3 = range(start, start + 5)
        middles = list(range(start + 5, start + 5 + k))
        edges += [(v, x) for x in middles] + [(x, z) for x in middles]
        edges += [(z, w1), (w1, w2), (w2, w3)]
        if decorated:
            edges.append((w1, start + 5 + k))
        return [v, *middles, z, w1], start + 6 + k

    edges = []
    side_a, nxt = component(edges, 0, decorated=True)
    side_b, _ = component(edges, nxt, decorated=False)
    return fixtures_module.TheoremCase(
        name=f"parallel-path-k{k}", theorem=3, graph=build_graph(edges),
        phi=theory.NodeMap(dict(zip(side_a, side_b))), v=0, K=2, L=1,
        kind=theory.avg_degree(2), expected_d=2, expect_violation="shortest paths")


def per_source_bfs_hops(n, edges):
    """Graph.hops from one queue-driven breadth-first search per source over the
    (u, v) or (u, v, weight) edge list; -1 between components."""
    nbrs = [[] for _ in range(n)]
    for u, v, *_ in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    table = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        table[s, s] = 0
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if table[s, v] < 0:
                    table[s, v] = table[s, u] + 1
                    queue.append(v)
    return table


def per_node_differences(g, phi, X, region, center=None, atol=theory.EQUALITY_ATOL):
    """theory.structural_differences node by node: two or three reductions per
    node of the region, which is on the boundary of phi's domain when one of
    its neighbors is outside it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    region = set(int(u) for u in region)
    domain = phi.domain
    if not region <= domain:
        raise PartialMap("region extends beyond the node map's domain")
    report = theory.StructuralDifferenceReport()
    for u in sorted(region):
        pu = phi(u)
        tags = ()
        if np.max(np.abs(X[u] - X[pu])) > atol:
            tags += ("feature-diff",)
        if abs(g.degrees[u] - g.degrees[pu]) > atol:
            tags += ("degree-diff",)
        if all(int(w) in domain for w in g.neighbors(u)):
            if tags:
                report.causes[u] = tags
        elif np.max(np.abs(g.degrees[pu] * X[u] - g.degrees[u] * X[pu])) > atol:
            report.causes[u] = tags + ("boundary-product-diff",)
        elif tags:
            report.excluded[u] = tags + ("boundary-cancelled",)
    if center is not None and report.causes:
        dist = g.hops[center]
        reached = [dist[u] for u in report.causes if dist[u] >= 0]
        if reached:
            report.d = int(min(reached))
    return report


def per_node_coincidences(g, phi, X, region, up_to_radius=1, atol=theory.EQUALITY_ATOL):
    """theory.check_coincidental_correspondence diffusing X stage by stage as it
    goes, with the per-node difference sets of each stage."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    offenders = set()
    Y = X
    for j in range(max(1, up_to_radius)):
        diffs = per_node_differences(g, phi, Y, phi.domain, atol=atol).nodes
        for u in sorted(int(u) for u in region):
            delta = [int(w) for w in g.neighbors(u) if int(w) in diffs]
            if not delta:
                continue
            lhs = sum(Y[w] / g.degrees[w] for w in delta)
            rhs = sum(Y[phi(w)] / g.degrees[phi(w)] for w in delta)
            if np.max(np.abs(lhs - rhs)) <= atol:
                offenders.add(u)
        if j + 1 < up_to_radius:
            Y = apply_operator(g, LAZY_WALK, Y)
    return sorted(offenders)


def per_stage_diffusion_stages(g, phi, X, count, atol=theory.EQUALITY_ATOL):
    """theory._diffusion_stages tagging each stage as it diffuses: the
    difference nodes of P^j X over phi's domain from a structural_differences
    call of its own, which finds the domain's boundary again."""
    stages = []
    Y = X
    for j in range(count):
        if j:
            Y = apply_operator(g, LAZY_WALK, Y)
        stages.append((Y, theory.structural_differences(g, phi, Y, phi.domain, atol=atol).nodes))
    return stages


def per_node_onion(g, phi, v, X, d, layers, atol=theory.EQUALITY_ATOL):
    """Onion check with its own diffusion: the per-node differences of P^j X
    inside the closed (d-j)-ball of v equal layers[j] for every j <= d."""
    Y = X
    for j in range(d + 1):
        ball = [u for u in range(g.n) if 0 <= g.hops[v, u] <= d - j]
        if per_node_differences(g, phi, Y, ball, atol=atol).nodes != layers[j]:
            return False
        if j < d:
            Y = apply_operator(g, LAZY_WALK, Y)
    return True


def per_node_verify_theorem(g, phi, v, K, L, kind, sigma, unique_path=False,
                            tol=theory.EQUALITY_ATOL, theta=None):
    """theory.verify_theorem2 (verify_theorem3 with unique_path) through the
    per-node checks above: the coincidence check diffuses the features up to
    P^(d-1) X, the onion check again up to P^d X after the separation."""
    if kind.locality > K:
        raise ValueError(f"{kind.kind} features have locality {kind.locality} > K={K}")
    if not sigma.is_strictly_monotonic:
        raise HypothesisViolated(f"nonlinearity {sigma.kind} is not strictly monotonic")
    if not theory.validate_isomorphism(g, phi, v, K + L):
        raise HypothesisViolated(
            f"(K+L)-neighborhoods of {v} and {phi(v)} are not phi-isomorphic")
    X = theory.intrinsic_features(g, kind)
    ball = [u for u in range(g.n) if 0 <= g.hops[v, u] <= K + L]
    diffs = per_node_differences(g, phi, X, ball, v, tol)
    if not diffs.causes:
        raise HypothesisViolated("no structural difference in the (K+L)-neighborhood")
    d, vd, layers = theory.generalized_path(g, v, diffs.nodes)
    if unique_path:
        if len(vd) != 1:
            raise HypothesisViolated(f"nearest difference node not unique: {sorted(vd)}")
        (u0,) = vd
        n_paths = count_shortest_paths(g, v, u0)
        if n_paths != 1:
            raise HypothesisViolated(f"{n_paths} shortest paths between {v} and {u0}")
    else:
        ball_d = {u for u in range(g.n) if 0 <= g.hops[v, u] <= d}
        interior = {u for u in ball_d if all(int(w) in ball_d for w in g.neighbors(u))}
        offenders = per_node_coincidences(g, phi, X, interior, d, tol)
        if offenders:
            raise HypothesisViolated(f"coincidental correspondence at nodes {offenders}")
    p = theory.binary_expansion_path(d)
    Z = X @ theta if theta is not None else X
    sep = theory.scatter_separation(g, v, phi(v), Z, p, sigma)
    gcn_dev = theory._random_gcn_deviation(g, v, phi(v), X, L, trials=5, seed=7) if L else 0.0
    return theory.DiscriminabilityReport(
        d=d, path=p, separation=sep, gcn_deviation=gcn_dev,
        onion_matched=per_node_onion(g, phi, v, X, d, layers, tol), discriminates=sep > tol)


def theorem_cases():
    """verify-theory's Theorem 1, 2 and 3 cases, on a 6-cycle of their own."""
    return fixtures_module._theorem_cases(fixtures_module.cycle_graph(6))


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


def per_row_matvec(g, X):
    """W @ X one row at a time: each row sums w * x over its CSR entries in
    order, always multiplying by the weight; a row longer than
    graph.ROW_CHUNK sums each ROW_CHUNK-entry chunk so, then adds the chunk
    sums in order. A row without entries is zero."""
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(X.shape)
    for u in range(g.n):
        lo, hi = int(g.csr_offsets[u]), int(g.csr_offsets[u + 1])
        total = None
        for start in range(lo, hi, graph_module.ROW_CHUNK):
            chunk = g.csr_weights[start] * X[g.csr_targets[start]]
            for e in range(start + 1, min(hi, start + graph_module.ROW_CHUNK)):
                chunk = chunk + g.csr_weights[e] * X[g.csr_targets[e]]
            total = chunk if total is None else total + chunk
        if total is not None:
            out[u] = total
    return out


def reduceat_matvec(g, X):
    """W @ X as the former kernel formed it: one reduceat per CSR row segment,
    which numpy sums in its own (pairwise) order rather than entry by entry."""
    X = np.asarray(X, dtype=np.float64)
    contrib = g.csr_weights.reshape((-1,) + (1,) * (X.ndim - 1)) * X[g.csr_targets]
    out = np.zeros(X.shape)
    nonempty = np.flatnonzero(np.diff(g.csr_offsets) > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(contrib, g.csr_offsets[nonempty], axis=0)
    return out


def closed_form_operator(g, kind, X, transpose=False):
    """graph.apply_operator (or its transpose) as the closed-form expressions
    over fresh arrays, on the package's kernel."""
    X = np.asarray(X, dtype=np.float64)
    col = (lambda v: v) if X.ndim == 1 else (lambda v: v[:, None])
    d = col(g.degrees)
    A = graph_module.adjacency_matvec
    if kind.tag == "residual_diffusion" and kind.alpha == 0.0:
        return X.copy()
    if transpose and kind.tag == "lazy_walk":
        return 0.5 * X + 0.5 * A(g, X) / d
    if transpose and kind.tag == "residual_diffusion":
        a = kind.alpha
        return (X + a * A(g, X) / d) / (a + 1.0)
    if kind.tag == "lazy_walk":
        return 0.5 * X + 0.5 * A(g, X / d)
    if kind.tag == "residual_diffusion":
        a = kind.alpha
        return (X + a * A(g, X / d)) / (a + 1.0)
    if kind.tag == "renorm_adjacency":
        s = col(g.sqrt_degrees_plus_one)
        Y = X / s
        return (Y + A(g, Y)) / s
    s = col(g.sqrt_degrees)
    return X + A(g, X / s) / s


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
