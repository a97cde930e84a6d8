"""Shared oracle helpers: dense operator constructions independent of the
package's CSR/matvec path, built straight from edge lists, and the
per-filter composition of the attention layer."""

import numpy as np
import pytest

from graphscat import autodiff as autodiff_module
from graphscat import graph as graph_module
from graphscat.graph import build_graph
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


def record_matmul_operands(monkeypatch):
    """List that gets each autodiff.matmul call's left operand array from now on."""
    lefts = []
    orig = autodiff_module.matmul

    def recorded(a, b):
        lefts.append(a.value if isinstance(a, autodiff_module.Tensor) else a)
        return orig(a, b)

    monkeypatch.setattr(autodiff_module, "matmul", recorded)
    return lefts


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


def per_filter_attention(g, cfg, params, X, responses=None):
    """The attention layer composed head by head and filter by filter.

    Each head multiplies X by its own Theta, runs its own filters (or
    multiplies each precomputed F_c X by its Theta), scores every filter
    with its own matmul and LeakyReLU, and sums alpha_c R_c filter by
    filter; the heads are concatenated. Shares only layer_filters and the
    elementary tape ops with the stacked layer. Returns (output tensor,
    AttentionState).
    """
    ad = autodiff_module
    x = ad._as_tensor(X)
    n_low = len(cfg.low)
    outs, state = [], AttentionState()
    for theta, a in params:
        theta, a = ad._as_tensor(theta), ad._as_tensor(a)
        xbar = ad.matmul(x, theta)
        filters = (layer_filters(g, cfg.low + cfg.band, xbar) if responses is None
                   else [ad.matmul(ad.constant(F), theta) for F in responses])
        resps = filters[:n_low] + [ad.abs_val(t) for t in filters[n_low:]]
        scores = [ad.leaky_relu(ad.matmul(ad.concat_cols([xbar, r]), a), ATTENTION_LEAKY_SLOPE)
                  for r in resps]
        alpha = softmax_filters(stack_filters(scores))
        acc = None
        for i, r in enumerate(resps):
            term = ad.mul(take_filter(alpha, i), r)
            acc = term if acc is None else ad.add(acc, term)
        outs.append(ad.scale(ad.relu(acc), 1.0 / len(resps)))
        stacked = np.stack([s.value[:, 0] for s in scores])
        state.heads.append(HeadAttention(
            alpha_low=alpha.value[:n_low, :, 0].copy(), alpha_band=alpha.value[n_low:, :, 0].copy(),
            scores_low=stacked[:n_low], scores_band=stacked[n_low:]))
    return (outs[0] if len(outs) == 1 else ad.concat_cols(outs)), state


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
