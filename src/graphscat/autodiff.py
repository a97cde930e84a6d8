"""Minimal reverse-mode differentiation over numpy arrays.

Tensors form an implicit computation tape through parent links; backward()
walks the tape once in reverse topological order, descending only into
nodes that require a gradient (those with a Parameter among their
ancestors), and consumes it as it goes: each node it passes drops its
parents and its VJP, so the forward values are freed by the time backward
returns and a second backward through the same graph raises TapeConsumed. Only the operations
needed by the layer zoo are provided:
matmul, fixed-operator matvec, broadcast add/sub, column concat and slice,
the activation family, the fused filter attention of the attention layer
(filter_attention on per-call filters, precomputed_attention on
precomputed responses), and masked cross-entropy, whose per-node rows (cross_entropy_rows) a caller
can compute once and share between masks.
Gradients land on Parameter.grad and are zeroed by the optimizer between
steps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, TapeConsumed
from .graph import Graph, OperatorKind, apply_operator, apply_operator_transpose


class Tensor:
    """Node of the computation tape; wraps a float64 ndarray."""

    __slots__ = ("value", "parents", "_vjp", "requires_grad")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        # maps upstream grad -> tuple of parent grads: each a full array, a
        # (start, stop, g) column block, or None (not needed)
        self._vjp = vjp
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)

    @property
    def shape(self):
        return self.value.shape


class Parameter(Tensor):
    """Trainable tensor with an accumulated gradient."""

    __slots__ = ("grad",)

    def __init__(self, value):
        super().__init__(value, requires_grad=True)
        self.grad = np.zeros_like(self.value)


def constant(value) -> Tensor:
    return Tensor(value)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over the axes numpy broadcast to reach grad.shape from shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.value + b.value
    return Tensor(out, (a, b),
                  lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.value - b.value
    return Tensor(out, (a, b),
                  lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


# The forward product a @ b of an (n, K) a runs as (b^T a^T)^T from these
# sizes on; see matmul.
SWAP_MIN_ROWS = 2048
SWAP_MIN_CONTRACTION = 256


def matmul(a, b) -> Tensor:
    """a @ b on the tape, in the orientation OpenBLAS runs faster.

    An (n, K) a with n >= SWAP_MIN_ROWS and K >= SWAP_MIN_CONTRACTION, a
    wide feature matrix times narrow weights, is multiplied as
    (b^T a^T)^T; every other product is a @ b. Both forms contract the
    same numbers and differ by rounding, so products below the rule keep
    their bits. Time of the swapped form over the plain one on OpenBLAS
    0.3.31 with 2 threads (2-core x86-64, min of 21 alternating rounds,
    range over output widths k = 2-64):

        K \\ n      400        1000-1700  2100-2708  19717
        8-32       1.09-1.82  0.89-2.34  0.83-1.89  0.77-1.73
        47-128     1.00-1.89  0.80-3.44  0.76-2.08  0.68-1.17
        192        1.00-1.94  0.77-2.67  0.75-1.35  0.74-0.91
        256-1433   0.73-2.21  0.67-2.48  0.66-1.13  0.49-0.76

    On the 2100 x 1433 @ 1433 x 47 first layer of the wide benchmark the
    swapped form takes 3.8 against 5.7 ms.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.shape[-1] != b.value.shape[0]:
        raise DimensionMismatch(f"matmul {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    if av.ndim == 2 and av.shape[0] >= SWAP_MIN_ROWS and av.shape[1] >= SWAP_MIN_CONTRACTION:
        out = (bv.T @ av.T).T
    else:
        out = av @ bv

    def vjp(g):
        # A constant operand gets no gradient product. b's gradient is formed
        # as (g^T a)^T, the swapped form of a^T g.
        return (g @ bv.T if a.requires_grad else None,
                (g.T @ av).T if b.requires_grad else None)

    return Tensor(out, (a, b), vjp)


def op_apply(g: Graph, kind: OperatorKind, x) -> Tensor:
    """Fixed sparse diffusion operator; backward applies the transpose."""
    x = _as_tensor(x)
    out = apply_operator(g, kind, x.value)
    return Tensor(out, (x,),
                  lambda grad: (apply_operator_transpose(g, kind, grad),))


def op_chain(g: Graph, kind: OperatorKind, x, m: int) -> list[Tensor]:
    """[x, K x, K^2 x, ..., K^m x] for the operator K of kind, m >= 0.

    Every filter that is a power of one operator (A^r, the dyadic wavelet
    differences, the low-pass Phi_K) slices this one chain; off the tape,
    pass a constant.
    """
    if m < 0:
        raise ValueError(f"chain length must be >= 0, got {m}")
    chain = [_as_tensor(x)]
    for _ in range(m):
        chain.append(op_apply(g, kind, chain[-1]))
    return chain


def concat_cols(tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    widths = [t.value.shape[1] for t in tensors]
    out = np.concatenate([t.value for t in tensors], axis=1)
    splits = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=1))

    return Tensor(out, tensors, vjp)


def take_cols(a, start: int, stop: int) -> Tensor:
    """Columns start:stop of a 2-D tensor.

    The VJP hands back the (start, stop, g) column block, not a zero-filled
    full-width array; backward gathers every block of one parent into one
    buffer.
    """
    a = _as_tensor(a)
    return Tensor(a.value[:, start:stop], (a,), lambda g: ((start, stop, g),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.value > 0
    return Tensor(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    pos = a.value > 0
    out = np.where(pos, a.value, slope * a.value)
    return Tensor(out, (a,), lambda g: (g * np.where(pos, 1.0, slope),))


def abs_val(a) -> Tensor:
    """|x| with subgradient 0 at x = 0."""
    a = _as_tensor(a)
    s = np.sign(a.value)
    return Tensor(np.abs(a.value), (a,), lambda g: (g * s,))


def abs_pow(a, q: float) -> Tensor:
    """|x|^q for q >= 1; derivative q |x|^(q-1) sign(x), 0 at the origin."""
    if q < 1:
        raise ValueError("q must be >= 1")
    a = _as_tensor(a)
    if q == 1.0:
        return abs_val(a)
    absx = np.abs(a.value)
    deriv = q * absx ** (q - 1.0) * np.sign(a.value)
    return Tensor(absx ** q, (a,), lambda g: (g * deriv,))


class _FilterAttention:
    """Scores, softmax and weighted sum of per-node filter attention, with
    their one backward; filter_attention and precomputed_attention wrap it,
    each with its own way of reaching the responses and of passing their
    gradient on.

    xbar is the (n, H W) self term, R the (C n, H W) response stack, low-pass
    rows first, and a the (2 W, H) attention vectors. |.| of the band rows,
    those from the n_low-th filter on, is taken in R in place and their signs
    kept for the backward. xbar and R are kept, not copied.
    """

    def __init__(self, xbar: np.ndarray, R: np.ndarray, a: np.ndarray, n_low: int,
                 slope: float):
        n, hw = xbar.shape
        width, heads = a.shape[0] // 2, a.shape[1]
        self.n, self.c, self.heads, self.width = n, R.shape[0] // n, heads, width
        self.xbar, self.R, self.slope, self.cut = xbar, R, slope, n_low * n
        band = R[self.cut:]
        self.sign = np.sign(band)
        np.abs(band, out=band)
        self._heads_idx = np.arange(heads)
        self.a_self, self.a_filter = self._block_diag(a[:width]), self._block_diag(a[width:])
        pre = (R @ self.a_filter).reshape(self.c, n, heads) + xbar @ self.a_self
        self.pos = pre > 0
        scores = np.where(self.pos, pre, slope * pre)
        z = np.exp(scores - np.max(scores, axis=0, keepdims=True))
        self.alpha = z / np.sum(z, axis=0, keepdims=True)
        # unoptimized einsum beats broadcast-and-sum on these contractions
        agg = np.einsum("cnh,cnhw->nhw", self.alpha, R.reshape(self.c, n, heads, width))
        self.mask = agg > 0
        self.out = (np.maximum(agg, 0.0) * (1.0 / self.c)).reshape(n, hw)

    def _block_diag(self, v):
        # (W, H) -> (H W, H): column h holds v[:, h] in head h's rows, so a
        # 2-D matmul scores every head at once
        m = np.zeros((self.heads, self.width, self.heads))
        m[self._heads_idx, :, self._heads_idx] = v.T
        return m.reshape(self.heads * self.width, self.heads)

    def _diag_blocks(self, m):
        # inverse of _block_diag's layout: head h's rows of column h, (W, H)
        return m.reshape(self.heads, self.width, self.heads)[self._heads_idx, :,
                                                             self._heads_idx].T

    def backward(self, g):
        """From the output gradient g: (dxbar, dR, da), the gradients of xbar
        (n, H W), of the response stack before |.| of its band rows (C n, H W)
        and of a = [a_1 | ... | a_H] (2 W, H)."""
        c, n, heads = self.c, self.n, self.heads
        dagg = g.reshape(n, heads, self.width) * self.mask * (1.0 / c)
        dalpha = np.einsum("cnhw,nhw->cnh", self.R.reshape(c, n, heads, self.width), dagg)
        dz = self.alpha * (dalpha - np.sum(self.alpha * dalpha, axis=0))
        dpre = np.where(self.pos, dz, self.slope * dz)
        # alpha_c dagg + dpre_c a^2 per filter c, the second term filter by filter:
        # one more (C n, H W) array made glibc trim its heap every gsan epoch
        dR = np.einsum("cnh,nhw->cnhw", self.alpha, dagg)
        for dr, dp in zip(dR, dpre):
            dr += (dp @ self.a_filter.T).reshape(dr.shape)
        dR = dR.reshape(c * n, heads * self.width)
        dR[self.cut:] *= self.sign
        dself = np.sum(dpre, axis=0)
        da = np.vstack([self._diag_blocks(self.xbar.T @ dself),
                        self._diag_blocks(self.R.T @ dpre.reshape(c * n, heads))])
        return dself @ self.a_self.T, dR, da


def filter_attention(xbar, filtered, a, n_low: int, slope: float):
    """Per-node attention over C filter responses, for H heads in one node.

    xbar is X [Theta_1 | ... | Theta_H], shape (n, H W). The row stack of
    filtered is [F_1 xbar; ...; F_C xbar], shape (C n, H W): one tensor
    per filter or one for all. a is [a_1 | ... | a_H], shape (2 W, H).
    Responses R_c are F_c xbar for the first n_low filters and |F_c xbar|
    for the band-pass rest. At node v, head h (columns hW:(h+1)W) scores
    filter c by LeakyReLU(xbar_h a_h^1 + R_c a_h^2), with a_h^1 and a_h^2
    the halves of a_h, takes the softmax alpha over c and returns
    ReLU(sum_c alpha_c R_c) / C. Returns (output (n, H W), alpha), alpha
    a (C, n, H) array. The attention layer takes this node when its
    filters run per call; on precomputed responses it takes
    precomputed_attention.
    """
    xbar, a = _as_tensor(xbar), _as_tensor(a)
    filtered = [_as_tensor(t) for t in filtered]
    n, hw = xbar.value.shape
    width, heads = a.value.shape[0] // 2, a.value.shape[1]
    rows = sum(t.value.shape[0] for t in filtered)
    c = rows // n
    if (a.value.shape[0] != 2 * width or hw != heads * width or rows != c * n
            or any(t.value.shape[1:] != (hw,) for t in filtered)):
        raise DimensionMismatch(f"filter attention on xbar {xbar.shape}, responses "
                                f"{[t.shape for t in filtered]}, attention vectors {a.shape}")
    # R is one copy of the responses, which the attention owns
    att = _FilterAttention(xbar.value, np.concatenate([t.value for t in filtered]), a.value,
                           n_low, slope)
    ends = np.cumsum([t.value.shape[0] for t in filtered])

    def vjp(g):
        dxbar, dR, da = att.backward(g)
        return (dxbar, da, *(dR[end - t.value.shape[0]:end] for t, end in zip(filtered, ends)))

    return Tensor(att.out, (xbar, a, *filtered), vjp), att.alpha


def precomputed_attention(responses: np.ndarray, theta, a, n_low: int, slope: float):
    """filter_attention on precomputed responses, as one node whose parents
    are theta and a.

    responses is the constant S = [X; F_1 X; ...; F_C X], shape
    (1 + C, n, d_in), low-pass filters first, and theta is
    [Theta_1 | ... | Theta_H], shape (d_in, H W). Since F_c (X Theta) =
    (F_c X) Theta, one product S theta gives xbar and every filter's
    response in a buffer the node owns, and the VJP maps the gradients of
    xbar and of the response stack back through S^T: dtheta =
    X^T dxbar + [F_1 X; ...; F_C X]^T dR. Returns (output (n, H W), alpha)
    as filter_attention does.
    """
    responses = np.asarray(responses, dtype=np.float64)
    theta, a = _as_tensor(theta), _as_tensor(a)
    width, heads = a.value.shape[0] // 2, a.value.shape[1]
    hw = theta.value.shape[1]
    if (responses.ndim != 3 or responses.shape[0] < 2 or not 0 <= n_low < responses.shape[0]
            or theta.value.shape[0] != responses.shape[2]
            or a.value.shape[0] != 2 * width or hw != heads * width):
        raise DimensionMismatch(f"precomputed attention on responses {responses.shape}, "
                                f"theta {theta.shape}, attention vectors {a.shape}")
    _, n, d = responses.shape
    S = responses.reshape(-1, d)
    P = S @ theta.value
    att = _FilterAttention(P[:n], P[n:], a.value, n_low, slope)

    def vjp(g):
        dxbar, dR, da = att.backward(g)
        return S[n:].T @ dR + S[:n].T @ dxbar, da

    return Tensor(att.out, (theta, a), vjp), att.alpha


class CrossEntropyRows(NamedTuple):
    """Per-node softmax pieces of logits z: exp(z - rowmax), its row sums, and
    each node's cross-entropy log-sum-exp(z_v) - z_v[label_v]."""

    exp: np.ndarray
    sums: np.ndarray
    nll: np.ndarray


def cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> CrossEntropyRows:
    """One pass over (n, C) logits with a class id per node; every row on its own.

    The rows are summed in C order, as a masked row subset would be, so the
    values at any node equal those of the same formula on that subset.
    """
    z = np.ascontiguousarray(logits)
    zmax = np.max(z, axis=1, keepdims=True)
    e = np.exp(z - zmax)
    s = np.sum(e, axis=1)
    nll = zmax[:, 0] + np.log(s) - z[np.arange(z.shape[0]), labels]
    return CrossEntropyRows(e, s, nll)


def masked_cross_entropy(logits, labels: np.ndarray, mask: np.ndarray,
                         rows: CrossEntropyRows | None = None) -> Tensor:
    """Softmax cross-entropy averaged over the masked nodes.

    labels are class ids for all nodes; only rows in mask contribute. rows,
    when given, is cross_entropy_rows of the same logits and labels, so a
    caller that also wants other masks' losses computes them once.
    """
    logits = _as_tensor(logits)
    mask = np.asarray(mask, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if rows is None:
        rows = cross_entropy_rows(logits.value, y)
    k = mask.size

    def vjp(g):
        dz = rows.exp[mask] / rows.sums[mask, None]
        dz[np.arange(k), y[mask]] -= 1.0
        full = np.zeros_like(logits.value)
        full[mask] = dz * (g / k)
        return (full,)

    return Tensor(np.mean(rows.nll[mask]), (logits,), vjp)


def _consumed(g):
    raise TapeConsumed("backward already ran through this node")


def _gather(grads: dict, owned: set, parent: Tensor, pgrad) -> None:
    """Add one gradient of parent, a full array or a (start, stop, g) column
    block, to its sum in grads.

    Sums run in arrival order. Only a buffer that backward allocated (its id
    in owned) is added into in place: an array a VJP returned may be handed
    to another parent too (add gives the same g to both).
    """
    key = id(parent)
    acc = grads.get(key)
    if isinstance(pgrad, tuple):
        start, stop, block = pgrad
        if key not in owned:
            acc = grads[key] = np.zeros(parent.value.shape) if acc is None else acc.copy()
            owned.add(key)
        acc[:, start:stop] += block
    elif acc is None:
        grads[key] = pgrad
    elif key in owned:
        acc += pgrad
    else:
        grads[key] = acc + pgrad
        owned.add(key)


def backward(root: Tensor):
    """Accumulate d root / d leaf into every reachable Parameter's .grad.

    The walk consumes the graph: each non-Parameter node it visits drops its
    parents and its VJP once its turn has passed, so what only the VJP kept
    alive is freed during the walk, and the nodes themselves, with their
    values, when the walk order goes at return, not when the caller drops
    the root. Values stay until then on purpose: freeing each one at its
    turn, between the walk's gradient allocations, made glibc trim and
    regrow its heap in every gsan fit on the 400-node block model (64 000-
    72 000 minor page faults per 100 epochs; a fit in the benchmark's
    harness now takes none after a process's first, CHANGES.md). The VJP
    left behind raises TapeConsumed, so running backward again through a
    consumed node fails instead of returning zero gradients.
    """
    if root.value.ndim != 0:
        raise DimensionMismatch("backward expects a scalar root")
    if not root.requires_grad:
        return
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
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

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
    owned: set[int] = set()
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is not None:
            if isinstance(node, Parameter):
                node.grad += g
            if node._vjp is not None:
                for parent, pgrad in zip(node.parents, node._vjp(g)):
                    if parent.requires_grad:
                        _gather(grads, owned, parent, pgrad)
        if not isinstance(node, Parameter):
            node.parents, node._vjp = (), _consumed


class Tape:
    """Handle on a forward pass's loss; backward() may run exactly once.

    backward consumes the graph under the loss (see the module function),
    so afterwards only the loss value and the Parameters' gradients remain.
    """

    def __init__(self, loss: Tensor):
        self.loss = loss
        self._consumed = False

    def backward(self):
        if self._consumed:
            raise TapeConsumed("backward() already ran on this tape")
        self._consumed = True
        backward(self.loss)
