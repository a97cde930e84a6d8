"""Minimal reverse-mode differentiation over numpy arrays.

Tensors form an implicit computation tape through parent links; backward()
walks the tape once in reverse topological order, descending only into
nodes that require a gradient (those with a Parameter among their
ancestors). Only the operations needed by the layer zoo are provided:
matmul, fixed-operator matvec, broadcast add/sub, column concat and slice,
the activation family, the fused filter attention of the attention layer,
and masked cross-entropy, whose per-node rows (cross_entropy_rows) a caller
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

    __slots__ = ("value", "parents", "_vjp", "requires_grad", "grad")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self._vjp = vjp  # maps upstream grad -> tuple of parent grads (None: not needed)
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


class Parameter(Tensor):
    """Trainable tensor with an accumulated gradient."""

    __slots__ = ()

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


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.shape[-1] != b.value.shape[0]:
        raise DimensionMismatch(f"matmul {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def vjp(g):
        # A constant operand gets no gradient product. b's gradient is formed
        # as (g^T a)^T: OpenBLAS runs the tall contraction of a wide first
        # layer (a 2100 x 1433, g 2100 x 47) in half the time of a^T g.
        return (g @ bv.T if a.requires_grad else None,
                (g.T @ av).T if b.requires_grad else None)

    return Tensor(av @ bv, (a, b), vjp)


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
    """Columns start:stop of a 2-D tensor; the gradient lands in that block."""
    a = _as_tensor(a)
    shape = a.value.shape

    def vjp(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return Tensor(a.value[:, start:stop], (a,), vjp)


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
    a (C, n, H) array.
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
    # R in one pass over the inputs: the low rows copied, |.| of the band rows
    # written in place; their signs come from the raw input for the backward
    cut = n_low * n
    R, sign = np.empty((rows, hw)), np.empty((rows - cut, hw))
    start = 0
    for t in filtered:
        v, end = t.value, start + t.value.shape[0]
        low = max(min(cut, end) - start, 0)
        R[start:start + low] = v[:low]
        if low < v.shape[0]:
            np.abs(v[low:], out=R[start + low:end])
            np.sign(v[low:], out=sign[start + low - cut:end - cut])
        start = end
    heads_idx = np.arange(heads)

    def block_diag(v):
        # (W, H) -> (H W, H): column h holds v[:, h] in head h's rows, so a
        # 2-D matmul scores every head at once
        m = np.zeros((heads, width, heads))
        m[heads_idx, :, heads_idx] = v.T
        return m.reshape(hw, heads)

    def diag_blocks(m):
        # inverse of block_diag's layout: head h's rows of column h, (W, H)
        return m.reshape(heads, width, heads)[heads_idx, :, heads_idx].T

    a_self, a_filter = block_diag(a.value[:width]), block_diag(a.value[width:])
    pre = (R @ a_filter).reshape(c, n, heads) + xbar.value @ a_self
    pos = pre > 0
    scores = np.where(pos, pre, slope * pre)
    z = np.exp(scores - np.max(scores, axis=0, keepdims=True))
    alpha = z / np.sum(z, axis=0, keepdims=True)
    R4 = R.reshape(c, n, heads, width)
    # unoptimized einsum beats broadcast-and-sum on these contractions
    agg = np.einsum("cnh,cnhw->nhw", alpha, R4)
    mask = agg > 0
    ends = np.cumsum([t.value.shape[0] for t in filtered])

    def vjp(g):
        dagg = g.reshape(n, heads, width) * mask * (1.0 / c)
        dalpha = np.einsum("cnhw,nhw->cnh", R4, dagg)
        dz = alpha * (dalpha - np.sum(alpha * dalpha, axis=0))
        dpre = np.where(pos, dz, slope * dz)
        dself = np.sum(dpre, axis=0)
        dpre = dpre.reshape(c * n, heads)
        dR = np.einsum("cnh,nhw->cnhw", alpha, dagg).reshape(c * n, hw)
        dR += dpre @ a_filter.T
        dR[cut:] *= sign
        dxbar = dself @ a_self.T if xbar.requires_grad else None
        da = (np.vstack([diag_blocks(xbar.value.T @ dself), diag_blocks(R.T @ dpre)])
              if a.requires_grad else None)
        return (dxbar, da, *(dR[end - t.value.shape[0]:end] for t, end in zip(filtered, ends)))

    out = (np.maximum(agg, 0.0) * (1.0 / c)).reshape(n, hw)
    return Tensor(out, (xbar, a, *filtered), vjp), alpha


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


def backward(root: Tensor):
    """Accumulate d root / d leaf into every reachable Parameter's .grad."""
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
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Parameter):
            node.grad += g
        if node._vjp is None:
            continue
        for parent, pgrad in zip(node.parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pgrad if acc is None else acc + pgrad


class Tape:
    """Handle returned by forward passes; backward() may run exactly once."""

    def __init__(self, loss: Tensor):
        self.loss = loss
        self._consumed = False

    def backward(self):
        if self._consumed:
            raise TapeConsumed("backward() already ran on this tape")
        self._consumed = True
        backward(self.loss)
