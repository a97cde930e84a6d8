"""Trainable channels and their aggregation.

A hybrid layer is a tuple of channel specs, low-pass channels first, then
band-pass ones. A low-pass channel filters with A^r, the renormalized
adjacency to the power r; a band-pass channel is a learned scattering
channel U_p. The layer joins them either by horizontal concatenation, each
channel |F_c X Theta_c + B_c|^q (q = 1 for low-pass channels), or by a
per-node attention module whose softmax runs across all filters; a graph
residual convolution cleans up afterwards. The attention layer computes all
its heads at once over [Theta_1 | ... | Theta_H]: one tape node for the
scores, the softmax and the weighted sum of every head and filter
(autodiff.filter_attention on per-call chains, autodiff.precomputed_attention
on precomputed responses).

Every channel filter comes from layer_filters, where one chain per
operator serves all the specs passed together. Before its activation every
low-pass and single-scale band-pass response is linear in Theta,
F (X Theta) = (F X) Theta. Each model fixes its layer's FilterPlan when
it is built: when the constant input is no wider than the layer's stacked
Theta, filter_responses computes the F X products once and stacks them
under X; the concat layer then takes a matmul per channel, and the
attention layer is a single node whose parents are Theta and a, which
multiplies the whole stack by Theta in one product, instead of diffusion
chains per epoch (the SGC precomputation applied to the hybrid filter
set); otherwise the concat layer runs layer_filters on each channel's
X Theta and the attention layer runs it once on X [Theta_1 | ... | Theta_H]
for every head.

The dense product and the sparse diffusion commute, so each layer takes the
cheaper order: the concat layer takes every channel's X Theta_c from one
stacked product X [Theta_1 | ... | Theta_C], and the residual convolution
diffuses after Theta (n_classes columns, not the hidden width).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import FieldRangeError, IsolatedNodeError, require_integers
from .graph import RENORM_ADJACENCY, Graph, residual_diffusion
from .scattering import ABS, Nonlinearity, cascade_tensor
from .wavelets import check_scales

ATTENTION_LEAKY_SLOPE = 0.2  # GAT convention; the source text leaves it open


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out)); biases start at zero."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass(frozen=True)
class ChannelSpec:
    """One hybrid-layer channel: low-pass power r or band-pass path, plus width.

    In the concat layer the channel ends in |.|^q; q is 1 for low-pass
    channels and any q >= 1 for band-pass ones (the power never enters the
    cascade). A value out of range, or a width, r or scale that is not an
    integer (a boolean, 2.5), raises FieldRangeError naming its field, a
    scale out of range ScaleOutOfRange.
    """

    kind: str                 # "low" | "band"
    width: int
    r: int = 1
    path: tuple[int, ...] = ()
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("low", "band"):
            raise ValueError(f"channel kind must be 'low' or 'band', got {self.kind!r}")
        require_integers("width", self.width)
        if self.width < 1:
            raise FieldRangeError("channel width must be >= 1", "width")
        if self.kind == "low":
            require_integers("r", self.r)
            if self.r < 1:
                raise FieldRangeError("low-pass power r must be >= 1", "r")
            if self.q != 1.0:
                raise FieldRangeError("q applies only to band-pass channels", "q")
        else:
            if self.q < 1:
                raise FieldRangeError("band-pass q must be >= 1", "q")
            require_integers("path", *self.path)
            check_scales(self.path)


def low_channel(r: int, width: int) -> ChannelSpec:
    return ChannelSpec("low", width=width, r=r)


def band_channel(path, width: int, q: float = 1.0) -> ChannelSpec:
    return ChannelSpec("band", width=width, path=tuple(path), q=q)


@dataclass(eq=False)
class HeadAttention:
    """Per-head attention weights, shape (channels, n)."""

    alpha_low: np.ndarray
    alpha_band: np.ndarray


@dataclass
class AttentionState:
    heads: list[HeadAttention] = field(default_factory=list)


FilterResponses = np.ndarray   # (1 + C, n, d_in): X, then F_c X per channel in spec order


def layer_filters(g: Graph, specs: tuple[ChannelSpec, ...], t: ad.Tensor) -> list[ad.Tensor]:
    """F_c t for each channel spec, in order, on the tape: A^r t or U_p t.

    One renormalized-adjacency chain up to the largest power serves every
    low channel, and one cascade_tensor call serves every band channel from
    one wavelet sweep for all their first wavelets.
    """
    if any(spec.kind == "low" for spec in specs) and g.has_isolated_nodes:
        raise IsolatedNodeError("GCN channel requires a graph without isolated nodes")
    powers = ad.op_chain(g, RENORM_ADJACENCY, t, max((spec.r for spec in specs
                                                      if spec.kind == "low"), default=0))
    bands = iter(cascade_tensor(g, [spec.path for spec in specs if spec.kind == "band"], ABS, t))
    return [powers[spec.r] if spec.kind == "low" else next(bands) for spec in specs]


def filter_responses(g: Graph, specs: tuple[ChannelSpec, ...], X: np.ndarray) -> FilterResponses:
    """X and F_c X for every channel spec, in order, band paths single-scale.

    Returns one (1 + C, n, d_in) array [X; F_1 X; ...; F_C X]: the concat
    layer takes the channel blocks 1..C and the attention layer all of them
    in one product, X giving its self term.
    """
    if any(len(spec.path) != 1 for spec in specs if spec.kind == "band"):
        raise ValueError("filter responses need single-scale band paths")
    x = ad.constant(X)
    return np.stack([x.value, *(t.value for t in layer_filters(g, specs, x))])


class FilterPlan:
    """A hybrid layer's filter plan, fixed when its model is built.

    precomputed: filter_responses replaces the per-call diffusion chains.
    That is exact when every band path is single-scale, and cheaper when
    d_in is at most columns, the width of the stacked weight block
    [Theta_1 | ... | Theta_C] (the sum of the channel widths for the concat
    layer, H W for the attention layer) that the chains would run on every
    call. On the criterion-7 block model (d_in 8) sc-gcn's 47 and gsan's 32
    columns both precompute; on the wide-scgcn inputs (d_in 1433) both keep
    chains. A hybrid model takes its features as an array: responses
    refuses an autodiff Tensor on both plans.
    """

    def __init__(self, specs: tuple[ChannelSpec, ...], d_in: int, columns: int):
        self.specs = specs
        self.precomputed = (all(len(spec.path) == 1 for spec in specs if spec.kind == "band")
                            and d_in <= columns)
        self._graph: Graph | None = None
        self._responses: FilterResponses | None = None

    def responses(self, g: Graph, X) -> FilterResponses | None:
        """None on the per-call plan, else filter_responses(g, specs, X), kept
        while g is the same object and X equals the responses' X block, so an
        in-place edit of X is seen. Raises TypeError for an autodiff Tensor."""
        if isinstance(X, ad.Tensor):
            raise TypeError("a hybrid model takes its features as an array, "
                            f"not an autodiff {type(X).__name__}")
        if not self.precomputed:
            return None
        X = np.asarray(X, dtype=np.float64)
        if self._graph is not g or not np.array_equal(self._responses[0], X):
            self._responses = filter_responses(g, self.specs, X)
            self._responses.flags.writeable = False   # handed out on every later call
            self._graph = g
        return self._responses


def gcn_channel(g: Graph, r: int, theta, bias, sigma: Nonlinearity, X) -> ad.Tensor:
    """sigma(A^r X Theta + B) with A the renormalized adjacency.

    No model calls it; it stays as the benchmark tracer's span until that
    span moves to layer_filters.
    """
    t = layer_filters(g, (low_channel(r, theta.shape[1]),), ad.matmul(X, theta))[0]
    if bias is not None:
        t = ad.add(t, bias)
    return sigma.apply_tensor(t)


def hybrid_forward_concat(g: Graph, specs: tuple[ChannelSpec, ...], params, X,
                          responses: FilterResponses | None = None) -> ad.Tensor:
    """Concatenate channels |F_c X Theta_c + B_c|^q_c in spec order.

    params holds one (theta, bias) pair per spec; bias may be None. Each
    channel has its own Theta, so each runs its own filters on its own
    X Theta_c. The products come from one X [Theta_1 | ... | Theta_C],
    which reads X once forward and once backward; each channel takes its
    column block. Given responses, from filter_responses(g, specs, X), each
    channel is one matmul F_c X Theta_c and runs no diffusion chain.
    """
    thetas = [theta for theta, _ in params]
    if responses is not None:
        filters = [ad.matmul(ad.constant(F), theta) for F, theta in zip(responses[1:], thetas)]
    else:
        xt = ad.matmul(X, ad.concat_cols(thetas))
        ends = np.cumsum([theta.shape[1] for theta in thetas])
        filters = [layer_filters(g, (spec,), ad.take_cols(xt, end - theta.shape[1], end))[0]
                   for spec, theta, end in zip(specs, thetas, ends)]
    outs = []
    for spec, t, (_, bias) in zip(specs, filters, params):
        if bias is not None:
            t = ad.add(t, bias)
        outs.append(ad.abs_pow(t, spec.q))
    return ad.concat_cols(outs)


def attention_head(g: Graph, specs: tuple[ChannelSpec, ...], params, X,
                   responses: FilterResponses | None = None):
    """Every attention head over the channel responses, stacked.

    specs lists the low channels first, then the band ones, all of one
    width W. params is the layer's (theta, a) pair from
    init_attention_params: theta = [Theta_1 | ... | Theta_H], (d_in, H W),
    and a = [a_1 | ... | a_H], (2 W, H), one column per head. Head h
    scores each filter by LeakyReLU([X_bar_h || F X_bar_h] a_h), with
    X_bar = X theta, softmax-normalizes the scores per node across all
    C_low + C_band filters and rescales the weighted sum by 1/C after the
    ReLU. Aggregation inputs are bias-free and band responses pass through
    an absolute value. Given responses from filter_responses(g, specs, X),
    ad.precomputed_attention does all of this in one tape node, X_bar and
    every filter coming from one product [X; F_1 X; ...; F_C X] theta, and
    X itself is not read. Otherwise one product X_bar serves all heads, one
    layer_filters call on it runs one set of chains for every head, and
    ad.filter_attention does the rest in one tape node. Returns (output
    tensor with the heads side by side, AttentionState whose arrays are
    views of the layer's one alpha array).
    """
    n_low = sum(spec.kind == "low" for spec in specs)
    if any(spec.kind == "low" for spec in specs[n_low:]):
        raise ValueError("attention channel specs must list the low channels first")
    theta, a = params
    if responses is None:
        xbar = ad.matmul(X, theta)
        out, alpha = ad.filter_attention(xbar, layer_filters(g, specs, xbar), a, n_low,
                                         ATTENTION_LEAKY_SLOPE)
    else:
        out, alpha = ad.precomputed_attention(responses, theta, a, n_low,
                                              ATTENTION_LEAKY_SLOPE)
    state = AttentionState([HeadAttention(alpha_low=alpha[:n_low, :, h],
                                          alpha_band=alpha[n_low:, :, h])
                            for h in range(alpha.shape[2])])
    return out, state


def residual_conv(g: Graph, alpha: float, theta, bias, X) -> ad.Tensor:
    """Graph residual convolution A_res(alpha) X Theta + B (no nonlinearity).

    The diffusion runs after Theta, A_res (X Theta), on the output columns
    (n_classes in the models) rather than the input width.
    """
    t = ad.op_apply(g, residual_diffusion(alpha), ad.matmul(X, theta))
    if bias is not None:
        t = ad.add(t, bias)
    return t


def attention_ratio(state: AttentionState) -> np.ndarray:
    """Per-node ratio zeta_v of band to low attention, summed over heads and channels.

    Nodes whose summed low attention is zero get NaN and a warning.
    """
    if not state.heads:
        raise ValueError("attention state is empty")
    low = sum(h.alpha_low.sum(axis=0) for h in state.heads)
    band = sum(h.alpha_band.sum(axis=0) for h in state.heads)
    zeta = np.full_like(low, np.nan)
    ok = low > 0
    zeta[ok] = band[ok] / low[ok]
    if not np.all(ok):
        warnings.warn(f"{int(np.sum(~ok))} node(s) skipped: zero low-pass attention")
    return zeta


def init_hybrid_params(specs: tuple[ChannelSpec, ...], d_in: int, rng: np.random.Generator):
    """Glorot theta and zero bias per channel of a concat layer, in spec order."""
    if not specs:
        raise ValueError("a hybrid layer needs at least one channel")
    return [(ad.Parameter(glorot_uniform(rng, d_in, spec.width)),
             ad.Parameter(np.zeros((1, spec.width)))) for spec in specs]


def init_attention_params(specs: tuple[ChannelSpec, ...], heads: int, d_in: int,
                          rng: np.random.Generator):
    """The attention layer's (theta, a) pair; the channels share one width W.

    theta is (d_in, heads W) and a is (2 W, heads): head h's Theta_h and a_h
    are column block h of theta and column h of a, drawn head by head.
    """
    if heads < 1:
        raise ValueError("attention needs at least one head")
    if not specs:
        raise ValueError("a hybrid layer needs at least one channel")
    if len({spec.width for spec in specs}) > 1:
        raise ValueError("shared weights require equal channel widths")
    width = specs[0].width
    draws = [(glorot_uniform(rng, d_in, width), glorot_uniform(rng, 2 * width, 1))
             for _ in range(heads)]
    return (ad.Parameter(np.hstack([theta for theta, _ in draws])),
            ad.Parameter(np.hstack([a for _, a in draws])))
