"""Trainable channels and their aggregation.

A hybrid layer is a tuple of channel specs, low-pass channels first, then
band-pass ones. A low-pass channel filters with A^r, the renormalized
adjacency to the power r; a band-pass channel is a learned scattering
channel U_p. The layer joins them either by horizontal concatenation, each
channel |F_c X Theta_c + B_c|^q (q = 1 for low-pass channels), or by a
per-node attention module whose softmax runs across all filters; a graph
residual convolution cleans up afterwards. The attention layer computes all
its heads at once: stacked products over [Theta_1 | ... | Theta_H], and one
tape node (autodiff.filter_attention) for the scores, the softmax and the
weighted sum of every head and filter.

Every channel filter comes from layer_filters, where one chain per
operator serves all the specs passed together. Before its activation every
low-pass and single-scale band-pass response is linear in Theta,
F (X Theta) = (F X) Theta. When the layer input is a constant,
filter_responses computes the F X products once; the concat layer then
takes a matmul per channel and the attention layer one matmul for every
filter and head, instead of diffusion chains per epoch (the SGC
precomputation applied to the hybrid filter set);
otherwise the concat layer runs layer_filters on each channel's X Theta and
the attention layer runs it once on X [Theta_1 | ... | Theta_H] for every
head.

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
from .errors import IsolatedNodeError
from .graph import RENORM_ADJACENCY, Graph, residual_diffusion
from .scattering import ABS, Nonlinearity, cascade_tensor, first_wavelets
from .wavelets import check_scales

ATTENTION_LEAKY_SLOPE = 0.2  # GAT convention; the source text leaves it open


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out)); biases start at zero."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape if shape is not None else (fan_in, fan_out))


@dataclass(frozen=True)
class ChannelSpec:
    """One hybrid-layer channel: low-pass power r or band-pass path, plus width.

    In the concat layer the channel ends in |.|^q; q is 1 for low-pass
    channels and any q >= 1 for band-pass ones (the power never enters the
    cascade).
    """

    kind: str                 # "low" | "band"
    width: int
    r: int = 1
    path: tuple[int, ...] = ()
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("low", "band"):
            raise ValueError(f"channel kind must be 'low' or 'band', got {self.kind!r}")
        if self.width < 1:
            raise ValueError("channel width must be >= 1")
        if self.kind == "low":
            if self.r < 1:
                raise ValueError("low-pass power r must be >= 1")
            if self.q != 1.0:
                raise ValueError("q applies only to band-pass channels")
        else:
            if self.q < 1:
                raise ValueError("band-pass q must be >= 1")
            check_scales(self.path)


def low_channel(r: int, width: int) -> ChannelSpec:
    return ChannelSpec("low", width=width, r=r)


def band_channel(path, width: int, q: float = 1.0) -> ChannelSpec:
    return ChannelSpec("band", width=width, path=tuple(path), q=q)


@dataclass
class HeadAttention:
    """Per-head attention weights, shape (channels, n)."""

    alpha_low: np.ndarray
    alpha_band: np.ndarray


@dataclass
class AttentionState:
    heads: list[HeadAttention] = field(default_factory=list)


FilterResponses = np.ndarray   # (C, n, d_in): F_c X per channel, in spec order


def layer_filters(g: Graph, specs: tuple[ChannelSpec, ...], t: ad.Tensor) -> list[ad.Tensor]:
    """F_c t for each channel spec, in order, on the tape: A^r t or U_p t.

    One renormalized-adjacency chain up to the largest power serves every
    low channel and one dyadic wavelet sweep gives every band channel its
    first wavelet; a multi-scale path continues its cascade from there.
    """
    if any(spec.kind == "low" for spec in specs) and g.has_isolated_nodes:
        raise IsolatedNodeError("GCN channel requires a graph without isolated nodes")
    powers = ad.op_chain(g, RENORM_ADJACENCY, t, max((spec.r for spec in specs
                                                      if spec.kind == "low"), default=0))
    swept = first_wavelets(g, [spec.path for spec in specs if spec.kind == "band"], t)
    return [powers[spec.r] if spec.kind == "low"
            else cascade_tensor(g, spec.path, ABS, t, swept) for spec in specs]


def filter_responses(g: Graph, specs: tuple[ChannelSpec, ...], X: np.ndarray) -> FilterResponses:
    """F_c X for every channel spec, in order, band paths single-scale.

    Returns one (C, n, d_in) array: the concat layer takes its channel
    slices and the attention layer all of them in one product.
    """
    if any(len(spec.path) != 1 for spec in specs if spec.kind == "band"):
        raise ValueError("filter responses need single-scale band paths")
    return np.stack([t.value for t in layer_filters(g, specs, ad.constant(X))])


def precompute_pays(specs: tuple[ChannelSpec, ...], X) -> bool:
    """Whether filter_responses should replace the per-call diffusion chains.

    It must be exact (a constant input, single-scale band paths) and cheaper:
    the chains then run on d_in columns instead of each channel's width, and
    the responses hold one n x d_in array per channel.
    """
    if isinstance(X, ad.Tensor):
        if X.requires_grad:
            return False
        X = X.value
    return (np.ndim(X) == 2
            and all(len(spec.path) == 1 for spec in specs if spec.kind == "band")
            and X.shape[1] <= min(spec.width for spec in specs))


class ResponseCache:
    """filter_responses kept across calls while the graph and input stay the same.

    The graph is compared by identity and the input by value against a copy
    taken when the responses were computed, so an in-place edit of X is seen.
    """

    def __init__(self, specs: tuple[ChannelSpec, ...]):
        self.specs = specs
        self._key: tuple[Graph, np.ndarray] | None = None
        self._responses: FilterResponses | None = None

    def get(self, g: Graph, X) -> FilterResponses | None:
        """Responses for (g, X), or None when the per-call chains are the better plan."""
        if not precompute_pays(self.specs, X):
            return None
        x = X.value if isinstance(X, ad.Tensor) else np.asarray(X, dtype=np.float64)
        if self._key is None or self._key[0] is not g or not np.array_equal(self._key[1], x):
            self._responses = filter_responses(g, self.specs, x)
            self._responses.flags.writeable = False   # handed out on every later call
            self._key = (g, x.copy())
        return self._responses


def gcn_channel(g: Graph, r: int, theta, bias, sigma: Nonlinearity, X) -> ad.Tensor:
    """sigma(A^r X Theta + B) with A the renormalized adjacency."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.has_isolated_nodes:
        raise IsolatedNodeError("GCN channel requires a graph without isolated nodes")
    t = ad.op_chain(g, RENORM_ADJACENCY, ad.matmul(X, theta), r)[r]
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
        filters = [ad.matmul(ad.constant(F), theta) for F, theta in zip(responses, thetas)]
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
    and a = [a_1 | ... | a_H], (2 W, H), one column per head. One product
    X_bar = X theta serves all heads, and the filters come stacked as well:
    [F_1 X; ...; F_C X] theta given responses from
    filter_responses(g, specs, X), otherwise one layer_filters call on
    X_bar, so one set of chains serves every head. Aggregation inputs are
    bias-free and band responses pass through an absolute value. Head h
    scores each filter by LeakyReLU([X_bar_h || F X_bar_h] a_h),
    softmax-normalizes the scores per node across all C_low + C_band
    filters and rescales the weighted sum by 1/C after the ReLU;
    ad.filter_attention does this for every head in one tape node. Returns
    (output tensor with the heads side by side, AttentionState whose
    arrays are views of the layer's one alpha array).
    """
    n_low = sum(spec.kind == "low" for spec in specs)
    if any(spec.kind == "low" for spec in specs[n_low:]):
        raise ValueError("attention channel specs must list the low channels first")
    theta, a = params
    xbar = ad.matmul(X, theta)
    if responses is None:
        filtered = layer_filters(g, specs, xbar)
    else:
        c, n, d = responses.shape
        filtered = [ad.matmul(ad.constant(responses.reshape(c * n, d)), theta)]
    out, alpha = ad.filter_attention(xbar, filtered, a, n_low, ATTENTION_LEAKY_SLOPE)
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
    draws = [(glorot_uniform(rng, d_in, width),
              glorot_uniform(rng, 2 * width, 1, shape=(2 * width, 1))) for _ in range(heads)]
    return (ad.Parameter(np.hstack([theta for theta, _ in draws])),
            ad.Parameter(np.hstack([a for _, a in draws])))
