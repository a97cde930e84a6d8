"""Trainable channels and their aggregation.

Low-pass channels are GCN-style filters sigma(A^r X Theta + B) on the
renormalized adjacency; band-pass channels are learned scattering channels.
A hybrid layer aggregates them either by horizontal concatenation or by a
per-node attention module whose softmax runs across all filters, and a graph
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

    q is the outer-activation exponent and is only meaningful for band-pass
    channels (the power never enters the cascade).
    """

    kind: str                 # "low" | "band"
    width: int
    r: int = 1
    path: tuple[int, ...] = ()
    sigma: Nonlinearity = ABS
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


def low_channel(r: int, width: int, sigma: Nonlinearity = ABS) -> ChannelSpec:
    return ChannelSpec("low", width=width, r=r, sigma=sigma)


def band_channel(path, width: int, sigma: Nonlinearity = ABS, q: float = 1.0) -> ChannelSpec:
    return ChannelSpec("band", width=width, path=tuple(path), sigma=sigma, q=q)


@dataclass(frozen=True)
class HybridLayerConfig:
    low: tuple[ChannelSpec, ...]
    band: tuple[ChannelSpec, ...]
    aggregation: str = "concat"   # "concat" | "attention"
    heads: int = 1

    def __post_init__(self):
        if self.aggregation not in ("concat", "attention"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.aggregation == "attention":
            if self.heads < 1:
                raise ValueError("attention needs at least one head")
            widths = {c.width for c in self.low + self.band}
            if len(widths) > 1:
                raise ValueError("shared weights require equal channel widths")
        if not self.low and not self.band:
            raise ValueError("a hybrid layer needs at least one channel")

    @property
    def output_width(self) -> int:
        if self.aggregation == "concat":
            return sum(c.width for c in self.low + self.band)
        return self.heads * self.low[0].width if self.low else self.heads * self.band[0].width


@dataclass
class HeadAttention:
    """Per-head attention weights, shape (channels, n)."""

    alpha_low: np.ndarray
    alpha_band: np.ndarray


@dataclass
class AttentionState:
    heads: list[HeadAttention] = field(default_factory=list)


def _as_tensor(x):
    return x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(x, dtype=np.float64))


FilterResponses = np.ndarray   # (C, n, d_in): F_c X per channel, cfg.low then cfg.band


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


def filter_responses(g: Graph, cfg: HybridLayerConfig, X: np.ndarray) -> FilterResponses:
    """F_c X for every channel of cfg, low then band, band paths single-scale.

    Returns one (C, n, d_in) array: the concat layer takes its channel
    slices and the attention layer all of them in one product.
    """
    if any(len(spec.path) != 1 for spec in cfg.band):
        raise ValueError("filter responses need single-scale band paths")
    return np.stack([t.value for t in layer_filters(g, cfg.low + cfg.band, ad.constant(X))])


def precompute_pays(cfg: HybridLayerConfig, X) -> bool:
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
            and all(len(spec.path) == 1 for spec in cfg.band)
            and X.shape[1] <= min(spec.width for spec in cfg.low + cfg.band))


class ResponseCache:
    """filter_responses kept across calls while the graph and input stay the same.

    The graph is compared by identity and the input by value against a copy
    taken when the responses were computed, so an in-place edit of X is seen.
    """

    def __init__(self, cfg: HybridLayerConfig):
        self.cfg = cfg
        self._key: tuple[Graph, np.ndarray] | None = None
        self._responses: FilterResponses | None = None

    def get(self, g: Graph, X) -> FilterResponses | None:
        """Responses for (g, X), or None when the per-call chains are the better plan."""
        if not precompute_pays(self.cfg, X):
            return None
        x = X.value if isinstance(X, ad.Tensor) else np.asarray(X, dtype=np.float64)
        if self._key is None or self._key[0] is not g or not np.array_equal(self._key[1], x):
            self._responses = filter_responses(g, self.cfg, x)
            self._responses.flags.writeable = False   # handed out on every later call
            self._key = (g, x.copy())
        return self._responses


def gcn_channel(g: Graph, r: int, theta, bias, sigma: Nonlinearity, X) -> ad.Tensor:
    """sigma(A^r X Theta + B) with A the renormalized adjacency."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.has_isolated_nodes:
        raise IsolatedNodeError("GCN channel requires a graph without isolated nodes")
    t = ad.op_chain(g, RENORM_ADJACENCY, ad.matmul(_as_tensor(X), _as_tensor(theta)), r)[r]
    if bias is not None:
        t = ad.add(t, _as_tensor(bias))
    return sigma.apply_tensor(t)


def _outer_activation(t: ad.Tensor, sigma: Nonlinearity, q: float) -> ad.Tensor:
    # |sigma(.)|^q; the paper's outermost activation uses sigma = |.| so the
    # extra abs is a no-op there and keeps fractional powers defined
    t = sigma.apply_tensor(t)
    if q != 1.0:
        t = ad.abs_pow(t, q)
    return t


def hybrid_forward_concat(g: Graph, cfg: HybridLayerConfig, params, X,
                          responses: FilterResponses | None = None) -> ad.Tensor:
    """Concatenate channels sigma(F_c X Theta_c + B_c), low in spec order, then band.

    A band channel raises its activation to the power q (1 for low
    channels). Each channel has its own Theta, so each runs its own
    filters on its own X Theta_c. The products come from one
    X [Theta_1 | ... | Theta_C], which reads X once forward and once
    backward; each channel takes its column block. Given responses, from
    filter_responses(g, cfg, X), each channel is one matmul F_c X Theta_c
    and runs no diffusion chain.
    """
    if cfg.aggregation != "concat":
        raise ValueError("config does not use concat aggregation")
    specs = cfg.low + cfg.band
    pairs = params["low"] + params["band"]
    thetas = [_as_tensor(theta) for theta, _ in pairs]
    if responses is not None:
        filters = [ad.matmul(ad.constant(F), theta) for F, theta in zip(responses, thetas)]
    else:
        xt = ad.matmul(_as_tensor(X), ad.concat_cols(thetas))
        ends = np.cumsum([theta.shape[1] for theta in thetas])
        filters = [layer_filters(g, (spec,), ad.take_cols(xt, end - theta.shape[1], end))[0]
                   for spec, theta, end in zip(specs, thetas, ends)]
    outs = []
    for spec, t, (_, bias) in zip(specs, filters, pairs):
        if bias is not None:
            t = ad.add(t, _as_tensor(bias))
        outs.append(_outer_activation(t, spec.sigma, spec.q))
    return ad.concat_cols(outs)


def attention_head(g: Graph, cfg: HybridLayerConfig, params, X,
                   responses: FilterResponses | None = None):
    """Every attention head over the channel responses, stacked.

    params holds (theta_shared, a) per head. One product
    X_bar = X [Theta_1 | ... | Theta_H] serves all heads, and the filters
    come stacked as well: [F_1 X; ...; F_C X] [Theta_1 | ... | Theta_H]
    given responses from filter_responses(g, cfg, X), otherwise one
    layer_filters call on X_bar, so one set of chains serves every head.
    Aggregation inputs are bias-free and band responses pass through an
    absolute value. Head h scores each filter by
    LeakyReLU([X_bar_h || F X_bar_h] a_h), softmax-normalizes the scores
    per node across all C_low + C_band filters and rescales the weighted
    sum by 1/C after the ReLU; ad.filter_attention does this for every
    head in one tape node. Returns (output tensor with the heads side by
    side, AttentionState).
    """
    thetas = ad.concat_cols([_as_tensor(theta) for theta, _ in params])
    xbar = ad.matmul(_as_tensor(X), thetas)
    if responses is None:
        filtered = layer_filters(g, cfg.low + cfg.band, xbar)
    else:
        c, n, d = responses.shape
        filtered = [ad.matmul(ad.constant(responses.reshape(c * n, d)), thetas)]
    n_low = len(cfg.low)
    out, alpha = ad.filter_attention(
        xbar, filtered, ad.concat_cols([_as_tensor(a) for _, a in params]), n_low,
        ATTENTION_LEAKY_SLOPE)
    state = AttentionState([
        HeadAttention(alpha_low=alpha[:n_low, :, h].copy(),
                      alpha_band=alpha[n_low:, :, h].copy())
        for h in range(len(params))])
    return out, state


def gsan_layer(g: Graph, cfg: HybridLayerConfig, params, X,
               responses: FilterResponses | None = None):
    """The attention layer; params is a list of (theta_shared, a) per head.

    Returns (output tensor, AttentionState over all heads) from
    attention_head, which computes every head at once.
    """
    if cfg.aggregation != "attention":
        raise ValueError("config does not use attention aggregation")
    return attention_head(g, cfg, params, X, responses)


def residual_conv(g: Graph, alpha: float, theta, bias, X) -> ad.Tensor:
    """Graph residual convolution A_res(alpha) X Theta + B (no nonlinearity).

    The diffusion runs after Theta, A_res (X Theta), on the output columns
    (n_classes in the models) rather than the input width.
    """
    t = ad.op_apply(g, residual_diffusion(alpha), ad.matmul(_as_tensor(X), _as_tensor(theta)))
    if bias is not None:
        t = ad.add(t, _as_tensor(bias))
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


def init_hybrid_params(cfg: HybridLayerConfig, d_in: int, rng: np.random.Generator):
    """Glorot thetas and zero biases for a concat hybrid layer."""
    params = {"low": [], "band": []}
    for spec in cfg.low:
        params["low"].append((ad.Parameter(glorot_uniform(rng, d_in, spec.width)),
                              ad.Parameter(np.zeros((1, spec.width)))))
    for spec in cfg.band:
        params["band"].append((ad.Parameter(glorot_uniform(rng, d_in, spec.width)),
                               ad.Parameter(np.zeros((1, spec.width)))))
    return params


def init_attention_params(cfg: HybridLayerConfig, d_in: int, rng: np.random.Generator):
    """Per-head (theta_shared, attention vector) pairs."""
    width = (cfg.low + cfg.band)[0].width
    heads = []
    for _ in range(cfg.heads):
        theta = ad.Parameter(glorot_uniform(rng, d_in, width))
        a = ad.Parameter(glorot_uniform(rng, 2 * width, 1, shape=(2 * width, 1)))
        heads.append((theta, a))
    return heads
