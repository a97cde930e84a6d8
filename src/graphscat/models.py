"""Named model presets behind the training CLI.

gcn-baseline  two-layer GCN, ReLU hidden, linear output, bias-free.
sc-gcn        one hybrid concat layer (three low-pass powers, two scattering
              channels) followed by a graph residual convolution.
gsan          multi-head attention over shared-weight channels, then the
              residual convolution.

sc-gcn defaults follow the reference Cora configuration (alpha=0.35, q=4,
paths (1) and (3), widths 10/10/10/11/6); gsan desk-scale defaults were
tuned lightly on synthetic blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers
from .graph import RENORM_ADJACENCY, Graph
from .layers import (
    AttentionState,
    ResponseCache,
    band_channel,
    glorot_uniform,
    hybrid_forward_concat,
    init_attention_params,
    init_hybrid_params,
    low_channel,
    residual_conv,
)

PRESETS = ("gcn-baseline", "sc-gcn", "gsan")


@dataclass
class ModelSpec:
    """Knobs shared by the presets; unset fields fall back to preset defaults."""

    preset: str = "sc-gcn"
    hidden: int = 16
    alpha: float | None = None
    q: float = 4.0
    heads: int = 2
    low_powers: tuple[int, ...] = (1, 2, 3)
    low_widths: tuple[int, ...] = (10, 10, 10)
    band_widths: tuple[int, ...] = (11, 6)
    band_paths: tuple[tuple[int, ...], ...] = ((1,), (3,))

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if len(self.low_powers) != len(self.low_widths):
            raise ValueError("low_powers and low_widths must have equal length")
        if len(self.band_paths) != len(self.band_widths):
            raise ValueError("band_paths and band_widths must have equal length")
        if self.alpha is None:
            self.alpha = 0.2 if self.preset == "gsan" else 0.35


class GCNBaseline:
    """logits = A ReLU(A X T1) T2 on the renormalized adjacency."""

    def __init__(self, d_in: int, n_classes: int, hidden: int, rng: np.random.Generator):
        self.t1 = ad.Parameter(glorot_uniform(rng, d_in, hidden))
        self.t2 = ad.Parameter(glorot_uniform(rng, hidden, n_classes))

    def parameters(self):
        return [self.t1, self.t2]

    def forward(self, g: Graph, X) -> ad.Tensor:
        h = ad.relu(ad.op_apply(g, RENORM_ADJACENCY, ad.matmul(X, self.t1)))
        return ad.op_apply(g, RENORM_ADJACENCY, ad.matmul(h, self.t2))


class ScGCN:
    """Hybrid concat layer plus graph residual convolution to the class logits."""

    def __init__(self, d_in: int, n_classes: int, spec: ModelSpec, rng: np.random.Generator):
        self.specs = (tuple(low_channel(r, w) for r, w in zip(spec.low_powers, spec.low_widths))
                      + tuple(band_channel(p, w, q=spec.q)
                              for p, w in zip(spec.band_paths, spec.band_widths)))
        self.alpha = spec.alpha
        self.params = init_hybrid_params(self.specs, d_in, rng)
        self.responses = ResponseCache(self.specs)
        width = sum(c.width for c in self.specs)
        self.theta_res = ad.Parameter(glorot_uniform(rng, width, n_classes))
        self.bias_res = ad.Parameter(np.zeros((1, n_classes)))

    def parameters(self):
        ps = [p for pair in self.params for p in pair]
        ps.extend([self.theta_res, self.bias_res])
        return ps

    def forward(self, g: Graph, X) -> ad.Tensor:
        h = hybrid_forward_concat(g, self.specs, self.params, X, self.responses.get(g, X))
        return residual_conv(g, self.alpha, self.theta_res, self.bias_res, h)


class GSAN:
    """Multi-head scattering attention plus residual convolution.

    The attention weights of the latest forward pass are kept on
    .last_attention for ratio reporting. Like ScGCN, it keeps the layer's
    filter responses across forward passes when precomputing them pays.
    """

    def __init__(self, d_in: int, n_classes: int, spec: ModelSpec, rng: np.random.Generator):
        self.specs = (tuple(low_channel(r, spec.hidden) for r in spec.low_powers)
                      + tuple(band_channel((k,), spec.hidden) for k in (1, 2, 3)))
        self.alpha = spec.alpha
        self.head_params = init_attention_params(self.specs, spec.heads, d_in, rng)
        self.responses = ResponseCache(self.specs)
        width = spec.heads * spec.hidden
        self.theta_res = ad.Parameter(glorot_uniform(rng, width, n_classes))
        self.bias_res = ad.Parameter(np.zeros((1, n_classes)))
        self.last_attention: AttentionState | None = None

    def parameters(self):
        ps = [p for pair in self.head_params for p in pair]
        ps.extend([self.theta_res, self.bias_res])
        return ps

    def forward(self, g: Graph, X) -> ad.Tensor:
        h, state = layers.attention_head(g, self.specs, self.head_params, X,
                                         self.responses.get(g, X))
        self.last_attention = state
        return residual_conv(g, self.alpha, self.theta_res, self.bias_res, h)


def build_model(spec: ModelSpec, d_in: int, n_classes: int, seed: int = 0):
    """Instantiate a preset with Glorot-initialized parameters."""
    rng = np.random.default_rng(seed)
    if spec.preset == "gcn-baseline":
        return GCNBaseline(d_in, n_classes, spec.hidden, rng)
    if spec.preset == "sc-gcn":
        return ScGCN(d_in, n_classes, spec, rng)
    return GSAN(d_in, n_classes, spec, rng)
