"""Named model presets behind the training CLI.

gcn-baseline  two-layer GCN, ReLU hidden, linear output, bias-free.
sc-gcn        one hybrid concat layer (three low-pass powers, two scattering
              channels) followed by a graph residual convolution.
gsan          multi-head attention over shared-weight channels, then the
              residual convolution.

PRESET_FIELDS names the ModelSpec fields each preset reads, with their defaults
(sc-gcn's follow the reference Cora configuration, gsan's were tuned lightly
on synthetic blocks); setting any other field is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import layers
from .errors import FieldRangeError, ScaleOutOfRange
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

PRESET_FIELDS = {
    "gcn-baseline": {"hidden": 16},
    "sc-gcn": {"alpha": 0.35, "q": 4.0, "low_powers": (1, 2, 3), "low_widths": (10, 10, 10),
               "band_widths": (11, 6), "band_paths": ((1,), (3,))},
    "gsan": {"hidden": 16, "alpha": 0.2, "heads": 2, "low_powers": (1, 2, 3)},
}
PRESETS = tuple(PRESET_FIELDS)


@dataclass
class ModelSpec:
    """A preset and the fields it reads; a field left None takes the preset's default."""

    preset: str = "sc-gcn"
    hidden: int | None = None
    alpha: float | None = None
    q: float | None = None
    heads: int | None = None
    low_powers: tuple[int, ...] | None = None
    low_widths: tuple[int, ...] | None = None
    band_widths: tuple[int, ...] | None = None
    band_paths: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        defaults = PRESET_FIELDS[self.preset]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is None:
                setattr(self, f.name, defaults.get(f.name))
            elif f.name not in defaults:
                raise ValueError(f"preset {self.preset} does not read {f.name}")
        for a, b in (("low_powers", "low_widths"), ("band_paths", "band_widths")):
            if self.preset == "sc-gcn" and len(getattr(self, a)) != len(getattr(self, b)):
                raise FieldRangeError(f"{a} and {b} must have equal length", a, b)
        for name in ("hidden", "heads"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise FieldRangeError(f"{name} must be >= 1, got {getattr(self, name)}", name)
        if self.alpha is not None and not 0.0 <= self.alpha < np.inf:
            raise FieldRangeError(f"alpha must be finite and >= 0, got {self.alpha}", "alpha")
        # ChannelSpec holds the channel ranges; each value is tried in a channel
        # of its own, so that an error names the field that supplied it
        for name, values, channel in (
                ("low_powers", self.low_powers, lambda r: low_channel(r, 1)),
                ("low_widths", self.low_widths, lambda w: low_channel(1, w)),
                ("band_widths", self.band_widths, lambda w: band_channel((), w)),
                ("band_paths", self.band_paths, lambda p: band_channel(p, 1)),
                ("q", () if self.q is None else (self.q,), lambda q: band_channel((), 1, q))):
            for v in values or ():
                try:
                    channel(v)
                except (ValueError, ScaleOutOfRange) as exc:
                    raise FieldRangeError(str(exc), name) from None


class GCNBaseline:
    """logits = A ReLU(A X T1) T2 on the renormalized adjacency."""

    def __init__(self, d_in: int, n_classes: int, spec: ModelSpec, rng: np.random.Generator):
        self.t1 = ad.Parameter(glorot_uniform(rng, d_in, spec.hidden))
        self.t2 = ad.Parameter(glorot_uniform(rng, spec.hidden, n_classes))

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
        self.attention_params = init_attention_params(self.specs, spec.heads, d_in, rng)
        self.responses = ResponseCache(self.specs)
        width = spec.heads * spec.hidden
        self.theta_res = ad.Parameter(glorot_uniform(rng, width, n_classes))
        self.bias_res = ad.Parameter(np.zeros((1, n_classes)))
        self.last_attention: AttentionState | None = None

    def parameters(self):
        return [*self.attention_params, self.theta_res, self.bias_res]

    def forward(self, g: Graph, X) -> ad.Tensor:
        h, state = layers.attention_head(g, self.specs, self.attention_params, X,
                                         self.responses.get(g, X))
        self.last_attention = state
        return residual_conv(g, self.alpha, self.theta_res, self.bias_res, h)


def build_model(spec: ModelSpec, d_in: int, n_classes: int, seed: int = 0):
    """Instantiate a preset with Glorot-initialized parameters."""
    model = {"gcn-baseline": GCNBaseline, "sc-gcn": ScGCN, "gsan": GSAN}[spec.preset]
    return model(d_in, n_classes, spec, np.random.default_rng(seed))
