"""Scattering cascades and the pointwise nonlinearities between their wavelets.

A path p = (k_1, ..., k_m) alternates wavelets and a pointwise nonlinearity
sigma, U_p x = Psi_{k_m} sigma Psi_{k_{m-1}} ... sigma Psi_{k_1} x, with no
nonlinearity after the outermost wavelet. One cascade call serves a set of
paths as a tree of prefixes: paths that share a prefix share its output, and
one dyadic sweep from sigma of that output gives every wavelet that follows
the prefix. The learned band-pass channel |U_p(X Theta) + B|^q is a
hybrid-layer channel: layers.layer_filters builds its U_p from one such call
with sigma = |.|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import Graph
from .wavelets import check_scales, wavelet_sweep


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise activation between the wavelets of a cascade, or after gcn_channel."""

    kind: str  # "abs" | "leaky_relu" | "identity"
    slope: float = 0.2

    def __post_init__(self):
        if self.kind not in ("abs", "leaky_relu", "identity"):
            raise ValueError(f"unknown nonlinearity {self.kind!r}")

    @property
    def is_strictly_monotonic(self) -> bool:
        return self.kind == "identity" or (self.kind == "leaky_relu" and self.slope > 0)

    def apply_tensor(self, t: ad.Tensor) -> ad.Tensor:
        if self.kind == "abs":
            return ad.abs_val(t)
        if self.kind == "leaky_relu":
            return ad.leaky_relu(t, self.slope)
        return t


ABS = Nonlinearity("abs")
IDENTITY = Nonlinearity("identity")


def leaky(slope: float = 0.2) -> Nonlinearity:
    return Nonlinearity("leaky_relu", slope=slope)


def cascade_tensor(g: Graph, paths, sigma: Nonlinearity, t: ad.Tensor) -> list[ad.Tensor]:
    """[U_p t for p in paths] on the tape; the empty path is the identity cascade.

    Depth by depth, each distinct prefix q runs one wavelet sweep, from t if
    q is empty and from sigma U_q t otherwise, for every scale that follows
    it, so each shared prefix is computed once and a repeated path reads the
    same node. Every scale of every path is checked before the first chain
    runs.
    """
    paths = [tuple(p) for p in paths]
    check_scales(k for p in paths for k in p)
    node = {(): t}
    for depth in range(max(map(len, paths), default=0)):
        for q in sorted({p[:depth] for p in paths if len(p) > depth}):
            ks = sorted({p[depth] for p in paths if len(p) > depth and p[:depth] == q})
            u = sigma.apply_tensor(node[q]) if q else t
            node.update(zip([q + (k,) for k in ks], wavelet_sweep(g, ks, u)))
    return [node[p] for p in paths]


def cascade(g: Graph, paths, sigma: Nonlinearity, X: np.ndarray) -> list[np.ndarray]:
    """[U_p X for p in paths] as plain arrays, as for cascade_tensor;
    single-scale paths apply no nonlinearity at all."""
    X = np.asarray(X, dtype=np.float64)
    return [u.value for u in cascade_tensor(g, paths, sigma, ad.constant(X))]
