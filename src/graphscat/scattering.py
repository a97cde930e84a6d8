"""Scattering cascades and the pointwise nonlinearities between their wavelets.

A path p = (k_1, ..., k_m) alternates wavelets and a pointwise nonlinearity
sigma, U_p x = Psi_{k_m} sigma Psi_{k_{m-1}} ... sigma Psi_{k_1} x, with no
nonlinearity after the outermost wavelet. The learned band-pass channel
|U_p(X Theta) + B|^q is a hybrid-layer channel: layers.layer_filters
builds its U_p from these cascades with sigma = |.|.
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


def first_wavelets(g: Graph, paths, t: ad.Tensor) -> dict[int, ad.Tensor]:
    """{k: Psi_k t} for every path's first scale k, from one wavelet sweep;
    every scale of every path is checked first."""
    check_scales(k for p in paths for k in p)
    scales = sorted({p[0] for p in paths if p})
    return dict(zip(scales, wavelet_sweep(g, scales, t)))


def cascade_tensor(g: Graph, p, sigma: Nonlinearity, t: ad.Tensor,
                   swept: dict[int, ad.Tensor] | None = None) -> ad.Tensor:
    """U_p on the tape; the empty path is the identity cascade.

    swept, from first_wavelets(g, paths, t), supplies Psi_{p[0]} t, so
    paths that share it run no chain of their own for their first wavelet.
    Every scale of p is checked before the first chain runs.
    """
    check_scales(p)
    for i, k in enumerate(p):
        if i > 0:
            t = sigma.apply_tensor(t)
        t = swept[k] if i == 0 and swept else wavelet_sweep(g, (k,), t)[0]
    return t


def cascade(g: Graph, p, sigma: Nonlinearity, X: np.ndarray,
            swept: dict[int, ad.Tensor] | None = None) -> np.ndarray:
    """U_p X as a plain array; single-scale paths apply no nonlinearity at all.

    swept is as for cascade_tensor, from first_wavelets on constant(X).
    """
    X = np.asarray(X, dtype=np.float64)
    return cascade_tensor(g, p, sigma, ad.constant(X), swept).value

