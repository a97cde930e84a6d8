"""Scattering cascades, graph-level moments and the pointwise nonlinearities.

A path p = (k_1, ..., k_m) alternates wavelets and a pointwise nonlinearity,
U_p x = Psi_{k_m} sigma Psi_{k_{m-1}} ... sigma Psi_{k_1} x, with no
nonlinearity after the outermost wavelet. The learned band-pass channel
sigma(U_p(X Theta) + B)^q is a hybrid-layer channel: layers.layer_filters
builds its U_p from these cascades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ScaleOutOfRange
from .wavelets import WaveletBank, wavelet_sweep

ScatteringPath = tuple[int, ...]


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise activation; abs_pow(1) normalizes to plain abs."""

    kind: str  # "abs" | "abs_pow" | "relu" | "leaky_relu" | "identity"
    q: float = 1.0
    slope: float = 0.2

    def __post_init__(self):
        if self.kind not in ("abs", "abs_pow", "relu", "leaky_relu", "identity"):
            raise ValueError(f"unknown nonlinearity {self.kind!r}")
        if self.kind == "abs_pow":
            if self.q < 1:
                raise ValueError("abs_pow requires q >= 1")
            if self.q == 1.0:
                object.__setattr__(self, "kind", "abs")

    @property
    def is_strictly_monotonic(self) -> bool:
        return self.kind == "identity" or (self.kind == "leaky_relu" and self.slope > 0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "abs":
            return np.abs(x)
        if self.kind == "abs_pow":
            return np.abs(x) ** self.q
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "leaky_relu":
            return np.where(x > 0, x, self.slope * x)
        return x

    def apply_tensor(self, t: ad.Tensor) -> ad.Tensor:
        if self.kind == "abs":
            return ad.abs_val(t)
        if self.kind == "abs_pow":
            return ad.abs_pow(t, self.q)
        if self.kind == "relu":
            return ad.relu(t)
        if self.kind == "leaky_relu":
            return ad.leaky_relu(t, self.slope)
        return t


ABS = Nonlinearity("abs")
RELU = Nonlinearity("relu")
IDENTITY = Nonlinearity("identity")


def abs_pow(q: float) -> Nonlinearity:
    return Nonlinearity("abs_pow", q=q)


def leaky(slope: float = 0.2) -> Nonlinearity:
    return Nonlinearity("leaky_relu", slope=slope)


def validate_path(bank: WaveletBank, p) -> ScatteringPath:
    p = tuple(int(k) for k in p)
    for k in p:
        if not 0 <= k <= bank.K:
            raise ScaleOutOfRange(f"path scale {k} outside bank range 0..{bank.K}")
    return p


def wavelet_tensor(bank: WaveletBank, k: int, t: ad.Tensor) -> ad.Tensor:
    """Differentiable Psi_k: a wavelet sweep over the single scale k."""
    return wavelet_sweep(bank, (k,), t)[0]


def first_wavelets(bank: WaveletBank, paths, t: ad.Tensor) -> dict[int, ad.Tensor]:
    """{k: Psi_k t} for every path's first scale k, from one wavelet sweep."""
    scales = sorted({validate_path(bank, p)[0] for p in paths if p})
    return dict(zip(scales, wavelet_sweep(bank, scales, t)))


def cascade_tensor(bank: WaveletBank, p, sigma: Nonlinearity, t: ad.Tensor,
                   swept: dict[int, ad.Tensor] | None = None) -> ad.Tensor:
    """U_p on the tape; the empty path is the identity cascade.

    swept, from first_wavelets(bank, paths, t), supplies Psi_{p[0]} t, so
    paths that share it run no chain of their own for their first wavelet.
    """
    p = validate_path(bank, p)
    for i, k in enumerate(p):
        if i > 0:
            t = sigma.apply_tensor(t)
        t = swept[k] if i == 0 and swept else wavelet_tensor(bank, k, t)
    return t


def cascade(bank: WaveletBank, p, sigma: Nonlinearity, X: np.ndarray,
            swept: dict[int, ad.Tensor] | None = None) -> np.ndarray:
    """U_p X as a plain array; single-scale paths apply no nonlinearity at all.

    swept is as for cascade_tensor, from first_wavelets on constant(X).
    """
    X = np.asarray(X, dtype=np.float64)
    return cascade_tensor(bank, p, sigma, ad.constant(X), swept).value


def graph_moments(U: np.ndarray, qmax: int) -> np.ndarray:
    """q-th order readouts sum_v |U[v, j]|^q for q = 1..qmax.

    Returns an array of shape (columns, qmax); row j holds the moment vector
    of column j.
    """
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    U = np.asarray(U, dtype=np.float64)
    if U.ndim == 1:
        U = U[:, None]
    absu = np.abs(U)
    return np.stack([np.sum(absu ** q, axis=0) for q in range(1, qmax + 1)], axis=1)
