"""Dyadic diffusion-wavelet filter bank over the lazy random walk.

The bank exposes Psi_0 = I - P, Psi_k = P^(2^(k-1)) - P^(2^k) for k = 1..K,
and the low-pass Phi_K = P^(2^K). A sweep runs a single matvec chain
P X, P^2 X, ..., P^(2^k) X up to the largest requested scale and takes
differences at dyadic indices, so all K+2 bank outputs cost exactly 2^K
operator applications and their telescoping sum reproduces X bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ScaleOutOfRange
from .graph import LAZY_WALK, Graph

DEFAULT_MAX_SCALE = 3  # largest scale exercised in the reference configurations


@dataclass
class WaveletBank:
    """Operator family {Psi_0..Psi_K, Phi_K} held implicitly via matvec closures."""

    graph: Graph
    K: int = DEFAULT_MAX_SCALE

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be >= 0")

    def _check_scale(self, k: int):
        if not 0 <= k <= self.K:
            raise ScaleOutOfRange(f"scale {k} outside 0..{self.K}")


def _psi(chain: list[ad.Tensor], k: int) -> ad.Tensor:
    # Psi_0 = P^0 - P^1; Psi_k = P^(2^(k-1)) - P^(2^k)
    return ad.sub(chain[2 ** k // 2], chain[2 ** k])


def wavelet_sweep(bank: WaveletBank, scales, t: ad.Tensor) -> list[ad.Tensor]:
    """[Psi_k t for k in scales] on the tape from one lazy-walk chain to 2^max(scales)."""
    for k in scales:
        bank._check_scale(k)
    chain = ad.op_chain(bank.graph, LAZY_WALK, t, max((2 ** k for k in scales), default=0))
    return [_psi(chain, k) for k in scales]


def bank_sweep(bank: WaveletBank, X: np.ndarray) -> list[np.ndarray]:
    """[Psi_0 X, ..., Psi_K X, Phi_K X] from one shared chain (2^K matvecs)."""
    chain = ad.op_chain(bank.graph, LAZY_WALK, ad.constant(X), 2 ** bank.K)
    return [_psi(chain, k).value for k in range(bank.K + 1)] + [chain[-1].value]
