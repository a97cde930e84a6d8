"""Dyadic diffusion wavelets of a graph over its lazy random walk.

Psi_0 = I - P, Psi_k = P^(2^(k-1)) - P^(2^k) for k >= 1, and the low-pass
Phi_K = P^(2^K), are functions of the graph held implicitly through matvecs.
A sweep runs a single matvec chain P X, P^2 X, ..., P^(2^k) X up to the
largest requested scale and takes differences at dyadic indices, so
Psi_0..Psi_K and Phi_K cost exactly 2^K operator applications together and
their telescoping sum reproduces X bitwise.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ScaleOutOfRange
from .graph import LAZY_WALK, Graph


def check_scales(scales):
    """Reject the first negative wavelet scale, naming it."""
    for k in scales:
        if k < 0:
            raise ScaleOutOfRange(f"wavelet scale {k} must be >= 0")


def _psi(chain: list[ad.Tensor], k: int) -> ad.Tensor:
    # Psi_0 = P^0 - P^1; Psi_k = P^(2^(k-1)) - P^(2^k)
    return ad.sub(chain[2 ** k // 2], chain[2 ** k])


def wavelet_sweep(g: Graph, scales, t: ad.Tensor) -> list[ad.Tensor]:
    """[Psi_k t for k in scales] on the tape from one lazy-walk chain to 2^max(scales)."""
    check_scales(scales)
    chain = ad.op_chain(g, LAZY_WALK, t, max((2 ** k for k in scales), default=0))
    return [_psi(chain, k) for k in scales]


def bank_sweep(g: Graph, K: int, X: np.ndarray) -> list[np.ndarray]:
    """[Psi_0 X, ..., Psi_K X, Phi_K X] from one shared chain (2^K matvecs)."""
    check_scales((K,))
    chain = ad.op_chain(g, LAZY_WALK, ad.constant(X), 2 ** K)
    return [_psi(chain, k).value for k in range(K + 1)] + [chain[-1].value]
