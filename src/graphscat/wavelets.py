"""Dyadic diffusion-wavelet filter bank over the lazy random walk.

The bank exposes Psi_0 = I - P, Psi_k = P^(2^(k-1)) - P^(2^k) for k = 1..K,
and the low-pass Phi_K = P^(2^K). A sweep runs a single matvec chain
P X, P^2 X, ..., P^(2^K) X and slices it at dyadic indices, so producing all
K+2 outputs costs exactly 2^K operator applications and the telescoping sum
of the outputs reproduces X bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleOutOfRange
from .graph import LAZY_WALK, Graph, apply_operator

DEFAULT_MAX_SCALE = 3  # largest scale exercised in the reference configurations


@dataclass
class WaveletBank:
    """Operator family {Psi_0..Psi_K, Phi_K} held implicitly via matvec closures."""

    graph: Graph
    K: int = DEFAULT_MAX_SCALE
    matvecs_last_sweep: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be >= 0")

    def _check_scale(self, k: int):
        if not 0 <= k <= self.K:
            raise ScaleOutOfRange(f"scale {k} outside 0..{self.K}")


def _dyadic_chain(g: Graph, X: np.ndarray, K: int):
    """Yield (power, P^power X) at the dyadic powers 1, 2, 4, ..., 2^K."""
    Y = X
    nxt = 1
    count = 0
    snapshots = {}
    for j in range(1, 2 ** K + 1):
        Y = apply_operator(g, LAZY_WALK, Y)
        count += 1
        if j == nxt:
            snapshots[j] = Y
            nxt *= 2
    return snapshots, count


def wavelet_apply(bank: WaveletBank, k: int, X: np.ndarray) -> np.ndarray:
    """Psi_k X; the 2^(k-1) prefix of the chain is shared with the 2^k half."""
    bank._check_scale(k)
    X = np.asarray(X, dtype=np.float64)
    if k == 0:
        return X - apply_operator(bank.graph, LAZY_WALK, X)
    half = X
    for _ in range(2 ** (k - 1)):
        half = apply_operator(bank.graph, LAZY_WALK, half)
    full = half
    for _ in range(2 ** k - 2 ** (k - 1)):
        full = apply_operator(bank.graph, LAZY_WALK, full)
    return half - full


def lowpass_apply(bank: WaveletBank, X: np.ndarray) -> np.ndarray:
    """Phi_K X = P^(2^K) X."""
    X = np.asarray(X, dtype=np.float64)
    Y = X
    for _ in range(2 ** bank.K):
        Y = apply_operator(bank.graph, LAZY_WALK, Y)
    return Y


def bank_sweep(bank: WaveletBank, X: np.ndarray) -> list[np.ndarray]:
    """[Psi_0 X, ..., Psi_K X, Phi_K X] from one shared chain (2^K matvecs)."""
    X = np.asarray(X, dtype=np.float64)
    snapshots, count = _dyadic_chain(bank.graph, X, bank.K)
    bank.matvecs_last_sweep = count
    outs = [X - snapshots[1]]
    for k in range(1, bank.K + 1):
        outs.append(snapshots[2 ** (k - 1)] - snapshots[2 ** k])
    outs.append(snapshots[2 ** bank.K])
    return outs
