"""Dense small-n spectral machinery for validating filters in the frequency domain.

Nothing here is used on the training path; it exists so that every filter's
measured per-eigenvalue multiplier can be compared against its closed form.
The lazy walk P is not symmetric, so walk-based filters are measured through
the similarity transform D^-1/2 P D^1/2 = I - L/2, which is symmetric and
shares P's eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IsolatedNodeError,
    NotSymmetric,
    TooLargeForDense,
)
from .graph import Graph
from .wavelets import check_scales

DEFAULT_DENSE_LIMIT = 2048


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and an orthonormal eigenvector matrix Q (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dense_adjacency(g: Graph) -> np.ndarray:
    """The read-only Graph.dense_weights, refused above DEFAULT_DENSE_LIMIT nodes."""
    if g.n > DEFAULT_DENSE_LIMIT:
        raise TooLargeForDense(f"n={g.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}")
    return g.dense_weights


def sym_normalized_laplacian(g: Graph) -> np.ndarray:
    """L = I - D^-1/2 W D^-1/2, symmetrized after rounding."""
    if g.has_isolated_nodes:
        raise IsolatedNodeError("normalized Laplacian undefined with degree-zero nodes")
    W = dense_adjacency(g)
    s = 1.0 / np.sqrt(g.degrees)
    L = np.eye(g.n) - (s[:, None] * W) * s[None, :]
    return 0.5 * (L + L.T)


def eigendecompose(M: np.ndarray) -> EigenDecomposition:
    """LAPACK eigensolver (numpy eigh) for symmetric dense matrices.

    Eigenvalues come out ascending; each eigenvector is signed so its
    largest-magnitude entry (lowest index on ties) is positive.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {M.shape}")
    if np.max(np.abs(M - M.T), initial=0.0) > 1e-10:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    lam, Q = np.linalg.eigh(0.5 * (M + M.T))
    if Q.size:
        peak = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])]
        Q = np.where(peak < 0, -Q, Q)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=Q)


@dataclass(frozen=True)
class FilterSpec:
    """Selector for spectral_response.

    kinds: "gcn_unnormalized" (2I - L), "wavelet" (scale k),
    "lowpass" (max scale K), "chebyshev" (coefficient list thetas).
    """

    kind: str
    k: int | None = None
    thetas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind in ("wavelet", "lowpass"):
            if self.k is None:
                raise ValueError(f"{self.kind} filter needs a scale k")
            check_scales((self.k,))


def gcn_unnormalized() -> FilterSpec:
    return FilterSpec("gcn_unnormalized")


def wavelet_filter(k: int) -> FilterSpec:
    return FilterSpec("wavelet", k=int(k))


def lowpass_filter(K: int) -> FilterSpec:
    return FilterSpec("lowpass", k=int(K))


def chebyshev_filter(thetas) -> FilterSpec:
    return FilterSpec("chebyshev", thetas=tuple(float(t) for t in thetas))


def _filter_matrix(flt: FilterSpec, L: np.ndarray, lam_max: float) -> np.ndarray:
    """Dense symmetric realization of a filter in terms of the Laplacian.

    Walk filters use the symmetrized conjugate P_sym = I - L/2 of the lazy
    walk; the similarity transform preserves the spectrum. Chebyshev
    filters rescale L by its largest eigenvalue lam_max.
    """
    n = L.shape[0]
    eye = np.eye(n)
    if flt.kind == "gcn_unnormalized":
        return 2.0 * eye - L
    if flt.kind in ("wavelet", "lowpass"):
        P = eye - 0.5 * L
        if flt.kind == "lowpass":
            return np.linalg.matrix_power(P, 2 ** flt.k)
        if flt.k == 0:
            return eye - P
        return np.linalg.matrix_power(P, 2 ** (flt.k - 1)) - np.linalg.matrix_power(P, 2 ** flt.k)
    if flt.kind == "chebyshev":
        Lt = 2.0 * L / lam_max - eye
        acc = np.zeros_like(L)
        t_prev, t_cur = eye, Lt
        for j, theta in enumerate(flt.thetas):
            tj = t_prev if j == 0 else t_cur
            acc = acc + theta * tj
            if j >= 1:
                t_prev, t_cur = t_cur, 2.0 * Lt @ t_cur - t_prev
        return acc
    raise ValueError(f"unknown filter kind {flt.kind!r}")


def spectral_response(g: Graph, filters) -> tuple[np.ndarray, np.ndarray]:
    """Measure each filter's per-eigenvalue multipliers by conjugating with Q.

    Returns (eigenvalues of the normalized Laplacian, multipliers), with one
    row of multipliers per filter in the given sequence. L and its
    eigendecomposition are built once for all the filters. Every supported
    filter commutes with the Laplacian, so each conjugated matrix is
    diagonal up to roundoff and its diagonal is the measured response. A
    graph without nodes has no spectrum and is rejected.
    """
    if g.n == 0:
        raise ValueError("graph has no nodes, so it has no spectrum")
    L = sym_normalized_laplacian(g)
    eig = eigendecompose(L)
    lam_max = float(np.max(eig.eigenvalues))
    Q = eig.eigenvectors
    responses = np.empty((len(filters), g.n))
    for i, flt in enumerate(filters):
        responses[i] = np.diag(Q.T @ _filter_matrix(flt, L, lam_max) @ Q)
    return eig.eigenvalues.copy(), responses
