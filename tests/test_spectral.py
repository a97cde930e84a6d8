import numpy as np
import pytest
from hypothesis import given, settings

from graphscat.errors import NotSymmetric, ScaleOutOfRange, TooLargeForDense
from graphscat.graph import build_graph
from graphscat.spectral import (
    FilterSpec,
    chebyshev_filter,
    dense_adjacency,
    eigendecompose,
    gcn_unnormalized,
    lowpass_filter,
    spectral_response,
    sym_normalized_laplacian,
    wavelet_filter,
)

from conftest import (
    count_eigendecompositions,
    dense_ops,
    per_node_dense_adjacency,
    random_connected_graph,
    weighted_graphs,
)


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def char_poly_roots(M):
    """Faddeev-LeVerrier characteristic polynomial, then numpy root finding.

    Deliberately avoids any eigensolver so it can serve as an oracle."""
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(M @ Mk) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestLaplacian:
    @settings(max_examples=200, deadline=None)
    @given(g=weighted_graphs())
    def test_dense_adjacency_equals_per_node_fill(self, g):
        assert np.array_equal(dense_adjacency(g), per_node_dense_adjacency(g))

    def test_k2_eigenvalues(self):
        g = build_graph([(0, 1)])
        L = sym_normalized_laplacian(g)
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])
        lam = eigendecompose(L).eigenvalues
        assert np.allclose(lam, [0.0, 2.0], atol=1e-10)

    def test_triangle_eigenvalues_against_lapack_oracle(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        L = sym_normalized_laplacian(g)
        lam = eigendecompose(L).eigenvalues
        assert np.allclose(lam, np.linalg.eigvalsh(L), atol=1e-10)
        assert np.allclose(lam, [0.0, 1.5, 1.5], atol=1e-10)

    def test_disconnected_pair_zero_multiplicity_two(self):
        g = build_graph([(0, 1), (2, 3)])
        lam = eigendecompose(sym_normalized_laplacian(g)).eigenvalues
        assert np.sum(np.abs(lam) < 1e-10) == 2

    def test_c4_eigenvalues_against_char_poly_oracle(self):
        g = build_graph(cycle(4))
        L = sym_normalized_laplacian(g)
        lam = eigendecompose(L).eigenvalues
        assert np.allclose(lam, char_poly_roots(L), atol=1e-8)
        assert np.allclose(lam, [0.0, 1.0, 1.0, 2.0], atol=1e-10)

    def test_dense_limit(self):
        g = build_graph(cycle(10))
        with pytest.raises(TooLargeForDense):
            sym_normalized_laplacian(g, dense_limit=5)

    def test_exactly_symmetric(self, rng):
        edges, g = random_connected_graph(rng, 20, weighted=True)
        L = sym_normalized_laplacian(g)
        assert np.array_equal(L, L.T)

    def test_eigenvalues_in_zero_two(self, rng):
        for n in (6, 20, 48):
            _, g = random_connected_graph(rng, n)
            lam = eigendecompose(sym_normalized_laplacian(g)).eigenvalues
            assert lam.min() >= -1e-8
            assert lam.max() <= 2.0 + 1e-8


class TestEigendecompose:
    def test_identity(self):
        eig = eigendecompose(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        eig = eigendecompose(np.diag([0.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [0.0, 2.0])
        assert np.allclose(eig.eigenvectors, np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_against_lapack_oracle(self, rng):
        for n in (2, 5, 16, 33):
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            eig = eigendecompose(M)
            assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(M), atol=1e-9)
            Q = eig.eigenvectors
            assert np.max(np.abs(Q.T @ Q - np.eye(n))) < 1e-8
            assert np.max(np.abs(M @ Q - Q * eig.eigenvalues)) < 1e-8

    def test_sign_convention(self, rng):
        M = rng.standard_normal((6, 6))
        M = 0.5 * (M + M.T)
        Q = eigendecompose(M).eigenvectors
        for j in range(6):
            k = int(np.argmax(np.abs(Q[:, j])))
            assert Q[k, j] > 0

    def test_deterministic(self, rng):
        M = rng.standard_normal((8, 8))
        M = 0.5 * (M + M.T)
        a = eigendecompose(M)
        b = eigendecompose(M)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_renorm_adjacency_spectrum_in_unit_interval(self, rng):
        for n in (8, 24, 64):
            edges, _ = random_connected_graph(rng, n)
            A = dense_ops(n, edges)["A"]
            lam = eigendecompose(A).eigenvalues
            assert lam.min() >= -1.0 - 1e-10
            assert lam.max() <= 1.0 + 1e-10


class TestFourier:
    """The eigenvector basis Q of eigendecompose as a graph Fourier basis, x_hat = Q^T x."""

    def test_basis_vector_maps_to_unit_coefficient(self, rng):
        edges, g = random_connected_graph(rng, 9)
        eig = eigendecompose(sym_normalized_laplacian(g))
        for i in (0, 4, 8):
            xhat = eig.eigenvectors.T @ eig.eigenvectors[:, i]
            expected = np.zeros(9)
            expected[i] = 1.0
            assert np.allclose(xhat, expected, atol=1e-8)

    def test_round_trip(self, rng):
        edges, g = random_connected_graph(rng, 14)
        eig = eigendecompose(sym_normalized_laplacian(g))
        X = rng.standard_normal((14, 3))
        Q = eig.eigenvectors
        assert np.max(np.abs(Q @ (Q.T @ X) - X)) < 1e-8

    def test_constant_signal_lives_on_zero_mode(self, rng):
        # oracle: the zero eigenvector is D^(1/2) 1 normalized, so on a
        # regular graph the constant signal carries all energy on mode 0
        g = build_graph(cycle(12))
        eig = eigendecompose(sym_normalized_laplacian(g))
        x = np.ones(12)
        xhat = eig.eigenvectors.T @ x
        assert abs(np.sum(xhat ** 2) - xhat[0] ** 2) < 1e-8

        # irregular graph: mode-0 coefficient still matches the oracle vector
        edges, g = random_connected_graph(rng, 12)
        eig = eigendecompose(sym_normalized_laplacian(g))
        q0 = np.sqrt(g.degrees)
        q0 /= np.linalg.norm(q0)
        xhat = eig.eigenvectors.T @ np.ones(12)
        assert abs(abs(xhat[0]) - abs(q0 @ np.ones(12))) < 1e-8

    def test_parseval(self, rng):
        edges, g = random_connected_graph(rng, 17)
        eig = eigendecompose(sym_normalized_laplacian(g))
        x = rng.standard_normal(17)
        assert abs(np.sum(x ** 2) - np.sum((eig.eigenvectors.T @ x) ** 2)) < 1e-8


class TestSpectralResponse:
    def test_gcn_unnormalized_is_two_minus_lambda(self, rng):
        edges, g = random_connected_graph(rng, 21)
        lam, (resp,) = spectral_response(g, [gcn_unnormalized()])
        assert np.max(np.abs(resp - (2.0 - lam))) < 1e-8

    def test_gcn_zeroes_top_of_spectrum_on_c4(self):
        g = build_graph(cycle(4))
        lam, (resp,) = spectral_response(g, [gcn_unnormalized()])
        assert lam[-1] == pytest.approx(2.0, abs=1e-10)
        assert abs(resp[-1]) < 1e-10

    @pytest.mark.parametrize("K", [0, 1, 3])
    def test_lowpass_fixes_zero_mode(self, rng, K):
        edges, g = random_connected_graph(rng, 13)
        lam, (resp,) = spectral_response(g, [lowpass_filter(K)])
        assert abs(resp[0] - 1.0) < 1e-8

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_wavelets_vanish_at_zero_and_are_bandpass(self, rng, k):
        edges, g = random_connected_graph(rng, 19)
        lam, (resp,) = spectral_response(g, [wavelet_filter(k)])
        assert abs(resp[0]) < 1e-8
        assert resp.max() > 1e-3

    def test_wavelet_matches_symmetrized_formula(self, rng):
        edges, g = random_connected_graph(rng, 15)
        for k in (0, 1, 2):
            lam, (resp,) = spectral_response(g, [wavelet_filter(k)])
            mu = 1.0 - lam / 2.0
            formula = (1.0 - mu) if k == 0 else mu ** (2 ** (k - 1)) - mu ** (2 ** k)
            assert np.max(np.abs(resp - formula)) < 1e-8

    def test_chebyshev_constant_term(self, rng):
        edges, g = random_connected_graph(rng, 11)
        lam, (resp,) = spectral_response(g, [chebyshev_filter([1.0])])
        assert np.allclose(resp, 1.0, atol=1e-8)

    def test_chebyshev_matches_recurrence_formula(self, rng):
        edges, g = random_connected_graph(rng, 16)
        thetas = [0.3, -1.2, 0.8, 0.05]
        lam, (resp,) = spectral_response(g, [chebyshev_filter(thetas)])
        lt = 2.0 * lam / lam[-1] - 1.0
        t_prev, t_cur = np.ones_like(lt), lt.copy()
        expected = thetas[0] * t_prev + thetas[1] * t_cur
        for theta in thetas[2:]:
            t_prev, t_cur = t_cur, 2.0 * lt * t_cur - t_prev
            expected += theta * t_cur
        assert np.max(np.abs(resp - expected)) < 1e-8

    def test_lowpass_response_is_power_of_base(self, rng):
        edges, g = random_connected_graph(rng, 12)
        _, (base,) = spectral_response(g, [lowpass_filter(0)])
        for K in (1, 2, 3):
            _, (resp,) = spectral_response(g, [lowpass_filter(K)])
            assert np.max(np.abs(resp - base ** (2 ** K))) < 1e-7

    def test_filters_share_one_eigendecomposition(self, rng, monkeypatch):
        edges, g = random_connected_graph(rng, 14, weighted=True)
        filters = [gcn_unnormalized(), wavelet_filter(1), wavelet_filter(2),
                   lowpass_filter(3), chebyshev_filter([1.0, 0.5])]
        singles = [spectral_response(g, [flt]) for flt in filters]
        calls = count_eigendecompositions(monkeypatch)
        lam, responses = spectral_response(g, filters)
        assert calls == [14]
        assert responses.shape == (5, 14)
        for (lam1, (resp,)), row in zip(singles, responses):
            assert lam1.tobytes() == lam.tobytes() and resp.tobytes() == row.tobytes()

    def test_scales_follow_the_wavelet_rule(self):
        # one rule for every scale: the message scatter and models give
        with pytest.raises(ScaleOutOfRange, match="^wavelet scale -1 must be >= 0$"):
            wavelet_filter(-1)
        with pytest.raises(ScaleOutOfRange, match="^wavelet scale -2 must be >= 0$"):
            lowpass_filter(-2)
        for kind in ("wavelet", "lowpass"):
            with pytest.raises(ValueError, match=f"{kind} filter needs a scale k"):
                FilterSpec(kind)
        assert lowpass_filter(0).k == 0
