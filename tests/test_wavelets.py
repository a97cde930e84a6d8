import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
from graphscat.errors import ScaleOutOfRange
from graphscat.graph import LAZY_WALK, apply_operator, build_graph
from graphscat.wavelets import MAX_SCALE, bank_sweep, check_scales, wavelet_sweep

from conftest import count_kernel_calls, dense_ops, dense_wavelet, random_connected_graph


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def two_coloring(n):
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])


def sweep(g, scales, x):
    """[Psi_k x for k in scales] as arrays, from one off-tape sweep."""
    return [t.value for t in wavelet_sweep(g, scales, ad.constant(x))]


def lowpass(g, K, x):
    """Phi_K x, the last output of the bank sweep."""
    return bank_sweep(g, K, x)[-1]


class TestWaveletApply:
    def test_psi0_fixes_c4_two_coloring(self):
        g = build_graph(cycle(4))
        x = two_coloring(4)
        assert np.array_equal(sweep(g, [0], x)[0], x)

    def test_constant_annihilated_on_regular_graph(self):
        g = build_graph(cycle(8))
        x = np.full(8, 2.5)
        for out in sweep(g, range(4), x):
            assert np.max(np.abs(out)) < 1e-12

    def test_p3_scale_one_impulse_matches_dense_oracle(self):
        edges = [(0, 1), (1, 2)]
        g = build_graph(edges)
        P = dense_ops(3, edges)["P"]
        x = np.array([1.0, 0.0, 0.0])
        expected = P @ x - P @ (P @ x)
        out, = sweep(g, [1], x)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out, [0.125, 0.0, -0.125], atol=1e-12)

    def test_scale_out_of_range(self):
        g = build_graph(cycle(4))
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -1 must be >= 0"):
            sweep(g, [0, -1], np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -3 must be >= 0"):
            bank_sweep(g, -3, np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="^wavelet scale 13 must be <= 12$"):
            sweep(g, [0, 13], np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="^wavelet scale 13 must be <= 12$"):
            bank_sweep(g, 13, np.zeros(4))
        check_scales((0, MAX_SCALE))


class TestLowpass:
    def test_k_zero_is_single_step(self, rng, monkeypatch):
        edges, g = random_connected_graph(rng, 9)
        X = rng.standard_normal((9, 2))
        expected = apply_operator(g, LAZY_WALK, X)
        calls = count_kernel_calls(monkeypatch)
        assert np.array_equal(lowpass(g, 0, X), expected)
        assert len(calls) == 1

    def test_large_k_approaches_stationary_direction(self, rng):
        # non-bipartite connected graph: columns converge to deg/sum(deg) * mass
        edges, g = random_connected_graph(rng, 10, extra=6)
        P = dense_ops(10, edges)["P"]
        x = rng.standard_normal(10)
        out = lowpass(g, 6, x)
        oracle = np.linalg.matrix_power(P, 2 ** 6) @ x
        assert np.allclose(out, oracle, atol=1e-9)
        stationary = g.degrees / g.degrees.sum() * x.sum()
        assert np.max(np.abs(out - stationary)) < 1e-3

    def test_constant_preserved_on_regular_graph(self):
        g = build_graph(cycle(6))
        x = np.full(6, -1.75)
        assert np.allclose(lowpass(g, 2, x), x, atol=1e-12)


class TestBankSweep:
    def test_telescoping_identity(self, rng):
        edges, g = random_connected_graph(rng, 25, weighted=True)
        X = rng.standard_normal((25, 3))
        outs = bank_sweep(g, 3, X)
        assert len(outs) == 3 + 2
        assert np.max(np.abs(sum(outs) - X)) < 1e-10

    def test_k1_c4_two_coloring(self):
        g = build_graph(cycle(4))
        x = two_coloring(4)
        outs = bank_sweep(g, 1, x)
        assert np.array_equal(outs[0], x)
        assert np.max(np.abs(outs[1])) < 1e-12
        assert np.max(np.abs(outs[2])) < 1e-12

    def test_zero_input(self):
        g = build_graph(cycle(5))
        outs = bank_sweep(g, 2, np.zeros((5, 2)))
        for out in outs:
            assert np.array_equal(out, np.zeros((5, 2)))

    @pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
    def test_matvec_count_is_2_to_K(self, rng, monkeypatch, K):
        edges, g = random_connected_graph(rng, 8)
        x = rng.standard_normal(8)
        calls = count_kernel_calls(monkeypatch)
        bank_sweep(g, K, x)
        assert len(calls) == 2 ** K
        calls.clear()
        sweep(g, range(K + 1), x)
        assert len(calls) == 2 ** K

    def test_sweep_matches_individual_applies(self, rng):
        edges, g = random_connected_graph(rng, 12)
        P = dense_ops(12, edges)["P"]
        X = rng.standard_normal((12, 2))
        outs = bank_sweep(g, 3, X)
        for k in range(4):
            assert np.array_equal(outs[k], sweep(g, [k], X)[0])
        assert np.allclose(outs[-1], np.linalg.matrix_power(P, 8) @ X, atol=1e-12)


class TestDenseOracleAgreement:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_all_scales_match_dense_operators(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 17))
        edges, g = random_connected_graph(r, n)
        P = dense_ops(n, edges)["P"]
        x = r.standard_normal(n)
        for k, out in enumerate(sweep(g, range(4), x)):
            assert np.max(np.abs(out - dense_wavelet(P, k) @ x)) < 1e-9
        assert np.max(np.abs(lowpass(g, 3, x)
                             - np.linalg.matrix_power(P, 8) @ x)) < 1e-9


class TestFrameBounds:
    def test_nonexpansive_in_weighted_norm(self, rng):
        for trial in range(10):
            n = int(rng.integers(5, 40))
            edges, g = random_connected_graph(rng, n)
            x = rng.standard_normal(n)
            norm_x = np.sqrt(x @ (x / g.degrees))
            for y in sweep(g, range(4), x):
                norm_y = np.sqrt(y @ (y / g.degrees))
                assert norm_y <= norm_x * (1.0 + 1e-8)
