import numpy as np
import pytest

from graphscat import autodiff as ad
from graphscat.errors import ScaleOutOfRange
from graphscat.graph import SYM_NORM_ADJACENCY, apply_operator, build_graph
from graphscat.scattering import (
    ABS,
    IDENTITY,
    Nonlinearity,
    cascade,
    leaky,
)

from conftest import count_kernel_calls, dense_ops, dense_wavelet, random_connected_graph


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def two_coloring(n):
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])


class TestNonlinearity:
    def test_abs_pow_one_normalizes_to_abs(self):
        # a q = 1 concat channel ends in ad.abs_pow(t, 1): bitwise ABS, forward and back
        x = np.array([[-2.5, 0.0, 3.0, -1e-300]])
        upstream = np.array([[0.3, -1.0, 2.0, 7.0]])
        a, b = ad.Parameter(x.copy()), ad.Parameter(x.copy())
        got, want = ad.abs_pow(a, 1.0), ABS.apply_tensor(b)
        ad.backward(ad.Tensor(0.0, (got,), lambda g: (upstream,)))
        ad.backward(ad.Tensor(0.0, (want,), lambda g: (upstream,)))
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(a.grad, b.grad)

    def test_unknown_kind_rejected(self):
        for kind in ("tanh", "sigmoid"):
            with pytest.raises(ValueError, match="unknown nonlinearity"):
                Nonlinearity(kind)

    def test_monotonicity_flags(self):
        assert IDENTITY.is_strictly_monotonic
        assert leaky(0.2).is_strictly_monotonic
        assert not leaky(0.0).is_strictly_monotonic
        assert not ABS.is_strictly_monotonic

    def test_apply_values(self):
        x = ad.constant(np.array([-2.0, 0.0, 3.0]))
        assert np.array_equal(ABS.apply_tensor(x).value, [2.0, 0.0, 3.0])
        assert np.array_equal(leaky(0.5).apply_tensor(x).value, [-1.0, 0.0, 3.0])
        assert IDENTITY.apply_tensor(x) is x


class TestCascade:
    def test_empty_path_is_identity(self, rng):
        edges, g = random_connected_graph(rng, 7)
        X = rng.standard_normal((7, 2))
        assert np.array_equal(cascade(g, [()], ABS, X)[0], X)

    def test_single_scale_on_c4_two_coloring(self):
        g = build_graph(cycle(4))
        x = two_coloring(4)
        assert np.array_equal(cascade(g, [(0,)], ABS, x)[0], x)

    def test_two_step_abs_cascade_annihilates_two_coloring(self):
        # |Psi_0 x| is constant on the regular cycle, then Psi_0 kills it
        g = build_graph(cycle(4))
        x = two_coloring(4)
        out = cascade(g, [(0, 0)], ABS, x)[0]
        assert np.max(np.abs(out)) < 1e-12

    def test_matches_dense_composition_oracle(self, rng):
        edges, g = random_connected_graph(rng, 9)
        P = dense_ops(9, edges)["P"]
        x = rng.standard_normal((9, 2))
        expected = dense_wavelet(P, 2) @ np.abs(dense_wavelet(P, 1)
                                                @ np.abs(dense_wavelet(P, 0) @ x))
        out = cascade(g, [(0, 1, 2)], ABS, x)[0]
        assert np.max(np.abs(out - expected)) < 1e-10

    @pytest.mark.parametrize("paths,kernel_calls", [
        # one 2^2-step sweep gives Psi_0 and Psi_2 to every path; (0, 1) and
        # (2, 0, 1) then add 2 and 1 + 2 steps; a repeated path gets its own
        # output, in order
        pytest.param([(), (2,), (0, 1), (2, 0, 1), (0,), (2,)], 4 + 2 + (1 + 2),
                     id="first-layer"),
        # the prefix (0,) runs one sweep to 2^3 for all three second wavelets,
        # not 2 + 4 + 8 steps
        pytest.param([(0, 1), (0, 2), (0, 3)], 1 + 8, id="shared-prefix"),
        # (0, 1) is a prefix of (0, 1, 2): its node is swept on, not rebuilt
        pytest.param([(0, 1), (0, 1, 2)], 1 + 2 + 4, id="nested"),
        # second order at J = 3: one sweep per first scale that a second follows
        pytest.param([(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                      (2, 3)], 8 + (8 + 8 + 8), id="second-order-J3"),
    ])
    def test_shared_first_wavelets_change_no_value(self, rng, monkeypatch, paths,
                                                   kernel_calls):
        # each distinct prefix is swept once; every output is bitwise the one
        # of a call on its path alone
        edges, g = random_connected_graph(rng, 9)
        x = rng.standard_normal((9, 3))
        want = [cascade(g, [p], ABS, x)[0] for p in paths]
        calls = count_kernel_calls(monkeypatch)
        got = cascade(g, paths, ABS, x)
        assert len(calls) == kernel_calls
        for u, v in zip(got, want, strict=True):
            assert np.array_equal(u, v)

    def test_scale_out_of_range(self, monkeypatch):
        # the error names the first scale outside 0..MAX_SCALE, and every
        # scale is checked before the first chain runs
        g = build_graph(cycle(4))
        assert np.array_equal(cascade(g, [(0, 3)], ABS, np.zeros(4))[0], np.zeros(4))
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -1 must be >= 0"):
            cascade(g, [(0, -1)], ABS, np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -2 "):
            cascade(g, [(0,), (-2, 0)], ABS, np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -3 "):
            cascade(g, [(1,), (0, -3)], ABS, np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="^wavelet scale 13 must be <= 12$"):
            cascade(g, [(13,)], ABS, np.zeros(4))
        with pytest.raises(ScaleOutOfRange, match="^wavelet scale 30 must be <= 12$"):
            cascade(g, [(1,), (0, 30)], ABS, np.zeros(4))
        assert calls == []

    def test_permutation_equivariance(self, rng):
        n = 11
        edges, g = random_connected_graph(rng, n)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        pg = build_graph([(int(perm[u]), int(perm[v])) for u, v in edges], n=n)
        x = rng.standard_normal((n, 2))
        out = cascade(g, [(0, 2)], ABS, x)[0]
        pout = cascade(pg, [(0, 2)], ABS, x[inv])[0]
        assert np.max(np.abs(pout - out[inv])) < 1e-12

    def test_energy_bound_in_weighted_norm(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 30))
            edges, g = random_connected_graph(rng, n)
            x = rng.standard_normal(n)
            norm_x = np.sqrt(x @ (x / g.degrees))
            for p in [(0,), (1, 2), (0, 1, 3)]:
                u = cascade(g, [p], ABS, x)[0]
                norm_u = np.sqrt(u @ (u / g.degrees))
                assert norm_u <= norm_x * (1.0 + 1e-8)


class TestTwoColoringDichotomy:
    @pytest.mark.parametrize("name", ["C4", "C6", "C8", "K33", "cube"])
    def test_two_coloring_dichotomy(self, name):
        from graphscat.fixtures import two_coloring_cases
        cases = {nm: (g, x) for nm, g, x in two_coloring_cases()}
        g, x = cases[name]
        low = apply_operator(g, SYM_NORM_ADJACENCY, x)
        assert np.max(np.abs(low)) < 1e-12
        assert np.max(np.abs(cascade(g, [(0,)], ABS, x)[0] - x)) < 1e-12

