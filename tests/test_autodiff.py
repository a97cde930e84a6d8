import numpy as np
import pytest

import graphscat.autodiff as ad
from graphscat.errors import TapeConsumed
from graphscat.graph import (
    LAZY_WALK,
    RENORM_ADJACENCY,
    SYM_NORM_ADJACENCY,
    residual_diffusion,
)
from graphscat.wavelets import wavelet_sweep

from conftest import (
    dense_ops,
    dense_wavelet,
    random_connected_graph,
    stack_filters,
    take_filter,
)

FD_H = 1e-5
FD_RTOL = 1e-5


def fd_check(build_loss, params, h=FD_H, rtol=FD_RTOL):
    """Central finite differences against the tape gradient for every entry."""
    loss = build_loss()
    ad.backward(loss)
    for p in params:
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.value[idx]
            p.value[idx] = orig + h
            up = float(build_loss().value)
            p.value[idx] = orig - h
            dn = float(build_loss().value)
            p.value[idx] = orig
            numeric[idx] = (up - dn) / (2 * h)
        scale = np.maximum(np.abs(numeric), 1.0)
        err = np.max(np.abs(analytic - numeric) / scale)
        assert err < rtol, f"gradient mismatch {err:.2e}"
        p.grad[...] = 0.0


def quadratic(t):
    return ad.mul(t, t)


def to_scalar(t):
    # reduce to a scalar through ops already under test elsewhere
    total = ad.matmul(ad.matmul(ad.constant(np.ones((1, t.value.shape[0]))), t),
                      ad.constant(np.ones((t.value.shape[1], 1))))
    return ad.Tensor(total.value.reshape(()), (total,),
                     lambda g: (g.reshape(1, 1),))


class TestBasicOps:
    def test_matmul_quadratic_hand_gradient(self, rng):
        # loss = ||X Theta||^2, gradient 2 X^T X Theta; the 300 x 200 X is a
        # tall contraction like a wide first layer's weight gradient
        for n, d, k in ((4, 3, 2), (300, 200, 7)):
            X = rng.standard_normal((n, d))
            theta = ad.Parameter(rng.standard_normal((d, k)))
            prod = ad.matmul(ad.constant(X), theta)
            loss = to_scalar(quadratic(prod))
            ad.backward(loss)
            want = 2.0 * X.T @ X @ theta.value
            assert np.allclose(theta.grad, want, rtol=1e-12, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul", "concat",
                                    "relu", "leaky", "abs", "abs_pow", "scale",
                                    "stack_take", "softmax"])
    def test_finite_differences(self, rng, op):
        a = ad.Parameter(rng.standard_normal((5, 3)))
        b = ad.Parameter(rng.standard_normal((5, 3)))
        w = ad.Parameter(rng.standard_normal((3, 4)))
        bias = ad.Parameter(rng.standard_normal((1, 3)))

        def build():
            if op == "add":
                return to_scalar(quadratic(ad.add(a, bias)))
            if op == "sub":
                return to_scalar(quadratic(ad.sub(a, b)))
            if op == "mul":
                return to_scalar(quadratic(ad.mul(a, b)))
            if op == "matmul":
                return to_scalar(quadratic(ad.matmul(a, w)))
            if op == "concat":
                return to_scalar(quadratic(ad.concat_cols([a, b])))
            if op == "relu":
                return to_scalar(quadratic(ad.relu(a)))
            if op == "leaky":
                return to_scalar(quadratic(ad.leaky_relu(a, 0.2)))
            if op == "abs":
                return to_scalar(quadratic(ad.abs_val(a)))
            if op == "abs_pow":
                return to_scalar(ad.abs_pow(a, 3.0))
            if op == "scale":
                return to_scalar(quadratic(ad.scale(a, -1.7)))
            if op == "stack_take":
                # the filter-axis ops of the per-filter attention oracle
                stacked = stack_filters([a, b])
                return to_scalar(quadratic(ad.mul(take_filter(stacked, 0),
                                                  take_filter(stacked, 1))))
            # the fused attention: three heads of width 1, two filters (b
            # band-pass), gradients through scores, softmax and weighted sum
            return to_scalar(quadratic(ad.filter_attention(a, [a, b], att, 1, 0.2)[0]))

        att = ad.Parameter(rng.standard_normal((2, 3)))
        params = {"add": [a, bias], "sub": [a, b], "mul": [a, b],
                  "matmul": [a, w], "concat": [a, b], "softmax": [a, b, att]}.get(op, [a, b])
        fd_check(build, params)

    def test_abs_subgradient_zero_at_origin(self):
        a = ad.Parameter(np.array([[0.0, -2.0, 3.0]]))
        loss = to_scalar(ad.abs_val(a))
        ad.backward(loss)
        assert np.array_equal(a.grad, [[0.0, -1.0, 1.0]])

    def test_abs_pow_gradient_at_origin(self):
        a = ad.Parameter(np.array([[0.0, 1.0]]))
        loss = to_scalar(ad.abs_pow(a, 4.0))
        ad.backward(loss)
        assert np.array_equal(a.grad, [[0.0, 4.0]])

    def test_broadcast_bias_gradient_sums_rows(self, rng):
        a = ad.constant(rng.standard_normal((6, 2)))
        bias = ad.Parameter(np.zeros((1, 2)))
        loss = to_scalar(ad.add(a, bias))
        ad.backward(loss)
        assert np.allclose(bias.grad, np.full((1, 2), 6.0))

    def test_parameter_reuse_accumulates(self, rng):
        a = ad.Parameter(rng.standard_normal((3, 3)))
        loss = to_scalar(ad.add(ad.mul(a, a), a))
        ad.backward(loss)
        assert np.allclose(a.grad, 2.0 * a.value + 1.0, atol=1e-12)


class TestOperatorGradients:
    # ids skip kind2, the retired random-walk operator, so the others keep theirs
    @pytest.mark.parametrize("kind", [LAZY_WALK, RENORM_ADJACENCY,
                                      SYM_NORM_ADJACENCY, residual_diffusion(0.5)],
                             ids=["kind0", "kind1", "kind3", "kind4"])
    def test_finite_differences_through_operator(self, rng, kind):
        edges, g = random_connected_graph(rng, 7, weighted=True)
        x = ad.Parameter(rng.standard_normal((7, 2)))

        def build():
            return to_scalar(quadratic(ad.op_apply(g, kind, x)))

        fd_check(build, [x])

    def test_gradient_through_wavelet_matches_dense_operator(self, rng):
        # dense oracle: loss = ||Psi_k X||^2 has gradient 2 Psi_k^T Psi_k X
        for n in (5, 8):
            edges, g = random_connected_graph(rng, n)
            P = dense_ops(n, edges)["P"]
            for k in (0, 1, 2):
                Psi = dense_wavelet(P, k)
                x = ad.Parameter(rng.standard_normal((n, 2)))
                loss = to_scalar(quadratic(wavelet_sweep(g, (k,), x)[0]))
                ad.backward(loss)
                expected = 2.0 * Psi.T @ Psi @ x.value
                assert np.max(np.abs(x.grad - expected)) < 1e-9


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        logits = ad.constant(np.zeros((6, 4)))
        labels = np.array([0, 1, 2, 3, 0, 1])
        loss = ad.masked_cross_entropy(logits, labels, np.arange(6))
        assert float(loss.value) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_logits_loss_near_zero(self):
        labels = np.array([0, 1])
        logits = np.full((2, 2), -50.0)
        logits[np.arange(2), labels] = 50.0
        loss = ad.masked_cross_entropy(ad.constant(logits), labels, np.arange(2))
        assert float(loss.value) < 1e-12

    def test_finite_differences(self, rng):
        z = ad.Parameter(rng.standard_normal((7, 3)))
        labels = rng.integers(0, 3, size=7)
        mask = np.array([0, 2, 3, 6])

        def build():
            return ad.masked_cross_entropy(z, labels, mask)

        fd_check(build, [z])

    def test_masked_rows_get_zero_gradient(self, rng):
        z = ad.Parameter(rng.standard_normal((5, 2)))
        loss = ad.masked_cross_entropy(z, np.zeros(5, dtype=int), np.array([1, 3]))
        ad.backward(loss)
        assert np.array_equal(z.grad[[0, 2, 4]], np.zeros((3, 2)))


class TestTape:
    def test_tape_consumed(self, rng):
        a = ad.Parameter(rng.standard_normal((2, 2)))
        tape = ad.Tape(to_scalar(quadratic(a)))
        tape.backward()
        with pytest.raises(TapeConsumed):
            tape.backward()

    def test_backward_requires_scalar(self, rng):
        a = ad.Parameter(rng.standard_normal((2, 2)))
        with pytest.raises(Exception):
            ad.backward(quadratic(a))


class TestGradientPruning:
    def test_requires_grad_follows_parents(self, rng):
        c = ad.constant(rng.standard_normal((3, 2)))
        p = ad.Parameter(rng.standard_normal((2, 2)))
        assert not ad.relu(ad.matmul(c, c.value.T)).requires_grad
        assert ad.relu(ad.matmul(c, p)).requires_grad

    def test_constant_subgraph_is_not_visited(self, rng):
        calls = []

        def spy(g):
            calls.append(g.shape)
            return (g,)

        c = ad.constant(rng.standard_normal((4, 3)))
        hidden = ad.Tensor(c.value * 2.0, (c,), spy)
        p = ad.Parameter(rng.standard_normal((3, 2)))
        ad.backward(to_scalar(ad.matmul(hidden, p)))
        assert calls == []
        assert np.allclose(p.grad, hidden.value.T @ np.ones((4, 2)), atol=1e-12)

    def test_matmul_skips_product_for_constant_operand(self, rng):
        c = ad.constant(rng.standard_normal((4, 3)))
        p = ad.Parameter(rng.standard_normal((3, 2)))
        out = ad.matmul(c, p)
        grads = out._vjp(np.ones((4, 2)))
        assert grads[0] is None
        assert np.allclose(grads[1], c.value.T @ np.ones((4, 2)), atol=1e-12)

    def test_root_without_parameters_is_a_no_op(self, rng):
        c = ad.constant(rng.standard_normal((2, 2)))
        ad.backward(to_scalar(quadratic(c)))
        assert c.grad is None
