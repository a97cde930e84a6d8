import gc
import weakref

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
from graphscat.models import ModelSpec, build_model
from graphscat.train import TrainConfig, fit
from graphscat.wavelets import wavelet_sweep

from conftest import (
    TRAINING_SBMS,
    assert_plan,
    dense_ops,
    dense_wavelet,
    mul,
    random_connected_graph,
    reference_backward,
    scale,
    stack_filters,
    take_filter,
    training_sbm,
)

PRESETS = ("gcn-baseline", "sc-gcn", "gsan")

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
        denom = np.maximum(np.abs(numeric), 1.0)
        err = np.max(np.abs(analytic - numeric) / denom)
        assert err < rtol, f"gradient mismatch {err:.2e}"
        p.grad[...] = 0.0


def quadratic(t):
    return mul(t, t)


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
                return to_scalar(quadratic(mul(a, b)))
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
                return to_scalar(quadratic(scale(a, -1.7)))
            if op == "stack_take":
                # the filter-axis ops of the per-filter attention oracle, and
                # column blocks: first gets two overlapping blocks beside its
                # full gradient, second one block beside its full gradient
                stacked = stack_filters([a, b])
                first, second = take_filter(stacked, 0), take_filter(stacked, 1)
                left = mul(ad.take_cols(first, 0, 2), ad.take_cols(first, 1, 3))
                blocks = ad.concat_cols([left, ad.take_cols(second, 2, 3)])
                return to_scalar(quadratic(ad.add(mul(first, second), blocks)))
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
        loss = to_scalar(ad.add(mul(a, a), a))
        ad.backward(loss)
        assert np.allclose(a.grad, 2.0 * a.value + 1.0, atol=1e-12)


class TestMatmulOrientation:
    """Products from SWAP_MIN_ROWS rows and SWAP_MIN_CONTRACTION columns on run
    as (b^T a^T)^T; the rest, and both gradients, keep the plain forms."""

    ROWS, LONG = ad.SWAP_MIN_ROWS, ad.SWAP_MIN_CONTRACTION

    @staticmethod
    def _rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("n,K,k", [
        (ROWS, LONG, 2), (2100, 358, 47),                 # swapped
        (ROWS - 1, LONG, 5), (ROWS, LONG - 1, 5), (400, 358, 16)])
    def test_product_and_gradients_match_plain_formulas(self, rng, n, K, k):
        a = ad.Parameter(rng.standard_normal((n, K)))
        b = ad.Parameter(rng.standard_normal((K, k)))
        out = ad.matmul(a, b)
        swapped = n >= self.ROWS and K >= self.LONG
        assert np.array_equal(out.value, (b.value.T @ a.value.T).T if swapped
                              else a.value @ b.value)
        assert self._rel(out.value, a.value @ b.value) < 1e-12
        g = rng.standard_normal((n, k))
        da, db = out._vjp(g)
        assert self._rel(da, g @ b.value.T) < 1e-12
        assert self._rel(db, a.value.T @ g) < 1e-12

    @pytest.mark.parametrize("n,K,k", [(400, 8, 16), (400, 32, 2), (2100, 8, 16),
                                       (2100, 32, 47), (19717, 8, 2)])
    def test_short_contractions_keep_plain_bits(self, rng, n, K, k):
        # the block-model benchmark multiplies 8 feature columns and the
        # 32 columns of two 16-wide heads
        a, b = rng.standard_normal((n, K)), rng.standard_normal((K, k))
        assert np.array_equal(ad.matmul(ad.constant(a), ad.Parameter(b)).value, a @ b)

    def test_finite_differences_long_contraction(self, rng):
        a = ad.constant(0.1 * rng.standard_normal((self.ROWS, self.LONG)))
        w = ad.Parameter(rng.standard_normal((self.LONG, 2)))
        fd_check(lambda: to_scalar(quadratic(ad.matmul(a, w))), [w])


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


def _array(pgrad):
    """The array of a parent gradient: a full array or a (start, stop, g) block."""
    return pgrad[2] if isinstance(pgrad, tuple) else pgrad


class TestConsumingBackward:
    """backward against conftest.reference_backward, which sums zero-filled
    arrays as acc + pgrad and keeps the graph, and the release of the graph."""

    @pytest.mark.parametrize("shape", list(TRAINING_SBMS))
    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_gradients_bitwise_equal_reference(self, monkeypatch, preset, shape):
        ds = training_sbm(shape)
        model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes, seed=0)
        grads = []
        for walk in (reference_backward, ad.backward):
            walk(ad.masked_cross_entropy(model.forward(ds.graph, ds.features), ds.labels,
                                         ds.splits.train))
            grads.append([p.grad.tobytes() for p in model.parameters()])
            for p in model.parameters():
                p.grad[...] = 0.0
        assert grads[0] == grads[1]
        # and over a short fit, where every step's gradient feeds the next forward
        fitted = []
        for walk in (reference_backward, ad.backward):
            monkeypatch.setattr(ad, "backward", walk)
            model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes,
                                seed=0)
            res = fit(model, ds.graph, ds.features, ds.labels, ds.splits,
                      TrainConfig(max_epochs=5, patience=5))
            fitted.append((res.history, [p.value.tobytes() for p in model.parameters()]))
        assert fitted[0] == fitted[1]

    @staticmethod
    def _shared_node_graph(case, a, b, c):
        """(loss, h): h = ReLU(a + b) gets the gradients that case names."""
        h = ad.relu(ad.add(a, b))
        block = to_scalar(quadratic(ad.take_cols(h, 1, 3)))
        full = to_scalar(mul(h, c))
        if case == "overlapping-blocks":
            return ad.add(block, to_scalar(mul(ad.take_cols(h, 0, 2), c[:, :2]))), h
        if case == "block-then-full":
            return ad.add(block, full), h
        if case == "full-then-block":
            return ad.add(full, block), h
        # add hands the same g to h and to ReLU(b); h then gets a second
        # gradient, which must not be added into that shared array
        shared = to_scalar(mul(ad.add(h, ad.relu(b)), c))
        return ad.add(shared, full if case == "aliased-then-full" else block), h

    @pytest.mark.parametrize("case,arrivals", [
        ("overlapping-blocks", ["block", "block"]), ("block-then-full", ["block", "full"]),
        ("full-then-block", ["full", "block"]), ("aliased-then-full", ["full", "full"]),
        ("aliased-then-block", ["full", "block"])])
    def test_gathered_gradients_equal_reference(self, rng, monkeypatch, case, arrivals):
        a = ad.Parameter(rng.standard_normal((5, 4)))
        b = ad.Parameter(rng.standard_normal((5, 4)))
        c = rng.standard_normal((5, 4))
        loss, _ = self._shared_node_graph(case, a, b, c)
        reference_backward(loss)
        want = [a.grad.tobytes(), b.grad.tobytes()]
        a.grad[...], b.grad[...] = 0.0, 0.0

        # every gradient a VJP hands out, with its bytes when handed out
        seen, gather = [], ad._gather
        monkeypatch.setattr(ad, "_gather", lambda grads, owned, parent, pgrad: (
            seen.append((parent, pgrad, _array(pgrad).tobytes())),
            gather(grads, owned, parent, pgrad)))
        loss, h = self._shared_node_graph(case, a, b, c)
        ad.backward(loss)
        assert [a.grad.tobytes(), b.grad.tobytes()] == want
        # sums went into buffers backward allocated, never into those arrays
        assert all(_array(pgrad).tobytes() == handed for _, pgrad, handed in seen)
        seen = [(parent, pgrad) for parent, pgrad, _ in seen]
        got = [pgrad for parent, pgrad in seen if parent is h]
        assert ["block" if isinstance(g, tuple) else "full" for g in got] == arrivals
        if case.startswith("aliased"):
            # the first gradient of h is the very array its other parent got
            assert any(parent is not h for parent, pgrad in seen if pgrad is got[0])

    @pytest.mark.parametrize("preset", ["sc-gcn", "gsan"])
    def test_backward_frees_the_forward_graph(self, monkeypatch, preset):
        # on the wide block model both presets run per-epoch chains; numpy
        # arrays take weak references where Tensor's slots do not, and a
        # value dies only with its tensor
        ds = training_sbm("wide")
        model = assert_plan(build_model(ModelSpec(preset=preset), ds.features.shape[1],
                                        ds.n_classes, seed=0), "per-call")
        refs = []

        def recorded(name, pick):
            orig = getattr(ad, name)

            def record(*args):
                out = orig(*args)
                refs.append((name, weakref.ref(pick(out).value)))
                return out
            monkeypatch.setattr(ad, name, record)

        recorded("op_apply", lambda out: out)
        recorded("concat_cols", lambda out: out)
        recorded("filter_attention", lambda out: out[0])
        gc.disable()
        try:
            loss = ad.masked_cross_entropy(model.forward(ds.graph, ds.features), ds.labels,
                                           ds.splits.train)
            names = {name for name, _ in refs}
            assert {"op_apply", "concat_cols" if preset == "sc-gcn" else "filter_attention"} <= names
            assert all(ref() is not None for _, ref in refs)
            ad.Tape(loss).backward()
            assert [name for name, ref in refs if ref() is not None] == []
        finally:
            gc.enable()
        for p in model.parameters():
            assert p.value.shape == p.grad.shape and np.any(p.grad != 0)
        if preset == "gsan":
            for head in model.last_attention.heads:
                total = head.alpha_low.sum(axis=0) + head.alpha_band.sum(axis=0)
                assert np.max(np.abs(total - 1.0)) < 1e-12
        assert np.isfinite(float(loss.value))
        with pytest.raises(TapeConsumed):
            ad.backward(loss)

    def test_consumed_intermediate_raises(self, rng):
        a = ad.Parameter(rng.standard_normal((3, 2)))
        h = ad.relu(a)
        ad.backward(to_scalar(quadratic(h)))
        with pytest.raises(TapeConsumed):
            ad.backward(to_scalar(h))
        assert h.parents == ()


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
        # only a Parameter has a grad slot, and the tape is neither walked nor consumed
        c = ad.constant(rng.standard_normal((2, 2)))
        root = to_scalar(quadratic(c))
        ad.backward(root)
        assert not hasattr(c, "grad") and not hasattr(root, "grad")
        assert root.parents and root._vjp is not None
