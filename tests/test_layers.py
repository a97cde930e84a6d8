import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
from graphscat.errors import IsolatedNodeError, IsolatedNodeWarning, ScaleOutOfRange
from graphscat.graph import build_graph
from graphscat.layers import (
    ATTENTION_LEAKY_SLOPE,
    AttentionState,
    ChannelSpec,
    HeadAttention,
    attention_head,
    attention_ratio,
    band_channel,
    filter_responses,
    gcn_channel,
    hybrid_forward_concat,
    init_attention_params,
    init_hybrid_params,
    layer_filters,
    low_channel,
    precompute_pays,
    residual_conv,
)
from graphscat.models import PRESET_FIELDS, ModelSpec, build_model
from graphscat.scattering import ABS, IDENTITY, cascade, leaky
from graphscat.train import Tape

from conftest import (
    count_kernel_calls,
    dense_ops,
    dense_wavelet,
    per_filter_attention,
    random_connected_graph,
    record_matmul_operands,
)


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestGcnChannel:
    def test_k2_hand_value(self, rng):
        g = build_graph([(0, 1)])
        X = rng.standard_normal((2, 1))
        out = gcn_channel(g, 1, np.eye(1), None, IDENTITY, X)
        mean = (X[0, 0] + X[1, 0]) / 2.0
        assert np.allclose(out.value, [[mean], [mean]], atol=1e-12)

    def test_constant_column_stays_bounded(self, rng):
        # pointwise bound holds on regular graphs where A's rows sum to one;
        # in general the guarantee is the spectral one (|lambda| <= 1)
        g = build_graph(cycle(10))
        X = np.full((10, 1), 4.0)
        out = gcn_channel(g, 2, np.eye(1), None, IDENTITY, X)
        assert np.max(np.abs(out.value)) <= 4.0 + 1e-12

        edges, g = random_connected_graph(rng, 15)
        X = rng.standard_normal((15, 1))
        out = gcn_channel(g, 2, np.eye(1), None, IDENTITY, X)
        assert np.linalg.norm(out.value) <= np.linalg.norm(X) * (1.0 + 1e-12)

    def test_r3_equals_triple_r1(self, rng):
        edges, g = random_connected_graph(rng, 10)
        X = rng.standard_normal((10, 2))
        once = gcn_channel(g, 1, np.eye(2), None, IDENTITY, X).value
        twice = gcn_channel(g, 1, np.eye(2), None, IDENTITY, once).value
        thrice = gcn_channel(g, 1, np.eye(2), None, IDENTITY, twice).value
        direct = gcn_channel(g, 3, np.eye(2), None, IDENTITY, X).value
        assert np.max(np.abs(direct - thrice)) < 1e-12

    def test_isolated_node_rejected(self):
        with pytest.warns(IsolatedNodeWarning):
            g = build_graph([(0, 1)], n=3)
        with pytest.raises(IsolatedNodeError):
            gcn_channel(g, 1, np.eye(1), None, ABS, np.zeros((3, 1)))

    def test_reduces_to_plain_gcn_rule(self, rng):
        # oracle: literal sigma(A X Theta) with dense renormalized A
        edges, g = random_connected_graph(rng, 12)
        A = dense_ops(12, edges)["A"]
        X = rng.standard_normal((12, 3))
        theta = rng.standard_normal((3, 2))
        out = gcn_channel(g, 1, theta, None, leaky(0.1), X)
        z = A @ X @ theta
        assert np.max(np.abs(out.value - np.where(z > 0, z, 0.1 * z))) < 1e-12


class TestHybridConcat:
    SPECS = (low_channel(1, 3), band_channel((1,), 2, q=1.0))

    def test_output_width_is_sum(self, rng):
        edges, g = random_connected_graph(rng, 9)
        params = init_hybrid_params(self.SPECS, 4, rng)
        out = hybrid_forward_concat(g, self.SPECS, params, rng.standard_normal((9, 4)))
        assert out.value.shape == (9, 5)

    def test_zero_input_zero_output(self, rng):
        edges, g = random_connected_graph(rng, 6)
        params = init_hybrid_params(self.SPECS, 4, rng)
        out = hybrid_forward_concat(g, self.SPECS, params, np.zeros((6, 4)))
        assert np.max(np.abs(out.value)) < 1e-12

    def test_channel_order_permutes_blocks(self, rng):
        edges, g = random_connected_graph(rng, 8)
        X = rng.standard_normal((8, 3))
        lows = (low_channel(1, 2), low_channel(2, 3))
        params = init_hybrid_params(lows, 3, np.random.default_rng(0))
        out_a = hybrid_forward_concat(g, lows, params, X).value
        out_b = hybrid_forward_concat(g, lows[::-1], params[::-1], X).value
        assert np.array_equal(out_b, np.concatenate([out_a[:, 2:], out_a[:, :2]], axis=1))

    def test_band_outer_power(self, rng):
        edges, g = random_connected_graph(rng, 7)
        specs = (band_channel((1,), 2, q=4.0),)
        params = init_hybrid_params(specs, 2, rng)
        X = rng.standard_normal((7, 2))
        out = hybrid_forward_concat(g, specs, params, X)
        base = cascade(g, (1,), ABS, X @ params[0][0].value)
        assert np.max(np.abs(out.value - np.abs(base) ** 4)) < 1e-12

    def test_identity_band_channel_reduces_to_cascade(self, rng):
        # Theta = I and no bias: the channel is |U_p X|
        edges, g = random_connected_graph(rng, 8)
        X = rng.standard_normal((8, 3))
        specs = (band_channel((1, 2), 3),)
        out = hybrid_forward_concat(g, specs, [(np.eye(3), None)], X)
        expected = np.abs(cascade(g, (1, 2), ABS, X))
        assert np.max(np.abs(out.value - expected)) < 1e-12

    def test_band_channel_on_three_node_path_matches_dense_oracle(self, rng):
        edges = [(0, 1), (1, 2)]
        g = build_graph(edges)
        P = dense_ops(3, edges)["P"]
        X = rng.standard_normal((3, 2))
        theta = rng.standard_normal((2, 2))
        bias = rng.standard_normal((1, 2))
        out = hybrid_forward_concat(g, (band_channel((0, 1), 2),), [(theta, bias)], X)
        expected = np.abs(dense_wavelet(P, 1) @ np.abs(dense_wavelet(P, 0)
                                                       @ (X @ theta)) + bias)
        assert np.max(np.abs(out.value - expected)) < 1e-10

    def test_band_channel_differentiable_wrt_theta_and_bias(self, rng):
        edges, g = random_connected_graph(rng, 6)
        X = rng.standard_normal((6, 2))
        theta = ad.Parameter(rng.standard_normal((2, 2)))
        bias = ad.Parameter(np.zeros((1, 2)))
        specs = (band_channel((1,), 2, q=2.0),)
        _, (g_theta, g_bias) = _loss_and_grads(
            lambda: hybrid_forward_concat(g, specs, [(theta, bias)], X),
            [theta, bias], np.ones((6, 2)))
        assert np.any(g_theta != 0)
        assert np.any(g_bias != 0)

    def test_reduces_to_gcn_rule_without_band_channels(self, rng):
        # oracle: literal layer rule |A X Theta| with dense renormalized A
        edges, g = random_connected_graph(rng, 10)
        A = dense_ops(10, edges)["A"]
        theta = rng.standard_normal((3, 2))
        X = rng.standard_normal((10, 3))
        out = hybrid_forward_concat(g, (low_channel(1, 2),), [(ad.constant(theta), None)], X)
        assert np.max(np.abs(out.value - np.abs(A @ X @ theta))) < 1e-12

    def test_config_validation(self, rng):
        with pytest.raises(ValueError, match="needs at least one channel"):
            init_hybrid_params((), 2, rng)
        with pytest.raises(ValueError, match="shared weights require equal channel widths"):
            init_attention_params((low_channel(1, 2), band_channel((1,), 3)), 1, 2, rng)
        with pytest.raises(ValueError, match="attention needs at least one head"):
            init_attention_params((low_channel(1, 2),), 0, 2, rng)
        with pytest.raises(ValueError, match="channel width must be >= 1"):
            low_channel(1, 0)
        with pytest.raises(ValueError, match="low-pass power r must be >= 1"):
            low_channel(0, 2)
        with pytest.raises(ValueError, match="band-pass q must be >= 1"):
            band_channel((1,), 2, q=0.5)
        with pytest.raises(ValueError, match="q applies only to band-pass channels"):
            ChannelSpec("low", width=2, q=2.0)

    def test_negative_band_scale_rejected_at_build(self):
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -1 must be >= 0"):
            band_channel((2, -1), 3)
        with pytest.raises(ScaleOutOfRange, match="wavelet scale -1 must be >= 0"):
            build_model(ModelSpec(preset="sc-gcn", band_paths=((-1,), (3,))), 4, 2)


def literal_attention_oracle(n, edges, specs, theta, a, X):
    """Direct dense implementation of the per-node filter attention."""
    ops = dense_ops(n, edges)
    xbar = X @ theta
    responses = []
    for spec in specs:
        if spec.kind == "low":
            responses.append(np.linalg.matrix_power(ops["A"], spec.r) @ xbar)
            continue
        out = xbar.copy()
        for i, k in enumerate(spec.path):
            if i > 0:
                out = np.abs(out)
            out = dense_wavelet(ops["P"], k) @ out
        responses.append(np.abs(out))
    scores = []
    for resp in responses:
        s = np.concatenate([xbar, resp], axis=1) @ a
        scores.append(np.where(s > 0, s, ATTENTION_LEAKY_SLOPE * s))
    scores = np.stack(scores)                       # (C, n, 1)
    e = np.exp(scores - scores.max(axis=0, keepdims=True))
    alpha = e / e.sum(axis=0, keepdims=True)
    agg = sum(alpha[i] * responses[i] for i in range(len(responses)))
    return np.maximum(agg, 0.0) / len(responses), alpha


class TestAttention:
    SPECS = (tuple(low_channel(r, 3) for r in (1, 2))
             + tuple(band_channel((k,), 3) for k in (1, 2)))

    def test_equal_scores_give_uniform_weights(self, rng):
        edges, g = random_connected_graph(rng, 8)
        theta = rng.standard_normal((3, 3))
        out, state = attention_head(g, self.SPECS, (theta, np.zeros((6, 1))),
                                    rng.standard_normal((8, 3)))
        stacked = np.vstack([state.heads[0].alpha_low, state.heads[0].alpha_band])
        assert np.allclose(stacked, 0.25, atol=1e-12)

    def test_weights_sum_to_one_per_node(self, rng):
        edges, g = random_connected_graph(rng, 10)
        theta = rng.standard_normal((4, 3))
        a = rng.standard_normal((6, 1))
        _, state = attention_head(g, self.SPECS, (theta, a), rng.standard_normal((10, 4)))
        head = state.heads[0]
        total = head.alpha_low.sum(axis=0) + head.alpha_band.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-9
        assert np.all(head.alpha_low >= 0) and np.all(head.alpha_band >= 0)

    def test_matches_literal_formula_oracle(self, rng):
        n = 4
        edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
        g = build_graph(edges)
        theta = rng.standard_normal((2, 3))
        a = rng.standard_normal((6, 1))
        X = rng.standard_normal((n, 2))
        out, state = attention_head(g, self.SPECS, (theta, a), X)
        expected, alpha = literal_attention_oracle(n, edges, self.SPECS, theta, a, X)
        assert np.max(np.abs(out.value - expected)) < 1e-9
        assert np.max(np.abs(np.vstack([state.heads[0].alpha_low, state.heads[0].alpha_band])
                             - alpha[:, :, 0])) < 1e-9

    def test_score_shift_invariance(self, rng):
        # softmax with max subtraction: adding a constant to all scores of a
        # node leaves the weights unchanged. One head of width 1 with a = (1, 1)
        # scores filter c at node v by xbar_v + R_cv, so shifting xbar shifts
        # every score of the node; all scores stay positive (LeakyReLU is the
        # identity there) and every sum is exact in binary
        z = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])     # (filters, nodes)
        responses = [ad.constant(z.reshape(-1, 1))]
        a = ad.constant(np.ones((2, 1)))
        out, alpha = ad.filter_attention(
            ad.constant(np.full((2, 1), 1.5)), responses, a, 3, ATTENTION_LEAKY_SLOPE)
        out_s, alpha_s = ad.filter_attention(
            ad.constant(np.full((2, 1), 9.0)), responses, a, 3, ATTENTION_LEAKY_SLOPE)
        assert np.array_equal(alpha, alpha_s)
        assert np.array_equal(out.value, out_s.value)

    def test_band_before_low_rejected(self, rng):
        # alpha_low and alpha_band are the first and the last filters
        _, g = random_connected_graph(rng, 6)
        params = init_attention_params(self.SPECS, 1, 2, rng)
        with pytest.raises(ValueError, match="must list the low channels first"):
            attention_head(g, self.SPECS[::-1], params, rng.standard_normal((6, 2)))

    def test_gsan_single_head_equals_attention_head(self, rng):
        # the GSAN model is its attention layer followed by the residual convolution
        edges, g = random_connected_graph(rng, 9)
        model = build_model(ModelSpec(preset="gsan", hidden=3, heads=1), 3, 2, seed=3)
        X = rng.standard_normal((9, 3))
        out = model.forward(g, X)
        h, state = attention_head(g, model.specs, model.attention_params, X,
                                  model.responses.get(g, X))
        ref = residual_conv(g, model.alpha, model.theta_res, model.bias_res, h)
        assert np.array_equal(out.value, ref.value)
        assert len(state.heads) == len(model.last_attention.heads) == 1

    def test_gsan_identical_heads_duplicate_blocks(self, rng):
        edges, g = random_connected_graph(rng, 7)
        theta, a = init_attention_params(self.SPECS, 1, 3, np.random.default_rng(5))
        X = rng.standard_normal((7, 3))
        twice = (np.hstack([theta.value, theta.value]), np.hstack([a.value, a.value]))
        out, _ = attention_head(g, self.SPECS, twice, X)
        assert out.value.shape == (7, 6)
        assert np.array_equal(out.value[:, :3], out.value[:, 3:])

    def test_gsan_output_width(self, rng):
        edges, g = random_connected_graph(rng, 6)
        params = init_attention_params(self.SPECS, 3, 2, rng)
        out, state = attention_head(g, self.SPECS, params, rng.standard_normal((6, 2)))
        assert out.value.shape == (6, 9)
        assert len(state.heads) == 3


class TestResidualConv:
    def test_alpha_zero_identity(self, rng):
        edges, g = random_connected_graph(rng, 8)
        X = rng.standard_normal((8, 3))
        out = residual_conv(g, 0.0, np.eye(3), None, X)
        assert np.array_equal(out.value, X)

    def test_alpha_large_approaches_random_walk(self, rng):
        edges, g = random_connected_graph(rng, 10)
        R = dense_ops(10, edges)["R"]
        X = rng.standard_normal((10, 2))
        out = residual_conv(g, 1e9, np.eye(2), None, X)
        assert np.max(np.abs(out.value - R @ X)) < 1e-6

    def test_k2_alpha_one_hand_value(self):
        g = build_graph([(0, 1)])
        x = np.array([[1.0], [0.0]])
        out = residual_conv(g, 1.0, np.eye(1), None, x)
        assert np.allclose(out.value, [[0.5], [0.5]], atol=1e-12)


class TestAttentionRatio:
    def _state(self, alpha_low, alpha_band):
        return AttentionState(heads=[HeadAttention(
            alpha_low=np.asarray(alpha_low), alpha_band=np.asarray(alpha_band))])

    def test_uniform_attention_gives_ratio_one(self):
        state = self._state(np.full((3, 5), 1.0 / 6.0), np.full((3, 5), 1.0 / 6.0))
        assert np.array_equal(attention_ratio(state), np.ones(5))

    def test_all_low_gives_zero(self):
        state = self._state(np.full((2, 4), 0.5), np.zeros((2, 4)))
        assert np.array_equal(attention_ratio(state), np.zeros(4))

    def test_matches_loop_oracle(self, rng):
        heads = []
        for _ in range(3):
            al = rng.uniform(0.01, 1.0, size=(2, 6))
            ab = rng.uniform(0.01, 1.0, size=(3, 6))
            heads.append(HeadAttention(al, ab))
        state = AttentionState(heads=heads)
        zeta = attention_ratio(state)
        for v in range(6):
            low = sum(h.alpha_low[:, v].sum() for h in heads)
            band = sum(h.alpha_band[:, v].sum() for h in heads)
            assert abs(zeta[v] - band / low) < 1e-12

    def test_zero_low_attention_warns_and_skips(self):
        state = self._state(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.warns(UserWarning):
            zeta = attention_ratio(state)
        assert np.all(np.isnan(zeta))


def _dense_cascade(P, path, X, upstream):
    """U_p X for the dense lazy walk P and the gradient of sum(U_p X * upstream)."""
    pre = [X]                      # input of each wavelet, before its abs
    for i, k in enumerate(path):
        pre.append(dense_wavelet(P, k) @ (np.abs(pre[-1]) if i else pre[-1]))
    grad = upstream
    for i in reversed(range(len(path))):
        grad = dense_wavelet(P, path[i]).T @ grad
        if i:
            grad = grad * np.sign(pre[i])
    return pre[-1], grad


class TestLayerFilters:
    """The shared-chain filter builder against dense operators built from scratch."""

    # low and band specs interleaved: the output follows the spec order
    SPECS = (low_channel(2, 2), band_channel((3,), 2), low_channel(1, 2),
             band_channel((0,), 2), low_channel(3, 2), band_channel((1, 2), 2),
             low_channel(2, 2), band_channel((1,), 2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16))
    def test_matches_dense_operators(self, seed, n):
        rng = np.random.default_rng(seed)
        edges, g = random_connected_graph(rng, n, weighted=True)
        ops = dense_ops(n, edges)
        X = ad.Parameter(rng.standard_normal((n, 3)))
        weights = rng.standard_normal((n, 3 * len(self.SPECS)))
        values, (grad,) = _loss_and_grads(
            lambda: ad.concat_cols(layer_filters(g, self.SPECS, X)), [X], weights)
        want_values, want_grad = [], np.zeros_like(X.value)
        for i, spec in enumerate(self.SPECS):
            w = weights[:, 3 * i:3 * i + 3]
            if spec.kind == "low":
                F = np.linalg.matrix_power(ops["A"], spec.r)
                value, g_in = F @ X.value, F.T @ w
            else:
                value, g_in = _dense_cascade(ops["P"], spec.path, X.value, w)
            want_values.append(value)
            want_grad += g_in
        assert _close(values, np.concatenate(want_values, axis=1))
        assert _close(grad, want_grad)

    def test_chains_shared_across_channels(self, rng, monkeypatch):
        _, g = random_connected_graph(rng, 10)
        calls = count_kernel_calls(monkeypatch)
        filters = layer_filters(g, self.SPECS, ad.constant(rng.standard_normal((10, 2))))
        assert len(filters) == len(self.SPECS)
        # A^3 chain, one 2^3-step sweep that also gives (1, 2) its Psi_1, and
        # that cascade's 4-step Psi_2
        assert len(calls) == 3 + 8 + 4


def _loss_and_grads(build, params, weights):
    """Forward value and every parameter's gradient of sum(out * weights)."""
    out = build()
    loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, out.value.shape[0]))),
                               ad.mul(out, ad.constant(weights))),
                     ad.constant(np.ones((out.value.shape[1], 1))))
    ad.backward(ad.Tensor(loss.value.reshape(()), (loss,), lambda gr: (gr.reshape(1, 1),)))
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0
    return out.value, grads


def _close(a, b, tol=1e-10):
    return np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


class TestFilterResponses:
    """The precomputed (F X) Theta path against the per-call chains F (X Theta)."""

    ATTENTION = (tuple(low_channel(r, 4) for r in (1, 2, 3))
                 + tuple(band_channel((k,), 4) for k in (0, 1, 3)))
    CONCAT = (low_channel(1, 3), low_channel(3, 4),
              band_channel((1,), 4, q=4.0), band_channel((2,), 3))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16))
    def test_attention_head_matches_per_call_chains(self, seed, n):
        rng = np.random.default_rng(seed)
        _, g = random_connected_graph(rng, n, weighted=True)
        X = rng.standard_normal((n, 3))
        theta, a = init_attention_params(self.ATTENTION, 1, 3, rng)
        weights = rng.standard_normal((n, 4))
        responses = filter_responses(g, self.ATTENTION, X)
        chains = _loss_and_grads(lambda: attention_head(g, self.ATTENTION, (theta, a), X)[0],
                                 [theta, a], weights)
        fused = _loss_and_grads(
            lambda: attention_head(g, self.ATTENTION, (theta, a), X, responses)[0],
            [theta, a], weights)
        assert _close(fused[0], chains[0])
        for got, want in zip(fused[1], chains[1]):
            assert _close(got, want)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16))
    def test_concat_layer_matches_per_call_chains(self, seed, n):
        rng = np.random.default_rng(seed)
        _, g = random_connected_graph(rng, n, weighted=True)
        X = rng.standard_normal((n, 3))
        params = init_hybrid_params(self.CONCAT, 3, rng)
        flat = [p for pair in params for p in pair]
        for theta, bias in params:
            bias.value = rng.standard_normal(bias.value.shape)
        weights = rng.standard_normal((n, sum(spec.width for spec in self.CONCAT)))
        responses = filter_responses(g, self.CONCAT, X)
        chains = _loss_and_grads(lambda: hybrid_forward_concat(g, self.CONCAT, params, X),
                                 flat, weights)
        fused = _loss_and_grads(
            lambda: hybrid_forward_concat(g, self.CONCAT, params, X, responses), flat, weights)
        assert _close(fused[0], chains[0])
        for got, want in zip(fused[1], chains[1]):
            assert _close(got, want)

    def test_precompute_rules(self, rng):
        X = rng.standard_normal((6, 3))
        assert precompute_pays(self.ATTENTION, X)
        assert precompute_pays(self.ATTENTION, ad.constant(X))
        assert not precompute_pays(self.ATTENTION, ad.Parameter(X))
        assert not precompute_pays(self.ATTENTION, rng.standard_normal((6, 5)))
        multi = (low_channel(1, 4), band_channel((1, 2), 4))
        assert not precompute_pays(multi, X)
        with pytest.raises(ValueError):
            filter_responses(build_graph(cycle(6)), multi, X)

    def test_isolated_node_rejected(self):
        with pytest.warns(IsolatedNodeWarning):
            g = build_graph([(0, 1), (1, 2)], n=4)
        with pytest.raises(IsolatedNodeError):
            filter_responses(g, (low_channel(1, 2),), np.ones((4, 2)))

    @staticmethod
    def _gsan(d_in, **kw):
        return build_model(ModelSpec(preset="gsan", hidden=4, **kw), d_in, 2, seed=1)

    def test_model_runs_chains_once_per_input(self, rng, monkeypatch):
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 3))
        model = self._gsan(3)
        calls = count_kernel_calls(monkeypatch)
        model.forward(g, X)
        # renormalized chain to A^3 X, one 2^3-step wavelet sweep, the residual conv
        assert len(calls) == 3 + 8 + 1
        calls.clear()
        model.forward(g, X)
        assert len(calls) == 1

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_per_epoch_heads_share_chains(self, rng, monkeypatch, heads):
        # d_in > width: one renormalized chain to A^3 and one 2^3-step wavelet
        # sweep on X [Theta_1 | ... | Theta_H] serve every channel of every
        # head, then the residual convolution
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 6))
        model = self._gsan(6, heads=heads)
        calls = count_kernel_calls(monkeypatch)
        lefts = record_matmul_operands(monkeypatch)
        model.forward(g, X)
        assert len(calls) == 3 + 8 + 1
        assert calls[0] == heads * 4
        assert sum(a is X for a in lefts) == 1

    def test_sc_gcn_per_epoch_plan(self, rng, monkeypatch):
        # d_in > every width: each concat channel runs its own chain on its
        # X Theta, A^1, A^2, A^3 and the 2- and 8-step sweeps for Psi_1 and
        # Psi_3, then the residual convolution; backward runs each transposed
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 8))
        model = build_model(ModelSpec(preset="sc-gcn"), 8, 2, seed=1)
        calls = count_kernel_calls(monkeypatch)
        logits = model.forward(g, X)
        assert len(calls) == (1 + 2 + 3) + (2 + 8) + 1
        Tape(ad.masked_cross_entropy(logits, np.zeros(12, dtype=np.int64),
                                     np.arange(12))).backward()
        assert len(calls) == 2 * 17

    def test_sc_gcn_per_epoch_reads_x_once(self, rng, monkeypatch):
        # one stacked X [Theta_1 | ... | Theta_5]; each channel diffuses its
        # own column block, and the residual diffusion runs after Theta_res
        # on the 2 class columns instead of the 47 hidden ones
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 8))
        model = build_model(ModelSpec(preset="sc-gcn"), 8, 2, seed=1)
        calls = count_kernel_calls(monkeypatch)
        lefts = record_matmul_operands(monkeypatch)
        model.forward(g, X)
        assert sum(a is X for a in lefts) == 1
        assert calls == [10] * (1 + 2 + 3) + [11] * 2 + [6] * 8 + [2]

    @pytest.mark.parametrize("preset,d_in", [
        ("sc-gcn", 8), ("sc-gcn", 2), ("gsan", 6), ("gsan", 3),   # per epoch, precomputed
    ])
    def test_residual_diffusion_at_class_width(self, rng, monkeypatch, preset, d_in):
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, d_in))
        hidden = {"hidden": 4} if "hidden" in PRESET_FIELDS[preset] else {}
        model = build_model(ModelSpec(preset=preset, **hidden), d_in, 3, seed=1)
        model.forward(g, X)            # fills the response cache where it pays
        calls = count_kernel_calls(monkeypatch)
        logits = model.forward(g, X)
        forward = len(calls)
        Tape(ad.masked_cross_entropy(logits, np.zeros(12, dtype=np.int64),
                                     np.arange(12))).backward()
        # the last forward call and the first transposed one
        assert calls[forward - 1] == calls[forward] == 3
        assert calls.count(3) == 2

    @pytest.mark.parametrize("kw,d_in", [
        ({"preset": "sc-gcn"}, 8),                                # d_in > widths 10,10,10,11,6
        ({"preset": "sc-gcn", "band_paths": ((1, 2), (3,))}, 2),  # multi-scale path
    ])
    def test_model_keeps_per_call_chains(self, rng, monkeypatch, kw, d_in):
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, d_in))
        model = build_model(ModelSpec(**kw), d_in, 2, seed=1)
        calls = count_kernel_calls(monkeypatch)
        first = model.forward(g, X).value
        per_forward = len(calls)
        model.forward(g, X)
        assert len(calls) == 2 * per_forward
        ref = hybrid_forward_concat(g, model.specs, model.params, X)
        ref = residual_conv(g, model.alpha, model.theta_res, model.bias_res, ref)
        assert np.array_equal(first, ref.value)

    def test_in_place_edit_recomputes_responses(self, rng):
        _, g = random_connected_graph(rng, 10)
        X = rng.standard_normal((10, 3))
        model = self._gsan(3)
        model.forward(g, X)
        X[4, 1] += 0.5
        assert np.array_equal(model.forward(g, X).value, self._gsan(3).forward(g, X).value)

    def test_new_graph_recomputes_responses(self, rng):
        _, g1 = random_connected_graph(rng, 10)
        _, g2 = random_connected_graph(rng, 10)
        X = rng.standard_normal((10, 3))
        model = self._gsan(3)
        before = model.forward(g1, X).value
        after = model.forward(g2, X).value
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self._gsan(3).forward(g2, X).value)


class TestAgainstDenseComposition:
    """The stacked concat layer and the residual convolution against dense math.

    The oracle runs every channel on its own X Theta_c with dense filter
    matrices and a hand-written backward, so it shares neither the stacked
    product nor the tape with the layers.
    """

    CONCAT = (low_channel(1, 2), low_channel(3, 3), band_channel((1,), 2, q=3.0),
              band_channel((1, 2), 3), band_channel((0,), 2, q=2.0))

    @pytest.mark.parametrize("x_on_tape", [False, True])
    @pytest.mark.parametrize("d_in", [2, 6])     # below and above the channel widths
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16))
    def test_concat_layer(self, d_in, x_on_tape, seed, n):
        rng = np.random.default_rng(seed)
        edges, g = random_connected_graph(rng, n, weighted=True)
        ops = dense_ops(n, edges)
        X = rng.standard_normal((n, d_in))
        pairs = init_hybrid_params(self.CONCAT, d_in, rng)
        for _, bias in pairs:
            bias.value = rng.standard_normal(bias.value.shape)
        x = ad.Parameter(X.copy()) if x_on_tape else X
        flat = [p for pair in pairs for p in pair] + ([x] if x_on_tape else [])
        weights = rng.standard_normal((n, sum(spec.width for spec in self.CONCAT)))
        values, grads = _loss_and_grads(
            lambda: hybrid_forward_concat(g, self.CONCAT, pairs, x), flat, weights)

        want_values, want_grads, grad_x, start = [], [], np.zeros_like(X), 0
        for spec, (theta, bias) in zip(self.CONCAT, pairs):
            w = weights[:, start:start + spec.width]
            start += spec.width
            y = X @ theta.value
            if spec.kind == "low":
                F = np.linalg.matrix_power(ops["A"], spec.r)
                pre = F @ y + bias.value
            else:
                pre = _dense_cascade(ops["P"], spec.path, y, w)[0] + bias.value
            g_pre = w * spec.q * np.abs(pre) ** (spec.q - 1.0) * np.sign(pre)
            g_y = F.T @ g_pre if spec.kind == "low" else _dense_cascade(
                ops["P"], spec.path, y, g_pre)[1]
            want_values.append(np.abs(pre) ** spec.q)
            want_grads += [X.T @ g_y, g_pre.sum(axis=0, keepdims=True)]
            grad_x += g_y @ theta.value.T
        if x_on_tape:
            want_grads.append(grad_x)
        assert _close(values, np.concatenate(want_values, axis=1))
        for got, want in zip(grads, want_grads, strict=True):
            assert _close(got, want)

    @pytest.mark.parametrize("x_on_tape", [False, True])
    @pytest.mark.parametrize("d_in,d_out", [(6, 2), (2, 6), (3, 3)])  # Theta narrows, widens, neither
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16),
           alpha=st.floats(0.0, 2.0))
    def test_residual_conv(self, d_in, d_out, x_on_tape, seed, n, alpha):
        rng = np.random.default_rng(seed)
        edges, g = random_connected_graph(rng, n, weighted=True)
        R = dense_ops(n, edges)["res"](alpha)
        X = rng.standard_normal((n, d_in))
        theta = ad.Parameter(rng.standard_normal((d_in, d_out)))
        bias = ad.Parameter(rng.standard_normal((1, d_out)))
        x = ad.Parameter(X.copy()) if x_on_tape else X
        weights = rng.standard_normal((n, d_out))
        values, grads = _loss_and_grads(lambda: residual_conv(g, alpha, theta, bias, x),
                                        [theta, bias] + ([x] if x_on_tape else []), weights)
        want_grads = [(R @ X).T @ weights, weights.sum(axis=0, keepdims=True)]
        if x_on_tape:
            want_grads.append(R.T @ weights @ theta.value.T)
        assert _close(values, R @ X @ theta.value + bias.value)
        for got, want in zip(grads, want_grads, strict=True):
            assert _close(got, want)


def _tape_nodes(root):
    """Number of tensors reachable from root through parents, root included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


class TestStackedAttention:
    """The all-heads attention layer against the head-by-head, filter-by-filter
    composition in conftest.per_filter_attention."""

    SPECS = (tuple(low_channel(r, 3) for r in (1, 3))
             + tuple(band_channel((k,), 3) for k in (0, 1, 2)))

    @pytest.mark.parametrize("plan", ["precomputed", "per-epoch", "per-epoch-x-on-tape"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16), heads=st.integers(1, 3))
    def test_matches_per_filter_composition(self, plan, seed, n, heads):
        rng = np.random.default_rng(seed)
        _, g = random_connected_graph(rng, n, weighted=True)
        X = rng.standard_normal((n, 2 if plan == "precomputed" else 5))
        params = init_attention_params(self.SPECS, heads, X.shape[1], rng)
        x = ad.Parameter(X.copy()) if plan == "per-epoch-x-on-tape" else X
        responses = filter_responses(g, self.SPECS, X) if plan == "precomputed" else None
        flat = [*params] + ([x] if isinstance(x, ad.Tensor) else [])
        weights = rng.standard_normal((n, heads * 3))
        stacked = _loss_and_grads(
            lambda: attention_head(g, self.SPECS, params, x, responses)[0], flat, weights)
        oracle = _loss_and_grads(
            lambda: per_filter_attention(g, self.SPECS, params, x, responses)[0], flat, weights)
        assert _close(stacked[0], oracle[0])
        for got, want in zip(stacked[1], oracle[1], strict=True):
            assert _close(got, want)

    @pytest.mark.parametrize("d_in", [3, 6])     # precomputed, per epoch
    def test_last_attention_matches_per_filter_composition(self, rng, d_in):
        _, g = random_connected_graph(rng, 14, weighted=True)
        X = rng.standard_normal((14, d_in))
        model = build_model(ModelSpec(preset="gsan", hidden=4, heads=3), d_in, 2, seed=2)
        model.forward(g, X)
        _, want = per_filter_attention(g, model.specs, model.attention_params, X)
        assert len(model.last_attention.heads) == len(want.heads) == 3
        for got, ref in zip(model.last_attention.heads, want.heads):
            for name in ("alpha_low", "alpha_band"):
                assert getattr(got, name).shape == getattr(ref, name).shape == (3, 14)
                assert _close(getattr(got, name), getattr(ref, name), tol=1e-12)

    def test_gsan_forward_and_loss_tape_nodes(self, rng):
        # two heads on precomputed responses (d_in <= hidden), as on the
        # criterion-7 block model: 7 nodes for the attention layer (X, theta,
        # a, X theta, the constant responses, their product and the fused
        # attention), 5 for the residual convolution and the loss; the
        # per-filter composition took 122
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 3))
        model = build_model(ModelSpec(preset="gsan", hidden=4), 3, 2, seed=1)
        loss = ad.masked_cross_entropy(model.forward(g, X), np.zeros(12, dtype=np.int64),
                                       np.arange(12))
        assert _tape_nodes(loss) == 7 + 5 + 1 < 30
