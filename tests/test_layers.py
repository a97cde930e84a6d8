from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
from graphscat.errors import (
    DimensionMismatch,
    FieldRangeError,
    IsolatedNodeError,
    IsolatedNodeWarning,
    ScaleOutOfRange,
)
from graphscat.graph import build_graph
from graphscat.layers import (
    ATTENTION_LEAKY_SLOPE,
    AttentionState,
    ChannelSpec,
    FilterPlan,
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
    residual_conv,
)
from graphscat.models import PRESET_FIELDS, ModelSpec, build_model
from graphscat.scattering import ABS, cascade, leaky
from graphscat.train import Tape

from conftest import (
    assert_plan,
    count_kernel_calls,
    dense_ops,
    dense_wavelet,
    mul,
    per_filter_attention,
    random_connected_graph,
    record_matmul_operands,
    training_sbm,
)


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestGcnChannel:
    """The standalone channel the benchmark tracer wraps; its oracles run on
    layer_filters (TestLayerFilters)."""

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
        base = cascade(g, [(1,)], ABS, X @ params[0][0].value)[0]
        assert np.max(np.abs(out.value - np.abs(base) ** 4)) < 1e-12

    def test_identity_band_channel_reduces_to_cascade(self, rng):
        # Theta = I and no bias: the channel is |U_p X|
        edges, g = random_connected_graph(rng, 8)
        X = rng.standard_normal((8, 3))
        specs = (band_channel((1, 2), 3),)
        out = hybrid_forward_concat(g, specs, [(np.eye(3), None)], X)
        expected = np.abs(cascade(g, [(1, 2)], ABS, X)[0])
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
        # ModelSpec names the field that supplied the scale
        with pytest.raises(FieldRangeError, match="wavelet scale -1 must be >= 0") as err:
            build_model(ModelSpec(preset="sc-gcn", band_paths=((-1,), (3,))), 4, 2)
        assert err.value.fields == ("band_paths",)

    def test_models_take_their_channels_from_the_spec(self):
        sc = ModelSpec(preset="sc-gcn", low_powers=(1, 4), low_widths=(3, 5), q=2.0)
        assert sc.channels() == (low_channel(1, 3), low_channel(4, 5),
                                 band_channel((1,), 11, q=2.0), band_channel((3,), 6, q=2.0))
        gsan = ModelSpec(preset="gsan", hidden=7, low_powers=(2,))
        assert gsan.channels() == (low_channel(2, 7),
                                   *(band_channel((k,), 7) for k in (1, 2, 3)))
        assert ModelSpec(preset="gcn-baseline").channels() == ()
        for spec in (sc, gsan):
            assert build_model(spec, 4, 2).specs == spec.channels()
        # a value names the spec field that supplied it, also where a channel
        # holds two bad values (the width is checked first)
        with pytest.raises(FieldRangeError, match="channel width must be >= 1") as err:
            ModelSpec(preset="sc-gcn", low_powers=(0, 1), low_widths=(0, 2))
        assert err.value.fields == ("low_widths",)

    @pytest.mark.parametrize("fields,message,named", [
        ({"preset": "gsan", "hidden": 2.5}, "hidden takes integers, got 2.5", "hidden"),
        ({"preset": "gcn-baseline", "hidden": True}, "hidden takes integers, got True", "hidden"),
        ({"preset": "gsan", "heads": 2.0}, "heads takes integers, got 2.0", "heads"),
        ({"preset": "gsan", "low_powers": (1, 1.5)}, "r takes integers, got 1.5", "low_powers"),
        ({"preset": "sc-gcn", "low_widths": (10, True, 10)}, "width takes integers, got True",
         "low_widths"),
        ({"preset": "sc-gcn", "band_widths": (11, 6.5)}, "width takes integers, got 6.5",
         "band_widths"),
        ({"preset": "sc-gcn", "band_paths": ((1,), (2.5,))}, "path takes integers, got 2.5",
         "band_paths"),
    ])
    def test_integer_fields_refuse_booleans_and_fractions(self, fields, message, named):
        # a gsan width of 2.5 was built into a ChannelSpec
        with pytest.raises(FieldRangeError, match=f"^{message}$") as err:
            ModelSpec(**fields)
        assert err.value.fields == (named,)


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
        model = assert_plan(build_model(ModelSpec(preset="gsan", hidden=3, heads=1), 3, 2,
                                        seed=3), "precomputed")
        X = rng.standard_normal((9, 3))
        out = model.forward(g, X)
        h, state = attention_head(g, model.specs, model.attention_params, X,
                                  model.plan.responses(g, X))
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

    def test_k2_hand_value(self, rng):
        g = build_graph([(0, 1)])
        X = rng.standard_normal((2, 1))
        (out,) = layer_filters(g, (low_channel(1, 1),), ad.constant(X))
        mean = (X[0, 0] + X[1, 0]) / 2.0
        assert np.allclose(out.value, [[mean], [mean]], atol=1e-12)

    def test_constant_column_stays_bounded(self, rng):
        # pointwise bound holds on regular graphs where A's rows sum to one;
        # in general the guarantee is the spectral one (|lambda| <= 1)
        g = build_graph(cycle(10))
        (out,) = layer_filters(g, (low_channel(2, 1),), ad.constant(np.full((10, 1), 4.0)))
        assert np.max(np.abs(out.value)) <= 4.0 + 1e-12

        edges, g = random_connected_graph(rng, 15)
        X = rng.standard_normal((15, 1))
        (out,) = layer_filters(g, (low_channel(2, 1),), ad.constant(X))
        assert np.linalg.norm(out.value) <= np.linalg.norm(X) * (1.0 + 1e-12)

    def test_r3_equals_triple_r1(self, rng):
        # A^3 from one chain against three single powers
        edges, g = random_connected_graph(rng, 10)
        X = ad.constant(rng.standard_normal((10, 2)))
        t = X
        for _ in range(3):
            (t,) = layer_filters(g, (low_channel(1, 2),), t)
        (direct,) = layer_filters(g, (low_channel(3, 2),), X)
        assert np.max(np.abs(direct.value - t.value)) < 1e-12

    def test_isolated_node_rejected(self):
        with pytest.warns(IsolatedNodeWarning):
            g = build_graph([(0, 1)], n=3)
        with pytest.raises(IsolatedNodeError):
            layer_filters(g, (low_channel(1, 1),), ad.constant(np.zeros((3, 1))))


def _loss_and_grads(build, params, weights):
    """Forward value and every parameter's gradient of sum(out * weights)."""
    out = build()
    loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, out.value.shape[0]))),
                               mul(out, ad.constant(weights))),
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
        # single-scale band paths and d_in at most the stacked Theta columns;
        # on the per-call plan responses hands out nothing
        _, g = random_connected_graph(rng, 6)
        assert_plan(FilterPlan(self.ATTENTION, 3, 4), "precomputed")
        assert_plan(FilterPlan(self.ATTENTION, 4, 4), "precomputed")
        wide = assert_plan(FilterPlan(self.ATTENTION, 5, 4), "per-call")
        assert wide.responses(g, rng.standard_normal((6, 5))) is None
        multi = (low_channel(1, 4), band_channel((1, 2), 4))
        assert_plan(FilterPlan(multi, 3, 4), "per-call")
        assert_plan(FilterPlan(multi, 3, 8), "per-call")
        with pytest.raises(ValueError):
            filter_responses(g, multi, rng.standard_normal((6, 3)))

    @pytest.mark.parametrize("d_in,precomputes", [(4, True), (5, True), (8, True), (9, False)])
    def test_attention_rule_counts_every_head(self, rng, d_in, precomputes):
        # 2 heads of width 4: the per-call chains run on the 8 columns of
        # [Theta_1 | Theta_2], so an input of up to 8 columns precomputes,
        # also above one head's width
        _, g = random_connected_graph(rng, 6)
        X = rng.standard_normal((6, d_in))
        plan = "precomputed" if precomputes else "per-call"
        assert_plan(FilterPlan(self.ATTENTION, d_in, 8), plan)
        model = assert_plan(self._gsan(d_in, heads=2), plan)
        assert (model.plan.responses(g, X) is not None) is precomputes

    @pytest.mark.parametrize("d_in,precomputes", [(3, True), (4, True), (14, True), (15, False)])
    def test_concat_rule_counts_every_channel(self, d_in, precomputes):
        # channels of width 3, 4, 4 and 3: the per-call chains run on the 14
        # columns of [Theta_1 | ... | Theta_4], so an input of up to 14
        # columns precomputes, also above the narrowest and the widest channel
        assert_plan(FilterPlan(self.CONCAT, d_in, 14), "precomputed" if precomputes else "per-call")

    @pytest.mark.parametrize("d_in,precomputes", [(8, True), (47, True), (48, False)])
    def test_sc_gcn_rule_counts_every_channel(self, rng, d_in, precomputes):
        # the default channels are 10, 10, 10, 11 and 6 wide: 47 columns
        _, g = random_connected_graph(rng, 6)
        X = rng.standard_normal((6, d_in))
        model = assert_plan(build_model(ModelSpec(preset="sc-gcn"), d_in, 2, seed=1),
                            "precomputed" if precomputes else "per-call")
        assert (model.plan.responses(g, X) is not None) is precomputes

    @pytest.mark.parametrize("preset", ["sc-gcn", "gsan"])
    @pytest.mark.parametrize("d_in,plan", [(8, "precomputed"), (48, "per-call")])
    def test_both_plans_refuse_a_tensor_input(self, rng, preset, d_in, plan):
        # a hybrid model takes its features as an array, whichever plan it fixed
        _, g = random_connected_graph(rng, 6)
        X = rng.standard_normal((6, d_in))
        model = assert_plan(build_model(ModelSpec(preset=preset), d_in, 2, seed=1), plan)
        for bad in (ad.constant(X), ad.Parameter(X)):
            with pytest.raises(TypeError, match="features as an array"):
                model.forward(g, bad)
        assert model.forward(g, X).value.shape == (6, 2)

    def test_two_head_model_precomputes_between_w_and_2w(self, rng, monkeypatch):
        # d_in 6: above W = 4, at most 2 W = 8
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 6))
        model = assert_plan(self._gsan(6, heads=2), "precomputed")
        model.forward(g, X)
        calls = count_kernel_calls(monkeypatch)
        model.forward(g, X)
        assert calls == [2]     # only the residual convolution, on 2 class columns

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
        model = assert_plan(self._gsan(3), "precomputed")
        calls = count_kernel_calls(monkeypatch)
        model.forward(g, X)
        # renormalized chain to A^3 X, one 2^3-step wavelet sweep, the residual conv
        assert len(calls) == 3 + 8 + 1
        calls.clear()
        model.forward(g, X)
        assert len(calls) == 1

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_per_epoch_heads_share_chains(self, rng, monkeypatch, heads):
        # d_in 13 > heads x width, so the chains run per call: one
        # renormalized chain to A^3 and one 2^3-step wavelet sweep on
        # X [Theta_1 | ... | Theta_H] serve every channel of every head, then
        # the residual convolution
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 13))
        model = assert_plan(self._gsan(13, heads=heads), "per-call")
        calls = count_kernel_calls(monkeypatch)
        lefts = record_matmul_operands(monkeypatch)
        model.forward(g, X)
        assert len(calls) == 3 + 8 + 1
        assert calls[0] == heads * 4
        assert sum(a is X for a in lefts) == 1

    def test_sc_gcn_per_epoch_plan(self, rng, monkeypatch):
        # d_in 48 > the 47 columns of [Theta_1 | ... | Theta_5]: each concat
        # channel runs its own chain on its X Theta, A^1, A^2, A^3 and the 2-
        # and 8-step sweeps for Psi_1 and Psi_3, then the residual
        # convolution; backward runs each transposed
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 48))
        model = assert_plan(build_model(ModelSpec(preset="sc-gcn"), 48, 2, seed=1), "per-call")
        calls = count_kernel_calls(monkeypatch)
        logits = model.forward(g, X)
        assert len(calls) == (1 + 2 + 3) + (2 + 8) + 1
        Tape(ad.masked_cross_entropy(logits, np.zeros(12, dtype=np.int64),
                                     np.arange(12))).backward()
        assert len(calls) == 2 * 17

    def test_sc_gcn_per_epoch_reads_x_once(self, rng, monkeypatch):
        # one stacked X [Theta_1 | ... | Theta_5]; each channel diffuses its
        # own column block, and the residual diffusion runs after Theta_res
        # on the 2 class columns instead of the 47 hidden ones (d_in 48, so
        # the chains run per call)
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 48))
        model = assert_plan(build_model(ModelSpec(preset="sc-gcn"), 48, 2, seed=1), "per-call")
        calls = count_kernel_calls(monkeypatch)
        lefts = record_matmul_operands(monkeypatch)
        model.forward(g, X)
        assert sum(a is X for a in lefts) == 1
        assert calls == [10] * (1 + 2 + 3) + [11] * 2 + [6] * 8 + [2]

    @pytest.mark.parametrize("preset,d_in", [
        ("sc-gcn", 48), ("gsan", 9),                             # per call
        ("sc-gcn", 8), ("sc-gcn", 2), ("gsan", 6), ("gsan", 3),  # precomputed
    ])
    def test_residual_diffusion_at_class_width(self, rng, monkeypatch, preset, d_in):
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, d_in))
        hidden = {"hidden": 4} if "hidden" in PRESET_FIELDS[preset] else {}
        model = assert_plan(build_model(ModelSpec(preset=preset, **hidden), d_in, 3, seed=1),
                            "per-call" if d_in in (48, 9) else "precomputed")
        model.forward(g, X)            # fills the responses on the precomputed plan
        calls = count_kernel_calls(monkeypatch)
        logits = model.forward(g, X)
        forward = len(calls)
        Tape(ad.masked_cross_entropy(logits, np.zeros(12, dtype=np.int64),
                                     np.arange(12))).backward()
        # the last forward call and the first transposed one
        assert calls[forward - 1] == calls[forward] == 3
        assert calls.count(3) == 2

    @pytest.mark.parametrize("kw,d_in", [
        ({"preset": "sc-gcn"}, 48),                               # d_in > 10+10+10+11+6
        ({"preset": "sc-gcn", "band_paths": ((1, 2), (3,))}, 2),  # multi-scale path
    ])
    def test_model_keeps_per_call_chains(self, rng, monkeypatch, kw, d_in):
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, d_in))
        model = assert_plan(build_model(ModelSpec(**kw), d_in, 2, seed=1), "per-call")
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
        model = assert_plan(self._gsan(3), "precomputed")
        model.forward(g, X)
        X[4, 1] += 0.5
        assert np.array_equal(model.forward(g, X).value, self._gsan(3).forward(g, X).value)

    def test_new_graph_recomputes_responses(self, rng):
        _, g1 = random_connected_graph(rng, 10)
        _, g2 = random_connected_graph(rng, 10)
        X = rng.standard_normal((10, 3))
        model = assert_plan(self._gsan(3), "precomputed")
        before = model.forward(g1, X).value
        after = model.forward(g2, X).value
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self._gsan(3).forward(g2, X).value)


def _epoch_counts(monkeypatch, preset, shape, epochs=3):
    """Per epoch of a fresh preset on a training_sbm shape (forward, loss,
    backward; no update): forward kernel call widths, forward and transposed
    operator kinds, and the tape nodes under the loss."""
    ds = training_sbm(shape)
    model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes, seed=0)
    calls, kinds, transposed = count_kernel_calls(monkeypatch), [], []
    for name, seen in (("apply_operator", kinds), ("apply_operator_transpose", transposed)):
        monkeypatch.setattr(ad, name, lambda g, kind, X, seen=seen, apply=getattr(ad, name):
                            (seen.append(kind.tag), apply(g, kind, X))[1])
    counts = []
    for _ in range(epochs):
        for seen in (calls, kinds, transposed):
            seen.clear()
        loss = ad.masked_cross_entropy(model.forward(ds.graph, ds.features), ds.labels,
                                       ds.splits.train)
        forward = list(calls)
        nodes = _tape_nodes(loss)
        Tape(loss).backward()
        counts.append({"calls": forward, "kinds": list(kinds),
                       "transposed": dict(Counter(transposed)), "nodes": nodes})
    return ds, model, counts


class TestPresetPlans:
    """The plan each preset fixes at build, pinned by its per-epoch counts on
    the two training shapes, and the two plans against each other where they
    meet."""

    @pytest.mark.parametrize("preset", ["sc-gcn", "gsan"])
    def test_criterion_7_shape_precomputes(self, monkeypatch, preset):
        # d_in 8: the first pass fills the responses from one renormalized
        # chain to A^3 and one 2^3-step wavelet sweep; every later one runs
        # only the residual convolution, on the class columns
        ds, model, (first, *later) = _epoch_counts(monkeypatch, preset, "criterion-7")
        assert_plan(model, "precomputed")
        assert first["kinds"] == (["renorm_adjacency"] * 3 + ["lazy_walk"] * 8
                                  + ["residual_diffusion"])
        assert first["calls"][-1] == ds.n_classes
        for epoch in later:
            assert epoch["calls"] == [ds.n_classes]
            assert epoch["kinds"] == ["residual_diffusion"]

    @pytest.mark.parametrize("preset,renorm,lazy", [("sc-gcn", 1 + 2 + 3, 2 + 8),
                                                    ("gsan", 3, 8)])
    def test_wide_shape_runs_chains_every_forward(self, monkeypatch, preset, renorm, lazy):
        # d_in 64 > sc-gcn's 47 and gsan's 32 stacked Theta columns: sc-gcn's
        # three low channels each run their own chain and its two band
        # channels their own sweeps; gsan runs one chain and one sweep for
        # every head. 17 and 12 calls on every pass
        ds, model, counts = _epoch_counts(monkeypatch, preset, "wide")
        assert_plan(model, "per-call")
        assert ds.features.shape[1] == 64
        for epoch in counts:
            assert epoch["kinds"] == (["renorm_adjacency"] * renorm + ["lazy_walk"] * lazy
                                      + ["residual_diffusion"])
            assert len(epoch["calls"]) == {"sc-gcn": 17, "gsan": 12}[preset]

    @pytest.mark.parametrize("shape", ["criterion-7", "wide"])
    def test_gcn_baseline_forward_calls(self, monkeypatch, shape):
        # A (X T1) on the 16 hidden columns, then A (H T2) on the class columns
        ds, _, counts = _epoch_counts(monkeypatch, "gcn-baseline", shape)
        for epoch in counts:
            assert epoch["calls"] == [16, ds.n_classes]
            assert epoch["kinds"] == ["renorm_adjacency"] * 2

    @pytest.mark.parametrize("preset,shape,transposed,nodes", [
        ("gcn-baseline", "criterion-7", {"renorm_adjacency": 2}, 9),
        ("gcn-baseline", "wide", {"renorm_adjacency": 2}, 9),
        ("sc-gcn", "criterion-7", {"residual_diffusion": 1}, 37),
        ("sc-gcn", "wide", {"renorm_adjacency": 6, "lazy_walk": 10, "residual_diffusion": 1}, 53),
        ("gsan", "criterion-7", {"residual_diffusion": 1}, 9),
        ("gsan", "wide", {"renorm_adjacency": 3, "lazy_walk": 8, "residual_diffusion": 1}, 25),
    ], ids=[f"{preset}-{shape}" for preset in ("gcn-baseline", "sc-gcn", "gsan")
            for shape in ("criterion-7", "wide")])
    def test_backward_counts_per_epoch(self, monkeypatch, preset, shape, transposed, nodes):
        # every epoch's transposed operator calls by kind and its tape nodes:
        # on the precomputed plan only the residual diffusion runs backward,
        # per call every forward operator does
        _, _, counts = _epoch_counts(monkeypatch, preset, shape)
        for epoch in counts:
            assert epoch["transposed"] == transposed
            assert epoch["nodes"] == nodes

    def test_sc_gcn_plans_agree_on_criterion_7_shape(self):
        # the model's precomputed plan against the per-call chains, on its own
        # parameters: logits and every parameter gradient of the train loss
        ds = training_sbm("criterion-7")
        model = assert_plan(build_model(ModelSpec(preset="sc-gcn"), ds.features.shape[1],
                                        ds.n_classes, seed=0), "precomputed")
        responses = model.plan.responses(ds.graph, ds.features)
        assert np.array_equal(model.forward(ds.graph, ds.features).value, residual_conv(
            ds.graph, model.alpha, model.theta_res, model.bias_res,
            hybrid_forward_concat(ds.graph, model.specs, model.params, ds.features,
                                  responses)).value)
        plans = []
        for plan in (responses, None):
            logits = residual_conv(ds.graph, model.alpha, model.theta_res, model.bias_res,
                                   hybrid_forward_concat(ds.graph, model.specs, model.params,
                                                         ds.features, plan))
            value = logits.value.copy()
            ad.backward(ad.masked_cross_entropy(logits, ds.labels, ds.splits.train))
            plans.append((value, [p.grad.copy() for p in model.parameters()]))
            for p in model.parameters():
                p.grad[...] = 0.0
        (fused, fused_grads), (chains, chain_grads) = plans
        assert _close(fused, chains)
        assert len(fused_grads) == len(chain_grads) == 12
        for got, want in zip(fused_grads, chain_grads):
            assert np.any(want != 0.0)
            assert _close(got, want)

    @pytest.mark.parametrize("preset,d_in,n_classes,plan", [
        ("gsan", 8, 2, "precomputed"),      # sbm-gsan
        ("sc-gcn", 1433, 7, "per-call"),    # wide-scgcn
    ])
    def test_benchmark_workload_plans(self, preset, d_in, n_classes, plan):
        # the plans the benchmark workloads run, from build_model alone: a rule
        # change that flips one fails here before it moves a benchmark figure
        assert_plan(build_model(ModelSpec(preset=preset), d_in, n_classes), plan)


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
    # the edge slices of the band-row sign: the whole stack, then none of it
    BAND_ONLY, LOW_ONLY = SPECS[2:], SPECS[:2]

    @pytest.mark.parametrize("plan,specs", [
        ("precomputed", SPECS), ("per-epoch", SPECS), ("per-epoch-x-on-tape", SPECS),
        ("precomputed", BAND_ONLY), ("per-epoch", BAND_ONLY),
        ("precomputed", LOW_ONLY), ("per-epoch", LOW_ONLY),
    ], ids=["precomputed", "per-epoch", "per-epoch-x-on-tape", "precomputed-band-only",
            "per-epoch-band-only", "precomputed-low-only", "per-epoch-low-only"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 16), heads=st.integers(1, 3))
    def test_matches_per_filter_composition(self, plan, specs, seed, n, heads):
        rng = np.random.default_rng(seed)
        _, g = random_connected_graph(rng, n, weighted=True)
        X = rng.standard_normal((n, 2 if plan == "precomputed" else 5))
        params = init_attention_params(specs, heads, X.shape[1], rng)
        x = ad.Parameter(X.copy()) if plan == "per-epoch-x-on-tape" else X
        responses = filter_responses(g, specs, X) if plan == "precomputed" else None
        flat = [*params] + ([x] if isinstance(x, ad.Tensor) else [])
        weights = rng.standard_normal((n, heads * 3))
        stacked = _loss_and_grads(
            lambda: attention_head(g, specs, params, x, responses)[0], flat, weights)
        oracle = _loss_and_grads(
            lambda: per_filter_attention(g, specs, params, x, responses)[0], flat, weights)
        assert _close(stacked[0], oracle[0])
        for got, want in zip(stacked[1], oracle[1], strict=True):
            assert _close(got, want)

    def test_zero_band_response_gets_subgradient_zero(self, rng):
        # precomputed plan with a zero column of Theta: every band response in
        # that column is exactly 0, where |.| passes subgradient 0 as abs_val
        # does, though the scores still send a gradient to those responses
        _, g = random_connected_graph(rng, 10, weighted=True)
        X = rng.standard_normal((10, 2))
        params = init_attention_params(self.SPECS, 2, 2, rng)
        params[0].value[:, 4] = 0.0
        responses = filter_responses(g, self.SPECS, X)
        weights = rng.standard_normal((10, 6))
        stacked = _loss_and_grads(
            lambda: attention_head(g, self.SPECS, params, X, responses)[0], params, weights)
        oracle = _loss_and_grads(
            lambda: per_filter_attention(g, self.SPECS, params, X, responses)[0], params, weights)
        assert np.all(stacked[0][:, 4] == 0.0)
        assert _close(stacked[0], oracle[0])
        for got, want in zip(stacked[1], oracle[1], strict=True):
            assert _close(got, want)

    @pytest.mark.parametrize("responses,n_low,theta", [
        ((1, 5, 2), 0, (2, 6)),     # no filter, only the X block
        ((4, 5, 2), 4, (2, 6)),     # more low filters than filters
        ((4, 5, 2), 1, (3, 6)),     # theta rows differ from d_in
        ((4, 5, 2), 1, (2, 5)),     # theta columns are not H x W
        ((20, 2), 1, (2, 6)),       # responses not stacked per filter
    ])
    def test_precomputed_attention_rejects_mismatched_shapes(self, responses, n_low, theta):
        with pytest.raises(DimensionMismatch):
            ad.precomputed_attention(np.ones(responses), ad.Parameter(np.ones(theta)),
                                     ad.Parameter(np.ones((6, 2))), n_low, 0.2)

    @pytest.mark.parametrize("d_in,plan", [(3, "precomputed"), (13, "per-call")],
                             ids=["3", "13"])    # 3 heads of width 4: 12 columns
    def test_last_attention_matches_per_filter_composition(self, rng, d_in, plan):
        _, g = random_connected_graph(rng, 14, weighted=True)
        X = rng.standard_normal((14, d_in))
        model = assert_plan(build_model(ModelSpec(preset="gsan", hidden=4, heads=3), d_in, 2,
                                        seed=2), plan)
        model.forward(g, X)
        _, want = per_filter_attention(g, model.specs, model.attention_params, X)
        assert len(model.last_attention.heads) == len(want.heads) == 3
        for got, ref in zip(model.last_attention.heads, want.heads):
            for name in ("alpha_low", "alpha_band"):
                assert getattr(got, name).shape == getattr(ref, name).shape == (3, 14)
                assert _close(getattr(got, name), getattr(ref, name), tol=1e-12)

    def test_gsan_forward_and_loss_tape_nodes(self, rng):
        # two heads on precomputed responses (d_in <= hidden), as on the
        # criterion-7 block model: 3 nodes for the attention layer (theta, a
        # and the one precomputed-attention node, which multiplies the
        # constant [X; F_1 X; ...; F_C X] by theta itself), 5 for the residual
        # convolution and 1 for the loss; the per-filter composition took 122
        _, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 3))
        model = assert_plan(build_model(ModelSpec(preset="gsan", hidden=4), 3, 2, seed=1),
                            "precomputed")
        loss = ad.masked_cross_entropy(model.forward(g, X), np.zeros(12, dtype=np.int64),
                                       np.arange(12))
        assert _tape_nodes(loss) == 3 + 5 + 1 < 30
