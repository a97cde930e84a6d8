"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime. Criterion 8 only runs when GRAPHSCAT_CORA_DIR is set."""

import os
import time

import numpy as np
import pytest

import graphscat.autodiff as ad
from graphscat.datasets import SBMSpec, generate_sbm, load_dataset
from graphscat.errors import HypothesisViolated
from graphscat.experiment import write_attention_ratios
from graphscat.fixtures import (
    LEAKY,
    fork_pair,
    pendant_path_pair,
    square_double_path_pair,
    theorem1_cases,
    two_coloring_cases,
)
from graphscat.graph import (
    LAZY_WALK,
    RENORM_ADJACENCY,
    SYM_NORM_ADJACENCY,
    apply_operator,
    build_graph,
    residual_diffusion,
)
from graphscat.layers import (
    attention_head,
    attention_ratio,
    band_channel,
    filter_responses,
    hybrid_forward_concat,
    low_channel,
    residual_conv,
)
from graphscat.models import ModelSpec, build_model
from graphscat.spectral import gcn_unnormalized, spectral_response, wavelet_filter
from graphscat.theory import (
    generalized_path,
    intrinsic_features,
    structural_differences,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from graphscat.train import TrainConfig, evaluate, fit
from graphscat.wavelets import bank_sweep

from conftest import random_connected_graph


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}  "
          f"[{elapsed:.2f}s < {limit:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s over {limit}s"


def test_criterion_1_frame_identity():
    rng = np.random.default_rng(17)
    worst = 0.0
    with Timer() as t:
        for _ in range(50):
            n = int(rng.integers(5, 201))
            _, g = random_connected_graph(rng, n)
            X = rng.standard_normal((n, 2))
            outs = bank_sweep(g, 3, X)
            worst = max(worst, float(np.max(np.abs(sum(outs) - X))))
    report(1, "frame identity", worst < 1e-10,
           f"max telescoping deviation {worst:.2e} over 50 graphs", t.elapsed, 5.0)


def _erdos_renyi_connected(n, p, seed):
    rng = np.random.default_rng(seed)
    while True:
        draw = np.triu(rng.random((n, n)) < p, k=1)
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(draw))]
        if not edges:
            continue
        counts = np.zeros(n)
        for u, v in edges:
            counts[u] += 1
            counts[v] += 1
        if counts.min() == 0:
            continue
        g = build_graph(edges, n=n)
        if np.all(g.hops[0] >= 0):
            return g


def test_criterion_2_spectral_multipliers():
    with Timer() as t:
        g = _erdos_renyi_connected(50, 0.12, seed=23)
        lam, (resp,) = spectral_response(g, [gcn_unnormalized()])
        gcn_dev = float(np.max(np.abs(resp - (2.0 - lam))))
        wav_dev = 0.0
        for k in range(4):
            _, (wresp,) = spectral_response(g, [wavelet_filter(k)])
            wav_dev = max(wav_dev, abs(float(wresp[0])))
    report(2, "spectral multipliers", gcn_dev < 1e-8 and wav_dev < 1e-8,
           f"gcn response dev {gcn_dev:.2e}, wavelet dev at lambda=0 {wav_dev:.2e}",
           t.elapsed, 10.0)


def test_criterion_3_two_coloring_suite():
    with Timer() as t:
        worst_low, worst_band = 0.0, 0.0
        for name, g, x in two_coloring_cases():
            y = x.copy()
            z = x.copy()
            for _ in range(3):   # filter compositions of depth 1, 2, 3
                y = apply_operator(g, SYM_NORM_ADJACENCY, y)
                worst_low = max(worst_low, float(np.max(np.abs(y))))
                z = z - apply_operator(g, LAZY_WALK, z)
                worst_band = max(worst_band, float(np.max(np.abs(z - x))))
    report(3, "two-coloring dichotomy", worst_low < 1e-12 and worst_band < 1e-12,
           f"low-pass dev {worst_low:.2e}, band-pass dev {worst_band:.2e}",
           t.elapsed, 1.0)


def test_criterion_4_theorem_1():
    with Timer() as t:
        worst = 0.0
        checked = 0
        for case in theorem1_cases():
            if case.expect_violation:
                with pytest.raises(HypothesisViolated):
                    verify_theorem1(case.graph, case.phi, case.v, case.K,
                                    case.L, case.kind, trials=100)
                continue
            rep = verify_theorem1(case.graph, case.phi, case.v, case.K, case.L,
                                  case.kind, trials=100)
            assert rep.passed
            worst = max(worst, rep.max_deviation)
            checked += 1
    report(4, "theorem 1", worst < 1e-9,
           f"{checked} fixture pairs x 100 draws, max deviation {worst:.2e}",
           t.elapsed, 30.0)


def test_criterion_5_theorem_2_onion_and_guards():
    rng = np.random.default_rng(5)
    with Timer() as t:
        min_sep = np.inf
        for d in (1, 2, 3, 5):
            case = pendant_path_pair(d)
            rep = verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                                  case.kind, LEAKY)
            assert rep.d == d and rep.discriminates and rep.onion_matched
            min_sep = min(min_sep, rep.separation)
            for _ in range(20):
                theta = np.array([[float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))]])
                rep_t = verify_theorem2(case.graph, case.phi, case.v, case.K,
                                        case.L, case.kind, LEAKY, theta=theta)
                assert rep_t.discriminates
            # exact U_j verification, re-derived rather than trusting the flag
            g, phi = case.graph, case.phi
            X = intrinsic_features(g, case.kind)
            diffs = structural_differences(g, phi, X, phi.domain, center=case.v)
            _, _, layers = generalized_path(g, case.v, diffs.nodes)
            Y = X
            for j in range(d + 1):
                ball = [u for u in range(g.n) if 0 <= g.hops[case.v, u] <= d - j]
                assert structural_differences(g, phi, Y, ball).nodes == layers[j]
                Y = apply_operator(g, LAZY_WALK, Y)

        guards = 0
        for case, exc_match in [
            (fork_pair((1, 2), (0, 0), name="fork", theorem=3), "not unique"),
            (square_double_path_pair(), "shortest paths"),
        ]:
            with pytest.raises(HypothesisViolated, match=exc_match):
                verify_theorem3(case.graph, case.phi, case.v, case.K, case.L,
                                case.kind, LEAKY)
            guards += 1
    report(5, "theorem 2 + onion + guards", min_sep > 1e-9,
           f"min separation {min_sep:.2e}, {guards} guards fired",
           t.elapsed, 60.0)


def _fd_gradient_ok(build_loss, params, h=1e-5, rtol=1e-5):
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
        p.grad[...] = 0.0
        scale = np.maximum(np.abs(numeric), 1.0)
        if np.max(np.abs(analytic - numeric) / scale) >= rtol:
            return False
    return True


def test_criterion_6_gradient_suite():
    rng = np.random.default_rng(99)
    edges, g = random_connected_graph(rng, 6)

    def scalarize(t):
        s = ad.matmul(ad.matmul(ad.constant(np.ones((1, t.value.shape[0]))), t),
                      ad.constant(np.ones((t.value.shape[1], 1))))
        return ad.Tensor(s.value.reshape(()), (s,), lambda gr: (gr.reshape(1, 1),))

    kinds = [LAZY_WALK, RENORM_ADJACENCY, SYM_NORM_ADJACENCY, residual_diffusion(0.4)]
    # layers on precomputed filter responses: the constant input is a's value,
    # w (3 x 2) the channel weights, so each response is (F X) w
    attention = (low_channel(1, 2), low_channel(2, 2), band_channel((0,), 2),
                 band_channel((2,), 2))
    concat = (low_channel(2, 2), band_channel((1,), 2, q=3.0))

    def square(t):
        return ad.mul(t, t)

    def make_ops(a, b, w, labels, mask, kind, v=None, u=None):
        # u: a second channel's Theta (3 x 2) and two (1 x 2) biases
        return {
            "matmul": lambda: scalarize(ad.mul(ad.matmul(a, w), ad.matmul(a, w))),
            "sparse-matvec": lambda: scalarize(
                ad.mul(ad.op_apply(g, kind, a), a)),
            "add": lambda: scalarize(ad.mul(ad.add(a, b), ad.add(a, b))),
            "concat": lambda: scalarize(ad.mul(ad.concat_cols([a, b]),
                                               ad.concat_cols([a, b]))),
            "relu": lambda: scalarize(ad.relu(a)),
            "leaky-relu": lambda: scalarize(ad.leaky_relu(a, 0.2)),
            "abs": lambda: scalarize(ad.mul(ad.abs_val(a), ad.abs_val(b))),
            "abs-pow": lambda: scalarize(ad.abs_pow(a, 3.0)),
            # the fused attention's softmax over filters a and b (one head of
            # width 3, fixed attention vector)
            "softmax-filters": lambda: scalarize(ad.filter_attention(
                ad.constant(np.ones((6, 3))), [a, b],
                ad.constant(np.linspace(-1.0, 1.0, 6).reshape(6, 1)), 2, 0.2)[0]),
            "hadamard": lambda: scalarize(ad.mul(a, b)),
            "cross-entropy": lambda: ad.masked_cross_entropy(a, labels, mask),
            "precomputed-attention": lambda: scalarize(attention_head(
                g, attention, (w, v), a.value, filter_responses(g, attention, a.value))[0]),
            "precomputed-concat": lambda: scalarize(hybrid_forward_concat(
                g, concat, [(w, None), (w, None)], a.value,
                filter_responses(g, concat, a.value))),
            "column-slice": lambda: scalarize(ad.mul(ad.take_cols(a, 1, 3),
                                                     ad.take_cols(a, 0, 2))),
            # X on the tape, one Theta and bias per channel, band q = 3
            "per-epoch-concat": lambda: scalarize(square(hybrid_forward_concat(
                g, concat, [(w, u[1]), (u[0], u[2])], a))),
            "residual-conv": lambda: scalarize(square(residual_conv(g, 0.4, w, u[1], a))),
            # two heads of width 2 over one response block for filter 0 and
            # one for the band-pass filters 1 and 2
            "fused-attention": lambda: scalarize(square(ad.filter_attention(
                u[0], [u[1], u[2]], u[3], 1, 0.2)[0])),
        }

    with Timer() as t:
        failures = []
        for name in make_ops(None, None, None, None, None, None):
            for _ in range(20):
                a = ad.Parameter(rng.standard_normal((6, 3)))
                b = ad.Parameter(rng.standard_normal((6, 3)))
                w = ad.Parameter(rng.standard_normal((3, 2)))
                labels = rng.integers(0, 3, size=6)
                mask = np.sort(rng.choice(6, size=4, replace=False))
                kind = kinds[int(rng.integers(len(kinds)))]
                precomputed = name.startswith("precomputed")
                v = ad.Parameter(rng.standard_normal((4, 1))) if precomputed else None
                per_epoch = name in ("per-epoch-concat", "residual-conv")
                u = [ad.Parameter(rng.standard_normal(shape))
                     for shape in ((3, 2), (1, 2), (1, 2))] if per_epoch else None
                if name == "fused-attention":
                    u = [ad.Parameter(rng.standard_normal(shape))
                         for shape in ((6, 4), (6, 4), (12, 4), (4, 2))]
                build = make_ops(a, b, w, labels, mask, kind, v, u)[name]
                params = [a, w] if name == "matmul" else (
                    [a] if name in ("relu", "leaky-relu", "abs-pow", "sparse-matvec",
                                    "cross-entropy", "column-slice") else [a, b])
                if precomputed:
                    params = [w, v] if name == "precomputed-attention" else [w]
                if name == "per-epoch-concat":
                    params = [a, w] + u[:3]
                if name == "residual-conv":
                    params = [a, w, u[1]]
                if name == "fused-attention":
                    params = u
                if not _fd_gradient_ok(build, params):
                    failures.append(name)
                    break
    report(6, "gradient suite", not failures,
           f"{len(make_ops(*[None] * 6))} op kinds x 20 instances, "
           f"failures: {failures or 'none'}",
           t.elapsed, 60.0)


def test_criterion_7_end_to_end_synthetic():
    with Timer() as t:
        accs = {"gcn-baseline": [], "sc-gcn": [], "gsan": []}
        attention_ok = True
        for seed in range(10):
            ds = generate_sbm(SBMSpec(block_sizes=(200, 200), p_in=0.1,
                                      p_out=0.01, seed=seed))
            for preset in accs:
                model = build_model(ModelSpec(preset=preset),
                                    ds.features.shape[1], ds.n_classes, seed=seed)
                fit(model, ds.graph, ds.features, ds.labels, ds.splits,
                    TrainConfig(seed=seed))
                accs[preset].append(
                    evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test))
                if preset == "gsan":
                    model.forward(ds.graph, ds.features)
                    for head in model.last_attention.heads:
                        total = head.alpha_low.sum(axis=0) + head.alpha_band.sum(axis=0)
                        if np.max(np.abs(total - 1.0)) > 1e-9:
                            attention_ok = False
        means = {k: float(np.mean(v)) for k, v in accs.items()}
    ok = (means["gcn-baseline"] >= 0.85
          and means["sc-gcn"] >= means["gcn-baseline"] - 0.01
          and means["gsan"] >= means["gcn-baseline"] - 0.01
          and attention_ok)
    report(7, "end-to-end synthetic",
           ok, f"means {means}, attention sums ok: {attention_ok}",
           t.elapsed, 300.0)


CORA_DIR = os.environ.get("GRAPHSCAT_CORA_DIR")


@pytest.mark.skipif(not CORA_DIR, reason="set GRAPHSCAT_CORA_DIR to run")
def test_criterion_8_cora_reproduction():
    from graphscat.theory import homophily
    with Timer() as t:
        ds = load_dataset(CORA_DIR)
        assert ds.graph.n == 2708 and ds.features.shape[1] == 1433
        assert ds.n_classes == 7
        assert abs(ds.graph.num_edges - 5278) < 60   # dedup convention varies
        assert abs(homophily(ds.graph, ds.labels) - 0.81) < 0.01
        results = {}
        for preset in ("gcn-baseline", "sc-gcn"):
            spec = ModelSpec(preset=preset)   # sc-gcn defaults are the Cora preset
            model = build_model(spec, ds.features.shape[1], ds.n_classes, seed=0)
            fit(model, ds.graph, ds.features, ds.labels, ds.splits, TrainConfig(seed=0))
            results[preset] = evaluate(model, ds.graph, ds.features, ds.labels,
                                       ds.splits.test) * 100.0
    ok = (abs(results["gcn-baseline"] - 81.5) <= 3.0
          and results["sc-gcn"] >= results["gcn-baseline"])
    report(8, "reference-number reproduction", ok, f"accuracies {results}",
           t.elapsed, 900.0)


def test_criterion_9_attention_ratio_output(tmp_path):
    with Timer() as t:
        rng = np.random.default_rng(31)
        _, g = random_connected_graph(rng, 24)
        X = rng.standard_normal((24, 5))
        model = build_model(ModelSpec(preset="gsan", heads=2, hidden=6), 5, 2, seed=0)
        model.forward(g, X)
        zeta = attention_ratio(model.last_attention)
        path = tmp_path / "attention_ratios.csv"
        write_attention_ratios(path, zeta)
        lines = path.read_text().splitlines()
        emitted = np.array([float(r.split(",")[1]) for r in lines[1:]])
        finite_positive = bool(np.all(np.isfinite(emitted)) and np.all(emitted > 0))

        # uniform-attention unit fixture: zero attention vectors -> zeta = 1
        _, a = model.attention_params
        a.value[...] = 0.0
        model.forward(g, X)
        uniform = attention_ratio(model.last_attention)
        exact_one = bool(np.all(uniform == 1.0))
    report(9, "attention-ratio output",
           finite_positive and exact_one and lines[0] == "node,zeta"
           and len(emitted) == 24,
           f"finite positive: {finite_positive}, uniform fixture exact 1.0: {exact_one}",
           t.elapsed, 1.0)
