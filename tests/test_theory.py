import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscat import theory
from graphscat.cli import main

from graphscat.errors import DimensionMismatch, HypothesisViolated, IsolatedNodeWarning, PartialMap
from graphscat.fixtures import (
    LEAKY,
    barbell_pair,
    cycle_graph,
    complete_bipartite,
    fork_pair,
    pendant_path_pair,
    square_double_path_pair,
)
from graphscat.graph import build_graph
from graphscat.scattering import ABS, IDENTITY
from graphscat.theory import (
    DEGREE,
    NodeMap,
    avg_degree,
    binary_expansion_path,
    check_coincidental_correspondence,
    generalized_path,
    homophily,
    intrinsic_features,
    scatter_separation,
    structural_differences,
    triangle_count,
    validate_isomorphism,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

from conftest import (
    clustered_edges,
    count_builds,
    count_kernel_calls,
    count_operator_calls,
    count_shortest_paths,
    dense_ops,
    dense_wavelet,
    hop_graphs,
    parallel_path_pair,
    per_node_avg_degree,
    per_node_coincidences,
    per_node_dense_adjacency,
    per_node_differences,
    per_node_homophily,
    per_node_triangle_count,
    per_node_verify_theorem,
    per_stage_diffusion_stages,
    per_trial_gcn_deviation,
    random_connected_graph,
    theorem_cases,
    weighted_graphs,
)


class TestIntrinsicFeatures:
    def test_degree_on_path(self):
        g = build_graph([(0, 1), (1, 2)])
        assert np.array_equal(intrinsic_features(g, DEGREE)[:, 0], [1.0, 2.0, 1.0])

    def test_triangle_count_on_triangle(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        assert np.array_equal(intrinsic_features(g, triangle_count(1))[:, 0],
                              [1.0, 1.0, 1.0])

    def test_avg_degree_matches_enumeration_oracle(self, rng):
        case = pendant_path_pair(3)
        g = case.graph
        feats = intrinsic_features(g, avg_degree(2))[:, 0]
        for v in range(g.n):
            dist = g.hops[v]
            hood = [u for u in range(g.n) if 0 <= dist[u] <= 1]
            assert feats[v] == pytest.approx(np.mean(g.degrees[hood]), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=hop_graphs(), K=st.integers(1, 3))
    def test_avg_degree_matches_per_node_loop_bitwise_on_unit_weights(self, case, K):
        # unit-weight degree sums are exact integers, so the order of the sum cannot show
        n, edges = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(edges, n=n)
        got = intrinsic_features(g, avg_degree(K))
        assert got.shape == (n, 1)
        assert np.array_equal(got, per_node_avg_degree(g, K))

    @settings(max_examples=60, deadline=None)
    @given(g=weighted_graphs(max_n=20), K=st.integers(1, 3))
    def test_avg_degree_matches_per_node_loop_on_weighted_graphs(self, g, K):
        with np.errstate(over="ignore"):    # weights near the float maximum sum to inf in both
            got, want = intrinsic_features(g, avg_degree(K)), per_node_avg_degree(g, K)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_triangle_count_matches_enumeration_oracle(self, rng):
        edges, g = random_connected_graph(rng, 12, extra=14)
        W = dense_ops(12, edges)["W"] > 0
        feats = intrinsic_features(g, triangle_count(1))[:, 0]
        for v in range(12):
            hood = [u for u in range(12) if 0 <= g.hops[v, u] <= 1]
            count = 0
            for i, a in enumerate(hood):
                for b in hood[i + 1:]:
                    for c in hood[hood.index(b) + 1:]:
                        count += bool(W[a, b] and W[b, c] and W[a, c])
            assert feats[v] == count

    @settings(max_examples=100, deadline=None)
    @given(case=hop_graphs(weighted=True), K=st.integers(1, 3))
    def test_triangle_count_matches_per_node_loop_bitwise(self, case, K):
        n, edges = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(edges, n=n)
        got = intrinsic_features(g, triangle_count(K))
        assert got.shape == (n, 1) and got.dtype == np.float64
        assert np.array_equal(got, per_node_triangle_count(g, K))

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("family", ["complete", "wheel", "clustered"])
    def test_triangle_count_on_triangle_rich_graphs(self, family, K):
        # complete graphs K_4..K_8, wheels with 4..12 spokes, and random
        # graphs with many triadic closures, each beside a copy of itself
        graphs = []
        for size in range(4, 9 if family == "complete" else 13):
            if family == "complete":
                edges = [(a, b) for a in range(size) for b in range(a + 1, size)]
            elif family == "wheel":
                edges = [(0, i) for i in range(1, size + 1)]
                edges += [(i, i % size + 1) for i in range(1, size + 1)]
            else:
                r = np.random.default_rng(size)
                edges = clustered_edges(r, 3 * size, 6 * size)
                edges += [(u + 3 * size, v + 3 * size) for u, v in edges]
            graphs.append(build_graph(edges))
        for g in graphs:
            got = intrinsic_features(g, triangle_count(K))
            assert np.array_equal(got, per_node_triangle_count(g, K))
        if family == "complete":
            assert [intrinsic_features(g, triangle_count(K))[0, 0] for g in graphs] == [
                size * (size - 1) * (size - 2) / 6 for size in range(4, 9)]

    def test_degree_locality_validation(self):
        with pytest.raises(ValueError):
            verify_theorem1(cycle_graph(6),
                            NodeMap({i: (i + 3) % 6 for i in range(6)}),
                            0, 1, 2, avg_degree(3))


class TestValidateIsomorphism:
    def test_identity_map(self, rng):
        edges, g = random_connected_graph(rng, 10)
        phi = NodeMap({i: i for i in range(10)})
        assert validate_isomorphism(g, phi, 0, 2)

    def test_c6_rotation(self):
        g = cycle_graph(6)
        phi = NodeMap({i: (i + 3) % 6 for i in range(6)})
        for v in range(6):
            assert validate_isomorphism(g, phi, v, 2)

    def test_degree_mismatch_detected(self):
        # map a path's middle node onto a star center
        g = build_graph([(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)])
        phi = NodeMap({0: 3, 1: 4, 2: 5})
        assert not validate_isomorphism(g, phi, 1, 1)

    def test_partial_map_raises(self):
        g = cycle_graph(6)
        phi = NodeMap({0: 3, 1: 4})
        with pytest.raises(PartialMap):
            validate_isomorphism(g, phi, 0, 2)

    def test_weight_mismatch_detected(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 2.0)])
        phi = NodeMap({0: 2, 1: 3})
        assert not validate_isomorphism(g, phi, 0, 1)


class TestStructuralDifferences:
    def test_constant_features_no_differences(self):
        g = cycle_graph(6)
        phi = NodeMap({i: (i + 3) % 6 for i in range(6)})
        X = np.ones((6, 1))
        rep = structural_differences(g, phi, X, range(6), center=0)
        assert rep.nodes == set()
        assert rep.d is None

    def test_single_perturbed_feature(self):
        g = cycle_graph(8)
        phi = NodeMap({i: (i + 4) % 8 for i in range(8)})
        X = np.ones((8, 1))
        X[2, 0] = 5.0       # phi(2)=6 keeps feature 1, and phi(6)=2 differs too
        rep = structural_differences(g, phi, X, range(8), center=0)
        assert rep.nodes == {2, 6}
        assert rep.d == 2
        assert "feature-diff" in rep.causes[2]

    def test_unreachable_differences_leave_d_none(self):
        # the differences lie in the component of 3..6, the center in that of 0..2
        g = build_graph([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        phi = NodeMap({3: 4, 4: 3})
        rep = structural_differences(g, phi, np.arange(7), {3, 4}, center=0)
        assert rep.nodes == {3, 4}
        assert rep.d is None

    def test_pendant_fixture_attachment_nodes(self):
        # enumeration oracle over the whole mapped region
        case = pendant_path_pair(2)
        g, phi = case.graph, case.phi
        X = intrinsic_features(g, avg_degree(2))
        rep = structural_differences(g, phi, X, phi.domain, center=0)
        expected = set()
        dist = g.hops[0]
        for u in sorted(phi.domain):
            pu = phi(u)
            boundary = any(int(w) not in phi.domain for w in g.neighbors(u))
            if boundary:
                if abs(g.degrees[pu] * X[u, 0] - g.degrees[u] * X[pu, 0]) > 1e-9:
                    expected.add(u)
            elif abs(X[u, 0] - X[pu, 0]) > 1e-9 or g.degrees[u] != g.degrees[pu]:
                expected.add(u)
        assert rep.nodes == expected == {2, 3}
        assert rep.d == min(dist[u] for u in expected) == 2

    def test_boundary_product_cancellation_excluded(self):
        # raw degree features at a boundary node: products always match
        case = pendant_path_pair(2)
        g, phi = case.graph, case.phi
        X = intrinsic_features(g, DEGREE)
        rep = structural_differences(g, phi, X, phi.domain, center=0)
        assert 3 in rep.excluded
        assert "boundary-cancelled" in rep.excluded[3]
        assert rep.nodes == set()


class TestFeatureRows:
    @pytest.mark.parametrize("rows", [5, 26])
    @pytest.mark.parametrize("radius", [1, 3])
    def test_rows_other_than_the_node_count_raise_before_any_work(self, rows, radius,
                                                                  monkeypatch):
        case = pendant_path_pair(2)                    # 13 nodes
        g, phi = case.graph, case.phi
        X = np.arange(float(rows))
        calls = count_kernel_calls(monkeypatch)
        message = f"^feature rows {rows} != node count 13$"
        with pytest.raises(DimensionMismatch, match=message):
            structural_differences(g, phi, X, phi.domain, center=0)
        with pytest.raises(DimensionMismatch, match=message):
            check_coincidental_correspondence(g, phi, X[:, None], phi.domain,
                                              up_to_radius=radius)
        assert calls == []


class TestCoincidentalCorrespondence:
    def test_singleton_delta_never_offends(self):
        # Delta_u of size one cannot cancel (difference implies product gap)
        for d in (1, 2, 3):
            case = pendant_path_pair(d)
            g, phi = case.graph, case.phi
            X = intrinsic_features(g, avg_degree(2))
            ball = {u for u in range(g.n) if 0 <= g.hops[0, u] <= d}
            interior = {u for u in ball
                        if all(int(w) in ball for w in g.neighbors(u))}
            assert check_coincidental_correspondence(
                g, phi, X, interior, up_to_radius=d) == []

    def test_handbuilt_cancellation_flagged(self):
        # fork: v sees w1, w2 with swapped features; equal degree-weighted sums
        edges = [(0, 1), (0, 2), (1, 3), (2, 4),
                 (5, 6), (5, 7), (6, 8), (7, 9)]
        g = build_graph(edges)
        phi = NodeMap({0: 5, 1: 6, 2: 7})
        X = np.zeros((10, 1))
        X[1, 0], X[2, 0] = 1.0, 3.0
        X[6, 0], X[7, 0] = 3.0, 1.0       # swapped: sums match, entries differ
        offenders = check_coincidental_correspondence(g, phi, X, {0})
        assert offenders == [0]

    def test_empty_delta_everywhere(self):
        g = cycle_graph(6)
        phi = NodeMap({i: (i + 3) % 6 for i in range(6)})
        X = np.ones((6, 1))
        assert check_coincidental_correspondence(g, phi, X, range(6)) == []


class TestPathsAndExpansion:
    def test_binary_expansion(self):
        assert binary_expansion_path(1) == (0,)
        assert binary_expansion_path(2) == (1,)
        assert binary_expansion_path(3) == (0, 1)
        assert binary_expansion_path(5) == (0, 2)
        for d in range(1, 40):
            assert sum(2 ** k for k in binary_expansion_path(d)) == d

    def test_count_shortest_paths(self):
        g = cycle_graph(6)
        assert count_shortest_paths(g, 0, 2) == 1
        assert count_shortest_paths(g, 0, 3) == 2   # both ways around
        path = build_graph([(0, 1), (1, 2)])
        assert count_shortest_paths(path, 0, 2) == 1

    @settings(max_examples=60, deadline=None)
    @given(g=weighted_graphs())
    def test_count_shortest_paths_matches_walk_oracle(self, g):
        # the first walk length joining a and b is d(a, b), and every walk of
        # that length is a shortest path
        adj = (per_node_dense_adjacency(g) > 0).astype(np.int64)
        walks = [np.eye(g.n, dtype=np.int64)]
        for _ in range(g.n):
            walks.append(walks[-1] @ adj)
        for a in range(g.n):
            for b in range(g.n):
                counts = [int(w[a, b]) for w in walks if w[a, b]]
                assert count_shortest_paths(g, a, b) == (counts[0] if counts else 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_theorem3_counts_the_paths_along_the_generalized_path(self, k):
        # k parallel middles between v and its one nearest difference node;
        # k = 2 is square_double_path_pair
        case = parallel_path_pair(k)
        g, v = case.graph, case.v
        X = intrinsic_features(g, case.kind)
        diffs = structural_differences(g, case.phi, X, case.phi.domain, v)
        d, vd, _ = generalized_path(g, v, diffs.nodes)
        (u0,) = vd
        assert d == 2 and count_shortest_paths(g, v, u0) == k
        if k == 1:
            rep = verify_theorem3(g, case.phi, v, case.K, case.L, case.kind, LEAKY)
            assert rep.discriminates and rep.d == 2
            return
        with pytest.raises(HypothesisViolated,
                           match=f"^{k} shortest paths between {v} and {u0}$"):
            verify_theorem3(g, case.phi, v, case.K, case.L, case.kind, LEAKY)
        assert_theorem_matches_per_node(g, case.phi, v, case.K, case.L, case.kind, LEAKY, 3)

    def test_generalized_path_on_pendant_fixture(self):
        case = pendant_path_pair(3)
        g = case.graph
        X = intrinsic_features(g, avg_degree(2))
        rep = structural_differences(g, case.phi, X, case.phi.domain, center=0)
        d, vd, layers = generalized_path(g, 0, rep.nodes)
        assert d == 3 and vd == {3}
        assert layers == [{3}, {2}, {1}, {0}]


class TestTheorem1:
    def test_c6_rotation_passes(self):
        g = cycle_graph(6)
        phi = NodeMap({i: (i + 3) % 6 for i in range(6)})
        rep = verify_theorem1(g, phi, 0, 1, 2, DEGREE, trials=25)
        assert rep.passed and rep.max_deviation < 1e-9

    def test_hidden_leaf_pair_passes(self):
        case = [c for c in theorem_cases() if c.name == "pendant-path-hidden-leaf"][0]
        rep = verify_theorem1(case.graph, case.phi, case.v, case.K, case.L,
                              case.kind, trials=25)
        assert rep.passed

    def test_radius_guard_raises(self):
        case = [c for c in theorem_cases() if c.name == "pendant-path-radius-guard"][0]
        with pytest.raises(HypothesisViolated):
            verify_theorem1(case.graph, case.phi, case.v, case.K, case.L, case.kind)


class TestTheorem2:
    @pytest.mark.parametrize("d,expected_path", [(1, (0,)), (2, (1,)),
                                                 (3, (0, 1)), (5, (0, 2))])
    def test_pendant_fixtures_separate(self, d, expected_path):
        case = pendant_path_pair(d)
        rep = verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                              case.kind, LEAKY)
        assert rep.d == d
        assert rep.path == expected_path
        assert rep.discriminates and rep.separation > 1e-9
        assert rep.onion_matched
        assert rep.gcn_deviation < 1e-9

    def test_separation_matches_dense_composition_oracle(self):
        # d=3: U_p = Psi_1 sigma Psi_0 composed from explicit dense operators
        case = pendant_path_pair(3)
        g = case.graph
        edges = [(u, int(w)) for u in range(g.n) for w in g.neighbors(u) if u < w]
        P = dense_ops(g.n, edges)["P"]
        X = intrinsic_features(g, avg_degree(2))
        Z = dense_wavelet(P, 0) @ X
        U = dense_wavelet(P, 1) @ np.where(Z > 0, Z, LEAKY.slope * Z)
        expected = float(np.max(np.abs(U[0] - U[case.phi(0)])))
        rep = verify_theorem2(g, case.phi, 0, case.K, case.L, case.kind, LEAKY)
        assert rep.separation == pytest.approx(expected, rel=1e-12)
        assert expected > 1e-9

    def test_identity_sigma_also_separates(self):
        case = pendant_path_pair(2)
        rep = verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                              case.kind, IDENTITY)
        assert rep.discriminates

    def test_abs_sigma_rejected(self):
        case = pendant_path_pair(2)
        with pytest.raises(HypothesisViolated):
            verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                            case.kind, ABS)

    def test_random_invertible_theta_persistence(self):
        case = pendant_path_pair(3)
        r = np.random.default_rng(0)
        for _ in range(20):
            theta = np.array([[float(r.uniform(0.2, 3.0) * r.choice([-1, 1]))]])
            rep = verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                                  case.kind, LEAKY, theta=theta)
            assert rep.discriminates

    def test_coincidental_gadget_raises_and_does_not_separate(self):
        case = fork_pair((2, 0), (0, 2), name="gadget", theorem=2)
        with pytest.raises(HypothesisViolated, match="coincidental"):
            verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                            case.kind, LEAKY)
        # consistency: the binary-expansion path really fails to separate
        X = intrinsic_features(case.graph, case.kind)
        sep = scatter_separation(case.graph, case.v, case.phi(case.v),
                                 X, (1,), LEAKY)
        assert sep < 1e-9

    def test_no_difference_raises(self):
        g = cycle_graph(6)
        phi = NodeMap({i: (i + 3) % 6 for i in range(6)})
        with pytest.raises(HypothesisViolated, match="no structural difference"):
            verify_theorem2(g, phi, 0, 2, 1, avg_degree(2), LEAKY)

    def test_barbell_feature_kind_controls_visibility(self):
        # equal-degree decorations: degree features see nothing, average
        # degrees see d=4, triangle counts see d=3 one hop earlier
        case = barbell_pair()
        X = intrinsic_features(case.graph, DEGREE)
        rep = structural_differences(case.graph, case.phi, X, case.phi.domain,
                                     center=case.v)
        assert rep.nodes == set()
        rep_avg = verify_theorem2(case.graph, case.phi, case.v, 2, 2,
                                  avg_degree(2), LEAKY)
        assert rep_avg.d == 4 and rep_avg.path == (2,) and rep_avg.discriminates
        rep_tri = verify_theorem2(case.graph, case.phi, case.v, 2, 2,
                                  triangle_count(2), LEAKY)
        assert rep_tri.d == 3 and rep_tri.path == (0, 1) and rep_tri.discriminates
        assert rep_tri.onion_matched and rep_avg.onion_matched


class TestTheorem3:
    def test_pendant_path_passes(self):
        case = pendant_path_pair(3)
        rep = verify_theorem3(case.graph, case.phi, case.v, case.K, case.L,
                              case.kind, LEAKY)
        assert rep.discriminates and rep.d == 3

    def test_equidistant_differences_raise(self):
        case = fork_pair((1, 2), (0, 0), name="fork", theorem=3)
        with pytest.raises(HypothesisViolated, match="not unique"):
            verify_theorem3(case.graph, case.phi, case.v, case.K, case.L,
                            case.kind, LEAKY)

    def test_double_shortest_path_raises(self):
        case = square_double_path_pair()
        with pytest.raises(HypothesisViolated, match="shortest paths"):
            verify_theorem3(case.graph, case.phi, case.v, case.K, case.L,
                            case.kind, LEAKY)
        # the same fixture satisfies the coincidence-based hypothesis instead
        rep = verify_theorem2(case.graph, case.phi, case.v, case.K, case.L,
                              case.kind, LEAKY)
        assert rep.discriminates and rep.d == 2


class TestOnionPropagation:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_layer_sets_match_generalized_path(self, d):
        # direct re-derivation, not just the flag inside the report
        from graphscat.graph import LAZY_WALK, apply_operator
        case = pendant_path_pair(d)
        g, phi = case.graph, case.phi
        X = intrinsic_features(g, avg_degree(2))
        rep = structural_differences(g, phi, X, phi.domain, center=0)
        dd, vd, layers = generalized_path(g, 0, rep.nodes)
        assert dd == d
        Y = X
        for j in range(d + 1):
            ball = [u for u in range(g.n) if 0 <= g.hops[0, u] <= d - j]
            found = structural_differences(g, phi, Y, ball).nodes
            assert found == layers[j] == {d - j}
            Y = apply_operator(g, LAZY_WALK, Y)


def _outcome(f, *args, **kwargs):
    """What f returns, or the type name and message of what it raises."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _report(f, *args):
    """A difference report's causes and excluded nodes, in order, and its d."""
    rep = _outcome(f, *args)
    if isinstance(rep, theory.StructuralDifferenceReport):
        return list(rep.causes.items()), list(rep.excluded.items()), rep.d
    return rep


def assert_checks_match_per_node(g, phi, X, region, center, offender_region, radius):
    assert (_report(structural_differences, g, phi, X, region, center)
            == _report(per_node_differences, g, phi, X, region, center))
    assert (_outcome(check_coincidental_correspondence, g, phi, X, offender_region, radius)
            == _outcome(per_node_coincidences, g, phi, X, offender_region, radius))


def assert_theorem_matches_per_node(g, phi, v, K, L, kind, sigma, theorem):
    verify = verify_theorem3 if theorem == 3 else verify_theorem2
    got = _outcome(verify, g, phi, v, K, L, kind, sigma)
    want = _outcome(per_node_verify_theorem, g, phi, v, K, L, kind, sigma,
                    unique_path=theorem == 3)
    if got != want and g.has_isolated_nodes:
        # the one order that moved: the features are diffused before the
        # coincidence check, so where the lazy walk is undefined a d = 1
        # check raises that before the stage-0 coincidence it would name
        assert got == ("IsolatedNodeError", "operator lazy_walk undefined on degree-zero nodes")
        assert want[0] == "HypothesisViolated" and want[1].startswith("coincidental")
        return
    assert got == want


@st.composite
def mapped_graphs(draw, max_n=9):
    """(g, phi, v, K, L): a graph on 1..max_n nodes with weights 0.5, 1 or 2,
    often along a path through all of them, isolated nodes allowed; an
    injective partial map phi; v in its domain when it has one; 1 <= K <= 2
    and L >= 0.

    Either phi maps any nodes to any nodes, or the graph is followed by a
    copy of itself with one edge at node a added, removed or reweighted
    (perhaps to a new leaf), and phi maps a ball around v, of radius K + L
    or more, and any other nodes onto their copies; when a is reachable from
    v, K + L is then at most, and often equal to, the distance from v to a,
    so the balls are often isomorphic and the change often shows inside."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))), max_size=2 * n))
    if not draw(st.booleans()):
        pairs |= {(u, u + 1) for u in range(n - 1)}
    weight = st.sampled_from([0.5, 1.0, 2.0])
    edges = {e: draw(weight) for e in sorted(pairs)}
    K, L = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph([(a, b, w) for (a, b), w in edges.items()], n=n)
        domain = sorted(draw(st.sets(st.integers(0, n - 1))))
        images = draw(st.permutations(range(n)))
        v = draw(st.sampled_from(domain)) if domain else 0
        return g, NodeMap(dict(zip(domain, images))), v, K, L
    edges.update({(a + n, b + n): w for (a, b), w in list(edges.items())})
    v, a = draw(st.integers(0, n - 1)), n - 1 - draw(st.integers(0, n - 1))
    b = n - draw(st.integers(0, n).filter(lambda i: n - i != a))
    key = (a + n, 2 * n) if b == n else (min(a, b) + n, max(a, b) + n)
    if key in edges and draw(st.booleans()):
        del edges[key]
    else:
        edges[key] = draw(weight)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolatedNodeWarning)
        g = build_graph([(a, b, w) for (a, b), w in edges.items()], n=2 * n + (b == n))
    if g.hops[v, a] > 0:
        K = min(K, int(g.hops[v, a]))
        L = min(L, int(g.hops[v, a]) - K) if draw(st.booleans()) else int(g.hops[v, a]) - K
    radius = K + L + draw(st.integers(0, 2))
    ball = {u for u in range(n) if 0 <= g.hops[v, u] <= radius}
    domain = ball | draw(st.sets(st.integers(0, n - 1)))
    return g, NodeMap({u: u + n for u in sorted(domain)}), v, K, L


class TestPerNodeOracles:
    """The shared diffusion stages and the array expressions against the
    per-node checks, each diffusing on its own: the same reports, offenders,
    onion verdicts, and Theorem 2 and 3 outcomes, passing or not."""

    def test_shipped_cases(self):
        for case in theorem_cases():
            g, phi = case.graph, case.phi
            X = intrinsic_features(g, case.kind)
            for radius in range(4):
                assert_checks_match_per_node(g, phi, X, phi.domain, case.v, phi.domain, radius)
            for theorem in (2, 3):
                assert_theorem_matches_per_node(g, phi, case.v, case.K, case.L, case.kind,
                                                case.sigma, theorem)

    @pytest.mark.parametrize("d", range(1, 21))
    def test_pendant_path_family(self, d):
        # from d = 13 the float64 verdicts go wrong in both (ROADMAP item 3),
        # so only the outcomes are compared
        case = pendant_path_pair(d)
        g, phi = case.graph, case.phi
        X = intrinsic_features(g, case.kind)
        ball = {u for u in range(g.n) if 0 <= g.hops[0, u] <= d}
        interior = {u for u in ball if all(int(w) in ball for w in g.neighbors(u))}
        assert_checks_match_per_node(g, phi, X, phi.domain, case.v, interior, d)
        for sigma, theorem in ((LEAKY, 2), (IDENTITY, 2), (LEAKY, 3)):
            assert_theorem_matches_per_node(g, phi, case.v, case.K, case.L, case.kind,
                                            sigma, theorem)

    @settings(max_examples=200, deadline=None)
    @given(case=mapped_graphs(), data=st.data())
    def test_drawn_maps(self, case, data):
        g, phi, v, K, L = case
        X = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                        min_size=2 * g.n, max_size=2 * g.n))).reshape(g.n, 2)
        region = data.draw(st.sets(st.sampled_from(sorted(phi.domain)))) if phi.domain else set()
        center = data.draw(st.none() | st.integers(0, g.n - 1))
        kind = data.draw(st.sampled_from([DEGREE, avg_degree(1), avg_degree(K),
                                          triangle_count(1), triangle_count(K)]))
        sigma = data.draw(st.sampled_from([LEAKY, LEAKY, IDENTITY, ABS]))
        with np.errstate(divide="ignore", invalid="ignore"):   # a degree-zero image, in both
            assert_checks_match_per_node(g, phi, X, region, center, range(g.n),
                                         data.draw(st.integers(0, 3)))
            for theorem in (2, 3):
                assert_theorem_matches_per_node(g, phi, v, K, L, kind, sigma, theorem)


def _stages(f, g, phi, X, count):
    """f's stages as (P^j X's dtype, shape and bytes, sorted difference nodes),
    or the type name and message of what it raises."""
    stages = _outcome(f, g, phi, X, count, theory.EQUALITY_ATOL)
    if isinstance(stages, tuple):
        return stages
    return [(Y.dtype, Y.shape, Y.tobytes(), sorted(found)) for Y, found in stages]


def assert_stages_match_per_stage(g, phi, X, region, count):
    assert (_stages(theory._diffusion_stages, g, phi, X, count)
            == _stages(per_stage_diffusion_stages, g, phi, X, count))
    want = _outcome(per_stage_diffusion_stages, g, phi, X, max(1, count), theory.EQUALITY_ATOL)
    if isinstance(want, list):
        want = theory._offenders(g, phi, want, sorted(region), theory.EQUALITY_ATOL)
    assert _outcome(check_coincidental_correspondence, g, phi, X, region, count) == want


class TestDiffusionStages:
    """All stages tagged in one pass against one structural_differences call
    per stage: the same diffused features, bit for bit, the same difference
    nodes, and the same coincidence offenders."""

    @pytest.mark.parametrize("case", [
        *theorem_cases(), *(pendant_path_pair(d) for d in range(1, 21)), parallel_path_pair(3)],
        ids=lambda case: f"{case.name}-{case.theorem}")
    def test_theorem_fixtures(self, case):
        g, phi = case.graph, case.phi
        X = intrinsic_features(g, case.kind)
        for count in range(1, 2 + (case.expected_d or 3)):
            assert_stages_match_per_stage(g, phi, X, phi.domain, count)

    @settings(max_examples=200, deadline=None)
    @given(case=mapped_graphs(), data=st.data())
    def test_drawn_maps(self, case, data):
        g, phi, *_ = case
        width = data.draw(st.integers(1, 3))
        X = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.5]),
                                        min_size=width * g.n, max_size=width * g.n)))
        region = data.draw(st.sets(st.integers(0, g.n - 1)))
        with np.errstate(divide="ignore", invalid="ignore"):   # a degree-zero image, in both
            assert_stages_match_per_stage(g, phi, X.reshape(g.n, width), region,
                                          data.draw(st.integers(1, 4)))


class TestHomophily:
    def test_all_same_label(self):
        g = cycle_graph(5)
        assert homophily(g, np.zeros(5)) == 1.0

    def test_proper_two_coloring_of_bipartite(self):
        g = complete_bipartite(3, 3)
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert homophily(g, labels) == 0.0

    def test_fraction_matches_loop_oracle(self, rng):
        edges, g = random_connected_graph(rng, 20)
        labels = rng.integers(0, 3, size=20)
        same = sum(1 for u, v in edges if labels[u] == labels[v])
        assert homophily(g, labels) == pytest.approx(same / len(edges))

    @settings(max_examples=200, deadline=None)
    @given(g=weighted_graphs(), data=st.data())
    def test_equals_per_node_loop(self, g, data):
        labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)))
        if g.num_edges:
            assert homophily(g, labels) == per_node_homophily(g, labels)
        else:
            with pytest.raises(ValueError, match="^graph has no edges$"):
                homophily(g, labels)


class TestFixtureRunner:
    def test_every_shipped_case_matches_expectation(self):
        from graphscat.fixtures import run_verify_suite
        results = run_verify_suite()
        failed = [r for r in results if not r.ok]
        assert not failed, failed


class TestBatchedRandomGCN:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), trials=st.integers(0, 6), L=st.integers(0, 4),
           hidden=st.integers(1, 5), d=st.integers(1, 3), weighted=st.booleans())
    def test_matches_per_trial_loop_bitwise(self, seed, trials, L, hidden, d, weighted):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 16))
        _, g = random_connected_graph(r, n, weighted=weighted)
        X = 3.0 * r.standard_normal((n, d))
        v, pv = (int(i) for i in r.choice(n, 2, replace=False))
        got = theory._random_gcn_deviation(g, v, pv, X, L, trials, seed, hidden)
        want = per_trial_gcn_deviation(g, v, pv, X, L, trials, seed, hidden)
        assert got == want

    def test_verify_suite_kernel_calls(self, monkeypatch):
        # one renormalized-adjacency call per layer for all trials together
        # (one call per layer per trial made it 532), and d lazy walks for
        # the coincidence and onion checks of a Theorem 2 or 3 check
        # together (each diffusing on its own made it 92, 62 lazy walks)
        from graphscat.fixtures import run_verify_suite
        calls = count_kernel_calls(monkeypatch)
        kinds = count_operator_calls(monkeypatch)
        run_verify_suite()
        assert len(calls) == 83
        assert collections.Counter(kinds) == {
            "lazy_walk": 53, "renorm_adjacency": 15, "sym_norm_adjacency": 15}

    def test_verify_suite_builds_each_hop_table_once(self, monkeypatch):
        # one build per distinct fixture graph and call: the two-coloring C6
        # serves c6-rotation and each pendant path pair every case on it, so
        # 13 graphs, of which the 9 the theorem cases check build a hop
        # table; the next call builds them all again. The lists keep every
        # graph alive, so no id is reused.
        from graphscat import fixtures
        made = []
        build = fixtures.build_graph
        monkeypatch.setattr(fixtures, "build_graph",
                            lambda *args, **kw: made.append(build(*args, **kw)) or made[-1])
        hopped = count_builds(monkeypatch, "hops")
        weighed = count_builds(monkeypatch, "dense_weights")
        runs = []
        for _ in range(2):
            first_made, first_hopped, first_weighed = len(made), len(hopped), len(weighed)
            fixtures.run_verify_suite()
            graphs = {id(g) for g in made[first_made:]}
            tables = {id(g) for g in hopped[first_hopped:]}
            assert len(made) - first_made == len(graphs) == 13
            assert len(hopped) - first_hopped == len(tables) == 9
            assert tables <= graphs
            # every theorem case's isomorphism check reads the weight matrix
            # of its graph, built once for all of them
            assert {id(g) for g in weighed[first_weighed:]} == tables
            assert len(weighed) - first_weighed == 9
            runs.append(graphs)
        assert not runs[0] & runs[1]

    def test_verify_theory_output_matches_per_trial_loop(self, monkeypatch, capsys):
        assert main(["verify-theory"]) == 0
        batched = capsys.readouterr().out
        monkeypatch.setattr(theory, "_random_gcn_deviation", per_trial_gcn_deviation)
        assert main(["verify-theory"]) == 0
        assert capsys.readouterr().out == batched
