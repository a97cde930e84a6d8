import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscat import theory
from graphscat.cli import main

from graphscat.errors import HypothesisViolated, IsolatedNodeWarning, PartialMap
from graphscat.fixtures import (
    LEAKY,
    barbell_pair,
    cycle_graph,
    complete_bipartite,
    fork_pair,
    pendant_path_pair,
    square_double_path_pair,
    theorem1_cases,
)
from graphscat.graph import build_graph
from graphscat.scattering import ABS, IDENTITY
from graphscat.theory import (
    DEGREE,
    NodeMap,
    avg_degree,
    binary_expansion_path,
    check_coincidental_correspondence,
    count_shortest_paths,
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
    count_hop_builds,
    count_kernel_calls,
    dense_ops,
    dense_wavelet,
    hop_graphs,
    per_node_avg_degree,
    per_node_dense_adjacency,
    per_node_homophily,
    per_trial_gcn_deviation,
    random_connected_graph,
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
        case = [c for c in theorem1_cases() if c.name == "pendant-path-hidden-leaf"][0]
        rep = verify_theorem1(case.graph, case.phi, case.v, case.K, case.L,
                              case.kind, trials=25)
        assert rep.passed

    def test_radius_guard_raises(self):
        case = [c for c in theorem1_cases() if c.name == "pendant-path-radius-guard"][0]
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
        # one renormalized-adjacency call per layer for all trials together;
        # one call per layer per trial made it 532
        from graphscat.fixtures import run_verify_suite
        calls = count_kernel_calls(monkeypatch)
        run_verify_suite()
        assert len(calls) == 92

    def test_verify_suite_builds_each_hop_table_once(self, monkeypatch):
        # one table per checked fixture graph; the two Theorem 1 cases on the
        # pendant path share theirs, and the two-coloring graphs need none
        from graphscat.fixtures import (run_verify_suite, theorem1_cases,
                                        theorem2_cases, theorem3_cases)
        built = count_hop_builds(monkeypatch)
        run_verify_suite()
        graphs = {id(c.graph) for c in theorem1_cases() + theorem2_cases() + theorem3_cases()}
        assert len(built) == len({id(g) for g in built}) == len(graphs) == 11

    def test_verify_theory_output_matches_per_trial_loop(self, monkeypatch, capsys):
        assert main(["verify-theory"]) == 0
        batched = capsys.readouterr().out
        monkeypatch.setattr(theory, "_random_gcn_deviation", per_trial_gcn_deviation)
        assert main(["verify-theory"]) == 0
        assert capsys.readouterr().out == batched
