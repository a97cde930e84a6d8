import builtins
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
import graphscat.graph as graph_module
from graphscat.datasets import SBMSpec, generate_sbm
from graphscat.errors import (
    DimensionMismatch,
    DuplicateEdge,
    IsolatedNodeError,
    IsolatedNodeWarning,
    NonSymmetricInput,
    SelfLoopError,
)
from graphscat.graph import (
    LAZY_WALK,
    RENORM_ADJACENCY,
    SYM_NORM_ADJACENCY,
    adjacency_matvec,
    apply_operator,
    apply_operator_transpose,
    build_graph,
    read_edge_list,
    residual_diffusion,
    write_edge_list,
)

from conftest import (
    closed_form_operator,
    dense_ops,
    dense_w,
    hop_graphs,
    not_utf8_edge_file,
    per_edge_build_graph,
    per_edge_read_edge_list,
    per_edge_write_edge_list,
    per_node_dense_adjacency,
    per_row_matvec,
    per_source_bfs_hops,
    random_connected_graph,
    reduceat_matvec,
    weighted_graphs,
)


def two_coloring(n):
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestBuildGraph:
    def test_triangle_degrees(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert np.array_equal(g.degrees, [2.0, 2.0, 2.0])

    def test_path_degrees(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
        assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])

    def test_conflicting_weights_rejected(self):
        with pytest.raises(NonSymmetricInput):
            build_graph([(0, 1, 0.5), (1, 0, 0.7)])

    @pytest.mark.parametrize("edges,shown", [
        ([(0, 1.5), (1, 2)], "(0.0, 1.5)"),               # was built as 0-1 and 1-2
        ([(0, 1), (2, 2), (1, math.nan)], "(1.0, nan)"),  # ahead of the earlier self-loop
        ([(0, 1, 1.0), (-math.inf, 2, 1.0)], "(-inf, 2.0)"),
        (np.array([[0, 1e20]]), "(0.0, 1e+20)"),
        ([(0, 1), (0, None)], "(0, None)"),               # numpy's bare TypeError before
        ([(0, "a")], "('0', 'a')"),                       # int() refused 'a' before
        ([(0, 2 ** 70)], "(0, 1180591620717411303424)"),  # OverflowError before
    ])
    def test_non_integer_node_id_rejected_first(self, edges, shown):
        # NaN was cast to int64 min, with a RuntimeWarning, and called negative
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^edge {re.escape(shown)} has a node id "
                                                 "that is not an int64 integer$"):
                build_graph(edges)

    @pytest.mark.parametrize("edges,shown", [
        ([(0, 1, "x"), (1, 2, None)], "(0, 1) has weight 'x'"),    # numpy's bare error before
        ([(0, 1, None), (1, 2, 1.0)], "(0, 1) has weight None"),   # called weight nan before
        ([(0, 1, 1.0), (2, 1, "1.5"), (2, 3, None)], "(2, 1) has weight '1.5'"),
        ([(0, 1, None), (1, 2, 2 ** 1024)], "(0, 1) has weight None"),
        ([(0, 1, 1.0), (1, 2, 2 ** 1024)], f"(1, 2) has weight {2 ** 1024}"),
    ], ids=["text", "none", "numeric-text", "none-before-huge-int", "huge-int"])
    def test_weight_that_is_no_number_names_its_edge(self, edges, shown):
        with pytest.raises(ValueError, match=f"^edge {re.escape(shown)}, "
                                             "which is not a float64 number$"):
            build_graph(edges)

    def test_graphs_and_their_plans_compare_by_identity(self):
        g, twin = build_graph(cycle(4)), build_graph(cycle(4))
        for record, other in ((g, twin), (g.kernel_plan, twin.kernel_plan)):
            assert record == record and {record: 1}[record] == 1
            assert hash(record) == hash(record) != hash(other)
            assert record != other

    def test_integral_float_ids_build_the_integer_graph(self):
        # a float (m, 3) array with weights carries its ids as floats
        assert (outcome(build_graph, np.array([[0, 1, 0.5], [2, 1, 2.0]]))
                == outcome(build_graph, [(0, 1, 0.5), (2, 1, 2.0)]))

    def test_exact_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph([(0, 1, 0.5), (1, 0, 0.5)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph([(0, 0, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            build_graph([(0, 1, 0.0)])

    def test_isolated_node_warning(self):
        with pytest.warns(IsolatedNodeWarning):
            g = build_graph([(0, 1)], n=3)
        assert g.has_isolated_nodes

    def test_neighbor_lists_sorted(self, rng):
        _, g = random_connected_graph(rng, 30)
        for v in range(g.n):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_degrees_match_row_sums(self, rng):
        edges, g = random_connected_graph(rng, 25, weighted=True)
        W = dense_ops(25, edges)["W"]
        assert np.allclose(g.degrees, W.sum(axis=1), atol=1e-12)

    def test_immutable_arrays(self):
        g = build_graph(cycle(4))
        with pytest.raises(ValueError):
            g.degrees[0] = 5.0


def graph_with_isolated_nodes(rng, n, isolated, hub=False, extra=None):
    """Random weighted graph on the first n - len(isolated) ids, shuffled so the
    degree-zero nodes fall at the given positions. A hub joins the first of
    those ids to every other one."""
    m = n - len(isolated)
    edges, _ = random_connected_graph(rng, m, extra=extra, weighted=True)
    if hub:
        have = {(u, v) for u, v, _ in edges}
        edges += [(0, v, float(rng.uniform(0.5, 2.0))) for v in range(1, m) if (0, v) not in have]
    keep = [v for v in range(n) if v not in isolated]
    edges = [(keep[u], keep[v], w) for u, v, w in edges]
    with pytest.warns(IsolatedNodeWarning):
        g = build_graph(edges, n=n)
    return edges, g


def kernel_layouts(X):
    """X in C order, in F order, and as a non-contiguous column block of a wider array."""
    wider = np.column_stack([X, X])
    return X, np.asfortranarray(X), wider[:, 0] if X.ndim == 1 else wider[:, 1:1 + X.shape[1]]


class TestAdjacencyKernel:
    @pytest.mark.parametrize("isolated", [(), (0,), (4, 5), (11,)])
    @pytest.mark.parametrize("width", [None, 1, 8, 16, 32, 47, 64])
    def test_bitwise_equal_to_reference_kernel(self, rng, isolated, width):
        # every layout, on a 12-node graph, on a 24-node one whose hub row
        # holds 20 or more entries, and on one whose hub row is longer than
        # two chunks and ends in a partial one
        K = graph_module.ROW_CHUNK
        if isolated:
            _, g = graph_with_isolated_nodes(rng, 12, isolated)
        else:
            _, g = random_connected_graph(rng, 12, weighted=True)
        _, hub = graph_with_isolated_nodes(rng, 24, isolated + (23,), hub=True)
        assert np.diff(hub.csr_offsets).max() >= 20
        _, big = graph_with_isolated_nodes(rng, 2 * K + 12, isolated + (2 * K + 11,), hub=True)
        assert np.diff(big.csr_offsets).max() > 2 * K
        assert np.diff(big.csr_offsets).max() % K
        for graph in (g, hub, big):
            X = rng.standard_normal(graph.n if width is None else (graph.n, width))
            for Y in kernel_layouts(X):
                assert adjacency_matvec(graph, Y).tobytes() == per_row_matvec(graph, Y).tobytes()

    @pytest.mark.parametrize("width", [None, 1, 3, 16])
    def test_within_rounding_of_the_reduceat_kernel(self, rng, width):
        # the former kernel summed each row segment in numpy's pairwise order;
        # only the order of the additions differs
        K = graph_module.ROW_CHUNK
        for n, hub in ((40, False), (3 * K, True)):
            _, g = graph_with_isolated_nodes(rng, n, (n - 1,), hub=hub, extra=3 * n)
            X = rng.standard_normal(n if width is None else (n, width))
            scale = reduceat_matvec(g, np.abs(X))
            assert np.all(np.abs(adjacency_matvec(g, X) - reduceat_matvec(g, X)) <= 1e-13 * scale)

    def test_slot_adds_bounded(self):
        # a call makes at most ROW_CHUNK + ceil(maxdeg / ROW_CHUNK) adds
        K = graph_module.ROW_CHUNK
        for leaves in (1, K - 1, K, K + 1, 2 * K + 1, 5000):
            g = build_graph([(0, v) for v in range(1, leaves + 1)] + [(1, 2)] * (leaves > 1))
            maxdeg = int(np.diff(g.csr_offsets).max())
            adds = len(g.kernel_plan.slots) + len(g.kernel_plan.chunk_slots)
            assert adds <= K + -(-maxdeg // K)
            assert adds == min(maxdeg, K) - 1 + -(-maxdeg // K) - 1

    @pytest.mark.parametrize("isolated", [(0,), (3, 9), (0, 1, 13)])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), extra=st.integers(0, 30),
           width=st.one_of(st.none(), st.integers(1, 64)))
    def test_matches_dense_product_with_isolated_nodes(self, isolated, seed, extra, width):
        rng = np.random.default_rng(seed)
        edges, g = graph_with_isolated_nodes(rng, 14, isolated, extra=extra)
        X = rng.standard_normal(14 if width is None else (14, width))
        out = adjacency_matvec(g, X)
        assert np.allclose(out, dense_w(14, edges) @ X, atol=1e-12)
        assert np.array_equal(out[list(isolated)], np.zeros_like(out[list(isolated)]))

    def test_edgeless_graph_gives_zeros(self):
        with pytest.warns(IsolatedNodeWarning):
            g = build_graph([], n=3)
        assert np.array_equal(adjacency_matvec(g, np.ones((3, 2))), np.zeros((3, 2)))

    def test_cached_structure(self, rng):
        edges, g = graph_with_isolated_nodes(rng, 9, (2,))
        assert g.has_isolated_nodes
        assert g.kernel_plan.rows[2] == -1
        assert np.array_equal(np.sort(g.kernel_plan.rows[g.kernel_plan.rows >= 0]), np.arange(8))
        assert np.array_equal(np.sort(g.kernel_plan.targets), np.sort(g.csr_targets))
        assert np.array_equal(g.sqrt_degrees, np.sqrt(g.degrees))
        assert np.array_equal(g.sqrt_degrees_plus_one, np.sqrt(g.degrees + 1.0))
        with pytest.raises(ValueError):
            g.kernel_plan.targets[0] = 1

    @settings(max_examples=60, deadline=None)
    @given(graph=hop_graphs(weighted=True), seed=st.integers(0, 2 ** 32 - 1),
           width=st.one_of(st.none(), st.integers(1, 20)), layout=st.integers(0, 2))
    def test_unit_weight_skip_bitwise(self, graph, seed, width, layout):
        # unit-weight graphs skip the weight product; every graph must give the
        # bits of the always-weighted per-row sums, in every input layout
        n, edges = graph
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(edges, n=n)
        assert (g.kernel_plan.weights is None) == bool(np.all(g.csr_weights == 1.0))
        rng = np.random.default_rng(seed)
        X = kernel_layouts(rng.standard_normal(n if width is None else (n, width)))[layout]
        assert adjacency_matvec(g, X).tobytes() == per_row_matvec(g, X).tobytes()


class TestApplyOperator:
    def test_c4_lazy_walk_annihilates_two_coloring(self):
        g = build_graph(cycle(4))
        out = apply_operator(g, LAZY_WALK, two_coloring(4))
        assert np.array_equal(out, np.zeros(4))

    def test_regular_graph_constant_fixed(self):
        g = build_graph(cycle(6))
        x = np.full(6, 3.25)
        assert np.allclose(apply_operator(g, LAZY_WALK, x), x, atol=1e-12)

    def test_residual_alpha_zero_is_identity(self, rng):
        edges, g = random_connected_graph(rng, 10)
        X = rng.standard_normal((10, 3))
        assert np.array_equal(apply_operator(g, residual_diffusion(0.0), X), X)

    def test_dimension_mismatch(self):
        g = build_graph(cycle(4))
        with pytest.raises(DimensionMismatch):
            apply_operator(g, LAZY_WALK, np.zeros(5))

    def test_isolated_node_rejected_at_apply_time(self):
        with pytest.warns(IsolatedNodeWarning):
            g = build_graph([(0, 1)], n=3)
        for kind in (LAZY_WALK, SYM_NORM_ADJACENCY, residual_diffusion(1.0)):
            with pytest.raises(IsolatedNodeError):
                apply_operator(g, kind, np.zeros(3))
        # renormalized adjacency adds self-loops, degree zero is fine there
        apply_operator(g, RENORM_ADJACENCY, np.zeros(3))

    @pytest.mark.parametrize("kind,key", [
        (LAZY_WALK, "P"), (RENORM_ADJACENCY, "A"),
        (SYM_NORM_ADJACENCY, "sym"), (residual_diffusion(0.7), None),
    ], ids=["kind0-P", "kind1-A", "kind3-sym", "kind4-None"])   # kind2 was the random walk
    def test_matches_dense_oracle(self, rng, kind, key):
        edges, g = random_connected_graph(rng, 23, weighted=True)
        ops = dense_ops(23, edges)
        M = ops[key] if key else ops["res"](0.7)
        X = rng.standard_normal((23, 4))
        assert np.allclose(apply_operator(g, kind, X), M @ X, atol=1e-12)

    @pytest.mark.parametrize("kind", [LAZY_WALK, RENORM_ADJACENCY,
                                      SYM_NORM_ADJACENCY, residual_diffusion(0.3)],
                             ids=["kind0", "kind1", "kind3", "kind4"])
    def test_transpose_matches_dense_oracle(self, rng, kind):
        edges, g = random_connected_graph(rng, 17, weighted=True)
        ops = dense_ops(17, edges)
        dense = {"lazy_walk": ops["P"], "renorm_adjacency": ops["A"],
                 "sym_norm_adjacency": ops["sym"],
                 "residual_diffusion": ops["res"](0.3)}[kind.tag]
        X = rng.standard_normal((17, 3))
        assert np.allclose(apply_operator_transpose(g, kind, X), dense.T @ X, atol=1e-12)

    def test_input_unchanged(self, rng):
        edges, g = random_connected_graph(rng, 8)
        X = rng.standard_normal((8, 2))
        X0 = X.copy()
        apply_operator(g, LAZY_WALK, X)
        assert np.array_equal(X, X0)

    @pytest.mark.parametrize("kind", [LAZY_WALK, RENORM_ADJACENCY, SYM_NORM_ADJACENCY,
                                      residual_diffusion(0.3), residual_diffusion(0.0)],
                             ids=["kind0", "kind1", "kind3", "kind4", "kind4-alpha0"])
    @pytest.mark.parametrize("width", [None, 5])
    def test_in_place_updates_bitwise_equal_to_closed_forms(self, rng, kind, width):
        _, g = random_connected_graph(rng, 19, weighted=True)
        shape = 19 if width is None else (19, width)
        X = rng.standard_normal(shape)
        # rows at 1e-300, 1e300 and 1.5e308 in turn: near the ends of the float
        # range a reordered formula (P as A_res(1), say) underflows or overflows
        # where the closed form does not
        scales = np.resize([1e-300, 1e300, 1.5e308], 19)
        extreme = rng.uniform(0.5, 1.0, shape) * (scales if width is None else scales[:, None])
        for X in (X, extreme):
            X0 = X.copy()
            for apply, transpose in ((apply_operator, False), (apply_operator_transpose, True)):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = closed_form_operator(g, kind, X, transpose=transpose)
                    got = apply(g, kind, X)
                assert got.tobytes() == want.tobytes()
            assert np.array_equal(X, X0)


def chain(g, kind, X, m):
    """[X, K X, ..., K^m X] as arrays, from one off-tape operator chain."""
    return [t.value for t in ad.op_chain(g, kind, ad.constant(X), m)]


class TestOperatorPower:
    def test_power_one_equals_apply(self, rng):
        edges, g = random_connected_graph(rng, 12)
        X = rng.standard_normal((12, 2))
        out = chain(g, LAZY_WALK, X, 1)
        assert np.array_equal(out[0], X)
        assert np.array_equal(out[1], apply_operator(g, LAZY_WALK, X))

    def test_c6_two_steps_annihilate_two_coloring(self):
        g = build_graph(cycle(6))
        out = chain(g, LAZY_WALK, two_coloring(6), 2)[2]
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_column_sums_preserved(self, rng):
        edges, g = random_connected_graph(rng, 20)
        X = rng.standard_normal((20, 3))
        powers = chain(g, LAZY_WALK, X, 5)
        for t in (1, 3, 5):
            assert np.allclose(powers[t].sum(axis=0), X.sum(axis=0), atol=1e-10)

    def test_matches_dense_power_oracle(self, rng):
        edges, g = random_connected_graph(rng, 11, weighted=True)
        ops = dense_ops(11, edges)
        X = rng.standard_normal((11, 2))
        for kind, dense in ((LAZY_WALK, ops["P"]), (RENORM_ADJACENCY, ops["A"])):
            for t, out in enumerate(chain(g, kind, X, 4)):
                assert np.allclose(out, np.linalg.matrix_power(dense, t) @ X, atol=1e-10)

    def test_rejects_negative_length(self):
        g = build_graph(cycle(4))
        with pytest.raises(ValueError):
            ad.op_chain(g, LAZY_WALK, np.zeros(4), -1)
        assert len(ad.op_chain(g, LAZY_WALK, np.zeros(4), 0)) == 1


class TestNeighborhood:
    def test_path_radius_one(self):
        g = build_graph([(0, 1), (1, 2)])
        assert np.flatnonzero(g.hops[0] == 1).tolist() == [1]

    def test_path_radius_two(self):
        g = build_graph([(0, 1), (1, 2)])
        assert g.hops[0].tolist() == [0, 1, 2]

    def test_radius_zero(self):
        g = build_graph(cycle(5))
        assert np.flatnonzero(g.hops[2] == 0).tolist() == [2]
        assert np.array_equal(np.diag(g.hops), np.zeros(5))

    @settings(max_examples=100, deadline=None)
    @given(case=hop_graphs(weighted=True))
    @example(case=(0, []))                                          # no nodes
    @example(case=(1, []))                                          # one node
    @example(case=(5, []))                                          # no edges
    @example(case=(27, [(0, v) for v in range(1, 23)] + [(23, 24), (24, 25)]))  # hub, node 26 alone
    @example(case=(6, [(0, 1, 0.5), (1, 2, 3.0), (3, 4, 1e-3)]))   # weighted, two components
    @example(case=(7, [(0, 1), (2, 3), (3, 4)]))                    # three components, 5 and 6 alone
    def test_bfs_semantics_against_matrix_oracle(self, case):
        # d(v, u) is the first K whose K-step reach from v contains u; the
        # table is built from such products, so a per-source breadth-first
        # search checks it too
        n, edges = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(edges, n=n)
        adj = dense_w(n, edges) > 0
        expected = np.full((n, n), -1)
        reach = np.eye(n, dtype=bool)
        for K in range(n):
            expected[reach & (expected < 0)] = K
            reach = reach | (reach @ adj)
        assert g.hops.dtype == np.int64
        assert np.array_equal(g.hops, expected)
        assert np.array_equal(g.hops, per_source_bfs_hops(n, edges))

    def test_table_peak_memory_on_a_block_model(self):
        # the table (8 n^2 bytes) and a few n x n float32 arrays take 24 n^2
        # here; expanding each level's (source, node) pairs through the CSR
        # rows takes 184 n^2
        g = generate_sbm(SBMSpec(block_sizes=(500, 500), p_in=0.02, p_out=0.002)).graph
        tracemalloc.start()
        try:
            table = g.hops
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 8 * g.n ** 2 <= peak < 32 * g.n ** 2

    @settings(max_examples=100, deadline=None)
    @given(g=weighted_graphs())
    def test_dense_weights_built_on_first_use_cached_and_read_only(self, g):
        assert "dense_weights" not in vars(g)
        W = g.dense_weights
        assert g.dense_weights is W
        assert W.dtype == np.float64 and not W.flags.writeable
        assert np.array_equal(W, per_node_dense_adjacency(g))

    def test_table_is_built_on_first_use_cached_and_read_only(self):
        g = build_graph(cycle(6))
        assert "hops" not in vars(g)
        table = g.hops
        assert g.hops is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1] = 5


class TestInvariantProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mass_conservation(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 40))
        _, g = random_connected_graph(r, n)
        X = r.standard_normal((n, 2))
        out = apply_operator(g, LAZY_WALK, X)
        assert np.max(np.abs(out.sum(axis=0) - X.sum(axis=0))) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_weighted_self_adjointness(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 40))
        _, g = random_connected_graph(r, n)
        x, y = r.standard_normal(n), r.standard_normal(n)
        px = apply_operator(g, LAZY_WALK, x)
        py = apply_operator(g, LAZY_WALK, y)
        lhs = px @ (y / g.degrees)
        rhs = x @ (py / g.degrees)
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_linearity(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 30))
        _, g = random_connected_graph(r, n)
        X, Y = r.standard_normal((n, 2)), r.standard_normal((n, 2))
        a, b = float(r.uniform(-2, 2)), float(r.uniform(-2, 2))
        lhs = apply_operator(g, LAZY_WALK, a * X + b * Y)
        rhs = a * apply_operator(g, LAZY_WALK, X) + b * apply_operator(g, LAZY_WALK, Y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_permutation_equivariance(self, rng):
        n = 18
        edges, g = random_connected_graph(rng, n, weighted=True)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        pedges = [(int(perm[u]), int(perm[v]), w) for u, v, w in edges]
        pg = build_graph(pedges, n=n)
        X = rng.standard_normal((n, 3))
        out = apply_operator(g, LAZY_WALK, X)
        pout = apply_operator(pg, LAZY_WALK, X[inv])
        assert np.max(np.abs(pout - out[inv])) < 1e-12


class TestEdgeListIO:
    @settings(max_examples=300, deadline=None)
    @given(g=weighted_graphs())
    def test_writer_bytes_match_per_edge_loop(self, g):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got.tsv"), os.path.join(tmp, "want.tsv")
            write_edge_list(g, got)
            per_edge_write_edge_list(g, want)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()

    def test_round_trip(self, tmp_path, rng):
        edges, g = random_connected_graph(rng, 12, weighted=True)
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.n == g.n
        assert np.array_equal(g2.csr_offsets, g.csr_offsets)
        assert np.array_equal(g2.csr_targets, g.csr_targets)
        assert np.allclose(g2.csr_weights, g.csr_weights)

    def test_comments_default_weight_and_dedup(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# a comment\n0\t1\n1\t2\t2.5\n2\t1\t2.5\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.num_edges == 2
        assert g.degrees[1] == pytest.approx(3.5)

    def test_conflicting_weights_on_load(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t1.0\n1\t0\t2.0\n")
        with pytest.raises(NonSymmetricInput):
            read_edge_list(path)


GOOD_WEIGHTS = (0.5, 1.0, 2.0, 3.25)
INJECTIONS = ("none", "none", "self-loop", "negative", "0", "-1", "nan", "inf", "-inf")


@st.composite
def edge_lists(draw):
    """Small (u, v, w) lists with at most one injected bad edge, then exact
    and mirrored copies of earlier edges, some with another weight."""
    edges = [(u, (u + du) % 8, w) for u, du, w in draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(1, 7), st.sampled_from(GOOD_WEIGHTS)),
        max_size=10))]
    bad = draw(st.sampled_from(INJECTIONS))
    if bad != "none":
        u, v = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        if bad == "self-loop":
            v = u
        elif bad == "negative":
            v = -1 - v
        w = 1.0 if bad in ("self-loop", "negative") else float(bad)
        edges.insert(draw(st.integers(0, len(edges))), (u, v, w))
    for _ in range(draw(st.integers(0, 3))):
        if not edges:
            break
        u, v, w = edges[draw(st.integers(0, len(edges) - 1))]
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.booleans()):
            w = draw(st.sampled_from(GOOD_WEIGHTS))
        edges.insert(draw(st.integers(0, len(edges))), (u, v, w))
    return edges


# (id, file text, n): inputs on which numpy's reader and str.split, int and float
# could disagree
READER_EDGE_CASES = [
    ("crlf", "0\t1\t2.5\r\n1\t2\t0.5\r\n", None),
    ("bare-cr", "0\t1\r1\t2\r", None),
    ("plus-id", "+1\t2\n0\t1\n", None),
    ("underscore-id", "1_0\t2\n0\t1\n", None),
    ("float-id", "1.0\t2\n0\t1\n", None),
    ("exponent-id", "1e0\t2\n0\t1\n", None),
    ("arabic-indic-id", "\u0663\t1\n0\t1\n", None),
    ("latin-letter-id", "1\u01fe\t2\n0\t1\n", None),
    ("id-above-int64", "9223372036854775808\t1\n0\t1\n", None),
    ("bom", "\ufeff0\t1\n1\t2\n", None),
    ("form-feed", "0\f1\n1\t2\n", None),
    ("no-break-space", "0\xa01\t2.0\n1\t2\t1.0\n", None),
    ("one-field", "0\n1\n", None),
    ("four-fields", "0 1 2 3\n1 2 3 4\n", None),
    ("nan-weight", "0\t1\tnan\n1\t2\t1.0\n", None),
    ("infinity-weight", "0\t1\tInfinity\n1\t2\t1.0\n", None),
    ("underscore-weight", "0\t1\t1_0.5\n1\t2\t1.0\n", None),
    ("hex-weight", "0\t1\t0x1p3\n1\t2\t1.0\n", None),
    ("comments-only", "# only\n# comments\n", None),
    ("non-ascii-comment", "# caf\u00e9\n0\t1\n1\t2\n", None),
    ("empty", "", None),
    ("empty-with-n", "", 2),
    ("clash-in-triples", "0\t1\t1.0\n1\t2\t1.0\n1\t0\t2.0\n", None),
    ("clash-after-long-runs", "".join(f"{i % 7}\t{i % 7 + 1}\t{i % 3}.5\n" for i in range(60)),
     None),
    ("out-of-range-pairs", "0\t1\n# gap\n1\t7\n2\t9\n", 3),
    ("out-of-range-triples", "0\t1\t1.0\n9\t2\t1.0\n", 3),
]


def outcome(build, *args, **kwargs):
    """(arrays, warnings) of a built graph, or (exception type, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = build(*args, **kwargs)
        except Exception as exc:        # noqa: BLE001 - compared, not handled
            return type(exc), str(exc)
    arrays = [(a.dtype.str, a.shape, a.tobytes())
              for a in (g.csr_offsets, g.csr_targets, g.csr_weights, g.degrees)]
    return (g.n, arrays), [(w.category, str(w.message)) for w in caught]


class TestArrayBuiltGraph:
    """build_graph and read_edge_list against the per-edge loops in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(edges=edge_lists(), n=st.one_of(st.none(), st.integers(0, 10)),
           form=st.sampled_from(["triples", "pairs", "array"]))
    def test_matches_per_edge_loop(self, edges, n, form):
        if form == "pairs":
            edges = [(u, v) for u, v, _ in edges]
        given_edges = np.array(edges) if form == "array" else edges
        assert outcome(build_graph, given_edges, n=n) == outcome(per_edge_build_graph, edges, n=n)

    @settings(max_examples=300, deadline=None)
    @given(edges=edge_lists(), n=st.one_of(st.none(), st.integers(0, 10)),
           form=st.sampled_from(["pairs", "triples", "mixed"]), data=st.data())
    def test_reader_matches_per_edge_loop(self, edges, n, form, data):
        # uniform files take numpy's reader, mixed ones the per-line parser
        lines = [f"{u}\t{v}" if form == "pairs" or (form == "mixed" and w == 1.0
                                                    and data.draw(st.booleans()))
                 else f"{u} {v}\t{w!r}" for u, v, w in edges]
        for extra in data.draw(st.lists(st.sampled_from(
                ["# comment", "", "0\tx", "1", "0 1 abc", "0 1 2 3", "2 3  # tail"]), max_size=2)):
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edges.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
            assert outcome(read_edge_list, path, n=n) == outcome(per_edge_read_edge_list, path, n=n)

    @pytest.mark.parametrize("text,n", [c[1:] for c in READER_EDGE_CASES],
                             ids=[c[0] for c in READER_EDGE_CASES])
    def test_reader_inputs_where_parsers_may_disagree(self, tmp_path, text, n):
        path = tmp_path / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_edge_list, path, n=n) == outcome(per_edge_read_edge_list, path, n=n)

    def test_uniform_files_take_numpy_reader(self, tmp_path, rng, monkeypatch):
        _, g = random_connected_graph(rng, 30, weighted=True)
        triples, pairs = tmp_path / "triples.tsv", tmp_path / "pairs.tsv"
        write_edge_list(g, triples)
        rows = g.entry_rows()
        pairs.write_text("".join(f"{u}\t{v}\n" for u, v in zip(rows, g.csr_targets) if u < v))
        want = [outcome(read_edge_list, path) for path in (triples, pairs)]

        def refuse(path):
            raise AssertionError(f"per-line parser used for {path}")

        monkeypatch.setattr(graph_module, "_parse_lines", refuse)
        assert [outcome(read_edge_list, path) for path in (triples, pairs)] == want

    def test_weighted_degrees_are_sequential_sums(self, rng):
        # rows of up to ~30 entries, where a pairwise sum would round differently
        edges, _ = random_connected_graph(rng, 40, extra=400, weighted=True)
        edges = [edges[i] for i in rng.permutation(len(edges))]
        assert outcome(build_graph, edges) == outcome(per_edge_build_graph, edges)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match=rf"edge \(2, 1\) has non-finite weight {w}"):
            build_graph([(0, 1, 1.0), (2, 1, w)])

    @pytest.mark.parametrize("tail", ["", "2\t3\n"])   # C reader; per-line parser
    def test_overflowing_degree_rejected(self, tmp_path, tail):
        # finite weights that sum to inf at node 1 would leave the lazy walk
        # with column sums [1, 0.5, 1]
        message = "node 1 has non-finite degree"
        with pytest.raises(ValueError, match=message):
            build_graph([(0, 1, 1e308), (1, 2, 1e308)])
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t1e308\n1\t2\t1e308\n" + tail)
        with pytest.raises(ValueError, match=message):
            read_edge_list(path)

    @pytest.mark.parametrize("line,message", [
        ("0\tx", "invalid literal for int"),
        ("0\t1\tabc", "could not convert string to float"),
    ])
    def test_parse_error_names_line(self, tmp_path, line, message):
        path = tmp_path / "edges.tsv"
        path.write_text(f"# header\n0\t1\n{line}\n")
        with pytest.raises(ValueError, match=rf"^{path}:3: {message}"):
            read_edge_list(path)

    def test_conflict_before_a_later_parse_error(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t1.0\n1\t0\t2.0\n0\tx\n")
        with pytest.raises(NonSymmetricInput, match=rf"^{path}:2: edge \(0, 1\)"):
            read_edge_list(path)

    @pytest.mark.parametrize("text,n", [
        ("0\t1\t1.0\n1\t2\t1.0\n", None),       # numpy's reader
        ("0\t1\n1\t2\t2.0\n", None),             # the per-line parser
        ("0\t1\t1.0\n1\t0\t2.0\n", None),       # numpy's reader, then a clash to name
        ("0\t1\n# gap\n1\t7\n", 3),             # numpy's reader, then an id >= n to name
    ], ids=["uniform", "mixed", "weight-clash", "id-out-of-range"])
    def test_reader_opens_its_file_once(self, tmp_path, monkeypatch, text, n):
        path = tmp_path / "edges.tsv"
        path.write_text(text)
        opened, real_open = [], builtins.open

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        outcome(read_edge_list, path, n=n)
        monkeypatch.undo()
        assert opened == [path]

    def test_file_not_utf8_raises_the_decode_error(self, tmp_path):
        # line 1 is malformed, but the byte 0xff on line 3002 lies beyond the
        # first 8 KB; decoding the whole file comes first, so no line is named
        path = tmp_path / "edges.tsv"
        path.write_bytes(not_utf8_edge_file())
        with pytest.raises(UnicodeDecodeError, match="can't decode byte 0xff"):
            read_edge_list(path)
