import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
import graphscat.graph as graph_module
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
    dense_ops,
    dense_w,
    hop_graphs,
    per_edge_build_graph,
    per_edge_read_edge_list,
    per_edge_write_edge_list,
    random_connected_graph,
    weighted_graphs,
    weighted_matvec,
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


def reference_matvec(g, X):
    """The first CSR kernel: fancy-index gather, broadcast product, reduceat."""
    contrib = g.csr_weights * X[g.csr_targets] if X.ndim == 1 \
        else g.csr_weights[:, None] * X[g.csr_targets]
    out = np.zeros_like(X)
    counts = np.diff(g.csr_offsets)
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(contrib, g.csr_offsets[nonempty], axis=0)
    return out


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
        # every layout, on a 12-node graph and on a 24-node one whose hub row
        # holds 20 or more entries
        if isolated:
            _, g = graph_with_isolated_nodes(rng, 12, isolated)
        else:
            _, g = random_connected_graph(rng, 12, weighted=True)
        _, hub = graph_with_isolated_nodes(rng, 24, isolated + (23,), hub=True)
        assert np.diff(hub.csr_offsets).max() >= 20
        for graph in (g, hub):
            X = rng.standard_normal(graph.n if width is None else (graph.n, width))
            for Y in kernel_layouts(X):
                assert adjacency_matvec(graph, Y).tobytes() == reference_matvec(graph, Y).tobytes()

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
        assert np.array_equal(g.nonempty_rows, [0, 1, 3, 4, 5, 6, 7, 8])
        assert np.array_equal(g.row_starts, g.csr_offsets[g.nonempty_rows])
        assert np.array_equal(g.sqrt_degrees, np.sqrt(g.degrees))
        assert np.array_equal(g.sqrt_degrees_plus_one, np.sqrt(g.degrees + 1.0))
        with pytest.raises(ValueError):
            g.row_starts[0] = 1

    @settings(max_examples=60, deadline=None)
    @given(graph=hop_graphs(weighted=True), seed=st.integers(0, 2 ** 32 - 1),
           width=st.one_of(st.none(), st.integers(1, 20)), layout=st.integers(0, 2))
    def test_unit_weight_skip_bitwise(self, graph, seed, width, layout):
        # unit-weight graphs skip the weight product; every graph must give the
        # bits of the always-weighted kernel, in every input layout
        n, edges = graph
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IsolatedNodeWarning)
            g = build_graph(edges, n=n)
        assert g.unit_weights == bool(np.all(g.csr_weights == 1.0))
        rng = np.random.default_rng(seed)
        X = kernel_layouts(rng.standard_normal(n if width is None else (n, width)))[layout]
        assert adjacency_matvec(g, X).tobytes() == weighted_matvec(g, X).tobytes()


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
    @example(case=(1, []))                                          # one node
    @example(case=(5, []))                                          # no edges
    @example(case=(27, [(0, v) for v in range(1, 23)] + [(23, 24), (24, 25)]))  # hub, node 26 alone
    @example(case=(6, [(0, 1, 0.5), (1, 2, 3.0), (3, 4, 1e-3)]))   # weighted, two components
    def test_bfs_semantics_against_matrix_oracle(self, case):
        # d(v, u) is the first K whose K-step reach from v contains u
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
