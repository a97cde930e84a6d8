"""Constructed graph families exercising the discriminability results.

Each theorem fixture is a pair of near-identical components in one graph: a
decorated path or fork on the A side, its undecorated (or differently
decorated) mirror on the B side, and an explicit node map between the
regions the theorems quantify over. Decorations are pendant leaves, so every
feature gap is a small rational well above 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphScatError, HypothesisViolated
from .graph import LAZY_WALK, SYM_NORM_ADJACENCY, Graph, apply_operator, build_graph
from .scattering import IDENTITY, Nonlinearity, leaky
from .theory import (
    DEGREE,
    IntrinsicFeatureKind,
    NodeMap,
    avg_degree,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

LEAKY = leaky(0.2)


def cycle_graph(n: int) -> Graph:
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph([(i, a + j) for i in range(a) for j in range(b)])


def hypercube(dim: int) -> Graph:
    edges = []
    for u in range(2 ** dim):
        for bit in range(dim):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return build_graph(edges)


def two_coloring_cases() -> list[tuple[str, Graph, np.ndarray]]:
    """Regular bipartite graphs with their +-1 two-colorings."""
    cases = []
    for n in (4, 6, 8):
        x = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        cases.append((f"C{n}", cycle_graph(n), x))
    x = np.array([1.0] * 3 + [-1.0] * 3)
    cases.append(("K33", complete_bipartite(3, 3), x))
    x = np.array([1.0 if bin(i).count("1") % 2 == 0 else -1.0 for i in range(8)])
    cases.append(("cube", hypercube(3), x))
    return cases


def two_coloring_dichotomy(g: Graph, x: np.ndarray, iterations: int = 3):
    """Deviation of the low-pass filter response from zero and of repeated
    Psi_0 responses from the two-coloring, per composition depth 1..iterations."""
    gcn_dev, psi_dev = [], []
    y = x.copy()
    z = x.copy()
    for _ in range(iterations):
        y = apply_operator(g, SYM_NORM_ADJACENCY, y)
        gcn_dev.append(float(np.max(np.abs(y))))
        z = z - apply_operator(g, LAZY_WALK, z)
        psi_dev.append(float(np.max(np.abs(z - x))))
    return gcn_dev, psi_dev


@dataclass
class TheoremCase:
    name: str
    theorem: int                   # 1, 2 or 3
    graph: Graph
    phi: NodeMap
    v: int
    K: int
    L: int
    kind: IntrinsicFeatureKind
    sigma: Nonlinearity = LEAKY
    expected_d: int | None = None
    expect_violation: str | None = None   # substring of the expected failure


def pendant_path_pair(d: int, leaf_count: int = 1) -> TheoremCase:
    """Two path components; side A carries leaf_count pendant leaves at hop d+1.

    With average-degree features of locality 2, the nearest structural
    difference from the path head sits at distance exactly d, reached along a
    unique shortest path.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    m = d + 4
    edges = [(i, i + 1) for i in range(m - 1)]           # side A path
    edges += [(m + i, m + i + 1) for i in range(m - 1)]  # side B path
    for j in range(leaf_count):
        edges.append((d + 1, 2 * m + j))
    g = build_graph(edges)
    radius = d + 1
    phi = NodeMap({i: m + i for i in range(radius + 1)})
    return TheoremCase(
        name=f"pendant-path-d{d}", theorem=2, graph=g, phi=phi, v=0,
        K=2, L=d - 1, kind=avg_degree(2), expected_d=d)


def _fork_component(edges, start: int, arm: int, leaves_p: int, leaves_q: int):
    """Center plus two arms of the given length; leaves hang off hop 3."""
    nxt = start
    center = nxt
    nxt += 1
    arms = []
    for n_leaves in (leaves_p, leaves_q):
        prev = center
        nodes = []
        for _ in range(arm):
            edges.append((prev, nxt))
            nodes.append(nxt)
            prev = nxt
            nxt += 1
        for _ in range(n_leaves):
            edges.append((nodes[2], nxt))
            nxt += 1
        arms.append(nodes)
    return center, arms, nxt


def fork_pair(leaves_a: tuple[int, int], leaves_b: tuple[int, int],
              name: str, theorem: int, expected_d: int | None = None,
              expect_violation: str | None = None,
              sigma: Nonlinearity = LEAKY) -> TheoremCase:
    """Two fork components with configurable pendant leaves at hop 3 of each arm."""
    edges: list = []
    va, arms_a, nxt = _fork_component(edges, 0, 4, *leaves_a)
    vb, arms_b, _ = _fork_component(edges, nxt, 4, *leaves_b)
    g = build_graph(edges)
    mapping = {va: vb}
    for arm_a, arm_b in zip(arms_a, arms_b):
        for ua, ub in zip(arm_a[:3], arm_b[:3]):   # hops 1..3 = the radius-3 ball
            mapping[ua] = ub
    return TheoremCase(
        name=name, theorem=theorem, graph=g, phi=NodeMap(mapping), v=va,
        K=2, L=1, kind=avg_degree(2), sigma=sigma,
        expected_d=expected_d, expect_violation=expect_violation)


def barbell_pair() -> TheoremCase:
    """Path with a triangle bell on side A and two pendant leaves on side B.

    Both decorations raise the hop-4 node's degree to four, so the raw degree
    vectors agree everywhere; average-degree features of locality 2 still
    differ there because the bell members keep degree 2 while leaves have
    degree 1. The nearest difference sits at distance 4, whose binary
    expansion is the single-scale path (2,).
    """
    m = 7
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(m + i, m + i + 1) for i in range(m - 1)]
    t_a, t_b = 2 * m, 2 * m + 2
    edges += [(4, t_a), (4, t_a + 1), (t_a, t_a + 1)]        # triangle bell at hop 4
    edges += [(m + 4, t_b), (m + 4, t_b + 1)]                # two leaves at hop 4
    g = build_graph(edges)
    phi = NodeMap({i: m + i for i in range(5)})
    return TheoremCase(
        name="barbell-bell-vs-leaves", theorem=2, graph=g, phi=phi, v=0,
        K=2, L=2, kind=avg_degree(2), expected_d=4)


def square_double_path_pair() -> TheoremCase:
    """Unique nearest difference node but two shortest paths through a 4-cycle."""
    def component(edges, start, decorated):
        v, x, y, z, w1, w2, w3 = range(start, start + 7)
        edges += [(v, x), (v, y), (x, z), (y, z), (z, w1), (w1, w2), (w2, w3)]
        nxt = start + 7
        if decorated:
            edges.append((w1, nxt))
            nxt += 1
        return v, (x, y, z, w1), nxt

    edges: list = []
    va, (xa, ya, za, wa), nxt = component(edges, 0, decorated=True)
    vb, (xb, yb, zb, wb), _ = component(edges, nxt, decorated=False)
    g = build_graph(edges)
    phi = NodeMap({va: vb, xa: xb, ya: yb, za: zb, wa: wb})
    return TheoremCase(
        name="square-double-path", theorem=3, graph=g, phi=phi, v=va,
        K=2, L=1, kind=avg_degree(2), expected_d=2,
        expect_violation="shortest paths")


def theorem1_cases() -> list[TheoremCase]:
    g6 = cycle_graph(6)
    rot = NodeMap({i: (i + 3) % 6 for i in range(6)})
    cases = [TheoremCase(name="c6-rotation", theorem=1, graph=g6, phi=rot,
                         v=0, K=1, L=2, kind=DEGREE)]

    base = pendant_path_pair(2)          # leaf at hop 3: radius-3 balls isomorphic
    cases.append(TheoremCase(
        name="pendant-path-hidden-leaf", theorem=1, graph=base.graph,
        phi=base.phi, v=0, K=1, L=2, kind=DEGREE))

    m = 2 + 4
    wide = dict(base.phi.mapping)
    wide[4] = m + 4                      # cover the radius-4 ball on the path...
    wide[2 * m] = m + 5                  # ...and send the leaf somewhere wrong
    cases.append(TheoremCase(
        name="pendant-path-radius-guard", theorem=1, graph=base.graph,
        phi=NodeMap(wide), v=0, K=1, L=3, kind=DEGREE,
        expect_violation="not phi-isomorphic"))
    return cases


def theorem2_cases() -> list[TheoremCase]:
    cases = [pendant_path_pair(1), pendant_path_pair(2),
             pendant_path_pair(3), pendant_path_pair(5)]
    cases[1].sigma = IDENTITY
    cases[3].sigma = IDENTITY
    cases.append(barbell_pair())
    cases.append(fork_pair((2, 0), (0, 2), name="coincidental-gadget", theorem=2,
                           expect_violation="coincidental"))
    return cases


def theorem3_cases() -> list[TheoremCase]:
    pendant = pendant_path_pair(3)
    pendant.name = "pendant-path-d3-unique"
    pendant.theorem = 3
    return [
        pendant,
        fork_pair((1, 2), (0, 0), name="fork-equidistant", theorem=3,
                  expected_d=2, expect_violation="not unique"),
        square_double_path_pair(),
    ]


@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: str


def run_case(case: TheoremCase, tol: float = 1e-9) -> CaseResult:
    """Execute one fixture and compare the outcome with its expectation."""
    runner = {1: verify_theorem1, 2: verify_theorem2, 3: verify_theorem3}[case.theorem]
    kwargs = {} if case.theorem == 1 else {"sigma": case.sigma}
    try:
        report = runner(case.graph, case.phi, case.v, case.K, case.L,
                        case.kind, tol=tol, **kwargs)
    except HypothesisViolated as exc:
        if case.expect_violation and case.expect_violation in str(exc):
            return CaseResult(case.name, True, f"guard fired: {exc}")
        return CaseResult(case.name, False, f"unexpected HypothesisViolated: {exc}")
    except GraphScatError as exc:
        return CaseResult(case.name, False, f"error: {exc}")
    if case.expect_violation:
        return CaseResult(case.name, False,
                          f"expected violation {case.expect_violation!r}, got a result")
    if case.theorem == 1:
        return CaseResult(case.name, report.passed,
                          f"max deviation {report.max_deviation:.3e}")
    ok = report.discriminates and report.onion_matched
    if case.expected_d is not None:
        ok = ok and report.d == case.expected_d
    return CaseResult(case.name, ok,
                      f"d={report.d} path={report.path} separation={report.separation:.3e} "
                      f"gcn={report.gcn_deviation:.3e} onion={report.onion_matched}")


def run_verify_suite(tol: float = 1e-9) -> list[CaseResult]:
    """Every shipped fixture: two-coloring dichotomy plus the theorem cases."""
    results = []
    for name, g, x in two_coloring_cases():
        gcn_dev, psi_dev = two_coloring_dichotomy(g, x)
        ok = max(gcn_dev) < 1e-12 and max(psi_dev) < 1e-12
        results.append(CaseResult(
            f"two-coloring-{name}", ok,
            f"lowpass dev {max(gcn_dev):.2e}, band dev {max(psi_dev):.2e}"))
    for case in theorem1_cases() + theorem2_cases() + theorem3_cases():
        results.append(run_case(case, tol=tol))
    return results
