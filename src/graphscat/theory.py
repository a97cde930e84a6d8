"""Constructive verification of the node-discriminability results.

Everything revolves around an explicit partial node map phi between two
induced subgraphs of the same graph. Structural differences are nodes where
features or degrees disagree across phi (with the degree-feature product
refinement on boundary nodes); the low-pass impossibility statement is
checked with random-weight GCNs, and the scattering separation statement is
checked by building the wavelet path from the binary expansion of the
difference distance and propagating it layer by layer. Every hop question
(balls, boundaries, distances, shortest paths) reads the graph's hop table,
Graph.hops, which each checked graph builds once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, PartialMap
from .graph import LAZY_WALK, RENORM_ADJACENCY, Graph, apply_operator
from .scattering import Nonlinearity, cascade

EQUALITY_ATOL = 1e-9  # all equality/inequality decisions in 64-bit arithmetic


@dataclass(frozen=True)
class IntrinsicFeatureKind:
    """Topology-derived node features.

    degree          weighted degree (locality 1)
    avg_degree      mean degree over the closed (K-1)-hop ball (locality K)
    triangle_count  triangles inside the induced closed K-hop ball (locality K)
    """

    kind: str
    K: int = 1

    def __post_init__(self):
        if self.kind not in ("degree", "avg_degree", "triangle_count"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.K < 1:
            raise ValueError("locality K must be >= 1")
        if self.kind == "degree" and self.K != 1:
            raise ValueError("degree features are 1-intrinsic by definition")

    @property
    def locality(self) -> int:
        return self.K


DEGREE = IntrinsicFeatureKind("degree")


def avg_degree(K: int) -> IntrinsicFeatureKind:
    return IntrinsicFeatureKind("avg_degree", K)


def triangle_count(K: int) -> IntrinsicFeatureKind:
    return IntrinsicFeatureKind("triangle_count", K)


def _hops_from(g: Graph, v: int) -> np.ndarray:
    """Row v of the hop table."""
    if not 0 <= v < g.n:
        raise ValueError(f"node {v} out of range")
    return g.hops[v]


def _ball(g: Graph, v: int, K: int) -> np.ndarray:
    """Ascending ids of the closed K-ball {u : d(u, v) <= K}."""
    if K < 0:
        raise ValueError("K must be >= 0")
    dist = _hops_from(g, v)
    return np.flatnonzero((dist >= 0) & (dist <= K))


def intrinsic_features(g: Graph, kind: IntrinsicFeatureKind) -> np.ndarray:
    """One feature column determined by each node's local isomorphism class."""
    if kind.kind == "degree":
        return g.degrees.reshape(-1, 1).copy()
    if kind.kind == "avg_degree":
        ball = (g.hops >= 0) & (g.hops < kind.K)      # row v: the closed (K-1)-ball of v
        return (np.where(ball, g.degrees, 0.0).sum(axis=1) / ball.sum(axis=1)).reshape(-1, 1)
    out = np.zeros((g.n, 1))
    adj = (g.hops == 1).astype(np.int64)
    for v in range(g.n):
        ball = _ball(g, v, kind.K)
        A = adj[np.ix_(ball, ball)]
        # each triangle of the induced ball is six closed walks of length 3
        out[v, 0] = float(np.sum((A @ A) * A) // 6)
    return out


@dataclass(frozen=True)
class NodeMap:
    """Injective partial node-to-node map; the dict's keys are its domain."""

    mapping: dict

    def __post_init__(self):
        vals = list(self.mapping.values())
        if len(set(vals)) != len(vals):
            raise ValueError("node map must be injective")

    def __call__(self, u: int) -> int:
        try:
            return self.mapping[u]
        except KeyError:
            raise PartialMap(f"phi undefined on node {u}") from None

    @property
    def domain(self) -> set[int]:
        return set(self.mapping)


def validate_isomorphism(g: Graph, phi: NodeMap, v: int, radius: int) -> bool:
    """True iff phi maps G(N_v^radius, closed) isomorphically (weights included)
    onto G(N_phi(v)^radius, closed)."""
    ball = _ball(g, v, radius)
    image = np.array([phi(int(u)) for u in ball], dtype=np.int64)  # PartialMap if missing
    if not np.array_equal(np.sort(image), _ball(g, phi(v), radius)):
        return False
    W = np.zeros((g.n, g.n))
    W[g.entry_rows(), g.csr_targets] = g.csr_weights
    return np.array_equal(W[np.ix_(ball, ball)], W[np.ix_(image, image)])


def region_boundary(g: Graph, region: set[int]) -> set[int]:
    """Nodes of the region with at least one neighbor outside it."""
    nodes = np.array(sorted(region), dtype=np.int64)
    outside = np.ones(g.n, dtype=bool)
    outside[nodes] = False
    return set(nodes[np.any((g.hops[nodes] == 1) & outside, axis=1)].tolist())


@dataclass
class StructuralDifferenceReport:
    """Counted difference nodes with cause tags, plus excluded boundary cases.

    d is the minimum hop distance of a counted node from the designated
    center (None without a center or when no counted node can be reached
    from it).
    """

    causes: dict[int, tuple[str, ...]] = field(default_factory=dict)
    excluded: dict[int, tuple[str, ...]] = field(default_factory=dict)
    d: int | None = None

    @property
    def nodes(self) -> set[int]:
        return set(self.causes)


def structural_differences(g: Graph, phi: NodeMap, X: np.ndarray, region,
                           center: int | None = None,
                           atol: float = EQUALITY_ATOL) -> StructuralDifferenceReport:
    """Nodes of the region manifesting a structural difference across phi.

    Interior nodes (relative to phi's domain) differ when features or degrees
    do; boundary nodes count only under the degree-feature product condition
    d_phi(u) X[u] != d_u X[phi(u)], which is what survives diffusion by P.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    domain = phi.domain
    region = set(int(u) for u in region)
    if not region <= domain:
        raise PartialMap("region extends beyond the node map's domain")
    boundary = region_boundary(g, domain)
    report = StructuralDifferenceReport()
    for u in sorted(region):
        pu = phi(u)
        tags = ()
        if np.max(np.abs(X[u] - X[pu])) > atol:
            tags += ("feature-diff",)
        if abs(g.degrees[u] - g.degrees[pu]) > atol:
            tags += ("degree-diff",)
        if u not in boundary:
            if tags:
                report.causes[u] = tags
        elif np.max(np.abs(g.degrees[pu] * X[u] - g.degrees[u] * X[pu])) > atol:
            report.causes[u] = tags + ("boundary-product-diff",)
        elif tags:
            report.excluded[u] = tags + ("boundary-cancelled",)
    if center is not None and report.causes:
        dist = _hops_from(g, center)
        reached = [dist[u] for u in report.causes if dist[u] >= 0]
        if reached:
            report.d = int(min(reached))
    return report


def check_coincidental_correspondence(g: Graph, phi: NodeMap, X: np.ndarray,
                                      region, up_to_radius: int = 1,
                                      atol: float = EQUALITY_ATOL) -> list[int]:
    """Nodes of the region whose degree-weighted difference sums cancel.

    For each diffusion stage j < up_to_radius the feature matrix P^j X is
    examined: a node u with a nonempty difference set Delta_u among its
    neighbors offends when sum_{w in Delta_u} X[w]/d_w equals the same sum
    over phi(Delta_u) within atol. An empty return certifies the
    no-coincidental-correspondence hypothesis up to the requested radius.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    region = sorted(int(u) for u in region)
    offenders: set[int] = set()
    Y = X
    for j in range(max(1, up_to_radius)):
        diffs = structural_differences(g, phi, Y, phi.domain, atol=atol).nodes
        for u in region:
            delta = [int(w) for w in g.neighbors(u) if int(w) in diffs]
            if not delta:
                continue
            lhs = sum(Y[w] / g.degrees[w] for w in delta)
            rhs = sum(Y[phi(w)] / g.degrees[phi(w)] for w in delta)
            if np.max(np.abs(lhs - rhs)) <= atol:
                offenders.add(u)
        if j + 1 < up_to_radius:
            Y = apply_operator(g, LAZY_WALK, Y)
    return sorted(offenders)


def count_shortest_paths(g: Graph, a: int, b: int) -> int:
    """Number of distinct shortest a-b paths: a node at distance k from a is
    reached by the paths of its neighbors at distance k - 1."""
    dist = g.hops[a]
    adj = (g.hops == 1).astype(np.int64)
    count = (dist == 0).astype(np.int64)
    for k in range(1, int(dist[b]) + 1):
        count = np.where(dist == k, adj @ count, 0)
    return int(count[b])


def generalized_path(g: Graph, v: int, diff_nodes) -> tuple[int, set[int], list[set[int]]]:
    """(d, V_diff^d, [U_0..U_d]): the node layers of all minimal-length paths
    from the nearest difference nodes to v."""
    diff_nodes = set(int(u) for u in diff_nodes)
    if not diff_nodes:
        raise ValueError("no difference nodes supplied")
    dist_v = _hops_from(g, v)
    reachable = [u for u in diff_nodes if dist_v[u] >= 0]
    if not reachable:
        raise ValueError("difference nodes unreachable from v")
    d = int(min(dist_v[u] for u in reachable))
    vd = {u for u in reachable if dist_v[u] == d}
    # w is on a minimal u0-v path iff d(u0, w) + d(w, v) = d, in layer d - d(w, v)
    on_path = np.any(g.hops[sorted(vd)] + dist_v == d, axis=0)
    return d, vd, [set(np.flatnonzero(on_path & (dist_v == d - j)).tolist()) for j in range(d + 1)]


@dataclass
class Theorem1Report:
    passed: bool
    max_deviation: float


def _random_gcn_deviation(g: Graph, v: int, pv: int, X: np.ndarray, L: int,
                          trials: int, seed: int, hidden: int = 4) -> float:
    """Max |X^l[v] - X^l[phi(v)]| over random-weight renormalized GCNs, l <= L.

    Trial after trial, each draws its L weight matrices layer after layer;
    one (trials, total) draw yields those numbers in that order. Each layer
    multiplies every trial's H by its own Theta in one stacked matmul and
    diffuses all trials' columns side by side in one operator call; the
    kernel sums each column on its own, so every trial's values are those
    of running it alone.
    """
    rng = np.random.default_rng(seed)
    max_dev = float(np.max(np.abs(X[v] - X[pv])))
    if not (trials and L):
        return max_dev
    n, d = X.shape
    sizes = [d * hidden] + [hidden * hidden] * (L - 1)
    draws = rng.standard_normal((trials, sum(sizes)))
    ends = np.cumsum(sizes)
    H = X
    for end, size in zip(ends, sizes):
        theta = draws[:, end - size:end].reshape(trials, -1, hidden)
        Z = np.matmul(H, theta).transpose(1, 0, 2).reshape(n, trials * hidden)
        Z = np.maximum(apply_operator(g, RENORM_ADJACENCY, Z), 0.0)
        max_dev = max(max_dev, float(np.max(np.abs(Z[v] - Z[pv]))))
        H = Z.reshape(n, trials, hidden).transpose(1, 0, 2)
    return max_dev


def verify_theorem1(g: Graph, phi: NodeMap, v: int, K: int, L: int,
                    kind: IntrinsicFeatureKind, trials: int = 100,
                    tol: float = EQUALITY_ATOL) -> Theorem1Report:
    """Random-weight GCNs cannot tell v from phi(v) through L layers.

    Requires phi-isomorphic closed (K+L)-hop balls and features of
    locality at most K.
    """
    if kind.locality > K:
        raise ValueError(f"{kind.kind} features have locality {kind.locality} > K={K}")
    if not validate_isomorphism(g, phi, v, K + L):
        raise HypothesisViolated(
            f"(K+L)-neighborhoods of {v} and {phi(v)} are not phi-isomorphic")
    X = intrinsic_features(g, kind)
    dev = _random_gcn_deviation(g, v, phi(v), X, L, trials, seed=0)
    return Theorem1Report(passed=dev < tol, max_deviation=dev)


@dataclass
class DiscriminabilityReport:
    d: int
    path: tuple[int, ...]
    separation: float
    gcn_deviation: float
    onion_matched: bool
    discriminates: bool


def binary_expansion_path(d: int) -> tuple[int, ...]:
    """Ascending scales (k_1 < k_2 < ...) with sum of 2^k_i = d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple(k for k in range(d.bit_length()) if d >> k & 1)


def scatter_separation(g: Graph, v: int, pv: int, X: np.ndarray, p,
                       sigma: Nonlinearity) -> float:
    """Max-abs difference of the U_p cascade outputs at v and phi(v)."""
    U = cascade(g, p, sigma, X)
    return float(np.max(np.abs(U[v] - U[pv])))


def _onion_layers_match(g: Graph, phi: NodeMap, v: int, X: np.ndarray, d: int,
                        layers: list[set[int]], atol: float) -> bool:
    """Onion check: diffs of P^j X inside the closed (d-j)-ball equal U_j."""
    Y = X
    for j in range(d + 1):
        found = structural_differences(g, phi, Y, _ball(g, v, d - j), atol=atol).nodes
        if found != layers[j]:
            return False
        if j < d:
            Y = apply_operator(g, LAZY_WALK, Y)
    return True


def _theorem2_core(g: Graph, phi: NodeMap, v: int, K: int, L: int,
                   kind: IntrinsicFeatureKind, sigma: Nonlinearity,
                   tol: float, theta, unique_path: bool) -> DiscriminabilityReport:
    """Theorem 2 (unique_path False) assumes no coincidental correspondence;
    Theorem 3 (unique_path True) a unique nearest difference node and a
    unique shortest path to it instead."""
    if kind.locality > K:
        raise ValueError(f"{kind.kind} features have locality {kind.locality} > K={K}")
    if not sigma.is_strictly_monotonic:
        raise HypothesisViolated(f"nonlinearity {sigma.kind} is not strictly monotonic")
    if not validate_isomorphism(g, phi, v, K + L):
        raise HypothesisViolated(
            f"(K+L)-neighborhoods of {v} and {phi(v)} are not phi-isomorphic")
    X = intrinsic_features(g, kind)
    domain = _ball(g, v, K + L)
    diffs = structural_differences(g, phi, X, domain, center=v, atol=tol)
    if not diffs.causes:
        raise HypothesisViolated("no structural difference in the (K+L)-neighborhood")
    d, vd, layers = generalized_path(g, v, diffs.nodes)
    if unique_path:
        if len(vd) != 1:
            raise HypothesisViolated(
                f"nearest difference node not unique: {sorted(vd)}")
        (u0,) = vd
        n_paths = count_shortest_paths(g, v, u0)
        if n_paths != 1:
            raise HypothesisViolated(
                f"{n_paths} shortest paths between {v} and {u0}")
    else:
        ball_d = set(_ball(g, v, d).tolist())
        interior = ball_d - region_boundary(g, ball_d)
        offenders = check_coincidental_correspondence(
            g, phi, X, interior, up_to_radius=d, atol=tol)
        if offenders:
            raise HypothesisViolated(
                f"coincidental correspondence at nodes {offenders}")

    p = binary_expansion_path(d)
    assert sum(2 ** k for k in p) == d
    Z = X @ theta if theta is not None else X
    sep = scatter_separation(g, v, phi(v), Z, p, sigma)
    gcn_dev = _random_gcn_deviation(g, v, phi(v), X, L, trials=5, seed=7) if L else 0.0
    onion = _onion_layers_match(g, phi, v, X, d, layers, tol)
    return DiscriminabilityReport(d=d, path=p, separation=sep, gcn_deviation=gcn_dev,
                                  onion_matched=onion, discriminates=sep > tol)


def verify_theorem2(g: Graph, phi: NodeMap, v: int, K: int, L: int,
                    kind: IntrinsicFeatureKind, sigma: Nonlinearity,
                    tol: float = EQUALITY_ATOL, theta=None) -> DiscriminabilityReport:
    """Scattering separates v from phi(v) once a structural difference exists.

    Hypotheses checked before the construction: phi-isomorphic closed
    (K+L)-hop balls, at least one structural difference inside, no
    coincidental correspondence on the interior of the d-ball (including the
    diffused-feature extension), and a strictly monotonic nonlinearity. The
    scattering path is the binary expansion of the difference distance.
    """
    return _theorem2_core(g, phi, v, K, L, kind, sigma, tol, theta, unique_path=False)


def verify_theorem3(g: Graph, phi: NodeMap, v: int, K: int, L: int,
                    kind: IntrinsicFeatureKind, sigma: Nonlinearity,
                    tol: float = EQUALITY_ATOL, theta=None) -> DiscriminabilityReport:
    """Variant replacing the coincidence hypothesis by shortest-path uniqueness.

    Requires a unique nearest difference node and a unique shortest path to
    it; raises HypothesisViolated otherwise.
    """
    return _theorem2_core(g, phi, v, K, L, kind, sigma, tol, theta, unique_path=True)


def homophily(g: Graph, labels) -> float:
    """Fraction of edges joining nodes with equal labels."""
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise ValueError("labels must cover every node")
    rows = g.entry_rows()
    upper = rows < g.csr_targets
    total = int(np.count_nonzero(upper))
    if total == 0:
        raise ValueError("graph has no edges")
    return int(np.count_nonzero(labels[rows[upper]] == labels[g.csr_targets[upper]])) / total
