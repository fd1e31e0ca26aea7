"""Triangle statistics and the tightly-knit family decomposition.

Triangle density is the fraction of wedges that close into triangles.
Graphs dense in triangles admit a family of disjoint, radius-2 clusters
that are dense in both edges and triangles and capture a constant
fraction of all triangles; the constructive pipeline alternates a
Jaccard cleaner with a max-degree extractor until no edges remain.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _pair_blocks, _vertex_ids, bfs_levels, wedge_count


@dataclass
class TriangleStats:
    """Triangle and wedge counts with the closure fraction between them.

    operation_count is the number of neighbor-pair adjacency checks the
    counting scheme performs: all wedges for the plain counter, and
    sum over v of C(outdeg(v), 2) for the oriented one.
    """

    triangle_count: int
    wedge_count: int
    operation_count: int

    @property
    def density(self) -> float:
        if self.wedge_count == 0:
            return 0.0
        return 3.0 * self.triangle_count / self.wedge_count


def triangle_count_naive(g: Graph) -> TriangleStats:
    """Count triangles by folding the pair walk (``graph._pair_blocks``).

    Each edge u < w closes one wedge per common neighbor, so the counts
    of the adjacent pairs sum to three times the triangle count. Work is
    proportional to the wedge count, memory to one block of pairs.
    """
    closed = sum(int(count[adjacent].sum())
                 for _, count, adjacent in _pair_blocks(g))
    w = wedge_count(g)
    return TriangleStats(triangle_count=closed // 3, wedge_count=w,
                         operation_count=w)


def triangle_count_oriented(g: Graph) -> TriangleStats:
    """Count triangles through the degree orientation.

    Each triangle is found exactly once, at its lowest-ordered vertex u:
    the out-row of u, as a set, meets the out-row of each v in it. Rows
    are Python lists and no edge lookup is global, so the work tracks
    sum of C(outdeg, 2), the operation count.
    """
    # imported here, so that the decomposition never loads the clique module
    from .cliques import degree_orientation
    og = degree_orientation(g)
    ptr, idx = og.out_indptr.tolist(), og.out_indices.tolist()
    rows = [idx[ptr[u]:ptr[u + 1]] for u in range(g.n)]
    triangles = 0
    for row in rows:
        if len(row) > 1:
            mark = set(row)
            triangles += sum(len(mark.intersection(rows[v])) for v in row)
    dplus = og.out_degrees.astype(np.int64)
    ops = int((dplus * (dplus - 1) // 2).sum())
    return TriangleStats(triangle_count=triangles, wedge_count=wedge_count(g),
                         operation_count=ops)


def triangle_density(g: Graph) -> float:
    """3 t(G) / w(G), and 0 for wedge-free graphs."""
    return triangle_count_oriented(g).density


# -- cleaner --------------------------------------------------------------


@dataclass
class EdgeDeletion:
    """One cleaner deletion, with the edge's state just before removal."""

    u: int
    v: int
    similarity: float
    triangles_destroyed: int


def _clean_sets(adj: list[set[int]], seeds,
                epsilon: float) -> list[EdgeDeletion]:
    """Run the cleaner's FIFO worklist over ``adj``, deleting edges in place.

    Edges u < v are queued as pair keys u * n + v (``graph._pair_blocks``).
    """
    n = len(adj)
    queue = deque(u * n + v if u < v else v * n + u for u, v in seeds)
    queued = set(queue)
    log: list[EdgeDeletion] = []
    while queue:
        key = queue.popleft()
        queued.discard(key)
        u, v = divmod(key, n)
        if v not in adj[u]:
            continue
        inter = len(adj[u] & adj[v])
        denom = len(adj[u]) + len(adj[v]) - inter - 2
        similarity = inter / denom if denom > 0 else 0.0
        if similarity >= epsilon:
            continue
        adj[u].discard(v)
        adj[v].discard(u)
        log.append(EdgeDeletion(u, v, similarity, inter))
        for a in (u, v):
            for b in sorted(adj[a]):
                key = a * n + b if a < b else b * n + a
                if key not in queued:
                    queue.append(key)
                    queued.add(key)
    return log


def clean(g: Graph, epsilon: float,
          seeds=None) -> tuple[Graph, list[EdgeDeletion]]:
    """Delete edges of Jaccard similarity below epsilon until none remain.

    Similarity is not monotone under deletion, so a FIFO worklist seeded
    with every edge re-enqueues the edges incident to the endpoints of
    each deletion. The returned log fixes the deletion order and records
    how many triangles each deletion destroyed.

    ``seeds`` restricts the initial worklist to the given edges, in the
    given order; callers must guarantee every other edge already
    satisfies the threshold. Seeds are pairs of integer vertex ids in
    0..n-1; anything else raises ValueError before any deletion. The
    decomposition runs the same worklist on its own adjacency sets.
    """
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must lie in (0, 1]")
    adj = g.adjacency_sets()
    pairs = g.edge_array() if seeds is None else _vertex_ids(seeds, g.n, "seeds")
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError("seeds must be pairs")
    log = _clean_sets(adj, pairs.reshape(-1, 2).tolist(), epsilon)  # Python ints
    edges = [(u, w) for u in range(g.n) for w in adj[u] if u < w]
    return Graph.from_edges(edges, n=g.n, labels=g.labels), log


# -- extractor -------------------------------------------------------------


@dataclass
class ExtractorTrace:
    """Provenance of one extracted cluster."""

    seed: int                       # max-degree vertex the cluster grew from
    d_max: int
    scores: dict[int, int]          # two-hop candidates -> triangle scores
    supplement: tuple[int, ...]     # chosen candidates (score desc, id asc)


def _extract_sets(adj: list[set[int]]) -> tuple[list[int], ExtractorTrace]:
    """Choose one cluster on the current neighbor sets (see ``extract``)."""
    sizes = list(map(len, adj))
    d_max = max(sizes)
    seed = sizes.index(d_max)  # the smallest id on ties
    hood = adj[seed]
    base = hood | {seed}
    candidates = set().union(*(adj[u] for u in hood)) - base
    scores: dict[int, int] = {}
    for w in sorted(candidates):
        shared = adj[w] & hood
        scores[w] = sum(len(adj[a] & shared) for a in shared) // 2
    ranked = sorted((w for w in scores if scores[w] > 0),
                    key=lambda w: (-scores[w], w))
    supplement = tuple(ranked[:d_max])
    trace = ExtractorTrace(seed=seed, d_max=d_max, scores=scores,
                           supplement=supplement)
    return sorted(base | set(supplement)), trace


def extract(g: Graph) -> tuple[np.ndarray, ExtractorTrace, Graph]:
    """Carve one radius-2 cluster around a maximum-degree vertex.

    The cluster is the closed neighborhood of the seed plus up to
    d_max two-hop vertices with the largest non-zero scores, where a
    vertex's score counts the triangles it forms with two neighbors of
    the seed. Expects a cleaned graph (every edge similarity at least
    the cleaner's epsilon) with at least one edge.
    """
    if g.m == 0:
        raise ValueError("cannot extract a cluster from an edgeless graph")
    members, trace = _extract_sets(g.adjacency_sets())
    cluster = np.array(members, dtype=np.int64)
    rest = np.setdiff1d(np.arange(g.n), cluster, assume_unique=True)
    return cluster, trace, g.induced_subgraph(rest)


# -- decomposition ----------------------------------------------------------


@dataclass
class ClusterCertificate:
    """Density and radius evidence for one cluster, on the input graph.

    Edge and triangle densities are None when the cluster is too small
    for the corresponding binomial to be positive (the constraint is
    then vacuous).
    """

    vertices: tuple[int, ...]
    size: int
    edge_count: int
    triangle_count: int
    radius: int
    rho_edge: float | None
    rho_tri: float | None


@dataclass
class PhaseLog:
    """One pipeline phase: a cleaning pass, with the counts of edges it
    deleted and of triangles they closed, or an extraction (kind alone)."""

    kind: str                        # "clean" | "extract"
    edges_deleted: int = 0
    triangles_destroyed: int = 0


@dataclass
class TightlyKnitFamily:
    """Disjoint radius-2 clusters with density certificates.

    captured_triangle_fraction counts triangles of the ORIGINAL graph
    that fall entirely inside a single cluster, against the original
    triangle total.
    """

    clusters: list[tuple[int, ...]]
    certificates: list[ClusterCertificate]
    captured_triangle_fraction: float
    epsilon: float | None
    total_triangles: int
    phases: list[PhaseLog] = field(default_factory=list)
    diagnostic: str | None = None

    @property
    def cleaning_triangles_destroyed(self) -> int:
        return sum(p.triangles_destroyed for p in self.phases
                   if p.kind == "clean")


def _radius(g: Graph) -> int:
    """Smallest eccentricity, n + 1 when disconnected. Sources go by descending
    degree until one meets the floor: 1 if a vertex sees all others, else 2.
    """
    deg = g.degrees
    floor = 0 if g.n <= 1 else 1 if deg.max() == g.n - 1 else 2
    best = g.n + 1
    for v in np.argsort(-deg, kind="stable").tolist():
        sizes = bfs_levels(g, v).level_sizes
        if sizes.sum() < g.n:  # a vertex is unreached
            return g.n + 1
        best = min(best, sizes.size - 1)
        if best == floor:
            break
    return best


def _certificate(g: Graph, cluster: np.ndarray,
                 count=triangle_count_naive) -> ClusterCertificate:
    sub = g.induced_subgraph(cluster)
    tri = count(sub).triangle_count
    size = len(cluster)
    rho_edge = sub.m / math.comb(size, 2) if size >= 2 else None
    rho_tri = tri / math.comb(size, 3) if size >= 3 else None
    return ClusterCertificate(vertices=tuple(int(x) for x in cluster),
                              size=size, edge_count=sub.m,
                              triangle_count=tri, radius=_radius(sub),
                              rho_edge=rho_edge, rho_tri=rho_tri)


def tightly_knit_decomposition(g: Graph,
                               epsilon: float | None = None) -> TightlyKnitFamily:
    """Alternate cleaning and extraction until no edges remain.

    With epsilon=None the cleaner threshold is fixed to tau(G)/4 once,
    up front: the charging argument for the cleaner's triangle budget
    is stated against the input's density, so the threshold is not
    re-derived on residual graphs. A triangle-free input with automatic
    epsilon yields an empty family with a diagnostic.
    """
    base_stats = triangle_count_naive(g)
    total = base_stats.triangle_count
    if epsilon is None:
        delta = base_stats.density
        if delta == 0.0:
            return TightlyKnitFamily(
                clusters=[], certificates=[], captured_triangle_fraction=0.0,
                epsilon=None, total_triangles=total,
                diagnostic="triangle-free input: no triangles to capture")
        epsilon = delta / 4.0
    elif not (0 < epsilon <= 1):
        raise ValueError("epsilon must lie in (0, 1]")

    adj = g.adjacency_sets()
    edges_left = g.m
    clusters: list[tuple[int, ...]] = []
    phases: list[PhaseLog] = []
    seeds = g.edge_array().tolist()  # first clean examines every edge
    while edges_left > 0:
        deletions = _clean_sets(adj, seeds, epsilon)
        edges_left -= len(deletions)
        phases.append(PhaseLog(
            kind="clean", edges_deleted=len(deletions),
            triangles_destroyed=sum(d.triangles_destroyed for d in deletions)))
        if edges_left == 0:
            break
        members, _ = _extract_sets(adj)
        boundary: set[int] = set()
        for c in members:
            nbrs, adj[c] = adj[c], set()
            for a in nbrs:
                adj[a].discard(c)
            edges_left -= len(nbrs)
            boundary |= nbrs
        clusters.append(tuple(members))
        phases.append(PhaseLog(kind="extract"))
        # only neighborhoods bordering the cluster changed: reseed there,
        # listing an edge between two boundary vertices once from each end
        seeds = [(b, w) for b in sorted(boundary.difference(members))
                 for w in sorted(adj[b])]

    certificates = [_certificate(g, np.array(c, dtype=np.int64))
                    for c in clusters]
    captured = sum(c.triangle_count for c in certificates)
    fraction = captured / total if total else 0.0
    return TightlyKnitFamily(clusters=clusters, certificates=certificates,
                             captured_triangle_fraction=fraction,
                             epsilon=epsilon, total_triangles=total,
                             phases=phases)


# -- independent verification ------------------------------------------------


@dataclass
class FamilyVerification:
    ok: bool
    violations: list[str]
    recomputed_capture: float


def verify_tightly_knit(g: Graph,
                        family: TightlyKnitFamily) -> FamilyVerification:
    """Re-derive every certificate of a family from scratch.

    Checks that clusters hold integer vertex ids in 0..n-1 (else the
    ValueError text is the violation, with no certificate), are disjoint
    and repeat no vertex, the total, one certificate per cluster, and
    each cluster against its own ``_certificate`` built with the
    oriented counter, a route other than construction's pair-walk fold:
    radius at most 2, every field, and the captured fraction.
    """
    violations: list[str] = []
    seen: set[int] = set()
    inside: dict[int, np.ndarray] = {}  # the clusters whose ids are in g
    for idx, members in enumerate(family.clusters):
        try:
            inside[idx] = _vertex_ids(members, g.n, f"cluster {idx}")
        except ValueError as err:
            violations.append(str(err))
        overlap = seen.intersection(members)
        if overlap:
            violations.append(f"cluster {idx} overlaps earlier ones: {sorted(overlap)}")
        repeats = sorted(v for v, k in Counter(members).items() if k > 1)
        if repeats:
            violations.append(f"cluster {idx} repeats vertices {repeats}")
        seen.update(members)

    recomputed_total = triangle_count_oriented(g).triangle_count
    if recomputed_total != family.total_triangles:
        violations.append("total triangle count mismatch")

    certs, k = family.certificates, len(family.clusters)
    if len(certs) != k:
        violations.append(f"{len(certs)} certificates for {k} clusters")
    captured = 0
    for idx, members in inside.items():
        own = _certificate(g, members, triangle_count_oriented)
        captured += own.triangle_count
        if own.radius > 2:
            violations.append(f"cluster {idx} has radius {own.radius} > 2")
        if idx >= len(certs):
            continue
        cert = certs[idx]
        for name in ("vertices", "size", "radius", "edge_count",
                     "triangle_count"):
            if getattr(own, name) != getattr(cert, name):
                violations.append(
                    f"cluster {idx} {name.replace('_', ' ')} drifted")
        for name in ("rho_edge", "rho_tri"):
            got, want = getattr(cert, name), getattr(own, name)
            if (got is None) != (want is None):
                violations.append(f"cluster {idx} {name} definedness mismatch")
            elif got is not None and not math.isclose(got, want, rel_tol=1e-12):
                violations.append(f"cluster {idx} {name} mismatch")

    frac = captured / recomputed_total if recomputed_total else 0.0
    if not math.isclose(frac, family.captured_triangle_fraction,
                        rel_tol=1e-12, abs_tol=1e-12):
        violations.append("captured fraction mismatch")
    return FamilyVerification(ok=not violations, violations=violations,
                              recomputed_capture=frac)
