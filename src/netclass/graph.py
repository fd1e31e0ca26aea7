"""Immutable undirected simple graphs with array-backed adjacency.

Vertices are dense indices 0..n-1; the original ids of an ingested edge
list are kept in a label map. All query operations are read-only and
safe to call concurrently once a graph is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import ParseError

UNREACHABLE = -1  # BFS distance sentinel for vertices in other components
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1  # vertex ids must fit in int64


def row_pointers(heads: np.ndarray, n: int) -> np.ndarray:
    """int64 CSR row pointers for edges grouped by ascending head."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr


class Graph:
    """Undirected simple graph stored as sorted CSR neighbor lists.

    Invariants enforced at construction: no self-loops, no duplicate
    edges, symmetric adjacency, neighbor lists sorted ascending.
    """

    __slots__ = ("n", "m", "indptr", "indices", "labels", "_label_index")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 labels: np.ndarray | None = None):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.m = int(len(indices) // 2)
        if labels is None:
            labels = np.arange(n, dtype=np.int64)
        self.labels = labels
        self._label_index: dict[int, int] | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]] | np.ndarray,
                   n: int | None = None,
                   labels: np.ndarray | None = None) -> "Graph":
        """Build a graph from (u, v) pairs over dense indices.

        Self-loops and duplicate edges are dropped; each pair is treated
        as an undirected edge regardless of orientation.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if n is None:
            n = int(arr.max()) + 1 if arr.size else 0
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if lo.size:
            packed = np.unique(lo * n + hi)
            lo, hi = packed // n, packed % n
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        order = np.lexsort((tails, heads))
        heads, tails = heads[order], tails[order]
        return cls(n, row_pointers(heads, n), tails.astype(np.int64), labels)

    # -- primitive queries -------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of v (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < len(nbrs) and nbrs[i] == v)

    def adjacency_sets(self) -> list[set[int]]:
        """A fresh list of neighbor sets, one per vertex; callers may mutate it."""
        ptr, nbrs = self.indptr.tolist(), self.indices.tolist()
        return [set(nbrs[ptr[v]:ptr[v + 1]]) for v in range(self.n)]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        heads = np.repeat(np.arange(self.n), self.degrees)
        mask = heads < self.indices
        return np.column_stack([heads[mask], self.indices[mask]])

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, (int, np.integer)) and 0 <= v < self.n):
            raise ValueError(f"invalid vertex {v!r} for graph with n={self.n}")

    # -- labels --------------------------------------------------------

    def label_of(self, v: int) -> int:
        return int(self.labels[v])

    def index_of(self, label: int) -> int:
        if self._label_index is None:
            self._label_index = {int(x): i for i, x in enumerate(self.labels)}
        return self._label_index[int(label)]

    # -- derived views -------------------------------------------------

    def degree_distribution(self) -> "DegreeDistribution":
        degs = self.degrees
        counts = np.bincount(degs) if self.n else np.zeros(1, dtype=np.int64)
        return DegreeDistribution(counts=counts.astype(np.int64),
                                  n=self.n, m=self.m)

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph on the given vertex set; labels compose."""
        S = np.unique(np.asarray(list(vertices), dtype=np.int64))
        if S.size and (S.min() < 0 or S.max() >= self.n):
            raise ValueError("vertex out of range in induced subgraph")
        keep = np.zeros(self.n, dtype=bool)
        keep[S] = True
        newid = np.full(self.n, -1, dtype=np.int64)
        newid[S] = np.arange(S.size)
        heads = np.repeat(np.arange(self.n), self.degrees)
        emask = keep[heads] & keep[self.indices]
        h, t = newid[heads[emask]], newid[self.indices[emask]]
        # heads were ascending and within-row targets sorted, so CSR order holds
        return Graph(S.size, row_pointers(h, S.size), t, labels=self.labels[S])

    def validate(self) -> None:
        """Check simplicity and symmetry; raises AssertionError on violation."""
        heads = np.repeat(np.arange(self.n), self.degrees)
        assert not np.any(heads == self.indices), "self-loop present"
        for v in range(self.n):
            nb = self.neighbors(v)
            assert np.all(np.diff(nb) > 0), f"row {v} not strictly sorted"
        # rows are sorted, so the (head, tail) keys are too
        keys = heads * self.n + self.indices
        assert np.array_equal(keys, np.sort(self.indices * self.n + heads)), \
            "adjacency not symmetric"
        assert self.m * 2 == len(self.indices)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class DegreeDistribution:
    """Vertex counts per degree: counts[d] = number of degree-d vertices."""

    counts: np.ndarray
    n: int
    m: int

    @property
    def d_max(self) -> int:
        nz = np.nonzero(self.counts)[0]
        return int(nz[-1]) if nz.size else 0

    def count(self, d: int) -> int:
        return int(self.counts[d]) if 0 <= d < len(self.counts) else 0


# -- edge-list ingestion ----------------------------------------------


@dataclass
class LoadStats:
    """Bookkeeping from parsing one edge-list file."""

    raw_lines: int = 0        # data lines (comments and blanks excluded)
    self_loops: int = 0
    duplicates: int = 0


def load_edge_list(source: str | bytes | IO, symmetrize: bool = True,
                   allow_self_loops: bool = True,
                   return_stats: bool = False):
    """Parse a SNAP-style edge list into a Graph.

    Lines starting with ``#`` are comments; data lines hold two
    whitespace-separated integer ids. Original ids are preserved in the
    label map. Directed inputs are symmetrized; self-loops and duplicate
    edges are dropped (counted in the stats).

    ``symmetrize=False`` requires every edge to appear in both
    orientations and raises ParseError otherwise. ``allow_self_loops=False``
    makes a self-loop line a ParseError instead of a silent drop.
    """
    if isinstance(source, bytes):
        lines: Iterable = source.splitlines()
    elif isinstance(source, str):
        if "\n" in source:
            lines = source.splitlines()
        else:
            with open(source, "rb") as fh:
                return load_edge_list(fh, symmetrize, allow_self_loops,
                                      return_stats)
    else:
        lines = source

    stats = LoadStats()
    us: list[int] = []
    vs: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("line is not valid UTF-8", line_no) from None
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two fields, got {len(parts)}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", line_no) from None
        if not (_ID_MIN <= u <= _ID_MAX and _ID_MIN <= v <= _ID_MAX):
            raise ParseError(f"vertex id beyond int64 in {line!r}", line_no)
        stats.raw_lines += 1
        if u == v and not allow_self_loops:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        us.append(u)
        vs.append(v)

    if us:
        # every id that appears in the file is a vertex, even if all of
        # its lines are self-loops (SNAP node counts include these)
        raw = np.array([us, vs], dtype=np.int64).T
        labels, dense = np.unique(raw, return_inverse=True)
        dense = dense.reshape(raw.shape)
    else:
        labels = np.zeros(0, dtype=np.int64)
        dense = np.zeros((0, 2), dtype=np.int64)

    n = len(labels)
    loops = dense[:, 0] == dense[:, 1]
    stats.self_loops = int(loops.sum())
    dense = dense[~loops]
    lo = np.minimum(dense[:, 0], dense[:, 1])
    hi = np.maximum(dense[:, 0], dense[:, 1])
    packed = lo * n + hi if n else lo
    uniq = np.unique(packed)
    stats.duplicates = len(packed) - len(uniq)
    if not symmetrize:
        # every undirected edge must have been listed in both orientations
        fwd = np.unique(dense[:, 0] * n + dense[:, 1]) if n else packed
        rev = np.unique(dense[:, 1] * n + dense[:, 0]) if n else packed
        missing = np.setdiff1d(fwd, rev, assume_unique=True)
        if missing.size:
            u, v = divmod(int(missing[0]), n)
            raise ParseError(
                f"edge {labels[u]}->{labels[v]} lacks its reverse "
                "(pass symmetrize=True for directed inputs)")
    edges = np.column_stack([uniq // n, uniq % n]) if n else dense
    g = Graph.from_edges(edges, n=n, labels=labels)
    return (g, stats) if return_stats else g


# -- pairwise queries --------------------------------------------------


def common_neighbors(g: Graph, u: int, v: int) -> int:
    """|N(u) ∩ N(v)| via sorted-list intersection. Requires u != v."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("common_neighbors requires two distinct vertices")
    return int(np.intersect1d(g.neighbors(u), g.neighbors(v),
                              assume_unique=True).size)


def jaccard_similarity(g: Graph, u: int, v: int) -> float:
    """Edge similarity |N(u) ∩ N(v)| / (|N(u) ∪ N(v)| - 2).

    Defined for edges only. The -2 discounts u and v themselves; a
    degenerate denominator (isolated edge) yields 0.0.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    inter = common_neighbors(g, u, v)
    union = g.degree(u) + g.degree(v) - inter
    denom = union - 2
    return inter / denom if denom > 0 else 0.0


def wedge_count(g: Graph) -> int:
    """Number of two-hop paths: sum over vertices of C(deg, 2)."""
    d = g.degrees.astype(np.int64)
    return int((d * (d - 1) // 2).sum())


# -- pair table and closure-rate curve ---------------------------------


def pair_table(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
    """Every pair u < w with at least one common neighbor, sorted by (u, w).

    Returns (u, w, count, adjacent): int64 endpoints, the int32
    common-neighbor count |N(u) ∩ N(w)| and a bool adjacency flag. The
    counts are the upper triangle of sparse A @ A, so only pairs joined
    by a wedge are touched. This is the package's one use of SciPy,
    imported here so that start-up does not pay for it.
    """
    from scipy import sparse
    a = sparse.csr_matrix((np.ones(len(g.indices), dtype=np.int32),
                           g.indices, g.indptr), shape=(g.n, g.n))
    # A @ A is symmetric, so transposing it with SciPy's counting sort
    # gives the same matrix with each row's columns in ascending order
    p = (a @ a).T.tocsr()
    rows = np.repeat(np.arange(g.n, dtype=p.indices.dtype), np.diff(p.indptr))
    upper = p.indices > rows
    u = rows[upper].astype(np.int64)
    w = p.indices[upper].astype(np.int64)
    count = p.data[upper]
    del a, p, rows, upper  # free the product before the lookups
    keys = u * g.n + w
    edges = g.edge_array()
    qk = edges[:, 0] * g.n + edges[:, 1]
    pos = np.searchsorted(keys, qk)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == qk[hit]
    adjacent = np.zeros(keys.size, dtype=bool)
    adjacent[pos[hit]] = True
    return u, w, count, adjacent


@dataclass
class ClosureRateCurve:
    """Adjacency rate among vertex pairs grouped by common-neighbor count.

    Only pairs with at least one common neighbor appear (k >= 1).
    """

    ks: np.ndarray                  # common-neighbor counts with >=1 pair
    pair_counts: np.ndarray         # pairs with exactly k common neighbors
    closed_counts: np.ndarray       # those pairs that are adjacent
    edge_density: float             # m / C(n, 2)

    def rate(self, k: int) -> float:
        i = np.searchsorted(self.ks, k)
        if i < len(self.ks) and self.ks[i] == k:
            return float(self.closed_counts[i] / self.pair_counts[i])
        raise KeyError(f"no pairs with {k} common neighbors")

    def to_csv(self) -> str:
        lines = ["k,pairs,closed,rate"]
        for k, p, c in zip(self.ks, self.pair_counts, self.closed_counts):
            lines.append(f"{k},{p},{c},{c / p:.10g}")
        return "\n".join(lines) + "\n"


def closure_rate_curve(g: Graph) -> ClosureRateCurve:
    """Figure-style closure curve: for each k >= 1, how many pairs have
    exactly k common neighbors and how many of those are adjacent.

    Both counts are histograms over ``pair_table``, so only pairs with a
    common neighbor are ever touched.
    """
    density = g.m / math.comb(g.n, 2) if g.n >= 2 else 0.0
    _, _, count, adjacent = pair_table(g)
    pair_hist = np.bincount(count)
    closed_hist = np.bincount(count[adjacent], minlength=len(pair_hist))
    ks = np.nonzero(pair_hist)[0]
    return ClosureRateCurve(ks.astype(np.int64), pair_hist[ks],
                            closed_hist[ks], density)


# -- breadth-first search ------------------------------------------------


@dataclass
class BfsLevels:
    """Distances from one source; UNREACHABLE (-1) marks other components."""

    source: int
    dist: np.ndarray              # int array, -1 where unreachable
    level_sizes: np.ndarray       # level_sizes[l] = |{v : dist(source, v) = l}|

    def distance(self, v: int) -> int | float:
        d = int(self.dist[v])
        return math.inf if d == UNREACHABLE else d

    @property
    def eccentricity(self) -> int:
        return int(self.dist.max())

    @property
    def reached(self) -> int:
        return int((self.dist >= 0).sum())


def bfs_levels(g: Graph, source: int) -> BfsLevels:
    """Level-synchronized BFS from a single source."""
    g.check_vertex(source)
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        nxt = _gather_neighbors(g, frontier)
        nxt = nxt[dist[nxt] == UNREACHABLE]
        if nxt.size:
            nxt = np.unique(nxt)
            level += 1
            dist[nxt] = level
        frontier = nxt
    sizes = np.bincount(dist[dist >= 0], minlength=level + 1)
    return BfsLevels(source=source, dist=dist, level_sizes=sizes)


def _gather_neighbors(g: Graph, frontier: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of all frontier vertices."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.arange(total) - offsets + np.repeat(starts, counts)
    return g.indices[idx]


# -- connectivity ---------------------------------------------------------


def connected_components(g: Graph) -> np.ndarray:
    """Component id per vertex (0-based, by discovery order)."""
    comp = np.full(g.n, -1, dtype=np.int64)
    cid = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        frontier = np.array([s], dtype=np.int64)
        comp[s] = cid
        while frontier.size:
            nxt = _gather_neighbors(g, frontier)
            nxt = nxt[comp[nxt] < 0]
            if nxt.size:
                nxt = np.unique(nxt)
                comp[nxt] = cid
            frontier = nxt
        cid += 1
    return comp


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component."""
    comp = connected_components(g)
    if g.n == 0:
        return g
    best = np.argmax(np.bincount(comp))
    return g.induced_subgraph(np.nonzero(comp == best)[0])
