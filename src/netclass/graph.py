"""Immutable undirected simple graphs with array-backed adjacency.

Vertices are dense indices 0..n-1; the original ids of an ingested edge
list are kept in a label map. All query operations are read-only and
safe to call concurrently once a graph is built.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import ParseError

UNREACHABLE = -1  # BFS distance sentinel for vertices in other components
# wedge paths walked per block of the pair table: larger blocks cost
# memory, smaller ones per-block NumPy overhead
PAIR_BLOCK_PATHS = 1 << 18


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

    raw_lines: int        # data lines (comments and blanks excluded)
    self_loops: int
    duplicates: int


def load_edge_list(source: str | bytes | IO, return_stats: bool = False):
    """Parse a SNAP-style edge list into a Graph.

    Lines starting with ``#`` are comments; data lines hold two
    whitespace-separated integer ids that fit in int64. Original ids are
    preserved in the label map. Directed inputs are symmetrized;
    self-loops and duplicate edges are dropped (counted in the stats).

    ``bytes`` is content; a ``str`` containing a newline is content; any
    other ``str`` is a file path; anything else is iterated as lines.
    """
    if isinstance(source, str) and "\n" not in source:
        with open(source, "rb") as fh:
            return load_edge_list(fh, return_stats)
    lines = source.splitlines() if isinstance(source, (bytes, str)) else source
    ids = array("q")  # u0, v0, u1, v1, ...; rejects ids beyond int64
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
        try:
            ids.append(u)
            ids.append(v)
        except OverflowError:
            raise ParseError(f"vertex id beyond int64 in {line!r}", line_no) from None

    # every id that appears in the file is a vertex, even if all of its
    # lines are self-loops (SNAP node counts include these)
    labels, dense = np.unique(np.frombuffer(ids, np.int64), return_inverse=True)
    dense = dense.reshape(-1, 2)
    loops = dense[:, 0] == dense[:, 1]
    # from_edges is the one place that deduplicates and sorts
    g = Graph.from_edges(dense[~loops], n=len(labels), labels=labels)
    n_loops = int(loops.sum())
    stats = LoadStats(len(dense), n_loops, len(dense) - n_loops - g.m)
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
    common-neighbor count |N(u) ∩ N(w)| and a bool adjacency flag.

    The counts come from walking the wedge paths u-v-w with w > u, so
    only pairs joined by a wedge are touched. The walk goes in blocks of
    consecutive u holding at most ``PAIR_BLOCK_PATHS`` paths (a vertex
    with more paths is a block of its own), and each block's
    ``np.unique`` over the keys u * n + w counts its pairs. Blocks cover
    increasing u, so their concatenation is already sorted, and the
    walk's memory is bounded by the block, not by the wedge count.
    """
    blocks = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32))]
    blocks += _pair_blocks(g)
    keys = np.concatenate([k for k, _ in blocks])
    count = np.concatenate([c for _, c in blocks])
    del blocks
    edges = g.edge_array()
    qk = edges[:, 0] * g.n + edges[:, 1]
    pos = np.searchsorted(keys, qk)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == qk[hit]
    adjacent = np.zeros(keys.size, dtype=bool)
    adjacent[pos[hit]] = True
    u, w = np.divmod(keys, max(g.n, 1))
    return u, w, count, adjacent


def _pair_blocks(g: Graph):
    """Sorted keys u * n + w and their path counts, one block of u at a time."""
    n, indptr, indices = g.n, g.indptr, g.indices
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # slot s holds u -> v and back[s] holds v -> u: the graph is
    # symmetric and its rows are sorted, so ordering the slots by
    # (tail, head) lists each slot's reverse in slot order
    back = np.argsort(indices, kind="stable")
    # v's neighbors above u are the tail of v's row after back[s]
    above = indptr[indices + 1] - back - 1
    slot_paths = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(above, out=slot_paths[1:])
    vertex_paths = slot_paths[indptr]  # paths from vertices before u
    a = 0
    while a < n:
        b = int(np.searchsorted(vertex_paths, vertex_paths[a]
                                + PAIR_BLOCK_PATHS, side="right")) - 1
        b = max(b, a + 1)
        lo, hi = indptr[a], indptr[b]
        reps = above[lo:hi]
        # path j of slot s is indices[back[s] + 1 + j]
        pos = np.arange(slot_paths[lo], slot_paths[hi])
        pos += np.repeat(back[lo:hi] + 1 - slot_paths[lo:hi], reps)
        keys = indices[pos]
        keys += np.repeat(heads[lo:hi] * n, reps)
        keys, count = np.unique(keys, return_counts=True)
        yield keys, count.astype(np.int32)
        a = b


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
    return _curve_from_table(g, pair_table(g))


def _curve_from_table(g: Graph, table) -> ClosureRateCurve:
    """``closure_rate_curve`` on a ``pair_table`` already built for g."""
    density = g.m / math.comb(g.n, 2) if g.n >= 2 else 0.0
    _, _, count, adjacent = table
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
    """Level-synchronized BFS from a single source.

    Each level is one ``_next_level`` step, which marks the frontier's
    neighbors in a boolean array, so no level sorts.
    """
    g.check_vertex(source)
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    unseen = np.ones(g.n, dtype=bool)
    frontier = np.array([source], dtype=np.int64)
    sizes = []
    while frontier.size:
        unseen[frontier] = False
        dist[frontier] = len(sizes)
        sizes.append(frontier.size)
        frontier = _next_level(g, frontier, unseen)
    return BfsLevels(source=source, dist=dist,
                     level_sizes=np.array(sizes, dtype=np.int64))


def _next_level(g: Graph, frontier: np.ndarray,
                unseen: np.ndarray) -> np.ndarray:
    """Ascending unseen neighbors of a non-empty frontier.

    The frontier's CSR rows are gathered in one pass: gathered slot j is
    ``indices[j + shift]``, with the shift constant along each row. The
    neighbors are marked in a boolean array, then masked by ``unseen``.
    """
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    ends = np.cumsum(counts)
    shift = np.repeat(starts - ends + counts, counts)
    shift += np.arange(ends[-1])
    reach = np.zeros(g.n, dtype=bool)
    reach[g.indices[shift]] = True
    reach &= unseen
    return np.flatnonzero(reach)


# -- connectivity ---------------------------------------------------------


def connected_components(g: Graph) -> np.ndarray:
    """Component id per vertex (0-based, by discovery order)."""
    comp = np.full(g.n, -1, dtype=np.int64)
    unseen = np.ones(g.n, dtype=bool)
    cid = 0
    for s in range(g.n):
        if not unseen[s]:
            continue
        frontier = np.array([s], dtype=np.int64)
        while frontier.size:
            unseen[frontier] = False
            comp[frontier] = cid
            frontier = _next_level(g, frontier, unseen)
        cid += 1
    return comp


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component."""
    comp = connected_components(g)
    if g.n == 0:
        return g
    best = np.argmax(np.bincount(comp))
    return g.induced_subgraph(np.nonzero(comp == best)[0])
