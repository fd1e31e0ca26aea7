"""Immutable undirected simple graphs with array-backed adjacency.

Vertices are dense indices 0..n-1; the original ids of an ingested edge
list are kept in a label map. All query operations are read-only and
safe to call concurrently once a graph is built.
"""

from __future__ import annotations

import math
import os
import re
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParseError

UNREACHABLE = -1  # BFS distance sentinel for vertices in other components
# wedge paths walked per block of pairs: larger blocks cost memory,
# smaller ones per-block NumPy overhead
PAIR_BLOCK_PATHS = 1 << 16
# sources per bit-parallel BFS pass: one uint64 word per vertex
BFS_BLOCK = 64


def row_pointers(heads: np.ndarray, n: int) -> np.ndarray:
    """int64 CSR row pointers for edges grouped by ascending head."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr


def spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + counts[i] - 1``, span after span."""
    ends = np.cumsum(counts)
    pos = np.repeat(starts - ends + counts, counts)
    pos += np.arange(pos.size)
    return pos


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values, same dtype.

    The plain ``np.unique`` call imports ``numpy.ma`` (NumPy 2.4 checks
    for a masked input), which every CLI run would then load.
    """
    return _unique_in_place(np.array(values).ravel())


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` (an array or an iterable) as int64, not copying an int64
    array; ValueError if a non-empty input has a non-integer dtype."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must have an integer dtype, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _vertex_ids(values, n: int, what: str) -> np.ndarray:
    """``values`` as int64 ids in ``range(n)``, not copying an int64 array;
    ValueError, naming the first ten ids outside, for any other value."""
    arr = _integer_array(values, what)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        stray = sorted_unique(arr[(arr < 0) | (arr >= n)]).tolist()
        more = f" and {len(stray) - 10} more" if len(stray) > 10 else ""
        raise ValueError(f"{what} has vertices outside range({n}): "
                         f"{stray[:10]}{more}")
    return arr


def _vertex_id(value, n: int, what: str) -> int:
    """``value`` as one id, checked as ``_vertex_ids`` checks ids."""
    if np.ndim(value) != 0:
        raise ValueError(f"{what} must be one vertex id, not a list or array")
    return int(_vertex_ids(np.reshape(value, 1), n, what)[0])


def _unique_in_place(out: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, which is sorted in place."""
    out.sort()
    if out.size > 1:  # the greedy's stale sets are often this small
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = np.compress(keep, out)
    return out


class Graph:
    """Undirected simple graph stored as sorted CSR neighbor lists.

    Invariants: no self-loops or repeated edges, symmetric adjacency,
    ascending neighbor lists. ``from_edges`` enforces them; the constructor
    does not, and ``validate()`` checks a hand-built CSR against them.
    Vertex ids are the integers 0..n-1: any other id raises ValueError.
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
        elif len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} vertices")
        self.labels = labels
        self._label_index: dict[int, int] | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]] | np.ndarray,
                   n: int | None = None,
                   labels: np.ndarray | None = None) -> "Graph":
        """Build a graph from integer (u, v) pairs over dense indices.

        The one place that drops self-loops and repeated edges and sorts:
        each pair is an undirected edge regardless of orientation.
        """
        arr = _integer_array(edges, "edge endpoints")
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if n is None:
            n = int(arr.max()) + 1 if arr.size else 0
        _vertex_ids(arr, n, "edge endpoints")
        # the slots u -> w and w -> u of each edge, keyed head * n + tail;
        # sorted in place, they are in CSR order with repeats side by side
        keys = _unique_in_place((np.compress(arr[:, 0] != arr[:, 1], arr, axis=0)
                                 @ np.array([[n, 1], [1, n]])).ravel())
        heads, tails = np.divmod(keys, n)
        return cls(n, row_pointers(heads, n), tails, labels)

    # -- primitive queries -------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of v (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def adjacency_sets(self) -> list[set[int]]:
        """A fresh list of neighbor sets, one per vertex; callers may mutate it."""
        ptr, nbrs = self.indptr.tolist(), self.indices.tolist()
        return [set(nbrs[ptr[v]:ptr[v + 1]]) for v in range(self.n)]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        heads = np.repeat(np.arange(self.n), self.degrees)
        mask = heads < self.indices
        return np.column_stack([heads[mask], self.indices[mask]])

    # -- labels --------------------------------------------------------

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
        """Subgraph on the given vertex set, from its own rows; labels compose."""
        S = sorted_unique(_vertex_ids(vertices, self.n, "vertices"))
        newid = np.full(self.n, -1, dtype=np.int64)
        newid[S] = np.arange(S.size)
        deg = self.degrees[S]
        t = newid[self.indices[spans(self.indptr[S], deg)]]  # -1: outside S
        keep = t >= 0
        h = np.repeat(np.arange(S.size), deg)[keep]
        # S is ascending and within-row targets sorted, so CSR order holds
        return Graph(S.size, row_pointers(h, S.size), t[keep], labels=self.labels[S])

    def validate(self) -> None:
        """Check simplicity and symmetry; raises AssertionError, also under -O."""
        heads = np.repeat(np.arange(self.n), self.degrees)
        if np.any(heads == self.indices):
            raise AssertionError("self-loop present")
        # the (head, tail) keys ascend strictly exactly when every row does
        keys = heads * self.n + self.indices
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if bad.size:
            raise AssertionError(f"row {heads[bad[0]]} not strictly sorted")
        if not np.array_equal(keys, np.sort(self.indices * self.n + heads)):
            raise AssertionError("adjacency not symmetric")

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


# -- edge-list ingestion ----------------------------------------------


@dataclass
class LoadStats:
    """Bookkeeping from parsing one edge-list file."""

    raw_lines: int        # data lines (comments and blanks excluded)
    self_loops: int
    duplicates: int


def _long_id(text: str) -> int:
    """An optional ``-`` and ASCII digits, read to 20 significant digits
    (beyond int64 already), else ValueError; int() refuses long ids."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(text)
    digits = text.lstrip("-0")[:20] or "0"
    return -int(digits) if text[0] == "-" else int(digits)


def load_edge_list(path: str | os.PathLike, return_stats: bool = False):
    """Parse a SNAP-style edge-list file into a Graph.

    ``path`` is a file path, as a ``str`` or a ``pathlib.Path``. The
    file is read as UTF-8 one line at a time; a line ends at LF, and a
    trailing CR is stripped with the other surrounding whitespace.
    Lines starting with ``#`` are comments; a data line holds two ids,
    each an optional ``-`` and ASCII digits within int64, split by
    whitespace. Original ids are kept as labels; the pairs go unchanged
    to ``Graph.from_edges``, which drops loops and repeats (counted here).
    """
    ids = array("q")  # u0, v0, u1, v1, ...; rejects ids beyond int64
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("line is not valid UTF-8", line_no) from None
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise ParseError(f"expected two fields, got {len(parts)}", line_no)
            try:
                # int() also takes "+", "_" and other scripts' digits
                if "+" in line or "_" in line or not (
                        line.isascii() or "".join(parts).isascii()):
                    raise ValueError
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                try:  # int() refuses ids longer than Python's digit limit
                    u, v = map(_long_id, parts)
                except ValueError:
                    raise ParseError(
                        f"non-integer vertex id in {line.strip()!r}",
                        line_no) from None
            try:
                ids.append(u)
                ids.append(v)
            except OverflowError:
                raise ParseError(f"vertex id beyond int64 in {line.strip()!r}",
                                 line_no) from None

    # every id that appears in the file is a vertex, even if all of its
    # lines are self-loops (SNAP node counts include these)
    labels, dense = np.unique(np.frombuffer(ids, np.int64), return_inverse=True)
    dense = dense.reshape(-1, 2)
    g = Graph.from_edges(dense, n=len(labels), labels=labels)
    n_loops = int(np.count_nonzero(dense[:, 0] == dense[:, 1]))
    stats = LoadStats(len(dense), n_loops, len(dense) - n_loops - g.m)
    return (g, stats) if return_stats else g


# -- pair blocks and closure-rate curve --------------------------------


def wedge_count(g: Graph) -> int:
    """Number of two-hop paths: sum over vertices of C(deg, 2)."""
    d = g.degrees.astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def _pair_blocks(g: Graph):
    """The pairs u < w joined by a wedge, one block of u at a time.

    Yields (keys, count, adjacent) per block: the sorted keys u * n + w,
    the int32 number of wedge paths u-v-w (the common-neighbor count)
    and a bool adjacency flag. A block holds consecutive u with at most
    ``PAIR_BLOCK_PATHS`` paths in all (a vertex with more paths is a
    block of its own), and ``np.unique`` over its keys counts its
    pairs. Blocks cover increasing u, so their concatenation is sorted,
    and the walk's memory is bounded by the block, not by the wedge
    count. A pair is adjacent when its key is an edge u < w of the
    block's own CSR rows.
    """
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
        keys = indices[spans(back[lo:hi] + 1, reps)]
        keys += np.repeat(heads[lo:hi] * n, reps)
        keys, count = np.unique(keys, return_counts=True)
        # the block's edges u < w, sorted as the rows are
        up = indices[lo:hi] > heads[lo:hi]
        edges = heads[lo:hi][up] * n + indices[lo:hi][up]
        at = np.searchsorted(edges, keys)
        adjacent = at < edges.size
        adjacent[adjacent] = edges[at[adjacent]] == keys[adjacent]
        yield keys, count.astype(np.int32), adjacent
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

    Both counts are histograms folded over ``_pair_blocks``, so only
    pairs with a common neighbor are touched and no table is held. A
    pair's count is at most the maximum degree, which sizes them.
    """
    density = g.m / math.comb(g.n, 2) if g.n >= 2 else 0.0
    size = int(g.degrees.max(initial=0)) + 1
    pair_hist = np.zeros(size, dtype=np.int64)
    closed_hist = np.zeros(size, dtype=np.int64)
    for _, count, adjacent in _pair_blocks(g):
        pair_hist += np.bincount(count, minlength=size)
        closed_hist += np.bincount(count[adjacent], minlength=size)
    ks = np.nonzero(pair_hist)[0]
    return ClosureRateCurve(ks.astype(np.int64), pair_hist[ks],
                            closed_hist[ks], density)


# -- breadth-first search ------------------------------------------------


@dataclass
class BfsLevels:
    """Distances from one source, or level sizes and pair distances from
    a block of sources.

    For one source, ``dist`` has shape (n,) and ``level_sizes`` (L,).
    For a block of S sources, row i of ``level_sizes`` (S, L) belongs to
    the i-th source and is zero past that source's eccentricity, which
    is its number of non-empty levels minus 1; ``dist`` holds one
    distance per requested pair, in the order the pairs were given.
    """

    dist: np.ndarray              # int64, -1 where unreachable
    level_sizes: np.ndarray       # level_sizes[l] = |{v : dist(source, v) = l}|


def bfs_levels(g: Graph, source: int | np.ndarray,
               pairs: tuple[np.ndarray, np.ndarray] | None = None) -> BfsLevels:
    """Level-synchronized BFS from one source or a block of sources.

    An integer source takes one ``_next_level`` step per level, which
    marks the frontier's neighbors in a boolean array, so no level
    sorts. A 1-D array of 1 to ``BFS_BLOCK`` sources runs all of them in
    one bit-parallel pass (``_bfs_block``); row i of its level sizes
    equals the integer call's for ``source[i]``, zero-padded. A block
    reads distances only at ``pairs = (rows, targets)``: entry j of its
    ``dist`` is the distance from ``source[rows[j]]`` to ``targets[j]``,
    the same as the integer call's, and is empty without pairs. A source
    or target that is not an integer in 0..n-1 raises ValueError.
    """
    if np.ndim(source) != 0:
        return _bfs_block(g, np.asarray(source), pairs)
    if pairs is not None:
        raise ValueError("pairs are read only from a block of sources")
    frontier = np.array([_vertex_id(source, g.n, "source")])
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    unseen = np.ones(g.n, dtype=bool)
    sizes = []
    while frontier.size:
        unseen[frontier] = False
        dist[frontier] = len(sizes)
        sizes.append(frontier.size)
        frontier = _next_level(g, frontier, unseen)
    return BfsLevels(dist, np.array(sizes, dtype=np.int64))


def _bfs_block(g: Graph, sources: np.ndarray,
               pairs: tuple[np.ndarray, np.ndarray] | None) -> BfsLevels:
    """Bit-parallel BFS: bit i of vertex v's word stands for sources[i].

    Each level is one pull step: every vertex ORs its neighbors'
    frontier words, masked by the words it has already seen. The
    ``reduceat`` runs over non-empty CSR rows only, since it would give
    an empty row its successor's first word and fails past the last
    slot. A level's bits are unpacked only at the vertices it reached,
    and a pair's distance is the level whose frontier word at its target
    first holds its row's bit, so a level costs O(pairs) beyond the step.
    """
    if sources.ndim != 1 or not 1 <= sources.size <= BFS_BLOCK:
        raise ValueError(f"a source block holds 1 to {BFS_BLOCK} sources, "
                         f"got shape {sources.shape}")
    sources = _vertex_ids(sources, g.n, "sources")
    count = sources.size
    rows, targets = (sources[:0],) * 2 if pairs is None \
        else map(np.asarray, pairs)
    if rows.ndim != 1 or rows.shape != targets.shape:
        raise ValueError("pairs are two 1-D arrays of one length")
    rows = _vertex_ids(rows, count, "pair rows")
    targets = _vertex_ids(targets, g.n, "pair targets")
    shift = rows.astype(np.uint64)
    dist = np.full(rows.size, UNREACHABLE, dtype=np.int64)
    frontier = np.zeros(g.n, dtype=np.uint64)
    np.bitwise_or.at(frontier, sources,
                     np.left_shift(np.uint64(1),
                                   np.arange(count, dtype=np.uint64)))
    seen = frontier.copy()
    nonempty = np.flatnonzero(np.diff(g.indptr))
    starts = g.indptr[nonempty]
    sizes = []
    reached = np.flatnonzero(frontier)
    while reached.size:
        # each bit is set in one level's frontier only, so a pair is hit once
        dist[(frontier[targets] >> shift & np.uint64(1)).astype(bool)] = \
            len(sizes)
        words = frontier[reached].astype("<u8").view(np.uint8)
        bits = np.unpackbits(words.reshape(-1, 8), axis=1,
                             bitorder="little")[:, :count]
        sizes.append(bits.sum(axis=0, dtype=np.int64))
        nxt = np.zeros(g.n, dtype=np.uint64)
        nxt[nonempty] = np.bitwise_or.reduceat(frontier[g.indices], starts)
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
        reached = np.flatnonzero(frontier)
    return BfsLevels(dist, np.stack(sizes, axis=1))


def _next_level(g: Graph, frontier: np.ndarray,
                unseen: np.ndarray) -> np.ndarray:
    """Ascending unseen neighbors of a frontier, which may be empty: the
    frontier's CSR rows, gathered in one pass by ``spans``, are marked in
    a boolean array, then masked by ``unseen``."""
    starts = g.indptr[frontier]
    reach = np.zeros(g.n, dtype=bool)
    reach[g.indices[spans(starts, g.indptr[frontier + 1] - starts)]] = True
    reach &= unseen
    return np.flatnonzero(reach)


# -- connectivity ---------------------------------------------------------


def connected_components(g: Graph) -> np.ndarray:
    """Component id per vertex, numbered by each component's smallest
    vertex: the order in which a scan from vertex 0 discovers them.

    Min-label hooking with shortcuts (Shiloach and Vishkin). Each vertex
    first points at its smallest neighbor, if that is smaller. Then,
    until no edge joins two trees, pointers jump until every vertex
    points at its root, and every root that an edge joins to a smaller
    root is hooked onto the smallest such root. Pointers only fall, so
    each root ends as the smallest vertex of its component.
    """
    parent = np.arange(g.n, dtype=np.int64)
    # rows are sorted, so a row's first slot holds its smallest neighbor
    has = np.flatnonzero(g.degrees)
    parent[has] = np.minimum(has, g.indices[g.indptr[has]])
    # every CSR slot u -> v is an edge; a slot inside one tree is dropped
    u, v = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees), g.indices
    while True:
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        ru, rv = parent[u], parent[v]
        live = np.flatnonzero(ru != rv)
        if not live.size:
            break
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
    roots = parent == np.arange(g.n)
    return (np.cumsum(roots, dtype=np.int64) - 1)[parent]


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component; the graph
    itself when one component holds every vertex."""
    comp = connected_components(g)
    if not comp.any():
        return g
    best = np.argmax(np.bincount(comp))
    return g.induced_subgraph(np.nonzero(comp == best)[0])
