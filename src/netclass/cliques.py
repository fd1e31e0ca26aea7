"""Maximal-clique enumeration, degeneracy machinery, and edge orientations.

Two independent enumerators are provided: a per-vertex backtracking
procedure whose recursion depth is bounded by the closure parameter of
the input, and a pivoting Bron-Kerbosch over a degeneracy ordering with
polynomial work per emitted clique. They must agree exactly; tests hold
them to that.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_CLIQUE_BUDGET, BudgetExceededError
from .graph import Graph, row_pointers

# clique members held as Python ints before one bulk int32 conversion
EMIT_CHUNK = 1 << 12


class CliqueSet:
    """Maximal cliques of one graph, stored flat.

    ``members`` (int32) and ``ends`` (int64) are flat buffers: clique i
    is ``members[ends[i - 1]:ends[i]]``. Both enumerators fill this one
    store, cliques and members in emitted order, so counting sorts
    nothing; ``cliques`` (and iteration) builds the sorted list of
    ascending tuples on first use, and ``largest()`` sorts its rows.
    """

    __slots__ = ("_members", "_ends", "_cliques")

    def __init__(self, members: array, ends: array):
        self._members = np.frombuffer(members, dtype=np.int32)
        self._ends = np.frombuffer(ends, dtype=np.int64)
        self._cliques = None

    @property
    def cliques(self) -> list[tuple[int, ...]]:
        if self._cliques is None:
            members, ends = self._members.tolist(), self._ends.tolist()
            self._cliques = sorted(tuple(sorted(members[a:b])) for a, b in
                                   zip([0, *ends], ends))
        return self._cliques

    def __len__(self) -> int:
        return len(self._ends)

    def __iter__(self):
        return iter(self.cliques)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliqueSet):
            return NotImplemented
        return self.cliques == other.cliques

    def __repr__(self) -> str:
        return f"CliqueSet(cliques={self.cliques!r})"

    def largest(self) -> tuple[int, ...]:
        """The smallest, as a sorted tuple, among the largest cliques."""
        if not len(self):
            raise ValueError("maximum clique of the empty graph is undefined")
        sizes = np.diff(self._ends, prepend=0)
        size = int(sizes.max())
        starts = self._ends[sizes == size] - size
        rows = np.sort(self._members[starts[:, None] + np.arange(size)])
        # lexsort's last key is its primary one
        return tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist())


@dataclass
class OrientedGraph:
    """An acyclic orientation of a graph along a vertex ordering.

    Every undirected edge appears exactly once, directed from the
    lower-ranked endpoint to the higher-ranked one. Both orientations
    come from one builder, ``_orient``, which takes the order and
    derives the ranks and out-neighbor rows. ``degeneracy`` is set only
    for the min-degree removal ordering.
    """

    order: np.ndarray                    # position -> vertex
    rank: np.ndarray                     # vertex -> position
    out_indptr: np.ndarray
    out_indices: np.ndarray              # sorted ascending within each row
    degeneracy: int | None

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)


def _orient(g: Graph, order: np.ndarray, degeneracy=None) -> OrientedGraph:
    """Each edge pointing up the ranks of ``order``."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    heads = np.repeat(np.arange(g.n), g.degrees)
    up = rank[g.indices] > rank[heads]
    # rows stay in head order and sorted within, so the mask keeps CSR order
    return OrientedGraph(order=order, rank=rank,
                         out_indptr=row_pointers(heads[up], g.n),
                         out_indices=g.indices[up], degeneracy=degeneracy)


def degeneracy_ordering(g: Graph) -> OrientedGraph:
    """Iterative min-degree removal; ties broken by smallest index.

    The degeneracy is the largest degree seen at removal time; edges are
    oriented along the removal order, so every out-degree is at most the
    degeneracy.
    """
    n = g.n
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    degs = g.degrees.tolist()
    alive = [True] * n
    heap = [(d, v) for v, d in enumerate(degs)]
    heapq.heapify(heap)
    order, degeneracy = [], 0
    for _ in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == degs[v]:
                break
        alive[v] = False
        order.append(v)
        degeneracy = max(degeneracy, d)
        for w in nbrs[ptr[v]:ptr[v + 1]]:
            if alive[w]:
                degs[w] -= 1
                heapq.heappush(heap, (degs[w], w))
    return _orient(g, np.array(order, dtype=np.int64), degeneracy)


def degree_orientation(g: Graph) -> OrientedGraph:
    """Each edge directed from the lower-degree endpoint to the higher,
    ties broken lexicographically by index."""
    return _orient(g, np.argsort(g.degrees, kind="stable"))


# -- maximal clique enumeration -----------------------------------------


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError("budget must be non-negative")


@contextmanager
def _recursion_as_value_error():
    """A domain error, not a crash, when a clique of about a thousand
    vertices outgrows the stack (the enumerators recurse per vertex)."""
    try:
        yield
    except RecursionError:
        raise ValueError("clique search exceeds the Python recursion limit "
                         f"of {sys.getrecursionlimit()}") from None


def _clique_store(g: Graph, budget: int, walk) -> CliqueSet:
    """Run ``walk(g, emit)`` and keep each clique it emits, members in
    any order, in one flat CliqueSet; the clique past the budget raises."""
    _check_budget(budget)
    # members reach the int32 buffer through a list, converted a chunk
    # at a time: array.extend converts item by item, far slower
    members, ends, pending = array("i"), array("q"), []

    def emit(clique) -> None:
        pending.extend(clique)
        ends.append(len(members) + len(pending))
        if len(ends) > budget:
            raise BudgetExceededError(budget, "maximal cliques")
        if len(pending) >= EMIT_CHUNK:
            members.extend(array("i", pending))
            pending.clear()

    with _recursion_as_value_error():
        walk(g, emit)
    members.extend(array("i", pending))
    return CliqueSet(members, ends)


def enumerate_maximal_cliques_backtracking(
        g: Graph, budget: int = DEFAULT_CLIQUE_BUDGET) -> CliqueSet:
    """Per-vertex backtracking enumerator.

    For a start vertex v and history H, the candidate set N holds v plus
    every vertex adjacent to v and to all of H. If N induces a clique,
    the union of H and N is a maximal clique; otherwise recurse on each
    w in N \\ {v} with v appended to the history. Each run finds every
    maximal clique through v; a clique is kept only at its minimum
    vertex, which deduplicates across the outer loop.
    """
    return _clique_store(g, budget, _backtrack)


def _backtrack(g: Graph, emit) -> None:
    """Call ``emit`` on each maximal clique, a frozenset, as found."""
    adj = g.adjacency_sets()
    found: set[frozenset[int]] = set()
    visited: set[tuple[int, frozenset[int]]] = set()

    def run(start: int, v: int, history: frozenset[int]) -> None:
        # different recursion orders reach identical (v, history) states;
        # exploring one of them is enough
        state = (v, history)
        if state in visited:
            return
        visited.add(state)
        cand = adj[v].copy()
        for h in history:
            cand &= adj[h]
        members = cand | {v}
        # N is a clique when each member sees the other len(cand)
        if all(len(adj[x] & members) >= len(cand) for x in members):
            clique = history | members
            # the run from `start` sees every maximal clique through it;
            # keeping only those whose minimum is `start` dedups globally
            if min(clique) == start and clique not in found:
                found.add(clique)
                emit(clique)
            return
        new_history = history | {v}
        for w in sorted(cand):
            run(start, w, new_history)

    for start in range(g.n):
        visited.clear()
        run(start, start, frozenset())


def enumerate_maximal_cliques(g: Graph,
                              budget: int = DEFAULT_CLIQUE_BUDGET) -> CliqueSet:
    """Pivoting Bron-Kerbosch over a degeneracy ordering.

    The outer loop fixes each vertex v in degeneracy order with its
    later neighbors as candidates and earlier ones as exclusions, which
    keeps candidate sets no larger than the degeneracy (Eppstein,
    Löffler and Strash). The recursion works on Python-int bitsets local
    to v: bit i stands for v's i-th smallest neighbor, and ``bits[i]``
    holds that neighbor's own neighbors among them. The pivot is the
    candidate or exclusion covering the most candidates, ties going to
    the smallest id, and candidates are tried in ascending id, so the
    emission order, and the clique at which the budget trips, are fixed.
    """
    return _clique_store(g, budget, _bron_kerbosch)


def _local_bitsets(g: Graph):
    """``(v, nbrs, later, bits)`` per vertex v in degeneracy order, on
    Python-int bitsets local to v: bit i stands for ``nbrs[i]``, v's i-th
    smallest neighbor; ``later`` holds the neighbors after v in the order
    and ``bits[i]`` those adjacent to ``nbrs[i]``."""
    og = degeneracy_ordering(g)
    ptr, idx, rank = g.indptr.tolist(), g.indices.tolist(), og.rank.tolist()
    rows = [idx[ptr[v]:ptr[v + 1]] for v in range(g.n)]
    place = [0] * g.n  # 1 << i at v's i-th neighbor, 0 elsewhere
    at = place.__getitem__
    for v in og.order.tolist():
        nbrs, rv, later = rows[v], rank[v], 0
        for i, w in enumerate(nbrs):
            place[w] = 1 << i
            if rank[w] > rv:
                later |= 1 << i
        # the bits are distinct, so their sum is their union
        bits = [sum(map(at, rows[w])) for w in nbrs]
        for w in nbrs:
            place[w] = 0
        yield v, nbrs, later, bits


def _bron_kerbosch(g: Graph, emit) -> None:
    """Call ``emit`` on each maximal clique, a list in the order its
    members joined, in ``enumerate_maximal_cliques``'s emission order."""
    def expand(r: list[int], p: int, x: int) -> None:
        if not p:
            if not x:
                emit(r)
            return
        best, pivot, px = -1, 0, p | x
        while px:
            low = px & -px
            u = low.bit_length() - 1
            cover = (bits[u] & p).bit_count()
            if cover > best:
                best, pivot = cover, u
            px ^= low
        cand = p & ~bits[pivot]
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            expand(r + [nbrs[w]], p & bits[w], x & bits[w])
            p ^= low
            x |= low
            cand ^= low

    # expand reads nbrs and bits of the outer vertex in hand
    for v, nbrs, later, bits in _local_bitsets(g):
        expand([v], later, ((1 << len(nbrs)) - 1) ^ later)


def maximum_clique(g: Graph, budget: int = DEFAULT_CLIQUE_BUDGET) -> tuple[int, ...]:
    """A largest clique, taken from the maximal-clique enumeration."""
    return enumerate_maximal_cliques(g, budget=budget).largest()


def enumerate_all_cliques(g: Graph,
                          budget: int = DEFAULT_CLIQUE_BUDGET) -> int:
    """Count every non-empty clique once, at its earliest vertex in
    degeneracy order: it grows only into later neighbors, on the bitsets
    ``enumerate_maximal_cliques`` walks. The work is O(n * 2^degeneracy).
    """
    _check_budget(budget)
    count = 0

    def grow(p: int) -> None:
        # one clique here; each bit of p extends it into the bits after it
        nonlocal count
        count += 1
        if count > budget:
            raise BudgetExceededError(budget, "cliques")
        while p:
            low = p & -p
            p ^= low
            grow(p & bits[low.bit_length() - 1])

    with _recursion_as_value_error():
        for _, _, later, bits in _local_bitsets(g):
            grow(later)
    return count
