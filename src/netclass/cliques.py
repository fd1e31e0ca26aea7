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
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError
from .graph import Graph, row_pointers

DEFAULT_CLIQUE_BUDGET = 10_000_000


@dataclass
class CliqueSet:
    """Canonically ordered maximal cliques of one graph.

    Each clique is an ascending vertex tuple; the list is sorted, so two
    CliqueSets over the same graph compare equal regardless of emission
    order.
    """

    cliques: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    def largest(self) -> tuple[int, ...]:
        if not self.cliques:
            raise ValueError("maximum clique of the empty graph is undefined")
        best_size = max(len(c) for c in self.cliques)
        return min(c for c in self.cliques if len(c) == best_size)


@dataclass
class OrientedGraph:
    """An acyclic orientation of a graph along a vertex ordering.

    Every undirected edge appears exactly once, directed from the
    lower-ranked endpoint to the higher-ranked one. ``degeneracy`` is
    populated only for min-degree removal orderings.
    """

    order: np.ndarray                    # position -> vertex
    rank: np.ndarray                     # vertex -> position
    out_indptr: np.ndarray
    out_indices: np.ndarray              # sorted ascending within each row
    degeneracy: int | None = None
    removal_degrees: np.ndarray | None = field(default=None, repr=False)

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[v]:self.out_indptr[v + 1]]


def _orient_by_rank(g: Graph, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of out-neighbors when each edge points up the given ranks."""
    heads = np.repeat(np.arange(g.n), g.degrees)
    up = rank[g.indices] > rank[heads]
    # rows stay in head order and sorted within, so the mask keeps CSR order
    return row_pointers(heads[up], g.n), g.indices[up]


def degeneracy_ordering(g: Graph) -> OrientedGraph:
    """Iterative min-degree removal; ties broken by smallest index.

    The degeneracy is the largest degree seen at removal time; edges are
    oriented along the removal order, so every out-degree is at most the
    degeneracy.
    """
    n = g.n
    degs = g.degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    heap = [(int(degs[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)
    removal_degrees = np.empty(n, dtype=np.int64)
    for i in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == degs[v]:
                break
        alive[v] = False
        order[i] = v
        removal_degrees[i] = d
        for w in g.neighbors(v):
            if alive[w]:
                degs[w] -= 1
                heapq.heappush(heap, (int(degs[w]), w))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    indptr, indices = _orient_by_rank(g, rank)
    alpha = int(removal_degrees.max()) if n else 0
    return OrientedGraph(order=order, rank=rank, out_indptr=indptr,
                         out_indices=indices, degeneracy=alpha,
                         removal_degrees=removal_degrees)


def degree_orientation(g: Graph) -> OrientedGraph:
    """Each edge directed from the lower-degree endpoint to the higher,
    ties broken lexicographically by index."""
    degs = g.degrees
    order = np.lexsort((np.arange(g.n), degs))
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    indptr, indices = _orient_by_rank(g, rank)
    return OrientedGraph(order=order, rank=rank, out_indptr=indptr,
                         out_indices=indices, degeneracy=None)


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


def enumerate_maximal_cliques_backtracking(
        g: Graph, budget: int = DEFAULT_CLIQUE_BUDGET) -> CliqueSet:
    """Per-vertex backtracking enumerator.

    For a start vertex v and history H, the candidate set N holds v plus
    every vertex adjacent to v and to all of H. If N induces a clique,
    the union of H and N is a maximal clique; otherwise recurse on each
    w in N \\ {v}
    with v appended to the history. Each run finds every maximal clique
    through v; a clique is kept only at its minimum vertex, which
    deduplicates across the outer loop.
    """
    _check_budget(budget)
    adj = g.adjacency_sets()
    found: set[frozenset[int]] = set()
    visited: set[tuple[int, frozenset[int]]] = set()

    def is_clique(vs: set[int]) -> bool:
        need = len(vs) - 1
        return all(len(adj[x] & vs) >= need for x in vs)

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
        candidate_set = cand | {v}
        if is_clique(candidate_set):
            clique = frozenset(history | candidate_set)
            # the run from `start` sees every maximal clique through it;
            # keeping only those whose minimum is `start` dedups globally
            if min(clique) == start and clique not in found:
                found.add(clique)
                if len(found) > budget:
                    raise BudgetExceededError(budget, "maximal cliques")
            return
        new_history = history | {v}
        for w in sorted(cand):
            run(start, w, new_history)

    with _recursion_as_value_error():
        for start in range(g.n):
            visited.clear()
            run(start, start, frozenset())

    return CliqueSet(cliques=sorted(tuple(sorted(c)) for c in found))


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
    _check_budget(budget)
    out: list[tuple[int, ...]] = []

    def emit(clique: tuple[int, ...]) -> None:
        out.append(clique)
        if len(out) > budget:
            raise BudgetExceededError(budget, "maximal cliques")

    with _recursion_as_value_error():
        _bron_kerbosch(g, emit)
    return CliqueSet(cliques=sorted(out))


def _bron_kerbosch(g: Graph, emit) -> None:
    """Call ``emit`` on each maximal clique, an ascending tuple, in
    ``enumerate_maximal_cliques``'s emission order."""
    og = degeneracy_ordering(g)
    rows = [g.neighbors(v).tolist() for v in range(g.n)]
    rank = og.rank.tolist()
    place = [0] * g.n  # 1 << i at v's i-th neighbor, 0 elsewhere

    def expand(r: list[int], p: int, x: int) -> None:
        if not p:
            if not x:
                emit(tuple(sorted(r)))
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
    for v in og.order.tolist():
        nbrs, rv, later = rows[v], rank[v], 0
        for i, w in enumerate(nbrs):
            place[w] = 1 << i
            if rank[w] > rv:
                later |= 1 << i
        # the bits are distinct, so their sum is their union
        bits = [sum(map(place.__getitem__, rows[w])) for w in nbrs]
        for w in nbrs:
            place[w] = 0
        expand([v], later, ((1 << len(nbrs)) - 1) ^ later)


def maximum_clique(g: Graph, budget: int = DEFAULT_CLIQUE_BUDGET) -> tuple[int, ...]:
    """A largest clique, taken from the maximal-clique enumeration."""
    return enumerate_maximal_cliques(g, budget=budget).largest()


def enumerate_all_cliques(g: Graph, budget: int = DEFAULT_CLIQUE_BUDGET,
                          sink=None) -> int:
    """Count every non-empty clique, optionally streaming each one.

    Works vertex by vertex in degeneracy order, extending cliques only
    into out-neighborhoods, so each clique is generated exactly once
    (at its earliest vertex) and the work is O(n * 2^degeneracy).
    """
    _check_budget(budget)
    og = degeneracy_ordering(g)
    out_adj = [set(og.out_neighbors(v).tolist()) for v in range(g.n)]
    count = 0

    def emit(members: list[int]) -> None:
        nonlocal count
        count += 1
        if count > budget:
            raise BudgetExceededError(budget, "cliques")
        if sink is not None:
            sink(tuple(sorted(members)))

    def grow(members: list[int], cand: set[int]) -> None:
        for w in sorted(cand):
            members.append(w)
            emit(members)
            grow(members, cand & out_adj[w])
            members.pop()

    with _recursion_as_value_error():
        for v in range(g.n):
            emit([v])
            grow([v], out_adj[v])
    return count
