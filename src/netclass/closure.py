"""Closure numbers: the smallest c making a graph c-closed or weakly c-closed.

A graph is c-closed when every non-adjacent pair with at least c common
neighbors is impossible, i.e. adjacency is forced at c shared neighbors.
The weak variant asks every induced subgraph for one vertex whose
non-neighbors all share fewer than c neighbors with it; equivalently the
graph admits a c-good elimination ordering.

Both numbers read the non-adjacent rows of ``graph.pair_table``. The
weak-closure greedy gives each vertex a CSR slice of its pairs and keeps
one maximum per vertex, recomputed over that slice only when a pair
holding it is retired or loses a common neighbor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import Graph, pair_table, row_pointers


@dataclass
class ClosureProfile:
    """Closure numbers plus the witnessing elimination ordering.

    per_vertex_requirement[i] is 1 + the largest number of common
    neighbors elimination_order[i] shared with a surviving non-neighbor
    at the moment it was removed; weak_closure is the maximum of these.
    """

    c_closure: int
    weak_closure: int
    elimination_order: tuple[int, ...]
    per_vertex_requirement: tuple[int, ...]


def c_closure_number(g: Graph) -> int:
    """Smallest c such that g is c-closed.

    Equals 1 + max common-neighbor count over non-adjacent pairs, and 1
    when no non-adjacent pair has a common neighbor.
    """
    _, _, count, adjacent = pair_table(g)
    return int(count[~adjacent].max(initial=0)) + 1


def is_c_good(g: Graph, v: int, c: int) -> bool:
    """True iff every non-neighbor u of v has |N(u) ∩ N(v)| <= c - 1."""
    g.check_vertex(v)
    if c < 1:
        raise ValueError("c must be a positive integer")
    counts = np.zeros(g.n, dtype=np.int64)
    for w in g.neighbors(v):
        counts[g.neighbors(w)] += 1
    counts[g.neighbors(v)] = 0
    counts[v] = 0
    return bool(counts.max(initial=0) <= c - 1)


def weak_closure_number(g: Graph) -> ClosureProfile:
    """Smallest c such that g is weakly c-closed, with a witness ordering.

    Greedily removes a vertex minimizing its current goodness
    requirement (1 + max common neighbors with a surviving non-neighbor,
    ties to the smallest index); the answer is the maximum requirement
    along the run. The greedy minimax is exact because requirements are
    monotone non-increasing under vertex deletion, mirroring the
    min-degree argument for degeneracy.

    The non-adjacent rows of ``pair_table`` are the only pair state.
    Each vertex owns a CSR slice of its pair slots, so removing v
    retires its pairs by reading that slice, and each surviving pair of
    v's neighbors loses one common neighbor. A survivor's maximum is
    recomputed over its slice only when a retired or decremented pair
    held it; a lazy heap keyed by (requirement, vertex) picks the next
    removal.
    """
    # the full table is freed once _open_pairs returns, before the greedy
    return _weak_closure_from_pairs(g, _open_pairs(pair_table(g)))


def _open_pairs(table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copies of the non-adjacent rows (u, w, count) of a ``pair_table``."""
    u, w, count, adjacent = table
    return u[~adjacent], w[~adjacent], count[~adjacent]


def _weak_closure_from_pairs(g: Graph, open_pairs) -> ClosureProfile:
    """``weak_closure_number`` from the ``_open_pairs`` of g's pair table;
    it updates their counts in place."""
    n = g.n
    if n == 0:
        return ClosureProfile(1, 1, (), ())

    u, w, counts = open_pairs
    c_closure = int(counts.max(initial=0)) + 1
    keys = u * n + w  # sorted, as the table is

    # slots[ptr[v]:ptr[v + 1]] are the pairs with endpoint v; the other
    # endpoint of pair s is u[s] + w[s] - v
    heads = np.concatenate([u, w])
    ptr = row_pointers(heads, n)
    slots = np.argsort(heads)
    slots %= max(counts.size, 1)
    del heads

    current_max = np.zeros(n, dtype=np.int64)
    np.maximum.at(current_max, u, counts)
    np.maximum.at(current_max, w, counts)

    alive = np.ones(n, dtype=bool)
    heap: list[tuple[int, int]] = [(int(current_max[v]) + 1, v)
                                   for v in range(n)]
    heapq.heapify(heap)

    order_out: list[int] = []
    reqs_out: list[int] = []

    for _ in range(n):
        while True:
            req, v = heapq.heappop(heap)
            if alive[v] and req == current_max[v] + 1:
                break
        alive[v] = False
        order_out.append(v)
        reqs_out.append(req)

        # retire v's pairs (a retired pair's count is 0)
        mine = slots[ptr[v]:ptr[v + 1]]
        held = u[mine] + w[mine] - v
        held = held[counts[mine] == current_max[held]]
        counts[mine] = 0

        # each surviving non-adjacent pair of v's neighbors loses one
        nbrs = g.neighbors(v)
        nbrs = nbrs[alive[nbrs]]
        ii, jj = np.triu_indices(nbrs.size, k=1)
        aa, bb = nbrs[ii], nbrs[jj]
        qk = aa * n + bb
        pos = np.searchsorted(keys, qk)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == qk[hit]
        aa, bb, pos = aa[hit], bb[hit], pos[hit]
        old = counts[pos]
        counts[pos] = np.maximum(old - 1, 0)

        stale = np.unique(np.concatenate(
            [held, aa[old == current_max[aa]], bb[old == current_max[bb]]]))
        # a vertex whose maximum a changed pair held looks over its slice
        for x in stale[alive[stale] & (current_max[stale] > 0)].tolist():
            mx = int(counts[slots[ptr[x]:ptr[x + 1]]].max())
            if mx < current_max[x]:
                current_max[x] = mx
                heapq.heappush(heap, (mx + 1, x))

    return ClosureProfile(c_closure=c_closure, weak_closure=max(reqs_out),
                          elimination_order=tuple(order_out),
                          per_vertex_requirement=tuple(reqs_out))
