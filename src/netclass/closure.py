"""Closure numbers: the smallest c making a graph c-closed or weakly c-closed.

A graph is c-closed when every non-adjacent pair with at least c common
neighbors is impossible, i.e. adjacency is forced at c shared neighbors.
The weak variant asks every induced subgraph for one vertex whose
non-neighbors all share fewer than c neighbors with it; equivalently the
graph admits a c-good elimination ordering.

Both numbers read the non-adjacent rows of ``graph._pair_blocks``: the
c-closure folds them into a running maximum, and the weak-closure greedy
keeps them compactly, gives each vertex a CSR slice of its pairs and
keeps one maximum per vertex, recomputed over that slice only when a
pair holding it is retired or loses a common neighbor.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, _integer, _pair_blocks, _vertex_id, sorted_unique,
                    spans, wedge_count)

# pair indices are int32 slots
MAX_OPEN_PAIRS = int(np.iinfo(np.int32).max)
# peak bytes per open pair while weak_closure_number builds its state
OPEN_PAIR_BYTES = 26


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
    best = 0
    for _, count, adjacent in _pair_blocks(g):
        best = max(best, int(count[~adjacent].max(initial=0)))
    return best + 1


def is_c_good(g: Graph, v: int, c: int) -> bool:
    """True iff every non-neighbor u of v has |N(u) ∩ N(v)| <= c - 1;
    ValueError unless v is one vertex id in 0..n-1, not a list or array,
    and c an integer of at least 1, not a bool or a float."""
    v = _vertex_id(v, g.n, "v")
    c = _integer(c, "c", 1)
    nbrs = g.neighbors(v)
    counts = np.bincount(g.indices[spans(g.indptr[nbrs], g.degrees[nbrs])],
                         minlength=g.n)
    counts[nbrs] = 0
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

    The open (non-adjacent) pairs are the only pair state: their sorted
    int64 keys u * n + w, int32 counts and one int32 slot array over
    both endpoints, 20 bytes a pair, and at most ``OPEN_PAIR_BYTES``
    while it is built. Each vertex owns a CSR slice of the slots, so
    removing v retires its pairs by reading that slice, and each
    surviving pair of v's neighbors loses one common neighbor. A
    survivor's maximum is recomputed over its slice only when a retired
    or decremented pair held it; a lazy heap keyed by (requirement,
    vertex) picks the next removal.
    """
    _guard_pair_memory(g)
    n = g.n
    if n == 0:
        return ClosureProfile(1, 1, (), ())

    keys, counts = _open_pairs(g)
    c_closure = int(counts.max(initial=0)) + 1
    ptr, slots, current_max = _pair_slots(keys, counts, n)

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

        # retire v's pairs (a retired pair's count is 0); the slots are
        # cast once here rather than by each of the three gathers
        mine = slots[ptr[v]:ptr[v + 1]].astype(np.intp)
        held, w = np.divmod(keys[mine], n)
        held += w - v  # the other endpoint
        held = held[counts[mine] == current_max[held]]
        counts[mine] = 0

        # each surviving non-adjacent pair of v's neighbors loses one
        nbrs = g.neighbors(v)
        nbrs = nbrs[alive[nbrs]]
        # the pairs i < j in row-major order, as triu_indices lists them
        # (the row is ascending), at a fraction of its per-call cost
        ii, jj = np.nonzero(np.less.outer(nbrs, nbrs))
        aa, bb = nbrs[ii], nbrs[jj]
        qk = aa * n + bb
        pos = np.searchsorted(keys, qk)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == qk[hit]
        aa, bb, pos = aa[hit], bb[hit], pos[hit]
        old = counts[pos]
        counts[pos] = np.maximum(old - 1, 0)

        stale = sorted_unique(np.concatenate(
            [held, aa[old == current_max[aa]], bb[old == current_max[bb]]]))
        # a vertex whose maximum a changed pair held looks over its
        # slice (take and a bare reduce cost less than [] and .max())
        for x in stale[alive[stale] & (current_max[stale] > 0)].tolist():
            mx = int(np.maximum.reduce(counts.take(slots[ptr[x]:ptr[x + 1]])))
            if mx < current_max[x]:
                current_max[x] = mx
                heapq.heappush(heap, (mx + 1, x))

    return ClosureProfile(c_closure=c_closure, weak_closure=max(reqs_out),
                          elimination_order=tuple(order_out),
                          per_vertex_requirement=tuple(reqs_out))


def _guard_pair_memory(g: Graph) -> None:
    """Refuse, before any wedge path is walked, pair state that could
    outgrow physical memory: at most min(wedges, C(n, 2)) pairs share a
    neighbor, at ``OPEN_PAIR_BYTES`` each."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf to ask
        return
    pairs = min(wedge_count(g), math.comb(g.n, 2))
    if pairs * OPEN_PAIR_BYTES > have:
        raise ValueError(
            f"pair state for up to {pairs} vertex pairs at {OPEN_PAIR_BYTES} "
            f"bytes each exceeds the {have} bytes of physical memory")


def _open_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Sorted int64 keys u * n + w and int32 counts of g's non-adjacent
    pairs with a common neighbor, gathered from ``_pair_blocks``."""
    key_blocks = [np.zeros(0, dtype=np.int64)]
    count_blocks = [np.zeros(0, dtype=np.int32)]
    total = 0
    for keys, count, adjacent in _pair_blocks(g):
        apart = ~adjacent
        key_blocks.append(keys[apart])
        count_blocks.append(count[apart])
        total += key_blocks[-1].size
        if total > MAX_OPEN_PAIRS:
            raise ValueError(f"more than {MAX_OPEN_PAIRS} non-adjacent pairs "
                             "share a neighbor, past the int32 slot range")
    keys = np.concatenate(key_blocks)
    del key_blocks
    return keys, np.concatenate(count_blocks)


def _pair_slots(keys: np.ndarray, counts: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of the open pairs at each endpoint, and each vertex's largest
    count.

    slots[ptr[v]:ptr[v + 1]] holds the int32 indices of the pairs with
    endpoint v: first those with u = v, consecutive because the keys
    are sorted, then those with w = v, in pair order from a stable
    argsort of w. The largest counts fold the w runs of the counts'
    gather by that argsort, then the u runs of the counts. Each
    transient is freed before the next is allocated, so at most
    ``OPEN_PAIR_BYTES`` a pair are live at once.
    """
    size = keys.size
    current_max = np.zeros(n, dtype=np.int64)
    ends = np.empty(size, dtype=np.int32)  # u, then w, of each pair
    np.floor_divide(keys, n, out=ends, casting="unsafe")
    u_count = np.bincount(ends, minlength=n)
    np.remainder(keys, n, out=ends, casting="unsafe")
    w_count = np.bincount(ends, minlength=n)
    by_w = np.argsort(ends, kind="stable")
    del ends
    by_w = by_w.astype(np.int32)
    # the w gather dies with the tuple; reduceat would give an empty run
    # the next run's first value, so only non-empty runs are passed
    for values, lengths in ((counts[by_w], w_count), (counts, u_count)):
        has = lengths > 0
        current_max[has] = np.maximum(current_max[has], np.maximum.reduceat(
            values, (np.cumsum(lengths) - lengths)[has]))
    runs = np.column_stack([u_count, w_count]).ravel()
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(u_count + w_count, out=ptr[1:])
    # per vertex, its run of u-side slots, then its run of w-side slots
    w_side = np.repeat(np.tile([False, True], n), runs)
    slots = np.empty(2 * size, dtype=np.int32)
    slots[w_side] = by_w
    del by_w
    np.logical_not(w_side, out=w_side)
    slots[w_side] = np.arange(size, dtype=np.int32)
    return ptr, slots, current_max
