"""Shared brute-force oracles and graph builders for the test suite.

Oracles here deliberately avoid the package's own algorithms and data
layout: plain adjacency sets, explicit loops, exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from collections import deque
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from netclass.datasets import MANIFEST, fetch_dataset
from netclass.errors import DatasetError
from netclass.graph import Graph, load_edge_list


def adjacency_sets(g: Graph) -> list[set[int]]:
    return [set(g.neighbors(v).tolist()) for v in range(g.n)]


def brute_common_neighbors(g: Graph, u: int, v: int) -> int:
    adj = adjacency_sets(g)
    return len(adj[u] & adj[v])


def brute_similarity(g: Graph, u: int, v: int) -> float:
    """The cleaner's edge similarity |N(u) & N(v)| / (|N(u) | N(v)| - 2),
    0.0 when that denominator is not positive."""
    adj = adjacency_sets(g)
    denom = len(adj[u] | adj[v]) - 2
    return len(adj[u] & adj[v]) / denom if denom > 0 else 0.0


def brute_wedges(g: Graph) -> int:
    """Count unordered two-hop paths by listing them."""
    adj = adjacency_sets(g)
    total = 0
    for center in range(g.n):
        for a, b in itertools.combinations(sorted(adj[center]), 2):
            assert a != b
            total += 1
    return total


def brute_triangles(g: Graph) -> int:
    """Check all C(n, 3) vertex triples."""
    adj = adjacency_sets(g)
    count = 0
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            count += 1
    return count


def brute_triangles_dense(g: Graph) -> int:
    """Same triple scan, as a dense tensor contraction (for bulk runs)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for v in range(g.n):
        a[v, g.neighbors(v)] = 1
    return int(np.einsum("ij,jk,ik->", a, a, a)) // 6


def brute_all_cliques(g: Graph) -> list[frozenset[int]]:
    """Every non-empty clique, grown vertex by vertex."""
    adj = adjacency_sets(g)
    out: list[frozenset[int]] = []

    def grow(members: tuple[int, ...], floor: int):
        out.append(frozenset(members))
        for v in range(floor, g.n):
            if all(v in adj[u] for u in members):
                grow(members + (v,), v + 1)

    for v in range(g.n):
        grow((v,), v + 1)
    return out


def brute_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    adj = adjacency_sets(g)
    maximal = set()
    for clique in brute_all_cliques(g):
        if not any(clique <= adj[v] for v in set(range(g.n)) - clique):
            maximal.add(clique)
    return maximal


def brute_c_closure(g: Graph) -> int:
    adj = adjacency_sets(g)
    best = 0
    for u, v in itertools.combinations(range(g.n), 2):
        if v not in adj[u]:
            best = max(best, len(adj[u] & adj[v]))
    return best + 1


def brute_weak_closure(g: Graph) -> int:
    """Max over all induced subgraphs of the minimum goodness requirement."""
    adj = adjacency_sets(g)
    worst = 1
    for bits in range(1, 2 ** g.n):
        sub = [v for v in range(g.n) if bits >> v & 1]
        inside = set(sub)
        min_req = None
        for v in sub:
            req = 1
            for u in sub:
                if u != v and u not in adj[v]:
                    req = max(req, len(adj[v] & adj[u] & inside) + 1)
            if min_req is None or req < min_req:
                min_req = req
        worst = max(worst, min_req)
    return worst


def brute_weak_closure_order(g: Graph) -> tuple[list[int], list[int]]:
    """The weak-closure greedy on plain sets: remove, among the
    survivors, the vertex whose requirement (1 + most common surviving
    neighbors with a surviving non-neighbor) is least, ties to the
    smallest index. Returns the removal order and the requirements."""
    adj = adjacency_sets(g)
    alive = set(range(g.n))
    order, reqs = [], []
    while alive:
        req, v = min(
            (1 + max((len(adj[v] & adj[u] & alive) for u in alive
                      if u != v and u not in adj[v]), default=0), v)
            for v in alive)
        order.append(v)
        reqs.append(req)
        alive.remove(v)
    return order, reqs


def brute_all_pairs_dist(g: Graph) -> np.ndarray:
    """BFS from every vertex over plain adjacency sets; -1 = unreachable."""
    adj = adjacency_sets(g)
    dist = np.full((g.n, g.n), -1, dtype=np.int64)
    for s in range(g.n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[s, w] < 0:
                    dist[s, w] = dist[s, v] + 1
                    queue.append(w)
    return dist


def brute_induced_subgraph(g: Graph, vertices) -> tuple[list, list, list]:
    """``indptr``, ``indices`` and ``labels`` of the subgraph on a vertex
    set, renumbered in ascending order, from plain adjacency sets."""
    keep = sorted(set(vertices))
    new = {v: i for i, v in enumerate(keep)}
    adj = adjacency_sets(g)
    rows = [sorted(new[w] for w in adj[v] if w in new) for v in keep]
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return indptr, [w for row in rows for w in row], \
        [int(g.labels[v]) for v in keep]


def brute_components(g: Graph) -> list[int]:
    """Component labels numbered by each component's smallest vertex,
    found by a deque BFS over plain adjacency sets."""
    adj = adjacency_sets(g)
    label = [-1] * g.n
    count = 0
    for s in range(g.n):
        if label[s] >= 0:
            continue
        label[s] = count
        queue = deque([s])
        while queue:
            for w in adj[queue.popleft()]:
                if label[w] < 0:
                    label[w] = count
                    queue.append(w)
        count += 1
    return label


def csr_star(leaves: int) -> Graph:
    """K_{1,leaves} with the center at 0, built straight from CSR arrays
    so that a star with millions of leaves costs only its two arrays."""
    indptr = np.concatenate([[0], np.arange(leaves, 2 * leaves + 1)])
    indices = np.concatenate([np.arange(1, leaves + 1),
                              np.zeros(leaves, dtype=np.int64)])
    return Graph(leaves + 1, indptr, indices)


def random_graph_stream(count: int, max_n: int, seed: int,
                        min_n: int = 1):
    """Reproducible stream of (graph, rng) with varied size and density."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        p = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]))
        iu = np.triu_indices(n, k=1)
        mask = rng.random(len(iu[0])) < p
        yield Graph.from_edges(
            np.column_stack([iu[0][mask], iu[1][mask]]), n=n)


@pytest.fixture
def edge_list_file(tmp_path):
    """Writes edge-list content (str as UTF-8, or bytes) to a new file
    under ``tmp_path`` and returns its path."""
    names = itertools.count()

    def write(content: str | bytes) -> Path:
        path = tmp_path / f"edges{next(names)}.txt"
        path.write_bytes(content.encode() if isinstance(content, str) else content)
        return path
    return write


def brute_load_edge_list(text: str):
    """Labels, adjacency by label and (raw_lines, self_loops, duplicates)
    of an edge-list text, parsed with str.split, a regex, Decimal, a set
    and a dict. Lines end at LF only, as in a file read in binary mode. An id
    is ``-?[0-9]+`` within int64; the first bad data line raises
    ``ValueError(line_no, what)``, ``what`` being "fields" (not two of
    them), "id" or "int64"."""
    ids: set[int] = set()
    edges: set[frozenset[int]] = set()
    raw = loops = dups = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ValueError(line_no, "fields")
        if not all(re.fullmatch("-?[0-9]+", f) for f in fields):
            raise ValueError(line_no, "id")
        # Decimal, unlike int(), reads more digits than Python's
        # int-string limit allows
        u, v = (int(Decimal(f)) for f in fields)
        if not all(-2**63 <= x < 2**63 for x in (u, v)):
            raise ValueError(line_no, "int64")
        raw += 1
        ids |= {u, v}
        if u == v:
            loops += 1
        elif frozenset((u, v)) in edges:
            dups += 1
        else:
            edges.add(frozenset((u, v)))
    adj: dict[int, set[int]] = {x: set() for x in ids}
    for u, v in map(tuple, edges):
        adj[u].add(v)
        adj[v].add(u)
    return sorted(ids), adj, (raw, loops, dups)


def brute_clean(g: Graph, epsilon: float, seeds=None):
    """The cleaner's deletion log as (u, v, similarity, triangles
    destroyed) tuples, run on a dict of sets with a list of (u, v)
    tuples, u < v, as its FIFO worklist.

    The worklist starts as ``seeds`` (each pair ordered, repeats kept;
    by default every edge in lexicographic order). A popped pair that is
    still an edge is deleted when its similarity |N(u) & N(v)| /
    (|N(u) | N(v)| - 2), 0 when that denominator is not positive, is
    below epsilon; then the edges at u, then those at v, each in
    ascending order of the far end, are appended unless already
    waiting. Popping a pair ends its wait."""
    adj = {v: set(g.neighbors(v).tolist()) for v in range(g.n)}
    if seeds is None:
        seeds = sorted((u, v) for u in adj for v in adj[u] if u < v)
    worklist = [(min(u, v), max(u, v)) for u, v in seeds]
    waiting = set(worklist)
    log = []
    head = 0
    while head < len(worklist):
        u, v = worklist[head]
        head += 1
        waiting.discard((u, v))
        if v not in adj[u]:
            continue
        shared = len(adj[u] & adj[v])
        denom = len(adj[u] | adj[v]) - 2
        similarity = shared / denom if denom > 0 else 0.0
        if similarity >= epsilon:
            continue
        adj[u].remove(v)
        adj[v].remove(u)
        log.append((u, v, similarity, shared))
        for end in (u, v):
            for far in sorted(adj[end]):
                pair = (min(end, far), max(end, far))
                if pair not in waiting:
                    worklist.append(pair)
                    waiting.add(pair)
    return log


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to ``frames`` above the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# -- real datasets ----------------------------------------------------------


def _candidate_cache_dirs():
    env = os.environ.get("NETCLASS_CACHE")
    if env:
        yield env
    yield os.path.join(os.path.dirname(__file__), "..", "data")
    yield None  # package default, may hit the network


_dataset_memo: dict[str, object] = {}


def snap_graph(name: str):
    """Load a benchmark dataset, or skip the test when unavailable."""
    assert name in MANIFEST
    if name in _dataset_memo:
        value = _dataset_memo[name]
    else:
        value = None
        for cache in _candidate_cache_dirs():
            try:
                res = fetch_dataset(name, cache_dir=cache)
                value = load_edge_list(res.path, return_stats=True)
                break
            except (DatasetError, OSError):
                continue
        _dataset_memo[name] = value
    if value is None:
        pytest.skip(f"SNAP dataset {name} unavailable: no cached copy and "
                    "no network route to snap.stanford.edu")
    return value
