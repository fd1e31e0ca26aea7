"""Shared brute-force oracles and graph builders for the test suite.

Oracles here deliberately avoid the package's own algorithms and data
layout: plain adjacency sets, explicit loops, exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import deque
from contextlib import contextmanager

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


def brute_load_edge_list(text: str):
    """Labels, adjacency by label and (raw_lines, self_loops, duplicates)
    of an edge-list text, parsed with str.split, a set and a dict."""
    ids: set[int] = set()
    edges: set[frozenset[int]] = set()
    raw = loops = dups = 0
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        u, v = map(int, fields)
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
                value = load_edge_list(str(res.path), return_stats=True)
                break
            except (DatasetError, OSError):
                continue
        _dataset_memo[name] = value
    if value is None:
        pytest.skip(f"SNAP dataset {name} unavailable: no cached copy and "
                    "no network route to snap.stanford.edu")
    return value
