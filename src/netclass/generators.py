"""Graph builders used by the demos and the test harness.

Everything returns an immutable Graph over dense indices. Randomized
builders take an explicit seed so runs are reproducible.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)], n=n)


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at index 0."""
    return Graph.from_edges([(0, i) for i in range(1, leaves + 1)],
                            n=leaves + 1)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(list(itertools.combinations(range(n), 2)), n=n)


def complete_multipartite(sizes: list[int]) -> Graph:
    """Groups of the given sizes, all cross-group pairs adjacent."""
    n = sum(sizes)
    group = np.repeat(np.arange(len(sizes)), sizes)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if group[u] != group[v]]
    return Graph.from_edges(edges, n=n)


def moon_moser(n: int) -> Graph:
    """Balanced complete multipartite graph with n/3 groups of three.

    Attains the extremal count of 3^(n/3) maximal cliques.
    """
    if n % 3 != 0 or n < 3:
        raise ValueError("Moon-Moser graphs need n divisible by 3")
    return complete_multipartite([3] * (n // 3))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(outer + spokes + inner, n=10)


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """A clique with a pendant path attached to its vertex 0."""
    edges = list(itertools.combinations(range(clique_size), 2))
    prev = 0
    for i in range(path_length):
        edges.append((prev, clique_size + i))
        prev = clique_size + i
    return Graph.from_edges(edges, n=clique_size + path_length)


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex indices of later graphs are shifted."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((int(u) + offset, int(v) + offset)
                     for u, v in g.edge_array())
        offset += g.n
    return Graph.from_edges(edges, n=offset)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    rng = np.random.default_rng(seed)
    if n < 2:
        return Graph.from_edges([], n=n)
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < p
    return Graph.from_edges(np.column_stack([iu[0][mask], iu[1][mask]]), n=n)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random attachment tree on n vertices."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph.from_edges(edges, n=n)


def random_connected_graph(n: int, extra_edge_prob: float, seed: int) -> Graph:
    """Random tree plus independent extra edges: connected by construction."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < extra_edge_prob
    edges.extend(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
    return Graph.from_edges(edges, n=n)


def power_law_degree_sequence(n: int, gamma: float,
                              d_max: int | None = None) -> np.ndarray:
    """Deterministic degree counts n(d) proportional to n / d^gamma.

    Largest-remainder rounding keeps the total exactly n; the sequence
    sum is made even by bumping one degree-1 slot if needed.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if d_max is None:
        d_max = max(2, round(n ** (1.0 / (gamma - 1))))
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    d = np.arange(1, d_max + 1, dtype=np.float64)
    weights = d ** -gamma
    target = n * weights / weights.sum()
    counts = np.floor(target).astype(np.int64)
    remainder = n - counts.sum()
    if remainder > 0:
        frac_order = np.argsort(target - np.floor(target))[::-1]
        counts[frac_order[:remainder]] += 1
    degrees = np.repeat(np.arange(1, d_max + 1), counts)
    if degrees.sum() % 2 == 1:
        degrees = degrees.copy()
        degrees[np.argmin(degrees)] += 1
    return degrees


def plb_graph(n: int, gamma: float, seed: int,
              d_max: int | None = None) -> Graph:
    """Configuration-style synthetic graph with a power-law degree profile.

    Stubs from a deterministic power-law degree sequence are paired by a
    seeded shuffle; self-loops and duplicate pairs are dropped, so the
    realized degrees sit at or slightly below the targets.
    """
    degrees = power_law_degree_sequence(n, gamma, d_max)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(len(degrees)), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    return Graph.from_edges(pairs, n=n)
