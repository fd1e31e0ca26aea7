"""Seeded synthetic graphs for the benchmark, independent of netclass.

Each recipe stands in for one shape of the SNAP networks the netclass
paper analyses. The recipes live here rather than in
``netclass.generators`` so that a library change cannot silently change
a workload. Every generator returns an ``(m, 2)`` int64 array of
undirected edges with ``u < v``, sorted and free of duplicates, and is
a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# Parameters of each workload. Sizes are scaled down from the recipes'
# original sizes (community n=6000 with 2400 groups, mesh 50x50) so that
# every subcommand, including the O(n*m) exact diameter and BCT report,
# runs at least twice within one benchmark run.
PARAMS = {
    "community": {"n": 1000, "groups": 400, "alpha": 1.6, "scale": 3,
                  "min_size": 3, "max_size": 40, "p": 0.9, "size_seed": 0},
    "mesh": {"side": 30, "chords": 30},
}


def _canonical(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted unique edges with u < v; self-loops dropped."""
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    span = int(hi.max()) + 1 if hi.size else 1
    packed = np.unique(lo * span + hi)
    return np.column_stack([packed // span, packed % span])


def community(seed: int, n: int, groups: int, alpha: float, scale: int,
              min_size: int, max_size: int, p: float,
              size_seed: int) -> np.ndarray:
    """Overlapping random communities: triangle-dense and clique-rich.

    Group sizes are ``min(int(pareto(alpha) * scale) + min_size,
    max_size)``, drawn once from ``size_seed`` so that every seed shares
    one heavy-tailed size sequence and the graph's size does not swing
    with the seed. The seed picks each group's distinct members and
    joins each member pair with probability ``p``.
    """
    sizes = np.random.default_rng(size_seed).pareto(alpha, size=groups)
    sizes = np.minimum((sizes * scale).astype(np.int64) + min_size, max_size)
    rng = np.random.default_rng(seed)
    us, vs = [], []
    for size in sizes.tolist():
        members = rng.choice(n, size=size, replace=False)
        ii, jj = np.triu_indices(size, k=1)
        keep = rng.random(ii.size) < p
        us.append(members[ii[keep]])
        vs.append(members[jj[keep]])
    return _canonical(np.concatenate(us), np.concatenate(vs))


def mesh(seed: int, side: int, chords: int) -> np.ndarray:
    """A side x side grid plus random chords that close no triangle.

    A chord is redrawn when its endpoints are already adjacent or share
    a neighbour, so the graph stays triangle-free and BFS runs many
    levels over small frontiers.
    """
    rng = np.random.default_rng(seed)
    n = side * side
    ids = np.arange(n).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    adj = [set() for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].add(b)
        adj[b].add(a)
    added = []
    while len(added) < chords:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a == b or b in adj[a] or adj[a] & adj[b]:
            continue
        adj[a].add(b)
        adj[b].add(a)
        added.append((a, b))
    extra = np.array(added, dtype=np.int64).reshape(-1, 2)
    return _canonical(np.concatenate([u, extra[:, 0]]),
                      np.concatenate([v, extra[:, 1]]))


GENERATORS = {"community": community, "mesh": mesh}


def generate(workload: str, seed: int) -> np.ndarray:
    return GENERATORS[workload](seed, **PARAMS[workload])


def snap_text(edges: np.ndarray) -> bytes:
    """SNAP edge-list text: a comment header, then one ``u v`` per line."""
    n = len(np.unique(edges)) if edges.size else 0
    head = f"# Nodes: {n} Edges: {len(edges)}\n# FromNodeId\tToNodeId\n"
    body = "\n".join(f"{a}\t{b}" for a, b in edges.tolist())
    return (head + body + "\n").encode()


def shape_stats(edges: np.ndarray) -> dict:
    """Vertex, edge, wedge and triangle counts and the triangle density."""
    n = int(edges.max()) + 1
    deg = np.bincount(edges.ravel(), minlength=n)
    adj = sparse.csr_matrix((np.ones(2 * len(edges), dtype=np.int64),
                             (np.concatenate([edges[:, 0], edges[:, 1]]),
                              np.concatenate([edges[:, 1], edges[:, 0]]))),
                            shape=(n, n))
    triangles = int((adj @ adj).multiply(adj).sum()) // 6
    wedges = int((deg * (deg - 1) // 2).sum())
    return {"n": int((deg > 0).sum()), "m": len(edges), "wedges": wedges,
            "triangles": triangles, "max_degree": int(deg.max()),
            "tau": 3 * triangles / wedges if wedges else 0.0}
