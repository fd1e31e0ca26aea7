"""Eccentricities, diameter heuristics, and level-threshold statistics.

tau_s(k) is the smallest level of the BFS tree from s holding at least
k vertices; its distribution over sources drives both the TwoSweep
lower bound and the eccentricity decomposition that explains why the
heuristic lands so close to the true diameter on typical networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConnectedError
from .graph import (BFS_BLOCK, Graph, _vertex_id, bfs_levels,
                    connected_components, row_pointers)

INF = math.inf
_NO_PAIRS = np.zeros(0, dtype=np.int64)


@dataclass
class MetricProfile:
    """Per-vertex eccentricities and the diameter they give."""

    eccentricity: np.ndarray
    diameter: int


@dataclass
class TwoSweepResult:
    lower_bound: int
    turn: int           # farthest vertex from the seed
    far: int            # farthest vertex from the turn


@dataclass
class TailFit:
    """Least-squares fit of log tail-fraction against the offset gamma."""

    c: float | None
    slope: float | None
    r_squared: float | None


def _require_vertices(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("the graph has no vertices")


def _require_spanned(g: Graph, level_sizes: np.ndarray) -> None:
    # one BFS's level sizes sum to n exactly when the graph is connected
    if level_sizes.sum() != g.n:
        raise NotConnectedError(int(connected_components(g).max()) + 1)


def _first_levels(sizes: np.ndarray, k: int) -> np.ndarray:
    """Each row's first level >= 1 with at least k vertices, or infinity."""
    hits = sizes >= k
    hits[:, 0] = False  # tau counts from level 1
    first = hits.argmax(axis=1)  # 0 where no level qualifies
    return np.where(first > 0, first, INF)


def _sweep(g: Graph, k: int, src: np.ndarray = _NO_PAIRS,
           dst: np.ndarray = _NO_PAIRS):
    """tau_s(k) and ecc(s) for every source s, and dist(src[i], dst[i]).

    Sources run in blocks of ``BFS_BLOCK`` consecutive vertices, one
    bit-parallel ``bfs_levels`` call each, which reads the distances of
    the pairs whose source is in the block; pairs are grouped by source.
    A source's eccentricity is its number of non-empty levels minus 1.
    Source 0's levels refuse a disconnected graph in the first block.
    """
    taus = np.empty(g.n, dtype=np.float64)
    eccs = np.empty(g.n, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    ptr = row_pointers(src[order], g.n)
    pair_dist = np.empty(src.size, dtype=np.int64)
    for lo in range(0, g.n, BFS_BLOCK):
        hi = min(lo + BFS_BLOCK, g.n)
        mine = order[ptr[lo]:ptr[hi]]
        levels = bfs_levels(g, np.arange(lo, hi), (src[mine] - lo, dst[mine]))
        if lo == 0:
            _require_spanned(g, levels.level_sizes[0])
        taus[lo:hi] = _first_levels(levels.level_sizes, k)
        eccs[lo:hi] = np.count_nonzero(levels.level_sizes, axis=1) - 1
        pair_dist[mine] = levels.dist
    return taus, eccs, pair_dist


def eccentricities(g: Graph) -> MetricProfile:
    """Exact per-vertex eccentricities: every vertex is a BFS source, 64
    sources to a bit-parallel pass."""
    _require_vertices(g)
    ecc = _sweep(g, 1)[1]
    return MetricProfile(eccentricity=ecc, diameter=int(ecc.max()))


def two_sweep(g: Graph, seed: int = 0) -> TwoSweepResult:
    """BFS to the farthest vertex, then report that vertex's eccentricity.

    Always a lower bound on the diameter; ties in the farthest-vertex
    choice go to the smallest index. ``seed`` is one vertex id in 0..n-1;
    any other value, even a list or array of one id, raises ValueError.
    """
    _require_vertices(g)
    first = bfs_levels(g, _vertex_id(seed, g.n, "seed"))
    _require_spanned(g, first.level_sizes)
    turn = int(np.argmax(first.dist))
    second = bfs_levels(g, turn)
    far = int(np.argmax(second.dist))
    return TwoSweepResult(lower_bound=int(second.dist[far]), turn=turn,
                          far=far)


def tau(g: Graph, s: int, k: int) -> int | float:
    """Smallest level (>= 1) of s's BFS tree with at least k vertices.

    Infinity when no level ever reaches k. The source's own level 0 is
    excluded so k=1 measures the first step, not the trivial one. ``s``
    is one vertex id in 0..n-1; any other value, even a list or array of
    one id, raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    s = _vertex_id(s, g.n, "s")
    first = _first_levels(bfs_levels(g, s).level_sizes[None], k)[0]
    return int(first) if first < INF else INF


@dataclass
class BctReport:
    """Empirical check of the three random-graph-style metric properties.

    Property 1 (sampled pairs): dist(s,t) <= tau_s(k*) + tau_t(k*).
    Property 2 (sampled pairs): dist(s,t) >  tau_s(k*) + tau_t(k*) - 1;
    its quantifier is deliberately loose, so only the raw fraction is
    reported. Property 3: the tail of tau over sources should decay
    geometrically; the fit base c and its quality are reported without
    a pass threshold.
    """

    k_star: int
    level_average: float            # T(k*), over sources with finite tau
    infinite_tau_sources: int
    sampled_pairs: int
    skipped_pairs: int              # sampled pairs with an infinite tau
    property1_fraction: float | None
    property2_fraction: float | None
    tail: list[tuple[int, float]]   # (gamma, fraction of sources)
    fit: TailFit
    rng_seed: int | None
    taus: np.ndarray = field(repr=False)
    eccs: np.ndarray = field(repr=False)


def _fit_tail(tail: list[tuple[int, float]]) -> TailFit:
    pts = [(gamma, frac) for gamma, frac in tail if frac > 0]
    if len(pts) < 2:
        return TailFit(c=None, slope=None, r_squared=None)
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.log(np.array([p[1] for p in pts], dtype=np.float64))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    c = float(np.exp(-slope)) if slope < 0 else None
    return TailFit(c=c, slope=float(slope), r_squared=r2)


def bct_properties_report(g: Graph, sample_pairs: int = 10_000,
                          rng_seed: int = 0) -> BctReport:
    """Measure the level-threshold properties on a connected graph.

    k* is ceil(sqrt(n)). Pair sampling uses the seeded generator
    recorded in the report; the pairs' distances come from the same
    all-sources BFS sweep that gives tau and the eccentricities.
    """
    if sample_pairs < 0:
        raise ValueError("sample_pairs must be non-negative")
    # checked here, not left to the generator, which is not built when
    # no pair is sampled, and the report echoes the seed either way
    if rng_seed < 0:
        raise ValueError("rng_seed must be non-negative")
    _require_vertices(g)
    n = g.n
    k_star = math.isqrt(n - 1) + 1  # ceil(sqrt(n)), exactly
    src = dst = _NO_PAIRS
    if sample_pairs > 0 and n >= 2:
        rng = np.random.default_rng(rng_seed)
        src = rng.integers(0, n, size=sample_pairs)
        dst = rng.integers(0, n - 1, size=sample_pairs)
        dst[dst >= src] += 1  # uniform over ordered pairs with s != t
    taus, eccs, dist = _sweep(g, k_star, src, dst)

    finite = np.isfinite(taus)
    level_average = float(taus[finite].mean()) if finite.any() else INF

    bound = taus[src] + taus[dst]
    usable = np.isfinite(bound)
    p1 = p2 = None
    if usable.any():
        d, b = dist[usable], bound[usable]
        p1 = int(np.count_nonzero(d <= b)) / d.size
        p2 = int(np.count_nonzero(d > b - 1)) / d.size

    tail: list[tuple[int, float]] = []
    if finite.any():
        gamma = 0
        while True:
            frac = float((taus[finite] >= level_average + gamma).mean())
            tail.append((gamma, frac))
            if frac == 0.0 or gamma > int(np.nanmax(taus[finite])) + 2:
                break
            gamma += 1

    return BctReport(k_star=k_star, level_average=level_average,
                     infinite_tau_sources=int((~finite).sum()),
                     sampled_pairs=int(src.size),
                     skipped_pairs=int(src.size - usable.sum()),
                     property1_fraction=p1, property2_fraction=p2,
                     tail=tail, fit=_fit_tail(tail), rng_seed=rng_seed,
                     taus=taus, eccs=eccs)


@dataclass
class EccDecomposition:
    """Residuals of ecc(u) - tau_u(k*) - T(k*) - log_c n per vertex.

    The additive constant in the underlying estimate is unknown, so the
    spread is reported and never asserted. The rank correlation between
    tau and eccentricity is the actionable part: it is what makes the
    farthest vertex of a BFS a near-maximizer of eccentricity.
    """

    residual_min: float
    residual_max: float
    residual_mean: float
    residual_std: float
    rank_correlation: float | None
    degenerate: bool
    c: float
    log_c_n: float


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks."""
    # [1, 0] rather than [0, 1]: corrcoef's two off-diagonal entries can
    # differ in the last bit, and this one is what scipy.stats reports
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def eccentricity_decomposition_report(
        g: Graph, report: BctReport | None = None) -> EccDecomposition:
    """Spread of the eccentricity estimate's residuals across vertices."""
    if report is None:
        report = bct_properties_report(g, sample_pairs=0)
    c = report.fit.c
    if c is None and report.tail and report.tail[0] == (0, 1.0) and all(
            frac == 0.0 for _, frac in report.tail[1:]):
        # a tail that drops from everything to nothing in one step (all
        # tau equal, e.g. complete graphs) decays instantly: the log
        # term vanishes instead of being unfittable
        c = INF
    elif c is None or c <= 1.0:
        raise ValueError(
            "tail fit is degenerate (no usable base c); the residual "
            "decomposition is undefined for this graph")
    finite = np.isfinite(report.taus)
    taus = report.taus[finite]
    eccs = report.eccs[finite].astype(np.float64)
    log_c_n = 0.0 if c == INF else math.log(g.n) / math.log(c)
    residuals = eccs - taus - report.level_average - log_c_n
    degenerate = bool(np.all(taus == taus[0]) or np.all(eccs == eccs[0]))
    rank = None if degenerate else _spearman(taus, eccs)
    return EccDecomposition(
        residual_min=float(residuals.min()),
        residual_max=float(residuals.max()),
        residual_mean=float(residuals.mean()),
        residual_std=float(residuals.std()),
        rank_correlation=rank, degenerate=degenerate,
        c=c, log_c_n=log_c_n)
