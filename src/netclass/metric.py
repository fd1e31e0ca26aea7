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
from scipy import stats as scipy_stats

from .errors import NotConnectedError
from .graph import Graph, bfs_levels, connected_components

INF = math.inf


@dataclass
class MetricProfile:
    """Per-vertex eccentricities and the diameter they give."""

    eccentricity: np.ndarray | None = None
    diameter: int | None = None


@dataclass
class TwoSweepResult:
    lower_bound: int
    start: int          # seed of the first sweep
    turn: int           # farthest vertex from the seed
    far: int            # farthest vertex from the turn


@dataclass
class TailFit:
    """Least-squares fit of log tail-fraction against the offset gamma."""

    c: float | None
    slope: float | None
    r_squared: float | None
    points: list[tuple[int, float]]


def _require_connected(g: Graph) -> None:
    if g.n == 0:
        raise NotConnectedError(0)
    comp = connected_components(g)
    k = int(comp.max()) + 1
    if k != 1:
        raise NotConnectedError(k)


def eccentricities(g: Graph) -> MetricProfile:
    """Exact per-vertex eccentricities by one BFS per vertex."""
    _require_connected(g)
    ecc = np.empty(g.n, dtype=np.int64)
    for v in range(g.n):
        ecc[v] = bfs_levels(g, v).eccentricity
    return MetricProfile(eccentricity=ecc, diameter=int(ecc.max()))


def two_sweep(g: Graph, seed: int | None = None) -> TwoSweepResult:
    """BFS to the farthest vertex, then report that vertex's eccentricity.

    Always a lower bound on the diameter; ties in the farthest-vertex
    choice go to the smallest index.
    """
    _require_connected(g)
    start = 0 if seed is None else seed
    g.check_vertex(start)
    first = bfs_levels(g, start)
    turn = int(np.argmax(first.dist))
    second = bfs_levels(g, turn)
    far = int(np.argmax(second.dist))
    return TwoSweepResult(lower_bound=int(second.dist[far]), start=start,
                          turn=turn, far=far)


def tau(g: Graph, s: int, k: int) -> int | float:
    """Smallest level (>= 1) of s's BFS tree with at least k vertices.

    Infinity when no level ever reaches k. The source's own level 0 is
    excluded so k=1 measures the first step, not the trivial one.
    """
    g.check_vertex(s)
    if k < 1:
        raise ValueError("k must be at least 1")
    sizes = bfs_levels(g, s).level_sizes
    hits = np.nonzero(sizes[1:] >= k)[0]
    return int(hits[0]) + 1 if hits.size else INF


def _tau_from_sizes(sizes: np.ndarray, k: int) -> float:
    hits = np.nonzero(sizes[1:] >= k)[0]
    return float(hits[0] + 1) if hits.size else INF


def level_sweep(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """tau_s(k) and ecc(s) for every source, from one BFS pass each."""
    taus = np.empty(g.n, dtype=np.float64)
    eccs = np.empty(g.n, dtype=np.int64)
    for s in range(g.n):
        levels = bfs_levels(g, s)
        taus[s] = _tau_from_sizes(levels.level_sizes, k)
        eccs[s] = levels.eccentricity
    return taus, eccs


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

    n: int
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
    taus: np.ndarray = field(repr=False, default=None)
    eccs: np.ndarray = field(repr=False, default=None)


def _fit_tail(tail: list[tuple[int, float]]) -> TailFit:
    pts = [(gamma, frac) for gamma, frac in tail if frac > 0]
    if len(pts) < 2:
        return TailFit(c=None, slope=None, r_squared=None, points=pts)
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.log(np.array([p[1] for p in pts], dtype=np.float64))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    c = float(np.exp(-slope)) if slope < 0 else None
    return TailFit(c=c, slope=float(slope), r_squared=r2, points=pts)


def bct_properties_report(g: Graph, sample_pairs: int = 10_000,
                          rng_seed: int = 0,
                          source_exponent: float = 0.5,
                          target_exponent: float = 0.5) -> BctReport:
    """Measure the level-threshold properties on a connected graph.

    k* is n**exponent rounded up (both exponents default to 1/2; the
    generalized thresholds are exposed but carry no asserted guarantee).
    Pair sampling uses the seeded generator recorded in the report.
    """
    _require_connected(g)
    n = g.n
    k_s = max(1, math.ceil(n ** source_exponent))
    k_t = max(1, math.ceil(n ** target_exponent))
    taus_s, eccs = level_sweep(g, k_s)
    taus_t = taus_s if k_t == k_s else level_sweep(g, k_t)[0]

    finite = np.isfinite(taus_s)
    level_average = float(taus_s[finite].mean()) if finite.any() else INF

    p1 = p2 = None
    skipped = 0
    sampled = 0
    if sample_pairs > 0 and n >= 2:
        rng = np.random.default_rng(rng_seed)
        src = rng.integers(0, n, size=sample_pairs)
        dst = rng.integers(0, n - 1, size=sample_pairs)
        dst[dst >= src] += 1  # uniform over ordered pairs with s != t
        ok1 = 0
        ok2 = 0
        usable = 0
        for s in np.unique(src).tolist():
            dists = bfs_levels(g, s).dist
            for t in dst[src == s].tolist():
                sampled += 1
                ts, tt = taus_s[s], taus_t[t]
                if not (math.isfinite(ts) and math.isfinite(tt)):
                    skipped += 1
                    continue
                usable += 1
                d = int(dists[t])
                if d <= ts + tt:
                    ok1 += 1
                if d > ts + tt - 1:
                    ok2 += 1
        if usable:
            p1 = ok1 / usable
            p2 = ok2 / usable

    tail: list[tuple[int, float]] = []
    if finite.any():
        gamma = 0
        while True:
            frac = float((taus_s[finite] >= level_average + gamma).mean())
            tail.append((gamma, frac))
            if frac == 0.0 or gamma > int(np.nanmax(taus_s[finite])) + 2:
                break
            gamma += 1

    return BctReport(n=n, k_star=k_s, level_average=level_average,
                     infinite_tau_sources=int((~finite).sum()),
                     sampled_pairs=sampled, skipped_pairs=skipped,
                     property1_fraction=p1, property2_fraction=p2,
                     tail=tail, fit=_fit_tail(tail), rng_seed=rng_seed,
                     taus=taus_s, eccs=eccs)


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


def eccentricity_decomposition_report(
        g: Graph, report: BctReport | None = None,
        rng_seed: int = 0) -> EccDecomposition:
    """Spread of the eccentricity estimate's residuals across vertices."""
    if report is None:
        report = bct_properties_report(g, sample_pairs=0, rng_seed=rng_seed)
    c = report.fit.c
    if c is None:
        # a tail that drops from everything to nothing in one step (all
        # tau equal, e.g. complete graphs) decays instantly: the log
        # term vanishes instead of being unfittable
        if report.tail and report.tail[0] == (0, 1.0) and all(
                frac == 0.0 for _, frac in report.tail[1:]):
            c = INF
        else:
            raise ValueError(
                "tail fit is degenerate (no usable base c); the residual "
                "decomposition is undefined for this graph")
    elif c <= 1.0:
        raise ValueError(
            "tail fit is degenerate (no usable base c); the residual "
            "decomposition is undefined for this graph")
    finite = np.isfinite(report.taus)
    taus = report.taus[finite]
    eccs = report.eccs[finite].astype(np.float64)
    log_c_n = 0.0 if c == INF else math.log(g.n) / math.log(c)
    residuals = eccs - taus - report.level_average - log_c_n
    if taus.size and (np.all(taus == taus[0]) or np.all(eccs == eccs[0])):
        rank = None
        degenerate = True
    else:
        rho = scipy_stats.spearmanr(taus, eccs).statistic
        rank = None if np.isnan(rho) else float(rho)
        degenerate = rank is None
    return EccDecomposition(
        residual_min=float(residuals.min()),
        residual_max=float(residuals.max()),
        residual_mean=float(residuals.mean()),
        residual_std=float(residuals.std()),
        rank_correlation=rank, degenerate=degenerate,
        c=c, log_c_n=log_c_n)
