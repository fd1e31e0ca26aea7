"""Power-law-bounded degree distributions and their structural bounds.

A distribution is power-law bounded with exponent gamma and constant c
when every dyadic degree bucket [2^r, 2^(r+1)] (both ends inclusive, so
powers of two land in two buckets exactly as the defining sums do)
carries at most c * n * sum((d + shift)^-gamma) vertices. Degree-0
vertices live outside every bucket and are reported separately.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cliques import degeneracy_ordering, degree_orientation
from .graph import DegreeDistribution, Graph, wedge_count


@dataclass
class BucketCheck:
    """One dyadic bucket's mass against its power-law budget."""

    r: int
    lo: int
    hi: int
    mass: int              # vertices with degree in [lo, hi]
    bound_sum: float       # sum of (d + shift)^-gamma over [lo, hi]
    ratio: float           # mass / (n * bound_sum): the c this bucket demands


@dataclass
class PlbFit:
    """Minimal constant making every bucket inequality hold."""

    gamma: float
    shift: float
    c_plb: float
    buckets: list[BucketCheck]
    isolated: int          # degree-0 vertices, excluded from buckets

    def slacks(self, c: float | None = None) -> list[float]:
        """Per-bucket mass as a fraction of the budget at constant c."""
        c = self.c_plb if c is None else c
        return [b.ratio / c for b in self.buckets]


@dataclass
class PlbCheck:
    ok: bool
    c: float
    slacks: list[float]
    buckets: list[BucketCheck]


def _buckets(dd: DegreeDistribution, gamma: float,
             shift: float) -> tuple[list[BucketCheck], int]:
    if not (math.isfinite(gamma) and math.isfinite(shift)):
        raise ValueError("gamma and shift must be finite")
    if gamma <= 1:
        raise ValueError("power-law exponent gamma must exceed 1")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    counts = np.asarray(dd.counts, dtype=np.int64)
    d_max = dd.d_max
    if d_max < 1:
        raise ValueError("degree distribution has no positive-degree vertex")
    out: list[BucketCheck] = []
    r = 0
    while 2 ** r <= d_max:
        lo, hi = 2 ** r, 2 ** (r + 1)
        mass = int(counts[lo:min(hi, d_max) + 1].sum())
        d = np.arange(lo, hi + 1, dtype=np.float64)
        bound_sum = float(((d + shift) ** -gamma).sum())
        if bound_sum < sys.float_info.min:  # zero or subnormal
            raise ValueError(f"power-law budget of degree bucket [{lo}, {hi}] "
                             "underflows; lower gamma or shift")
        out.append(BucketCheck(r=r, lo=lo, hi=hi, mass=mass,
                               bound_sum=bound_sum,
                               ratio=mass / (dd.n * bound_sum)))
        r += 1
    isolated = int(counts[0]) if len(counts) else 0
    return out, isolated


def plb_constant(dd: DegreeDistribution, gamma: float,
                 shift: float = 0.0) -> PlbFit:
    """Smallest c for which every dyadic bucket satisfies its bound."""
    buckets, isolated = _buckets(dd, gamma, shift)
    c = max(b.ratio for b in buckets)
    return PlbFit(gamma=gamma, shift=shift, c_plb=c, buckets=buckets,
                  isolated=isolated)


def is_plb(dd: DegreeDistribution, gamma: float, c: float,
           shift: float = 0.0) -> PlbCheck:
    """Does the distribution satisfy every bucket bound at constant c?"""
    if c <= 0:
        raise ValueError("constant c must be positive")
    buckets, _ = _buckets(dd, gamma, shift)
    slacks = [b.ratio / c for b in buckets]
    return PlbCheck(ok=all(s <= 1.0 for s in slacks), c=c, slacks=slacks,
                    buckets=buckets)


@dataclass
class GammaFit:
    """Grid-searched exponent. The objective is a heuristic: the paper
    family of definitions never fixes one for real data."""

    gamma: float
    shift: float
    fit: PlbFit
    objective: float
    heuristic: bool = True


def fit_gamma(dd: DegreeDistribution, gammas=None,
              shift: float = 0.0) -> GammaFit:
    """Pick gamma from a grid by minimizing c_plb penalized by how
    unevenly the buckets sit below their budgets."""
    if gammas is None:
        gammas = np.arange(1.05, 5.0001, 0.05)
    best: GammaFit | None = None
    for gamma in gammas:
        fit = plb_constant(dd, float(gamma), shift)
        slacks = np.array(fit.slacks())
        objective = fit.c_plb * (1.0 + float(np.std(slacks)))
        if best is None or objective < best.objective:
            best = GammaFit(gamma=float(gamma), shift=shift, fit=fit,
                            objective=objective)
    return best


@dataclass
class TailPoint:
    k: int
    tail_mass: int          # vertices of degree >= k
    reference: float        # n * k^(1 - gamma)

    @property
    def ratio(self) -> float:
        return self.tail_mass / self.reference


@dataclass
class PlbDiagnostics:
    """Measured quantities against the scalings a valid fit predicts."""

    gamma: float
    n: int
    tail: list[TailPoint]
    wedges: int
    wedges_per_n: float
    wedges_per_nlogn: float
    degeneracy: int
    degeneracy_ratio: float        # alpha / n^(1/gamma)
    d_max: int
    d_max_ratio: float             # d_max / n^(1/(gamma-1))
    beta: float                    # log_n(d_max), descriptive only
    sum_outdeg_sq: int
    oriented_ops_ratio: float      # sum (d+)^2 / n^(3/gamma)


def plb_diagnostics(g: Graph, fit: PlbFit) -> PlbDiagnostics:
    """Compare a graph's measured structure against PLB-implied scalings.

    Requires the fit to actually hold for the graph's degree
    distribution; everything reported is a ratio to the corresponding
    reference curve, so sweeps over n can check boundedness.
    """
    dd = g.degree_distribution()
    check = is_plb(dd, fit.gamma, fit.c_plb, fit.shift)
    if not check.ok:
        raise ValueError("fit does not hold for this graph's degrees")
    gamma = fit.gamma
    n = g.n
    d_max = dd.d_max
    tail = []
    k = 1
    while k <= d_max:
        mass = int(dd.counts[k:].sum())
        tail.append(TailPoint(k=k, tail_mass=mass,
                              reference=n * k ** (1.0 - gamma)))
        k *= 2
    w = wedge_count(g)
    alpha = degeneracy_ordering(g).degeneracy
    dplus = degree_orientation(g).out_degrees.astype(np.int64)
    sum_sq = int((dplus ** 2).sum())
    return PlbDiagnostics(
        gamma=gamma, n=n, tail=tail, wedges=w,
        wedges_per_n=w / n,
        wedges_per_nlogn=w / (n * math.log(n)) if n > 1 else float("nan"),
        degeneracy=alpha,
        degeneracy_ratio=alpha / n ** (1.0 / gamma),
        d_max=d_max,
        d_max_ratio=d_max / n ** (1.0 / (gamma - 1.0)),
        beta=math.log(d_max) / math.log(n) if n > 1 and d_max >= 1 else float("nan"),
        sum_outdeg_sq=sum_sq,
        oriented_ops_ratio=sum_sq / n ** (3.0 / gamma),
    )
