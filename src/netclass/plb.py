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

from .graph import DegreeDistribution, Graph


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

    def slacks(self) -> list[float]:
        """Per-bucket mass as a fraction of the budget at constant c_plb."""
        return [b.ratio / self.c_plb for b in self.buckets]


@dataclass
class PlbCheck:
    """Each dyadic bucket's mass over its budget at the checked c."""

    ok: bool               # no slack exceeds 1
    slacks: list[float]


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
    """Smallest c for which every dyadic bucket satisfies its bound.

    Each bucket's bound c * n * bound_sum must be a finite float: with c
    near the float maximum it overflows though every budget is normal.
    """
    buckets, isolated = _buckets(dd, gamma, shift)
    c = max(b.ratio for b in buckets)
    for b in buckets:
        if not math.isfinite(c * dd.n * b.bound_sum):
            raise ValueError(f"power-law bound of degree bucket [{b.lo}, "
                             f"{b.hi}] overflows; lower gamma or shift")
    return PlbFit(gamma=gamma, shift=shift, c_plb=c, buckets=buckets,
                  isolated=isolated)


def is_plb(dd: DegreeDistribution, gamma: float, c: float,
           shift: float = 0.0) -> PlbCheck:
    """Does the distribution satisfy every bucket bound at constant c?"""
    if c <= 0:
        raise ValueError("constant c must be positive")
    buckets, _ = _buckets(dd, gamma, shift)
    slacks = [b.ratio / c for b in buckets]
    return PlbCheck(ok=all(s <= 1.0 for s in slacks), slacks=slacks)


@dataclass
class GammaFit:
    """Grid-searched exponent. The objective is a heuristic: the paper
    family of definitions never fixes one for real data."""

    fit: PlbFit
    objective: float


def fit_gamma(dd: DegreeDistribution, shift: float = 0.0) -> GammaFit:
    """Pick gamma from the grid 1.05, 1.10, ..., 5.00 by minimizing c_plb
    penalized by how unevenly the buckets sit below their budgets."""
    best: GammaFit | None = None
    for gamma in np.arange(1.05, 5.0001, 0.05):
        fit = plb_constant(dd, float(gamma), shift)
        slacks = np.array(fit.slacks())
        objective = fit.c_plb * (1.0 + float(np.std(slacks)))
        if best is None or objective < best.objective:
            best = GammaFit(fit=fit, objective=objective)
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

    tail: list[TailPoint]
    degeneracy: int
    degeneracy_ratio: float        # alpha / n^(1/gamma)
    d_max: int
    d_max_ratio: float             # d_max / n^(1/(gamma-1))
    sum_outdeg_sq: int
    oriented_ops_ratio: float      # sum (d+)^2 / n^(3/gamma)


def plb_diagnostics(g: Graph, fit: PlbFit) -> PlbDiagnostics:
    """Compare a graph's measured structure against PLB-implied scalings.

    Requires the fit to actually hold for the graph's degree
    distribution; everything reported is a ratio to the corresponding
    reference curve, so sweeps over n can check boundedness.
    """
    dd = g.degree_distribution()
    if not is_plb(dd, fit.gamma, fit.c_plb, fit.shift).ok:
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
    # imported here, so that fitting alone never loads the clique module
    from .cliques import degeneracy_ordering, degree_orientation
    alpha = degeneracy_ordering(g).degeneracy
    dplus = degree_orientation(g).out_degrees.astype(np.int64)
    sum_sq = int((dplus ** 2).sum())
    try:
        d_max_ratio = d_max / n ** (1.0 / (gamma - 1.0))
    except OverflowError:  # the power passes float range near gamma = 1
        d_max_ratio = 0.0
    return PlbDiagnostics(
        tail=tail, degeneracy=alpha,
        degeneracy_ratio=alpha / n ** (1.0 / gamma),
        d_max=d_max,
        d_max_ratio=d_max_ratio,
        sum_outdeg_sq=sum_sq,
        oriented_ops_ratio=sum_sq / n ** (3.0 / gamma),
    )
