#!/usr/bin/env python3
"""Power-law-bounded degree distributions and what they buy.

The PLB condition bounds every dyadic degree-bucket's mass by a power
law; it tolerates local wobble in n(d) while still forcing few
high-degree vertices, small degeneracy, and near-linear triangle
counting via the degree orientation.
"""

import numpy as np

from netclass import fit_gamma, is_plb, plb_constant, plb_diagnostics
from netclass.cliques import degree_orientation
from netclass.generators import plb_graph, star_graph
from netclass.graph import wedge_count

print("=" * 64)
print("Fitting the bucket constant")
print("=" * 64)
g = plb_graph(8192, 2.5, seed=21)
dd = g.degree_distribution()
fit = plb_constant(dd, gamma=2.5)
print(f"synthetic n={g.n} m={g.m}, gamma=2.5: minimal c = {fit.c_plb:.3f}")
print(f"{'bucket':>8s} {'degrees':>12s} {'mass':>6s} {'slack':>7s}")
for b, slack in zip(fit.buckets, fit.slacks()):
    print(f"{b.r:8d} [{b.lo:4d},{b.hi:4d}] {b.mass:6d} {slack:7.3f}")
print("round trip:", is_plb(dd, 2.5, fit.c_plb).ok,
      "| halved constant:", is_plb(dd, 2.5, fit.c_plb / 2).ok)

print()
print("a star is no power law: the hub bucket blows any modest budget")
star = star_graph(1023).degree_distribution()
print("is_plb(star, gamma=3, c=1):", is_plb(star, 3.0, 1.0).ok)

print()
print("=" * 64)
print("Heuristic exponent search (no canonical objective exists)")
print("=" * 64)
chosen = fit_gamma(dd)
print(f"grid-searched gamma = {chosen.fit.gamma:.2f} "
      f"(c = {chosen.fit.c_plb:.3f})")

print()
print("=" * 64)
print("Scaling diagnostics across a sweep")
print("=" * 64)
print("work of oriented triangle counting should track n^(3/gamma) for")
print("gamma in (2,3); wedges should stay linear for gamma > 3")
print(f"{'n':>8s} {'sum (d+)^2':>12s} {'/ n^1.2':>9s} {'wedges/n (g=3.5)':>18s}")
for e in range(10, 15):
    n = 2 ** e
    g25 = plb_graph(n, 2.5, seed=42)
    dplus = degree_orientation(g25).out_degrees.astype(np.int64)
    work = int((dplus ** 2).sum())
    g35 = plb_graph(n, 3.5, seed=42)
    print(f"{n:8d} {work:12d} {work / n ** 1.2:9.3f} "
          f"{wedge_count(g35) / n:18.3f}")

print()
diag = plb_diagnostics(plb_graph(16384, 2.5, seed=42),
                       plb_constant(plb_graph(16384, 2.5, seed=42)
                                    .degree_distribution(), 2.5))
print(f"n=16384 diagnostics: degeneracy {diag.degeneracy} "
      f"(ratio to n^(1/gamma): {diag.degeneracy_ratio:.3f}), "
      f"d_max {diag.d_max} (ratio to n^(1/(gamma-1)): {diag.d_max_ratio:.3f})")
print("tail masses against n * k^(1-gamma):")
for point in diag.tail:
    print(f"  k={point.k:4d}: {point.tail_mass:6d} vertices "
          f"(ratio {point.ratio:.3f})")
