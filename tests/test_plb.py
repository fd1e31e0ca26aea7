import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netclass.generators import (plb_graph, power_law_degree_sequence,
                                 random_tree, star_graph)
from netclass.graph import DegreeDistribution
from netclass.plb import fit_gamma, is_plb, plb_constant, plb_diagnostics


def dd_from_counts(counts) -> DegreeDistribution:
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    m = int((np.arange(len(counts)) * counts).sum()) // 2
    return DegreeDistribution(counts=counts, n=n, m=m)


def random_distribution(rng) -> DegreeDistribution:
    d_max = int(rng.integers(1, 60))
    counts = rng.integers(0, 50, size=d_max + 1)
    counts[rng.integers(1, d_max + 1)] += 1  # at least one positive degree
    counts[0] = rng.integers(0, 5)
    return dd_from_counts(counts)


class TestPlbConstant:
    def test_perfect_matching(self):
        # all degrees 1: one bucket [1,2] with full mass, budget
        # n * (1 + 1/4), so the minimal constant is 0.8
        dd = dd_from_counts([0, 10])
        fit = plb_constant(dd, gamma=2.0)
        assert fit.c_plb == pytest.approx(0.8)
        assert len(fit.buckets) == 1

    def test_buckets_stop_at_d_max(self):
        dd = dd_from_counts([0, 6, 3, 1])  # d_max = 3
        fit = plb_constant(dd, gamma=2.0)
        assert [b.r for b in fit.buckets] == [0, 1]
        assert fit.buckets[-1].lo == 2

    def test_power_of_two_lands_in_both_buckets(self):
        dd = dd_from_counts([0, 0, 5])  # every vertex has degree 2
        fit = plb_constant(dd, gamma=1.5)
        assert all(b.mass == 5 for b in fit.buckets)

    def test_planted_power_law_recovered(self):
        n, gamma, planted = 20000, 2.5, 0.7
        d = np.arange(1, 101, dtype=np.float64)
        counts = np.floor(planted * n / d ** gamma).astype(np.int64)
        counts = np.concatenate([[0], counts])
        dd = DegreeDistribution(counts=counts, n=int(counts.sum()),
                                m=int((np.arange(len(counts)) * counts).sum()) // 2)
        fit = plb_constant(dd, gamma)
        # mass over a bucket ~ planted * n_dd / n * bucket sum; recovery
        # is loose because floors bite at the tail
        assert 0.5 * planted <= fit.c_plb <= 1.5 * planted

    def test_isolated_vertices_reported_not_bucketed(self):
        dd = dd_from_counts([7, 3, 2])
        fit = plb_constant(dd, gamma=2.0)
        assert fit.isolated == 7
        assert sum(b.mass for b in fit.buckets[:1]) == 5

    def test_invalid_arguments(self):
        dd = dd_from_counts([0, 4])
        with pytest.raises(ValueError):
            plb_constant(dd, gamma=1.0)
        with pytest.raises(ValueError):
            plb_constant(dd, gamma=2.0, shift=-0.5)
        with pytest.raises(ValueError):
            plb_constant(dd_from_counts([5]), gamma=2.0)

    @pytest.mark.parametrize("gamma, shift", [
        (math.inf, 0.0), (math.nan, 0.0), (2.0, math.inf), (2.0, math.nan)])
    def test_non_finite_parameters_rejected(self, gamma, shift):
        with pytest.raises(ValueError, match="^gamma and shift must be finite$"):
            plb_constant(dd_from_counts([0, 4, 2]), gamma=gamma, shift=shift)
        if math.isfinite(gamma):  # the fit's grid holds only finite gammas
            with pytest.raises(ValueError, match="finite"):
                fit_gamma(dd_from_counts([0, 4, 2]), shift=shift)

    @pytest.mark.parametrize("gamma, shift, bucket", [
        (1e308, 0.0, "[2, 4]"),       # 2^-gamma is 0
        (1023.0, 0.0, "[2, 4]"),      # 2^-1023 is subnormal
        (2.0, 1e308, "[1, 2]"),       # (1 + shift)^-2 is 0
    ])
    def test_underflowing_budget_rejected(self, gamma, shift, bucket):
        dd = dd_from_counts([0, 4, 2, 1])
        with pytest.raises(ValueError, match=re.escape(f"bucket {bucket} underflows")):
            plb_constant(dd, gamma=gamma, shift=shift)
        with pytest.raises(ValueError, match="underflows"):
            is_plb(dd, gamma=gamma, c=1.0, shift=shift)

    def test_smallest_normal_budget_accepted(self):
        # 2^-1022 is the smallest normal float: the last gamma whose
        # [2, 4] budget keeps full precision
        fit = plb_constant(dd_from_counts([0, 4, 1]), gamma=1022.0)
        assert all(math.isfinite(b.ratio) for b in fit.buckets)

    def test_overflowing_bound_rejected(self):
        # a 6-vertex path at gamma 1022: every budget is a normal float,
        # but c = 4 / (6 * 2^-1022) makes bucket [1, 2]'s bound
        # c * n * bound_sum overflow to infinity
        dd = dd_from_counts([0, 2, 4])
        message = "power-law bound of degree bucket [1, 2] overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            plb_constant(dd, gamma=1022.0)
        fit = plb_constant(dd, gamma=1021.0)
        assert all(math.isfinite(fit.c_plb * dd.n * b.bound_sum)
                   for b in fit.buckets)


class TestIsPlb:
    def test_star_fails_modest_constant(self):
        g = star_graph(1023)
        check = is_plb(g.degree_distribution(), gamma=3.0, c=1.0)
        assert not check.ok
        assert max(check.slacks) > 1.0

    def test_round_trip_exact(self):
        rng = np.random.default_rng(157)
        for _ in range(100):
            dd = random_distribution(rng)
            gamma = float(rng.uniform(1.1, 4.5))
            shift = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            fit = plb_constant(dd, gamma, shift)
            assert is_plb(dd, gamma, fit.c_plb, shift).ok
            assert not is_plb(dd, gamma, fit.c_plb * 0.999, shift).ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(1.05, 4.0),
           st.floats(0.0, 3.0))
    def test_shift_monotonicity(self, seed, gamma, extra_shift):
        # larger shifts shrink every bucket budget, so the minimal
        # constant can only grow
        rng = np.random.default_rng(seed)
        dd = random_distribution(rng)
        base = plb_constant(dd, gamma, shift=0.0).c_plb
        shifted = plb_constant(dd, gamma, shift=extra_shift).c_plb
        assert shifted >= base - 1e-12


class TestWeightedSumBound:
    def test_moment_sums_bounded_by_bucket_argument(self):
        # sum(d^a n(d), d <= k) stays within 2^gamma * c of the
        # matching power sum, for the first two moments
        rng = np.random.default_rng(163)
        for _ in range(25):
            gamma = float(rng.uniform(2.1, 3.5))
            g = plb_graph(int(rng.integers(500, 3000)), gamma,
                          seed=int(rng.integers(1 << 30)))
            dd = g.degree_distribution()
            fit = plb_constant(dd, gamma)
            big_k = 2 ** int(math.log2(dd.d_max) + 1)
            for a in (1, 2):
                for k in (2, 4, big_k):
                    d = np.arange(1, min(k, dd.d_max) + 1, dtype=np.float64)
                    lhs = float((d ** a * dd.counts[1:len(d) + 1]).sum())
                    dref = np.arange(1, k + 1, dtype=np.float64)
                    rhs = dd.n * float((dref ** (a - gamma)).sum())
                    assert lhs <= 2 ** gamma * fit.c_plb * rhs + 1e-9


class TestFitGamma:
    def test_marked_heuristic(self):
        g = plb_graph(2000, 2.5, seed=11)
        chosen = fit_gamma(g.degree_distribution())
        assert 1.0 < chosen.fit.gamma <= 5.0
        assert chosen.fit.c_plb > 0


class TestDiagnostics:
    def test_tree_degeneracy_ratio_small(self):
        g = random_tree(400, seed=3)
        fit = plb_constant(g.degree_distribution(), gamma=2.0)
        diag = plb_diagnostics(g, fit)
        assert diag.degeneracy == 1
        assert diag.degeneracy_ratio <= 1.0

    def test_invalid_fit_rejected(self):
        g = plb_graph(1000, 2.5, seed=5)
        fit = plb_constant(g.degree_distribution(), gamma=2.5)
        fit.c_plb /= 100.0
        with pytest.raises(ValueError):
            plb_diagnostics(g, fit)

    def test_tail_points_match_distribution(self):
        g = plb_graph(2000, 2.5, seed=7)
        dd = g.degree_distribution()
        fit = plb_constant(dd, 2.5)
        diag = plb_diagnostics(g, fit)
        degs = g.degrees
        for point in diag.tail:
            assert point.tail_mass == int((degs >= point.k).sum())
            assert point.ratio == pytest.approx(
                point.tail_mass / (g.n * point.k ** (1 - 2.5)))

    def test_d_max_ratio_takes_its_limit_near_gamma_one(self):
        # n^(1/(gamma-1)) = 200^1000 is beyond float range, so the ratio
        # is its limit 0; every other field keeps its formula
        g = random_tree(200, seed=3)
        gamma = 1.001
        with pytest.raises(OverflowError):
            200 ** (1.0 / (gamma - 1.0))
        diag = plb_diagnostics(g, plb_constant(g.degree_distribution(), gamma))
        assert diag.d_max_ratio == 0.0
        assert diag.degeneracy_ratio == diag.degeneracy / 200 ** (1.0 / gamma)
        assert diag.oriented_ops_ratio == \
            diag.sum_outdeg_sq / 200 ** (3.0 / gamma)
        assert [p.reference for p in diag.tail] == \
            [200 * p.k ** (1.0 - gamma) for p in diag.tail]

    def test_oriented_ops_recorded(self):
        g = plb_graph(4096, 2.5, seed=42)
        fit = plb_constant(g.degree_distribution(), 2.5)
        diag = plb_diagnostics(g, fit)
        assert diag.sum_outdeg_sq > 0
        assert diag.oriented_ops_ratio == pytest.approx(
            diag.sum_outdeg_sq / 4096 ** 1.2)


class TestGenerators:
    def test_degree_sequence_mass(self):
        seq = power_law_degree_sequence(5000, 2.5)
        assert len(seq) == 5000
        assert seq.sum() % 2 == 0
        assert seq.min() >= 1

    def test_degree_sequence_needs_a_degree(self):
        for d_max in (0, -3):
            with pytest.raises(ValueError, match="^d_max must be at least 1$"):
                power_law_degree_sequence(10, 2.5, d_max=d_max)
        assert power_law_degree_sequence(10, 2.5, d_max=1).tolist() == [1] * 10

    def test_plb_graph_simple_and_reproducible(self):
        a = plb_graph(800, 2.2, seed=9)
        b = plb_graph(800, 2.2, seed=9)
        a.validate()
        assert a.edge_array().tolist() == b.edge_array().tolist()
