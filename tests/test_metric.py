import dataclasses
import math
import warnings

import numpy as np
import pytest

from netclass.cli import main
from netclass.errors import NotConnectedError
from netclass.generators import (complete_graph, cycle_graph, disjoint_union,
                                 path_graph, random_connected_graph,
                                 random_graph, random_tree, star_graph)
from netclass.graph import Graph, largest_component
import netclass.graph as graph_module
import netclass.metric as metric_mod
from netclass.metric import (_spearman, bct_properties_report,
                             eccentricity_decomposition_report,
                             eccentricities, tau, two_sweep)

from conftest import brute_all_pairs_dist, random_graph_stream


class TestEccentricities:
    def test_path(self):
        profile = eccentricities(path_graph(5))
        assert profile.eccentricity.tolist() == [4, 3, 2, 3, 4]
        assert profile.diameter == 4

    def test_cycle(self):
        profile = eccentricities(cycle_graph(6))
        assert profile.eccentricity.tolist() == [3] * 6

    def test_star(self):
        profile = eccentricities(star_graph(5))
        assert profile.eccentricity.tolist() == [1, 2, 2, 2, 2, 2]

    def test_empty_graph_rejected_as_empty(self):
        # before any BFS, and before two_sweep checks its seed
        for run in (eccentricities, lambda g: two_sweep(g, seed=5),
                    bct_properties_report):
            with pytest.raises(ValueError, match="no vertices") as exc:
                run(Graph.from_edges([], n=0))
            assert not isinstance(exc.value, NotConnectedError)

    def test_disconnected_rejected_with_component_count(self):
        g = disjoint_union(path_graph(3), path_graph(4), path_graph(2))
        with pytest.raises(NotConnectedError, match="3 components"):
            eccentricities(g)

    def test_matches_direct_definition(self):
        for g in random_graph_stream(10, 40, seed=167):
            g = largest_component(g)
            if g.n < 2:
                continue
            oracle = brute_all_pairs_dist(g).max(axis=1)
            assert eccentricities(g).eccentricity.tolist() == oracle.tolist()


class TestTwoSweep:
    def test_cycle(self):
        assert two_sweep(cycle_graph(6)).lower_bound == 3

    def test_path_from_middle_seed(self):
        assert two_sweep(path_graph(5), seed=2).lower_bound == 4

    def test_trees_exact(self):
        for seed in range(25):
            g = random_tree(2 + seed * 7, seed=seed)
            diameter = int(brute_all_pairs_dist(g).max())
            for s in (0, g.n // 2, g.n - 1):
                assert two_sweep(g, seed=s).lower_bound == diameter

    def test_never_exceeds_diameter(self):
        for g in random_graph_stream(25, 60, seed=173):
            g = largest_component(g)
            if g.n < 2:
                continue
            diameter = int(brute_all_pairs_dist(g).max())
            assert two_sweep(g).lower_bound <= diameter

    def test_tie_break_smallest_index(self):
        res = two_sweep(cycle_graph(4), seed=0)
        assert res.turn == 2  # both 1 and 3 sit at distance 1; 2 is farther
        assert res.lower_bound == 2

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            two_sweep(disjoint_union(path_graph(2), path_graph(2)))


class TestTau:
    def test_star_center(self):
        g = star_graph(7)
        for k in range(1, 8):
            assert tau(g, 0, k) == 1

    def test_path_endpoint(self):
        g = path_graph(5)
        assert tau(g, 0, 1) == 1
        assert tau(g, 0, 2) == math.inf

    def test_complete_graph(self):
        g = complete_graph(6)
        for s in range(6):
            assert tau(g, s, 5) == 1

    def test_non_decreasing_in_k(self):
        for g in random_graph_stream(10, 30, seed=179):
            g = largest_component(g)
            if g.n < 2:
                continue
            for s in range(min(g.n, 5)):
                values = [tau(g, s, k) for k in range(1, g.n + 1)]
                assert values == sorted(values)
                assert values[0] == 1  # some vertex sits at distance 1

    def test_one_rule_for_tau_and_the_sweep(self):
        # an edge and a 4-vertex star: from the edge, no level holds 2
        two_parts = Graph.from_edges([(0, 1), (2, 3), (2, 4), (2, 5)])
        assert tau(two_parts, 0, 2) == math.inf
        for g in [path_graph(6), star_graph(5), Graph.from_edges([], n=1),
                  two_parts, *random_graph_stream(5, 25, seed=181)]:
            # tau from every source, also in a small component, against
            # level sizes counted from plain BFS distances
            dist = brute_all_pairs_dist(g)
            for k in (1, 2, 3, 4):
                for s in range(g.n):
                    sizes = np.bincount(dist[s][dist[s] >= 0])
                    hits = np.flatnonzero(sizes[1:] >= k)
                    want = int(hits[0]) + 1 if hits.size else math.inf
                    t = tau(g, s, k)
                    assert type(t) is int or t == math.inf
                    assert t == want
            # the sweep refuses a disconnected graph in its first block
            if largest_component(g) is not g:
                with pytest.raises(NotConnectedError):
                    metric_mod._sweep(g, 1)
                g = largest_component(g)
            for k in (1, 2, 3):
                taus = metric_mod._sweep(g, k)[0]
                for s in range(g.n):
                    t = tau(g, s, k)
                    assert type(t) is int or t == math.inf
                    assert t == taus[s]

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            tau(path_graph(3), 0, 0)
        with pytest.raises(ValueError):
            tau(path_graph(3), 9, 1)


class TestBctReport:
    def test_complete_graph_property1_everywhere(self):
        rep = bct_properties_report(complete_graph(12), sample_pairs=500,
                                    rng_seed=1)
        assert rep.property1_fraction == 1.0
        assert rep.level_average == 1.0
        assert rep.k_star == 4

    def test_star_property1_everywhere(self):
        rep = bct_properties_report(star_graph(15), sample_pairs=500,
                                    rng_seed=2)
        assert rep.property1_fraction == 1.0

    def test_er_giant_component_baseline(self):
        # regression baseline on a fixed seed, not an asserted theorem
        g = largest_component(random_graph(2000, 5 / 2000, seed=0))
        rep = bct_properties_report(g, sample_pairs=10_000, rng_seed=0)
        assert rep.property1_fraction >= 0.95
        assert rep.fit.c is not None and rep.fit.c > 1.0

    def test_sampled_fraction_close_to_exact(self):
        g = largest_component(random_graph(250, 0.02, seed=3))
        rep = bct_properties_report(g, sample_pairs=10_000, rng_seed=4)
        # exact evaluation over every ordered pair
        taus = rep.taus
        ok = total = 0
        for s in range(g.n):
            from netclass.graph import bfs_levels
            dist = bfs_levels(g, s).dist
            for t in range(g.n):
                if s == t or not (math.isfinite(taus[s]) and math.isfinite(taus[t])):
                    continue
                total += 1
                ok += int(dist[t] <= taus[s] + taus[t])
        exact = ok / total
        assert rep.property1_fraction == pytest.approx(exact, abs=0.05)

    def test_seed_reproducibility(self):
        g = largest_component(random_graph(300, 0.02, seed=5))
        a = bct_properties_report(g, sample_pairs=2000, rng_seed=7)
        b = bct_properties_report(g, sample_pairs=2000, rng_seed=7)
        assert a.property1_fraction == b.property1_fraction
        assert a.property2_fraction == b.property2_fraction

    def test_tail_fractions_non_increasing(self):
        g = largest_component(random_graph(500, 0.015, seed=11))
        rep = bct_properties_report(g, sample_pairs=0)
        fracs = [f for _, f in rep.tail]
        assert fracs == sorted(fracs, reverse=True)
        assert fracs[0] > 0

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError, match="sample_pairs must be non-negative"):
            bct_properties_report(complete_graph(5), sample_pairs=-5)


def numpy_pairs(n: int, count: int, seed: int):
    """The draws ``_sample_pairs`` reproduces, from NumPy's own generator."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=count), rng.integers(0, n - 1, size=count)


class TestSamplePairs:
    # n = 2 leaves the second draw a range of one; 3 * 2**30 rejects a
    # quarter of its 32-bit draws; 2**32 is the largest n supported
    SIZES = [2, 3, 900, 3 * 2**30, 2**32]

    @pytest.mark.parametrize("seed", [*range(41), 2**32 - 1, 2**32,
                                      2**64 + 3, 10**100])
    def test_matches_default_rng(self, seed):
        for n in self.SIZES:
            for count in (0, 1, 3, 1000):
                src, dst = metric_mod._sample_pairs(n, count, seed)
                want_src, want_dst = numpy_pairs(n, count, seed)
                assert src.dtype == dst.dtype == np.int64
                assert np.array_equal(src, want_src)
                assert np.array_equal(dst, want_dst)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [0, 10**100])
    def test_matches_default_rng_past_a_chunk(self, n, seed):
        # one PCG64 word gives two 32-bit draws, so the first draw alone
        # runs at least one word into the second chunk
        count = 2 * metric_mod._CHUNK_WORDS + 2
        src, dst = metric_mod._sample_pairs(n, count, seed)
        want_src, want_dst = numpy_pairs(n, count, seed)
        assert np.array_equal(src, want_src)
        assert np.array_equal(dst, want_dst)

    def test_more_than_2_to_the_32_vertices_refused(self):
        # NumPy draws 64-bit words above this, which is not reproduced
        with pytest.raises(ValueError, match=r"at most 2\*\*32 vertices"):
            metric_mod._sample_pairs(2**32 + 1, 1, 0)


def oracle_bct(g: Graph, sample_pairs: int, rng_seed: int) -> dict:
    """BCT report fields from all-pairs distances and the seeded sampler."""
    n = g.n
    dist = brute_all_pairs_dist(g)
    k = math.ceil(math.sqrt(n))
    taus = []
    for s in range(n):
        sizes = np.bincount(dist[s])
        level = next((lvl for lvl in range(1, sizes.size) if sizes[lvl] >= k),
                     math.inf)
        taus.append(float(level))
    taus = np.array(taus)
    finite = [t for t in taus if math.isfinite(t)]
    rng = np.random.default_rng(rng_seed)
    src = rng.integers(0, n, size=sample_pairs)
    dst = rng.integers(0, n - 1, size=sample_pairs)
    dst[dst >= src] += 1
    ok1 = ok2 = usable = 0
    for s, t in zip(src.tolist(), dst.tolist()):
        bound = taus[s] + taus[t]
        if math.isfinite(bound):
            usable += 1
            ok1 += int(dist[s, t] <= bound)
            ok2 += int(dist[s, t] > bound - 1)
    return {"k_star": k, "taus": taus.tolist(),
            "eccs": dist.max(axis=1).tolist(),
            "level_average": (float(np.mean(finite)) if finite else math.inf),
            "sampled_pairs": sample_pairs,
            "skipped_pairs": sample_pairs - usable,
            "property1_fraction": ok1 / usable if usable else None,
            "property2_fraction": ok2 / usable if usable else None}


class TestOneSweep:
    def test_bct_report_matches_oracle(self):
        checked = 0
        for g in random_graph_stream(30, 40, seed=191):
            g = largest_component(g)
            if g.n < 2:
                continue
            for rng_seed, pairs in ((0, 1), (1, 37), (2, 500)):
                rep = bct_properties_report(g, sample_pairs=pairs,
                                            rng_seed=rng_seed)
                got = {key: getattr(rep, key) for key in (
                    "k_star", "level_average", "sampled_pairs",
                    "skipped_pairs", "property1_fraction",
                    "property2_fraction")}
                got["taus"] = rep.taus.tolist()
                got["eccs"] = rep.eccs.tolist()
                assert got == oracle_bct(g, pairs, rng_seed)
                checked += 1
        assert checked >= 60

    def test_one_bfs_per_source(self, monkeypatch):
        # sources run in bit-parallel blocks: across the calls each
        # source appears exactly once, and no call has more than 64
        calls = []
        real = metric_mod.bfs_levels

        def counted(g, sources, pairs=None):
            calls.append(np.atleast_1d(sources).tolist())
            return real(g, sources, pairs)

        monkeypatch.setattr(metric_mod, "bfs_levels", counted)
        for g in random_graph_stream(10, 200, seed=193):
            g = largest_component(g)
            for run in (lambda: bct_properties_report(g, 5 * g.n + 10),
                        lambda: eccentricities(g)):
                calls.clear()
                run()
                assert sorted(s for call in calls for s in call) == \
                    list(range(g.n))
                assert max(map(len, calls)) <= 64


class TestOneComponentPass:
    """Connectivity is read from the first BFS each entry point runs;
    components are counted only to word the error."""

    @staticmethod
    def _counted(monkeypatch) -> list[int]:
        calls = []
        real = graph_module.connected_components

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(graph_module, "connected_components", counted)
        monkeypatch.setattr(metric_mod, "connected_components", counted)
        return calls

    def test_largest_cc_runs_one_pass(self, monkeypatch, tmp_path, capsys):
        g = disjoint_union(random_connected_graph(60, 0.08, seed=5),
                           path_graph(4))
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n"
                                for u, v in g.edge_array().tolist()))
        calls = self._counted(monkeypatch)
        for argv in (["bct", "--largest-cc"], ["diameter", "--largest-cc"],
                     ["diameter", "--exact", "--largest-cc"]):
            calls.clear()
            assert main([*argv, str(path)]) == 0
            capsys.readouterr()
            assert calls == [64], argv

    def test_connected_graph_needs_no_pass(self, monkeypatch):
        calls = self._counted(monkeypatch)
        for g in [path_graph(1), cycle_graph(7),
                  random_connected_graph(150, 0.03, seed=3)]:
            eccentricities(g)
            two_sweep(g)
            two_sweep(g, seed=g.n - 1)
            bct_properties_report(g, sample_pairs=20)
        assert calls == []

    def test_disconnected_graph_counted_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        g = disjoint_union(path_graph(70), cycle_graph(5), path_graph(1))
        for run in (eccentricities, two_sweep, bct_properties_report):
            calls.clear()
            with pytest.raises(NotConnectedError, match="3 components"):
                run(g)
            assert calls == [g.n]


class TestSpearman:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_scipy(self, ties):
        from scipy import stats
        rng = np.random.default_rng(197)
        for _ in range(40):
            size = int(rng.integers(3, 300))
            if ties:
                x = rng.integers(0, 5, size).astype(np.float64)
                y = rng.integers(0, 8, size).astype(np.float64)
            else:
                x, y = rng.permutation(size) * 0.5, rng.random(size)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            want = stats.spearmanr(x, y).statistic
            assert _spearman(x, y) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_constant_input_is_degenerate(self):
        from scipy import stats
        g = largest_component(random_graph(300, 4 / 300, seed=21))
        rep = bct_properties_report(g, sample_pairs=0)
        assert not eccentricity_decomposition_report(g, rep).degenerate
        # the same report with every tau, or every eccentricity, equal:
        # Spearman is undefined there, as scipy.stats also says
        for flat in (dataclasses.replace(rep, taus=np.full(g.n, 2.0)),
                     dataclasses.replace(rep, eccs=np.full(g.n, 5))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rho = stats.spearmanr(flat.taus, flat.eccs).statistic
            assert math.isnan(rho)
            dec = eccentricity_decomposition_report(g, flat)
            assert dec.degenerate
            assert dec.rank_correlation is None


class TestEccDecomposition:
    def test_complete_graph_zero_spread(self):
        # all tau and ecc equal: the log term vanishes and residuals agree
        dec = eccentricity_decomposition_report(complete_graph(10))
        assert dec.residual_min == dec.residual_max
        assert dec.degenerate
        assert dec.log_c_n == 0.0

    def test_small_cycle_degenerate_but_defined(self):
        dec = eccentricity_decomposition_report(cycle_graph(4))
        assert dec.degenerate
        assert dec.residual_std == 0.0

    def test_random_graph_rank_correlation(self):
        g = largest_component(random_graph(1000, 3 / 1000, seed=21))
        dec = eccentricity_decomposition_report(g)
        assert not dec.degenerate
        # frozen regression baseline: this seed measures 0.71
        assert dec.rank_correlation >= 0.5

    def test_unfittable_tail_rejected(self):
        # a long path's tau levels are all infinite: no tail, no base
        with pytest.raises(ValueError, match="degenerate"):
            eccentricity_decomposition_report(path_graph(30))
