import itertools
import math

import numpy as np
import pytest

from netclass.cliques import (CliqueSet, _bron_kerbosch, degeneracy_ordering,
                              degree_orientation,
                              enumerate_all_cliques,
                              enumerate_maximal_cliques,
                              enumerate_maximal_cliques_backtracking,
                              maximum_clique)
from netclass.closure import weak_closure_number
from netclass.errors import BudgetExceededError
from netclass.generators import (complete_graph, complete_multipartite,
                                 cycle_graph, moon_moser, path_graph,
                                 petersen_graph, random_tree, star_graph)
from netclass.graph import Graph

from conftest import (adjacency_sets, brute_all_cliques,
                      brute_maximal_cliques, random_graph_stream,
                      recursion_headroom)


def as_sets(clique_set):
    return {frozenset(c) for c in clique_set}


class TestBacktrackingEnumerator:
    def test_triangle(self):
        cs = enumerate_maximal_cliques_backtracking(complete_graph(3))
        assert cs.cliques == [(0, 1, 2)]

    def test_square_has_four_edge_cliques(self):
        cs = enumerate_maximal_cliques_backtracking(cycle_graph(4))
        assert len(cs) == 4
        assert all(len(c) == 2 for c in cs)

    def test_moon_moser_12(self):
        cs = enumerate_maximal_cliques_backtracking(moon_moser(12))
        assert len(cs) == 3 ** 4
        assert all(len(c) == 4 for c in cs)

    def test_isolated_vertices_are_singleton_cliques(self):
        g = Graph.from_edges([(0, 1)], n=3)
        cs = enumerate_maximal_cliques_backtracking(g)
        assert cs.cliques == [(0, 1), (2,)]


class TestGeneralEnumerator:
    def test_k5(self):
        cs = enumerate_maximal_cliques(complete_graph(5))
        assert cs.cliques == [(0, 1, 2, 3, 4)]

    def test_moon_moser_9(self):
        assert len(enumerate_maximal_cliques(moon_moser(9))) == 27

    def test_petersen_all_edges(self):
        g = petersen_graph()
        cs = enumerate_maximal_cliques(g)
        assert len(cs) == 15
        assert as_sets(cs) == {frozenset(e) for e in map(tuple, g.edge_array().tolist())}

    def test_budget_exceeded_names_budget(self):
        with pytest.raises(BudgetExceededError, match="17"):
            enumerate_maximal_cliques(moon_moser(12), budget=17)
        with pytest.raises(BudgetExceededError, match="11"):
            enumerate_maximal_cliques_backtracking(moon_moser(12), budget=11)


def hub_graph() -> Graph:
    """Vertex 30 joined to 72 others: a sparse random graph on 1..60
    (ids 30 and up shifted by one) and Moon-Moser(12) on 61..72, which
    sits at bits 60..71 of the hub's neighborhood bitset."""
    rng = np.random.default_rng(17)
    iu = np.triu_indices(60, k=1)
    mask = rng.random(len(iu[0])) < 0.1
    sparse = np.column_stack([iu[0][mask], iu[1][mask]]) + 1
    mm = moon_moser(12).edge_array() + 61
    edges = np.vstack([sparse, mm])
    edges = np.vstack([edges, np.column_stack([np.zeros(72, dtype=np.int64),
                                               np.arange(1, 73)])])
    # move the hub to id 30 so it is neither the first nor the last id
    perm = np.arange(73)
    perm[[0, 30]] = perm[[30, 0]]
    return Graph.from_edges(perm[edges], n=73)


def moon_moser_join() -> Graph:
    """Moon-Moser(9) joined to a 57-clique: 66 vertices, the 57 universal
    ones of degree 65, and 27 maximal cliques (all 57 universal vertices
    plus one vertex from each of the three triples)."""
    return complete_multipartite([1] * 57 + [3, 3, 3])


def reference_emission_order(g: Graph) -> list[tuple[int, ...]]:
    """Maximal cliques in the order the pivoting Bron-Kerbosch emits
    them, on plain adjacency sets: outer vertices in degeneracy order,
    the pivot covering the most candidates (smallest id on ties) and
    candidates in ascending id."""
    adj = adjacency_sets(g)
    order = degeneracy_ordering(g).order.tolist()
    rank = {v: i for i, v in enumerate(order)}
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for w in sorted(p - adj[pivot]):
            expand(r + [w], p & adj[w], x & adj[w])
            p = p - {w}
            x = x | {w}

    for v in order:
        later = {w for w in adj[v] if rank[w] > rank[v]}
        expand([v], later, adj[v] - later)
    return out


class TestWideNeighborhoods:
    """Neighborhood bitsets wider than one 64-bit word."""

    def test_hub_matches_oracles(self):
        g = hub_graph()
        assert int(g.degrees.max()) == g.degree(30) == 72
        expected = brute_maximal_cliques(g)
        cs = enumerate_maximal_cliques(g)
        assert as_sets(cs) == expected
        assert cs.cliques == enumerate_maximal_cliques_backtracking(g).cliques
        hub_mm = [c for c in cs if c[0] == 30 and c[1] >= 61]
        assert len(hub_mm) == 3 ** 4

    def test_moon_moser_join_analytic(self):
        g = moon_moser_join()
        assert g.n == 66 and int(g.degrees.max()) == 65
        expected = sorted(tuple(range(57)) + (a, b, c)
                          for a in range(57, 60) for b in range(60, 63)
                          for c in range(63, 66))
        assert enumerate_maximal_cliques(g).cliques == expected

    def test_budget_trips_at_budget_plus_one(self):
        for g, total in [(hub_graph(), len(brute_maximal_cliques(hub_graph()))),
                         (moon_moser_join(), 27)]:
            assert len(enumerate_maximal_cliques(g, budget=total)) == total
            message = f"^maximal cliques budget of {total - 1} exceeded$"
            with pytest.raises(BudgetExceededError, match=message):
                enumerate_maximal_cliques(g, budget=total - 1)

    def test_emission_order_matches_set_reference(self):
        for g in [hub_graph(), moon_moser_join(), moon_moser(12),
                  *random_graph_stream(20, 30, seed=127)]:
            seen = []
            _bron_kerbosch(g, seen.append)
            assert seen == reference_emission_order(g)


class TestNegativeBudget:
    @pytest.mark.parametrize("enumerate_fn", [
        enumerate_maximal_cliques, enumerate_maximal_cliques_backtracking,
        enumerate_all_cliques, maximum_clique])
    @pytest.mark.parametrize("g", [Graph.from_edges([], n=0),
                                   complete_graph(4)])
    def test_rejected_before_any_work(self, enumerate_fn, g):
        with pytest.raises(ValueError, match="^budget must be non-negative$"):
            enumerate_fn(g, budget=-5)

    def test_zero_budget_still_allowed(self):
        assert len(enumerate_maximal_cliques(Graph.from_edges([], n=0),
                                             budget=0)) == 0
        with pytest.raises(BudgetExceededError, match="budget of 0"):
            enumerate_maximal_cliques(complete_graph(1), budget=0)


class TestDeepRecursion:
    # each enumerator recurses about once per clique vertex, and the
    # maximal cliques here have 130; a lowered limit stands in for a
    # clique of about a thousand vertices
    @pytest.mark.parametrize("enumerate_fn", [
        enumerate_maximal_cliques, enumerate_maximal_cliques_backtracking,
        enumerate_all_cliques, maximum_clique])
    def test_recursion_error_becomes_value_error(self, enumerate_fn):
        g = complete_multipartite([2] * 130)
        with recursion_headroom(60):
            with pytest.raises(ValueError, match="recursion limit of [0-9]+$"):
                enumerate_fn(g)


class TestEnumeratorAgreement:
    def test_enumerators_agree_on_random_graphs(self):
        # the backtracking procedure is exponential in the closure
        # parameter, so the n<=40 instances stay sparse (small c) and
        # dense instances stay small
        rng = np.random.default_rng(71)
        graphs = []
        for _ in range(25):
            n = int(rng.integers(2, 41))
            p = float(rng.choice([0.03, 0.06, 0.1]))
            iu = np.triu_indices(n, k=1)
            mask = rng.random(len(iu[0])) < p
            graphs.append(Graph.from_edges(
                np.column_stack([iu[0][mask], iu[1][mask]]), n=n))
        graphs.extend(random_graph_stream(25, 13, seed=72))
        for g in graphs:
            a = enumerate_maximal_cliques_backtracking(g)
            b = enumerate_maximal_cliques(g)
            assert a.cliques == b.cliques

    def test_enumerators_match_subset_oracle(self):
        for g in random_graph_stream(30, 13, seed=73):
            expected = brute_maximal_cliques(g)
            assert as_sets(enumerate_maximal_cliques(g)) == expected
            assert as_sets(enumerate_maximal_cliques_backtracking(g)) == expected

    def test_output_cliques_are_complete_and_maximal(self):
        for g in random_graph_stream(25, 30, seed=79):
            adj = adjacency_sets(g)
            cs = enumerate_maximal_cliques(g)
            seen = set()
            for clique in cs:
                members = set(clique)
                assert frozenset(members) not in seen
                seen.add(frozenset(members))
                for a, b in itertools.combinations(clique, 2):
                    assert b in adj[a]
                for v in set(range(g.n)) - members:
                    assert not members <= adj[v]


class TestMaximumClique:
    def test_examples(self):
        assert len(maximum_clique(moon_moser(12))) == 4
        assert maximum_clique(complete_graph(5)) == (0, 1, 2, 3, 4)
        assert len(maximum_clique(petersen_graph())) == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            maximum_clique(Graph.from_edges([], n=0))

    def test_empty_clique_set_has_no_largest(self):
        message = "maximum clique of the empty graph is undefined"
        with pytest.raises(ValueError, match=f"^{message}$"):
            CliqueSet(cliques=[]).largest()
        with pytest.raises(ValueError, match=f"^{message}$"):
            maximum_clique(Graph.from_edges([], n=0))

    def test_matches_oracle_max(self):
        for g in random_graph_stream(20, 14, seed=83):
            oracle = max((len(c) for c in brute_maximal_cliques(g)), default=0)
            assert len(maximum_clique(g)) == oracle


class TestDegeneracy:
    def test_trees_have_degeneracy_1(self):
        for seed in range(5):
            g = random_tree(30, seed=seed)
            assert degeneracy_ordering(g).degeneracy == 1

    def test_complete_graph(self):
        assert degeneracy_ordering(complete_graph(7)).degeneracy == 6

    def test_square(self):
        assert degeneracy_ordering(cycle_graph(4)).degeneracy == 2

    def test_sqrt_2m_bound(self):
        for g in random_graph_stream(40, 40, seed=89):
            alpha = degeneracy_ordering(g).degeneracy
            assert alpha <= math.sqrt(2 * g.m) or g.m == 0

    def test_out_degrees_bounded_by_degeneracy(self):
        for g in random_graph_stream(20, 35, seed=97):
            og = degeneracy_ordering(g)
            assert int(og.out_degrees.max(initial=0)) <= og.degeneracy
            assert int(og.out_degrees.sum()) == g.m

    def test_min_degree_greedy_witness(self):
        # degree at removal really is the min over the surviving subgraph
        for g in random_graph_stream(10, 20, seed=101):
            og = degeneracy_ordering(g)
            adj = adjacency_sets(g)
            surviving = set(range(g.n))
            for v, d in zip(og.order.tolist(), og.removal_degrees.tolist()):
                degrees = {u: len(adj[u] & surviving) for u in surviving}
                assert degrees[v] == min(degrees.values())
                assert d == degrees[v]
                surviving.remove(v)


class TestDegreeOrientation:
    def test_star(self):
        og = degree_orientation(star_graph(4))
        assert og.out_degrees.tolist() == [0, 1, 1, 1, 1]

    def test_k4_tie_break_by_index(self):
        og = degree_orientation(complete_graph(4))
        assert og.out_degrees.tolist() == [3, 2, 1, 0]

    def test_regular_graph_orients_by_index(self):
        g = cycle_graph(6)
        og = degree_orientation(g)
        for u, v in map(tuple, g.edge_array().tolist()):
            assert v in og.out_neighbors(u).tolist()
        assert int(og.out_degrees.sum()) == g.m

    def test_every_edge_oriented_low_degree_to_high(self):
        for g in random_graph_stream(20, 30, seed=103):
            og = degree_orientation(g)
            degs = g.degrees
            for u in range(g.n):
                for v in og.out_neighbors(u).tolist():
                    assert (degs[u], u) < (degs[v], v)


class TestOrientationOracle:
    """Out-neighbor rows against a set-based orientation by the same ranks."""

    @pytest.mark.parametrize("orient", [degeneracy_ordering,
                                        degree_orientation])
    def test_rows_match_brute_force(self, orient):
        for g in random_graph_stream(30, 30, seed=113):
            og = orient(g)
            rank = og.rank.tolist()
            assert [rank[v] for v in og.order.tolist()] == list(range(g.n))
            adj = adjacency_sets(g)
            expected = [sorted(w for w in adj[v] if rank[w] > rank[v])
                        for v in range(g.n)]
            assert og.out_indptr.tolist() == [0] + list(
                itertools.accumulate(len(row) for row in expected))
            assert og.out_indices.tolist() == [w for row in expected
                                               for w in row]
            assert og.out_indptr.dtype == og.out_indices.dtype == np.int64


class TestEnumerateAllCliques:
    def test_triangle(self):
        assert enumerate_all_cliques(complete_graph(3)) == 7

    def test_path_3(self):
        assert enumerate_all_cliques(path_graph(3)) == 5

    def test_octahedron(self):
        # 6 vertices + 12 edges + 8 triangles, via subset enumeration
        octa = complete_multipartite([2, 2, 2])
        assert len(brute_all_cliques(octa)) == 26
        assert enumerate_all_cliques(octa) == 26

    def test_matches_subset_oracle(self):
        for g in random_graph_stream(25, 14, seed=107):
            assert enumerate_all_cliques(g) == len(brute_all_cliques(g))

    def test_sink_receives_each_clique_once(self):
        got = []
        enumerate_all_cliques(complete_graph(3), sink=got.append)
        assert sorted(got) == [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_all_cliques(complete_graph(10), budget=100)


class TestCountBounds:
    def test_moon_moser_extremal_3_pow_n_over_3(self):
        for n in (6, 9, 12):
            assert len(enumerate_maximal_cliques(moon_moser(n))) == 3 ** (n // 3)

    def test_weakly_closed_clique_bound_spot_check(self):
        for g in random_graph_stream(30, 15, seed=109):
            count = len(enumerate_maximal_cliques(g))
            assert count <= 3 ** (g.n / 3)
            weak = weak_closure_number(g).weak_closure
            assert count <= 3 ** ((weak - 1) / 3) * g.n ** 2
