import numpy as np
import pytest

from netclass import closure as closure_module
from netclass.closure import c_closure_number, is_c_good, weak_closure_number
from netclass.generators import (complete_graph, cycle_graph, disjoint_union,
                                 moon_moser, path_graph, star_graph)
from netclass.graph import Graph

from conftest import (adjacency_sets, brute_c_closure, brute_common_neighbors,
                      brute_weak_closure, brute_weak_closure_order, csr_star,
                      random_graph_stream)


class TestCClosure:
    def test_union_of_cliques_is_1_closed(self):
        g = disjoint_union(complete_graph(4), complete_graph(6))
        assert c_closure_number(g) == 1

    def test_square(self):
        assert c_closure_number(cycle_graph(4)) == 3

    def test_moon_moser_12(self):
        # within a group, the other two vertices are non-adjacent and
        # share everything outside the group: 9 common neighbors
        assert c_closure_number(moon_moser(12)) == 10

    def test_matches_brute_force(self):
        for g in random_graph_stream(60, 25, seed=17):
            assert c_closure_number(g) == brute_c_closure(g)

    def test_exactly_c_closed_not_less(self):
        # c-closed at the reported c, violated at c - 1
        for g in random_graph_stream(40, 50, seed=23):
            c = c_closure_number(g)
            adj = adjacency_sets(g)

            def closed_at(k):
                return all(len(adj[u] & adj[v]) < k or v in adj[u]
                           for u in range(g.n) for v in range(u + 1, g.n))

            assert closed_at(c)
            if c > 1:
                assert not closed_at(c - 1)


class TestIsCGood:
    def test_short_path_endpoint_is_1_good(self):
        # on longer paths an endpoint shares its sole neighbor with the
        # vertex two steps away, so 1-goodness only survives up to P2;
        # endpoints are always 2-good since their neighborhood has size 1
        assert is_c_good(path_graph(2), 0, 1)
        assert not is_c_good(path_graph(5), 0, 1)
        assert is_c_good(path_graph(5), 0, 2)

    def test_clique_vertices_are_1_good(self):
        g = complete_graph(5)
        assert all(is_c_good(g, v, 1) for v in range(5))

    def test_square_corner_not_2_good(self):
        assert not is_c_good(cycle_graph(4), 0, 2)
        assert is_c_good(cycle_graph(4), 0, 3)

    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    def test_matches_common_neighbor_oracle(self, c):
        for g in random_graph_stream(25, 18, seed=40 + c):
            adj = adjacency_sets(g)
            for v in range(g.n):
                want = all(brute_common_neighbors(g, u, v) <= c - 1
                           for u in range(g.n)
                           if u != v and u not in adj[v])
                assert is_c_good(g, v, c) == want

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            is_c_good(path_graph(3), 9, 1)
        with pytest.raises(ValueError):
            is_c_good(path_graph(3), 0, 0)


class TestWeakClosure:
    def test_short_paths_weakly_1_closed(self):
        assert weak_closure_number(path_graph(2)).weak_closure == 1
        assert weak_closure_number(path_graph(3)).weak_closure == 1

    def test_longer_paths_weakly_2_closed(self):
        # every vertex of P4+ has a distance-2 partner with one shared
        # neighbor, matching the exhaustive oracle below
        assert weak_closure_number(path_graph(4)).weak_closure == 2
        assert weak_closure_number(path_graph(6)).weak_closure == 2
        assert brute_weak_closure(path_graph(6)) == 2

    def test_moon_moser_12(self):
        # frozen via the exhaustive subgraph oracle (4096 subsets)
        profile = weak_closure_number(moon_moser(12))
        assert profile.weak_closure == 10

    def test_single_vertex_and_empty(self):
        assert weak_closure_number(Graph.from_edges([], n=1)).weak_closure == 1
        empty = weak_closure_number(Graph.from_edges([], n=0))
        assert empty.weak_closure == 1
        assert empty.elimination_order == ()

    def test_matches_exhaustive_search(self):
        for g in random_graph_stream(40, 9, seed=31):
            assert weak_closure_number(g).weak_closure == brute_weak_closure(g)
        # a few larger instances right at the oracle's practical limit
        for g in random_graph_stream(4, 12, seed=37, min_n=11):
            assert weak_closure_number(g).weak_closure == brute_weak_closure(g)

    def test_moon_moser_12_exhaustive(self):
        assert brute_weak_closure(moon_moser(12)) == 10


    def test_order_matches_set_greedy(self):
        for g in random_graph_stream(40, 30, seed=67):
            p = weak_closure_number(g)
            assert (list(p.elimination_order),
                    list(p.per_vertex_requirement)) == \
                brute_weak_closure_order(g)


class TestPairStateLimits:
    def test_csr_star_is_the_star(self):
        small, built = csr_star(5), star_graph(5)
        assert np.array_equal(small.indptr, built.indptr)
        assert np.array_equal(small.indices, built.indices)

    def test_memory_guard_refuses_before_walking(self, monkeypatch):
        # K_{1,10^6} has 5 * 10^11 open leaf pairs sharing the center
        def no_walk(g):
            raise AssertionError("a block was walked")
        monkeypatch.setattr(closure_module, "_pair_blocks", no_walk)
        with pytest.raises(ValueError, match="^pair state for up to "
                                             "499999500000 vertex pairs"):
            weak_closure_number(csr_star(10 ** 6))

    def test_open_pairs_past_slot_range(self, monkeypatch):
        # the square has two open pairs; a range of one stands in for
        # the 2^31 - 1 pairs an int32 slot can index
        monkeypatch.setattr(closure_module, "MAX_OPEN_PAIRS", 1)
        with pytest.raises(ValueError, match="past the int32 slot range$"):
            weak_closure_number(cycle_graph(4))
        monkeypatch.setattr(closure_module, "MAX_OPEN_PAIRS", 2)
        assert weak_closure_number(cycle_graph(4)).weak_closure == 3


class TestPairSlots:
    @staticmethod
    def _reference(keys, counts, n):
        # per vertex, its u-side pairs, then its w-side pairs, each in
        # pair order; the largest counts scattered with np.maximum.at
        u, w = np.divmod(keys, n)
        rows = [[] for _ in range(n)]
        for ends in (u, w):
            for i, v in enumerate(ends.tolist()):
                rows[v].append(i)
        best = np.zeros(n, dtype=np.int64)
        np.maximum.at(best, u, counts)
        np.maximum.at(best, w, counts)
        return (np.cumsum([0] + [len(r) for r in rows]),
                [i for r in rows for i in r], best)

    def _check(self, keys, counts, n):
        ptr, slots, best = closure_module._pair_slots(keys, counts.copy(), n)
        want_ptr, want_slots, want_best = self._reference(keys, counts, n)
        assert ptr.tolist() == want_ptr.tolist()
        assert slots.dtype == np.int32 and slots.tolist() == want_slots
        assert best.tolist() == want_best.tolist()

    def test_matches_scatter_reference_on_graphs(self):
        for g in [path_graph(3), complete_graph(4), cycle_graph(6),
                  *random_graph_stream(30, 40, seed=71)]:
            keys, counts = closure_module._open_pairs(g)
            self._check(keys, counts, g.n)

    def test_matches_scatter_reference_on_random_pairs(self):
        rng = np.random.default_rng(73)
        sides = set()  # (has a u run, has a w run) per vertex
        for n in (2, 3, 9, 40, 200):
            for size in (1, n // 2, 4 * n):
                u = rng.integers(0, n - 1, size=size)
                keys = np.unique(u * n + rng.integers(u + 1, n))
                counts = rng.integers(1, 50, size=keys.size, dtype=np.int32)
                self._check(keys, counts, n)
                u, w = np.divmod(keys, n)
                sides.update(zip((np.bincount(u, minlength=n) > 0).tolist(),
                                 (np.bincount(w, minlength=n) > 0).tolist()))
        assert sides == {(True, True), (True, False), (False, True),
                         (False, False)}
        self._check(np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int32), 5)


class TestClosureProfileInvariants:
    def test_weak_at_most_c(self):
        for g in random_graph_stream(60, 30, seed=41):
            p = weak_closure_number(g)
            assert p.weak_closure <= p.c_closure

    def test_order_is_permutation_and_max_requirement(self):
        for g in random_graph_stream(30, 25, seed=43):
            p = weak_closure_number(g)
            assert sorted(p.elimination_order) == list(range(g.n))
            assert max(p.per_vertex_requirement) == p.weak_closure
            assert min(p.per_vertex_requirement) >= 1

    def test_prefix_vertices_are_good_in_suffix_subgraph(self):
        for g in random_graph_stream(20, 30, seed=47):
            p = weak_closure_number(g)
            order = list(p.elimination_order)
            for i, v in enumerate(order):
                suffix = order[i:]
                sub = g.induced_subgraph(suffix)
                pos = {orig: j for j, orig in
                       enumerate(sorted(suffix))}
                assert is_c_good(sub, pos[v], p.weak_closure)

    def test_deleting_a_vertex_never_increases_weak_closure(self):
        rng = np.random.default_rng(53)
        for g in random_graph_stream(25, 20, seed=59, min_n=2):
            base = weak_closure_number(g).weak_closure
            v = int(rng.integers(0, g.n))
            rest = [u for u in range(g.n) if u != v]
            smaller = weak_closure_number(g.induced_subgraph(rest))
            assert smaller.weak_closure <= base

    def test_requirement_definition_at_each_step(self):
        # recompute each removal's requirement from first principles
        for g in random_graph_stream(12, 14, seed=61):
            p = weak_closure_number(g)
            adj = adjacency_sets(g)
            surviving = set(range(g.n))
            for v, req in zip(p.elimination_order, p.per_vertex_requirement):
                expected = 1
                for u in surviving:
                    if u != v and u not in adj[v]:
                        expected = max(
                            expected, len(adj[v] & adj[u] & surviving) + 1)
                assert req == expected
                # greedy minimax: no survivor does better than the chosen one
                for w in surviving:
                    other = 1
                    for u in surviving:
                        if u != w and u not in adj[w]:
                            other = max(
                                other, len(adj[w] & adj[u] & surviving) + 1)
                    assert other >= req
                surviving.remove(v)
