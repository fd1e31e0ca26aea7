import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netclass import graph as graph_module
from netclass.errors import ParseError
from netclass.generators import (complete_graph, cycle_graph, disjoint_union,
                                 path_graph, petersen_graph, star_graph)
from netclass.graph import (Graph, bfs_levels, closure_rate_curve,
                            common_neighbors, connected_components,
                            jaccard_similarity, largest_component,
                            load_edge_list, pair_table, wedge_count)

from conftest import (adjacency_sets, brute_all_pairs_dist,
                      brute_common_neighbors, brute_components,
                      brute_load_edge_list, brute_wedges, random_graph_stream)


class TestLoadEdgeList:
    def test_two_edge_path(self):
        g = load_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_self_loop_and_duplicate_dropped(self):
        g, stats = load_edge_list("0 0\n0 1\n1 0", return_stats=True)
        assert (g.n, g.m) == (2, 1)
        assert stats.self_loops == 1
        assert stats.duplicates == 1
        assert stats.raw_lines == 3

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# header\n\n0 1\n# trailing\n2 3\n")
        assert (g.n, g.m) == (4, 2)

    def test_empty_input_is_valid_empty_graph(self):
        g = load_edge_list("# nothing\n")
        assert (g.n, g.m) == (0, 0)

    def test_malformed_arity_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list("0 1\n1 2 3")

    def test_non_integer_token_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list("zero 1\n")

    def test_id_beyond_int64_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list("0 1\n99999999999999999999999 3\n")
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(f"0 {-2**63 - 1}\n")
        g = load_edge_list(f"{2**63 - 1} {-2**63}\n")
        assert g.labels.tolist() == [-2**63, 2**63 - 1]

    def test_non_utf8_line_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(b"0 1\n\xff 2\n")
        f = tmp_path / "bad.txt"
        f.write_bytes(b"# ok\n0 1\n1 \xfe\n")
        with pytest.raises(ParseError, match="line 3"):
            load_edge_list(str(f))

    def test_original_ids_preserved(self):
        g = load_edge_list("100 7\n7 42\n")
        assert sorted(g.labels.tolist()) == [7, 42, 100]
        u, v = g.index_of(100), g.index_of(7)
        assert g.has_edge(u, v)
        assert g.label_of(g.index_of(42)) == 42

    def test_self_loop_only_vertex_still_counted(self):
        # SNAP node counts include ids that only ever appear in loops
        g = load_edge_list("5 5\n0 1\n")
        assert (g.n, g.m) == (3, 1)

    def test_loading_from_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# c\n1 2\n2 3\n")
        g = load_edge_list(str(f))
        assert (g.n, g.m) == (3, 2)

    def test_loaded_graphs_validate(self):
        for g in random_graph_stream(15, 30, seed=11):
            g.validate()


class TestLoadEdgeListOracle:
    BOUNDS = [-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]

    @classmethod
    def _random_text(cls, rng: random.Random) -> str:
        pool = rng.sample(range(-40, 40), rng.randint(1, 12))
        if rng.random() < 0.4:
            pool += rng.sample(cls.BOUNDS, 2)
        loop_only = rng.randint(100, 120)  # appears in self-loops only
        lines = []
        for _ in range(rng.randint(0, 40)):
            r = rng.random()
            if r < 0.08:
                lines.append(rng.choice(["# comment", "#", "  # indented"]))
            elif r < 0.16:
                lines.append(rng.choice(["", " ", "\t", " \t  "]))
            elif r < 0.22:
                lines.append(f"{loop_only} {loop_only}")
            else:
                u, v = rng.choice(pool), rng.choice(pool)
                sep = rng.choice([" ", "\t", "  "])
                lines.append(f"{u}{sep}{v} ")
                if rng.random() < 0.3:  # duplicate, either orientation
                    lines.append(rng.choice([f"{v} {u}", f" {u}\t{v}"]))
        eol = rng.choice(["\n", "\r\n"])
        text = eol.join(lines)
        return text + eol if lines and rng.random() < 0.5 else text

    def test_matches_set_and_dict_oracle(self, tmp_path):
        rng = random.Random(2014)
        path = tmp_path / "g.txt"
        for _ in range(150):
            text = self._random_text(rng)
            labels, adj, stats = brute_load_edge_list(text)
            path.write_bytes(text.encode())
            sources = [text.encode(), str(path)]
            if "\n" in text:  # a str without a newline is a path
                sources.append(text)
            for source in sources:
                g, got = load_edge_list(source, return_stats=True)
                assert g.labels.tolist() == labels
                assert g.labels.dtype == np.int64
                assert (g.n, g.m) == (len(labels), sum(map(len, adj.values())) // 2)
                assert {g.label_of(v): set(g.labels[g.neighbors(v)].tolist())
                        for v in range(g.n)} == adj
                assert (got.raw_lines, got.self_loops, got.duplicates) == stats
                g.validate()

    def test_bounds_self_loop_only_ids_and_line_endings(self):
        text = (f"# ids at both ends of int64\r\n{2**63 - 1} {-2**63}\r\n"
                f"\r\n{-2**63}\t{2**63 - 1}\r\n 7 7 \r\n  \t\r\n"
                f"{2**63 - 1} 3")  # no final newline
        g, stats = load_edge_list(text.encode(), return_stats=True)
        assert g.labels.tolist() == [-2**63, 3, 7, 2**63 - 1]
        assert g.m == 2 and g.degrees.tolist() == [1, 1, 0, 2]
        assert (stats.raw_lines, stats.self_loops, stats.duplicates) == (4, 1, 1)


class TestValidate:
    @staticmethod
    def _graph(rows: list[list[int]]) -> Graph:
        indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
        indices = np.array([v for r in rows for v in r], dtype=np.int64)
        return Graph(len(rows), indptr, indices)

    @pytest.mark.parametrize("rows, message", [
        ([[1], [2], []], "not symmetric"),      # no reverse edges
        ([[2, 1], [0], [0]], "not strictly sorted"),
        ([[0, 1], [0], []], "self-loop"),
    ], ids=["asymmetric", "unsorted-row", "self-loop"])
    def test_broken_graph_rejected(self, rows, message):
        with pytest.raises(AssertionError, match=message):
            self._graph(rows).validate()


class TestCommonNeighbors:
    def test_path_endpoints_share_center(self):
        g = path_graph(3)
        assert common_neighbors(g, 0, 2) == 1

    def test_diamond(self):
        g = Graph.from_edges([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert common_neighbors(g, 0, 1) == 2

    def test_petersen_matches_brute_force(self):
        g = petersen_graph()
        for u, v in itertools.combinations(range(10), 2):
            assert common_neighbors(g, u, v) == brute_common_neighbors(g, u, v)
            if not g.has_edge(u, v):
                assert common_neighbors(g, u, v) == 1

    def test_same_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            common_neighbors(g, 1, 1)
        with pytest.raises(ValueError):
            common_neighbors(g, 0, 99)


class TestJaccard:
    def test_triangle_edge(self):
        assert jaccard_similarity(complete_graph(3), 0, 1) == 1.0

    def test_path_edge(self):
        assert jaccard_similarity(path_graph(3), 0, 1) == 0.0

    def test_isolated_edge_degenerate_denominator(self):
        assert jaccard_similarity(path_graph(2), 0, 1) == 0.0

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            jaccard_similarity(path_graph(3), 0, 2)

    def test_unit_similarity_iff_equal_punctured_neighborhoods(self):
        for g in random_graph_stream(25, 12, seed=3):
            adj = adjacency_sets(g)
            for u, v in map(tuple, g.edge_array().tolist()):
                punctured_equal = adj[u] - {v} == adj[v] - {u}
                expected = punctured_equal and len(adj[u] - {v}) > 0
                assert (jaccard_similarity(g, u, v) == 1.0) == expected


class TestWedges:
    def test_examples(self):
        assert wedge_count(complete_graph(3)) == 3
        assert wedge_count(star_graph(3)) == 3
        assert wedge_count(path_graph(4)) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_two_hop_enumeration(self, seed):
        g = next(random_graph_stream(1, 50, seed=seed))
        assert wedge_count(g) == brute_wedges(g)


class TestPairTable:
    @staticmethod
    def _graphs():
        yield Graph.from_edges([], n=0)
        yield Graph.from_edges([], n=6)
        yield complete_graph(7)
        yield from random_graph_stream(30, 30, seed=21)

    @staticmethod
    def _brute_rows(g):
        # combinations() lists pairs in (u, w) order, so equality with
        # these rows checks sorting, uniqueness and every field at once
        adj = adjacency_sets(g)
        return [(u, w, len(adj[u] & adj[w]), w in adj[u])
                for u, w in itertools.combinations(range(g.n), 2)
                if adj[u] & adj[w]]

    def test_matches_brute_force(self):
        for g in self._graphs():
            u, w, count, adjacent = pair_table(g)
            rows = list(zip(u.tolist(), w.tolist(), count.tolist(),
                            adjacent.tolist()))
            assert rows == self._brute_rows(g)
            assert adjacent.dtype == bool

    @pytest.mark.parametrize("block_paths", [1, 2, 5, 13])
    def test_block_boundaries(self, monkeypatch, block_paths):
        # a cap of a few wedge paths splits the walk at nearly every
        # vertex, and a vertex with more paths than the cap is a block
        # of its own, so every kind of boundary is crossed
        monkeypatch.setattr(graph_module, "PAIR_BLOCK_PATHS", block_paths)
        graphs = [Graph.from_edges([], n=0), Graph.from_edges([], n=6),
                  complete_graph(7),
                  # isolated vertices before, between and after the edges
                  Graph.from_edges([(2, 3), (3, 4), (2, 4), (4, 6), (6, 7)],
                                   n=10)]
        graphs += random_graph_stream(20, 25, seed=43)
        for g in graphs:
            u, w, count, adjacent = pair_table(g)
            assert list(zip(u.tolist(), w.tolist(), count.tolist(),
                            adjacent.tolist())) == self._brute_rows(g)
            assert (u.dtype, w.dtype, count.dtype, adjacent.dtype) == \
                (np.int64, np.int64, np.int32, np.bool_)


class TestClosureRateCurve:
    def test_union_of_cliques_fully_closed(self):
        g = disjoint_union(complete_graph(4), complete_graph(3),
                           complete_graph(5))
        curve = closure_rate_curve(g)
        for k in curve.ks.tolist():
            assert curve.rate(k) == 1.0

    def test_square_has_two_open_pairs(self):
        curve = closure_rate_curve(cycle_graph(4))
        assert curve.ks.tolist() == [2]
        assert curve.pair_counts.tolist() == [2]
        assert curve.closed_counts.tolist() == [0]
        assert curve.rate(2) == 0.0

    def test_pair_totals_match_brute_force(self):
        for g in random_graph_stream(20, 50, seed=5):
            adj = adjacency_sets(g)
            expected = sum(
                1 for u, v in itertools.combinations(range(g.n), 2)
                if adj[u] & adj[v])
            curve = closure_rate_curve(g)
            assert int(curve.pair_counts.sum()) == expected
            assert np.all(curve.closed_counts <= curve.pair_counts)

    def test_edge_density(self):
        g = complete_graph(5)
        assert closure_rate_curve(g).edge_density == 1.0
        assert closure_rate_curve(path_graph(3)).edge_density == pytest.approx(2 / 3)

    def test_csv_format(self):
        csv = closure_rate_curve(complete_graph(3)).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,pairs,closed,rate"
        assert lines[1] == "1,3,3,1"


class TestBfs:
    def test_path_distances(self):
        levels = bfs_levels(path_graph(3), 0)
        assert levels.dist.tolist() == [0, 1, 2]
        assert levels.level_sizes.tolist() == [1, 1, 1]

    def test_star_levels(self):
        levels = bfs_levels(star_graph(4), 0)
        assert levels.dist.tolist() == [0, 1, 1, 1, 1]
        assert levels.level_sizes.tolist() == [1, 4]

    def test_disconnected_marked_infinite(self):
        g = Graph.from_edges([(0, 1)], n=3)
        levels = bfs_levels(g, 0)
        assert levels.distance(2) == math.inf
        assert levels.dist[2] == -1

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bfs_levels(path_graph(2), 5)

    def test_matches_brute_force_bfs(self):
        # random graphs, then the same graphs with isolated vertices
        # before and after them, so that some sources reach nothing
        graphs = list(random_graph_stream(25, 40, seed=9))
        graphs += [Graph.from_edges(g.edge_array() + lead, n=lead + g.n + tail)
                   for g, lead, tail in zip(graphs, [1, 2, 3, 5, 8] * 5,
                                            [4, 1, 2, 3, 1] * 5)]
        for g in graphs:
            oracle = brute_all_pairs_dist(g)
            for s in range(g.n):
                levels = bfs_levels(g, s)
                row = oracle[s].tolist()
                sizes = [row.count(d) for d in range(max(row) + 1)]
                assert levels.dist.tolist() == row
                assert levels.level_sizes.tolist() == sizes
                assert levels.dist.dtype == np.int64
                assert levels.level_sizes.dtype == np.int64


class TestInducedSubgraph:
    def test_k4_minus_vertex(self):
        sub = complete_graph(4).induced_subgraph([0, 1, 3])
        assert (sub.n, sub.m) == (3, 3)

    def test_adjacent_pair_of_cycle(self):
        sub = cycle_graph(5).induced_subgraph([1, 2])
        assert (sub.n, sub.m) == (2, 1)

    def test_empty_selection(self):
        sub = complete_graph(4).induced_subgraph([])
        assert (sub.n, sub.m) == (0, 0)

    def test_label_composition(self):
        g = load_edge_list("10 20\n20 30\n30 10\n")
        sub = g.induced_subgraph([g.index_of(10), g.index_of(30)])
        assert sorted(sub.labels.tolist()) == [10, 30]
        assert sub.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(3).induced_subgraph([0, 7])


class TestDegreeDistribution:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_mass_identities(self, seed):
        g = next(random_graph_stream(1, 40, seed=seed))
        dd = g.degree_distribution()
        counts = dd.counts
        assert int(counts.sum()) == g.n
        assert int((np.arange(len(counts)) * counts).sum()) == 2 * g.m
        if g.n:
            assert dd.count(dd.d_max) >= 1


class TestComponents:
    def test_components_and_largest(self):
        g = disjoint_union(path_graph(4), complete_graph(3), path_graph(2))
        comp = connected_components(g)
        assert len(set(comp.tolist())) == 3
        assert largest_component(g).n == 4

    def test_labels_match_deque_oracle(self):
        graphs = list(random_graph_stream(40, 40, seed=13))
        graphs += [Graph.from_edges(g.edge_array() + 3, n=g.n + 5)
                   for g in graphs[:10]]
        graphs += [Graph.from_edges([], n=0), Graph.from_edges([], n=4)]
        for g in graphs:
            comp = connected_components(g)
            assert comp.tolist() == brute_components(g)
            assert comp.dtype == np.int64
