import collections
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netclass import graph as graph_module
from netclass.closure import c_closure_number, is_c_good, weak_closure_number
from netclass.errors import ParseError
from netclass.generators import (complete_graph, cycle_graph, disjoint_union,
                                 path_graph, petersen_graph, random_graph,
                                 star_graph)
from netclass.graph import (Graph, bfs_levels, closure_rate_curve,
                            connected_components, largest_component,
                            load_edge_list, sorted_unique, spans,
                            wedge_count)
from netclass.metric import tau, two_sweep
from netclass.triangles import clean

from conftest import (adjacency_sets, brute_all_pairs_dist, brute_c_closure,
                      brute_clean, brute_common_neighbors, brute_components,
                      brute_induced_subgraph, brute_load_edge_list,
                      brute_similarity, brute_wedges,
                      brute_weak_closure_order, random_graph_stream)

SRC = Path(graph_module.__file__).resolve().parents[1]


class TestLoadEdgeList:
    def test_two_edge_path(self, edge_list_file):
        g = load_edge_list(edge_list_file("0 1\n1 2"))
        assert (g.n, g.m) == (3, 2)

    def test_self_loop_and_duplicate_dropped(self, edge_list_file):
        g, stats = load_edge_list(edge_list_file("0 0\n0 1\n1 0"),
                                  return_stats=True)
        assert (g.n, g.m) == (2, 1)
        assert stats.self_loops == 1
        assert stats.duplicates == 1
        assert stats.raw_lines == 3

    def test_comments_and_blank_lines(self, edge_list_file):
        g = load_edge_list(edge_list_file("# header\n\n0 1\n# trailing\n2 3\n"))
        assert (g.n, g.m) == (4, 2)

    def test_empty_input_is_valid_empty_graph(self, edge_list_file):
        g = load_edge_list(edge_list_file("# nothing\n"))
        assert (g.n, g.m) == (0, 0)

    def test_malformed_arity_reports_line(self, edge_list_file):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(edge_list_file("0 1\n1 2 3"))
        with pytest.raises(ParseError, match="line 1"):  # a line ends at LF only
            load_edge_list(edge_list_file("0 1\r1 2\r"))

    def test_non_integer_token_reports_line(self, edge_list_file):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(edge_list_file("zero 1\n"))

    @pytest.mark.parametrize("bad", ["1_0", "+5", "\u0663", "\uff15",
                                     "\u00b2", "0x1f", "1.0", "--3", "-",
                                     "5-", "1e3"])
    def test_id_is_minus_and_ascii_digits(self, edge_list_file, bad):
        # int() alone would read "1_0", "+5" and other scripts' digits
        for text in (f"0 1\n{bad} 2\n", f"0 1\n2 {bad}\n"):
            with pytest.raises(ParseError,
                               match=r"^line 2: non-integer vertex id"):
                load_edge_list(edge_list_file(text))

    def test_id_grammar_keeps_which_error_wins(self, edge_list_file):
        with pytest.raises(ParseError, match=r"^line 1: expected two fields"):
            load_edge_list(edge_list_file("1_0 2 3\n+1 2\n"))
        with pytest.raises(ParseError, match=r"^line 2: non-integer"):
            load_edge_list(edge_list_file("0 1\n+5 99999999999999999999\n"))
        with pytest.raises(ParseError, match=r"^line 2: vertex id beyond"):
            load_edge_list(edge_list_file("0 1\n-99999999999999999999 3\n+4 5"))

    def test_ids_past_the_int_string_digit_limit(self, edge_list_file):
        # int() refuses more than 4,300 digits, before any int64 check
        for big in ("9" * 5000, "-" + "9" * 5000, "0" * 4990 + str(2**63)):
            for text in (f"0 1\n{big} 2\n", f"0 1\n2 {big}\n"):
                with pytest.raises(ParseError,
                                   match=r"^line 2: vertex id beyond int64"):
                    load_edge_list(edge_list_file(text))
        with pytest.raises(ParseError, match=r"^line 2: non-integer"):
            load_edge_list(edge_list_file(f"0 1\n{'9' * 5000} +2\n"))
        text = f"{'0' * 5000}7 -{'0' * 5000}3\n"
        assert load_edge_list(edge_list_file(text)).labels.tolist() == \
            brute_load_edge_list(text)[0] == [-3, 7]

    def test_nbsp_separated_and_minus_zero_ids_load(self, edge_list_file):
        g = load_edge_list(edge_list_file("-0\xa07\n007 -12\n"))
        assert g.labels.tolist() == [-12, 0, 7]
        assert g.m == 2

    def test_id_beyond_int64_reports_line(self, edge_list_file):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(edge_list_file("0 1\n99999999999999999999999 3\n"))
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(edge_list_file(f"0 {-2**63 - 1}\n"))
        g = load_edge_list(edge_list_file(f"{2**63 - 1} {-2**63}\n"))
        assert g.labels.tolist() == [-2**63, 2**63 - 1]

    def test_non_utf8_line_reports_line(self, tmp_path, edge_list_file):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(edge_list_file(b"0 1\n\xff 2\n"))
        f = tmp_path / "bad.txt"
        f.write_bytes(b"# ok\n0 1\n1 \xfe\n")
        with pytest.raises(ParseError, match="line 3"):
            load_edge_list(str(f))

    def test_original_ids_preserved(self, edge_list_file):
        g = load_edge_list(edge_list_file("100 7\n7 42\n"))
        assert sorted(g.labels.tolist()) == [7, 42, 100]
        u, v = g.index_of(100), g.index_of(7)
        assert v in g.neighbors(u)
        assert g.labels[g.index_of(42)] == 42

    def test_self_loop_only_vertex_still_counted(self, edge_list_file):
        # SNAP node counts include ids that only ever appear in loops
        g = load_edge_list(edge_list_file("5 5\n0 1\n"))
        assert (g.n, g.m) == (3, 1)

    def test_loading_from_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# c\n1 2\n2 3\n")
        g = load_edge_list(str(f))
        assert (g.n, g.m) == (3, 2)

    def test_path_object_equals_str_path(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# c\n10 20\n20 30\n30 30\n20 10\n5 10\n")
        g, stats = load_edge_list(f, return_stats=True)
        h, want = load_edge_list(str(f), return_stats=True)
        assert g.labels.tolist() == h.labels.tolist() == [5, 10, 20, 30]
        assert g.indptr.tolist() == h.indptr.tolist()
        assert g.indices.tolist() == h.indices.tolist()
        assert stats == want
        assert (stats.raw_lines, stats.self_loops, stats.duplicates) == (5, 1, 1)

    def test_loaded_graphs_validate(self):
        for g in random_graph_stream(15, 30, seed=11):
            g.validate()


class TestLoadEdgeListOracle:
    BOUNDS = [-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]
    # characters that str.splitlines breaks lines at, and NBSP: the
    # loader ends a line only at LF, so inside one they separate fields
    SPACES = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029", "\xa0"]

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
                lines.append(rng.choice(["", " ", "\t", " \t  ", *cls.SPACES]))
            elif r < 0.22:
                lines.append(f"{loop_only} {loop_only}")
            else:
                u, v = rng.choice(pool), rng.choice(pool)
                sep = rng.choice([" ", "\t", "  ", *cls.SPACES])
                lines.append(f"{u}{sep}{v} ")
                if rng.random() < 0.3:  # duplicate, either orientation
                    lines.append(rng.choice([f"{v} {u}", f" {u}\t{v}"]))
        eol = rng.choice(["\n", "\r\n"])
        text = eol.join(lines)
        return text + eol if lines and rng.random() < 0.5 else text

    BAD_IDS = ["1_0", "+5", "\u0663", "\uff15", "0x1", "1.0", "--3", "-",
               "9" * 20, "-" + "9" * 20, "9" * 5000]
    ERRORS = {"fields": "expected two fields", "id": "non-integer vertex id",
              "int64": "vertex id beyond int64"}

    def test_first_bad_line_matches_oracle(self, tmp_path):
        rng = random.Random(1435)
        path = tmp_path / "g.txt"
        for _ in range(150):
            lines = self._random_text(rng).split("\n")
            for _ in range(rng.randint(1, 3)):
                pair = [str(rng.randint(-40, 40)), rng.choice(self.BAD_IDS)]
                rng.shuffle(pair)
                bad = rng.choice([rng.choice([" ", "\t", "\xa0"]).join(pair),
                                  "1 2 3", "7"])
                lines.insert(rng.randint(0, len(lines)), bad)
            text = "\n".join(lines)
            with pytest.raises(ValueError) as want:
                brute_load_edge_list(text)
            line_no, what = want.value.args
            path.write_bytes(text.encode())
            with pytest.raises(ParseError) as got:
                load_edge_list(path)
            assert got.value.line_no == line_no
            assert str(got.value).startswith(
                f"line {line_no}: {self.ERRORS[what]}")

    def test_matches_set_and_dict_oracle(self, tmp_path):
        rng = random.Random(2014)
        path = tmp_path / "g.txt"
        for _ in range(150):
            text = self._random_text(rng)
            labels, adj, stats = brute_load_edge_list(text)
            path.write_bytes(text.encode())
            for source in (str(path), path):
                g, got = load_edge_list(source, return_stats=True)
                assert g.labels.tolist() == labels
                assert g.labels.dtype == np.int64
                assert (g.n, g.m) == (len(labels), sum(map(len, adj.values())) // 2)
                assert {label: set(g.labels[g.neighbors(v)].tolist())
                        for v, label in enumerate(g.labels.tolist())} == adj
                assert (got.raw_lines, got.self_loops, got.duplicates) == stats
                g.validate()

    def test_bounds_self_loop_only_ids_and_line_endings(self, edge_list_file):
        text = (f"# ids at both ends of int64\r\n{2**63 - 1} {-2**63}\r\n"
                f"\r\n{-2**63}\t{2**63 - 1}\r\n 7 7 \r\n  \t\r\n"
                f"{2**63 - 1} 3")  # no final newline
        g, stats = load_edge_list(edge_list_file(text), return_stats=True)
        assert g.labels.tolist() == [-2**63, 3, 7, 2**63 - 1]
        assert g.m == 2 and g.degrees.tolist() == [1, 1, 0, 2]
        assert (stats.raw_lines, stats.self_loops, stats.duplicates) == (4, 1, 1)


class TestFromEdges:
    @staticmethod
    def _oracle_csr(pairs, n):
        # CSR from plain adjacency sets, without the library's sort
        adj = [set() for _ in range(n)]
        for u, v in pairs:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        indptr = [0]
        indices = []
        for nbrs in adj:
            indices += sorted(nbrs)
            indptr.append(len(indices))
        return indptr, indices

    def _check(self, edges, n=None):
        pairs = [tuple(e) for e in np.asarray(edges).reshape(-1, 2).tolist()]
        want_n = n if n is not None else \
            1 + max((max(e) for e in pairs), default=-1)
        g = Graph.from_edges(edges, n=n)
        indptr, indices = self._oracle_csr(pairs, want_n)
        assert g.n == want_n
        assert g.indptr.tolist() == indptr
        assert g.indices.tolist() == indices
        assert (g.indptr.dtype, g.indices.dtype) == (np.int64, np.int64)
        assert g.m == len(indices) // 2
        g.validate()

    def test_random_arrays_with_reversals_and_loops(self):
        rng = np.random.default_rng(89)
        for size, ids in ((1, 1), (5, 3), (40, 12), (300, 60), (2000, 400)):
            edges = rng.integers(0, ids, size=(size, 2), dtype=np.int64)
            # every edge again reversed, and every fifth id as a loop
            loops = np.repeat(np.arange(0, ids, 5)[:, None], 2, axis=1)
            self._check(np.concatenate([edges, edges[:, ::-1], loops]))

    def test_explicit_n_keeps_trailing_isolated_vertices(self):
        self._check(np.array([[0, 1], [2, 1], [1, 0]]), n=7)

    def test_empty_input(self):
        self._check(np.zeros((0, 2), dtype=np.int64), n=0)
        self._check(np.zeros((0, 2), dtype=np.int64), n=5)
        self._check([], n=0)
        self._check([], n=5)

    def test_labels_need_one_per_vertex(self):
        for labels in (np.array([7]), np.arange(4)):
            message = f"^{len(labels)} labels for 3 vertices$"
            with pytest.raises(ValueError, match=message):
                Graph.from_edges([(0, 1)], n=3, labels=labels)
        g = Graph.from_edges([(0, 1)], n=3, labels=np.array([7, 8, 9]))
        assert g.labels[2] == 9

    def test_list_input(self):
        self._check([(3, 1), (1, 3), (2, 2), (0, 3), (4, 0)])
        self._check([[0, 1], [1, 2]], n=4)

    def test_non_integer_endpoints_rejected(self):
        # a cast would truncate (0.5, 1.7) to the edge (0, 1)
        message = "^edge endpoints must have an integer dtype, not "
        for edges in ([(0.5, 1.7), (1, 2)], np.array([[0.0, 1.0]]),
                      np.array([[True, False]])):
            with pytest.raises(ValueError, match=message):
                Graph.from_edges(edges)
        # empty input of any dtype is an empty edge list
        self._check(np.zeros((0, 2)), n=3)
        # other integer dtypes are widened; an int64 array is not copied
        edges = np.array([[0, 1], [2, 1]], dtype=np.int64)
        assert graph_module._integer_array(edges, "edges") is edges
        for dtype in (np.int32, np.uint8):
            self._check(edges.astype(dtype))


class TestValidate:
    @staticmethod
    def _graph(rows: list[list[int]]) -> Graph:
        indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
        indices = np.array([v for r in rows for v in r], dtype=np.int64)
        return Graph(len(rows), indptr, indices)

    BROKEN = [
        ([[1], [2], []], "not symmetric"),      # no reverse edges
        ([[2, 1], [0], [0]], "not strictly sorted"),
        ([[0, 1], [0], []], "self-loop"),
    ]

    @pytest.mark.parametrize("rows, message", BROKEN,
                             ids=["asymmetric", "unsorted-row", "self-loop"])
    def test_broken_graph_rejected(self, rows, message):
        with pytest.raises(AssertionError, match=message):
            self._graph(rows).validate()

    def test_rejected_under_python_O(self):
        # -O strips assert statements, so validate must raise by itself
        code = ("import numpy as np\n"
                "from netclass.graph import Graph\n"
                f"for rows in {[rows for rows, _ in self.BROKEN]!r}:\n"
                "    ptr = np.cumsum([0] + [len(r) for r in rows])\n"
                "    idx = np.array(sum(rows, []), dtype=np.int64)\n"
                "    try:\n"
                "        Graph(len(rows), ptr, idx).validate()\n"
                "        print('accepted')\n"
                "    except AssertionError as exc:\n"
                "        print(exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == len(self.BROKEN)
        for line, (_, message) in zip(lines, self.BROKEN):
            assert message in line


class TestSortedUnique:
    @pytest.mark.parametrize("values", [
        [], [7], [3, 3, 3, 3], [-5, 2, -5, -(2 ** 62), 0, 2, -1],
    ], ids=["empty", "singleton", "all-equal", "negative"])
    def test_equals_np_unique(self, values):
        x = np.array(values, dtype=np.int64)
        out = sorted_unique(x)
        assert out.dtype == np.unique(x).dtype == np.int64
        assert out.tolist() == np.unique(x).tolist()
        assert x.tolist() == values  # the input is left as it was

    def test_random_arrays(self):
        rng = np.random.default_rng(17)
        for size in (1, 2, 50, 10_000):
            for high in (3, 1000, 2 ** 40):
                x = rng.integers(-high, high, size=size)
                assert np.array_equal(sorted_unique(x), np.unique(x))
                assert sorted_unique(x).dtype == np.unique(x).dtype


class TestCommonNeighbors:
    """Common-neighbor counts as the pair walk yields them."""

    @staticmethod
    def _counts(g):
        return {(u, w): k for u, w, k, _ in TestPairTable._block_rows(g)}

    def test_path_endpoints_share_center(self):
        assert self._counts(path_graph(3)) == {(0, 2): 1}

    def test_diamond(self):
        g = Graph.from_edges([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert self._counts(g)[(0, 1)] == 2

    def test_petersen_matches_brute_force(self):
        # girth 5: adjacent vertices share no neighbor, others share one
        g = petersen_graph()
        counts = self._counts(g)
        for u, v in itertools.combinations(range(10), 2):
            count = counts.get((u, v), 0)
            assert count == brute_common_neighbors(g, u, v)
            assert count == (0 if v in g.neighbors(u) else 1)


class TestJaccard:
    """The edge similarity the cleaner computes inline, read from its
    deletion log and, at epsilon 1, from which edges it keeps."""

    @staticmethod
    def _first_deletion(g):
        first = clean(g, 1.0)[1][0]
        return first.u, first.v, first.similarity

    def test_triangle_edge(self):
        assert brute_similarity(complete_graph(3), 0, 1) == 1.0
        assert clean(complete_graph(3), 1.0)[1] == []

    def test_path_edge(self):
        assert brute_similarity(path_graph(3), 0, 1) == 0.0
        assert self._first_deletion(path_graph(3)) == (0, 1, 0.0)

    def test_isolated_edge_degenerate_denominator(self):
        assert brute_similarity(path_graph(2), 0, 1) == 0.0
        assert self._first_deletion(path_graph(2)) == (0, 1, 0.0)

    def test_unit_similarity_iff_equal_punctured_neighborhoods(self):
        # at epsilon 1 a popped edge stays exactly when its similarity is
        # 1: its endpoints' other neighbors agree and are not empty
        for g in random_graph_stream(25, 12, seed=3):
            adj = adjacency_sets(g)
            for u, v in g.edge_array().tolist():
                unit = adj[u] - {v} == adj[v] - {u} != set()
                assert (brute_similarity(g, u, v) == 1.0) == unit
                _, log = clean(g, 1.0, seeds=[(u, v)])
                assert (log == []) == unit
                assert [(d.u, d.v, d.similarity, d.triangles_destroyed)
                        for d in log] == brute_clean(g, 1.0, seeds=[(u, v)])


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

    @staticmethod
    def _block_rows(g):
        # the (u, w, count, adjacent) rows of the concatenated blocks,
        # each block's dtypes checked on the way
        rows = []
        for keys, count, adjacent in graph_module._pair_blocks(g):
            assert (keys.dtype, count.dtype, adjacent.dtype) == \
                (np.int64, np.int32, np.bool_)
            u, w = np.divmod(keys, g.n)
            rows += zip(u.tolist(), w.tolist(), count.tolist(),
                        adjacent.tolist())
        return rows

    def test_matches_brute_force(self):
        for g in self._graphs():
            assert self._block_rows(g) == self._brute_rows(g)

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
            rows = self._brute_rows(g)
            assert self._block_rows(g) == rows
            # the consumers that fold the blocks
            curve = closure_rate_curve(g)
            hist = collections.Counter(k for _, _, k, _ in rows)
            closed = collections.Counter(k for _, _, k, adj in rows if adj)
            assert curve.ks.tolist() == sorted(hist)
            assert curve.pair_counts.tolist() == [hist[k] for k in sorted(hist)]
            assert curve.closed_counts.tolist() == \
                [closed[k] for k in sorted(hist)]
            assert c_closure_number(g) == brute_c_closure(g)
            profile = weak_closure_number(g)
            assert (list(profile.elimination_order),
                    list(profile.per_vertex_requirement)) == \
                brute_weak_closure_order(g)


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


class TestBfsBlock:
    """An array of sources runs in one bit-parallel pass; row i of its
    level sizes must equal the one-source BFS from sources[i],
    zero-padded, and its dist holds the requested pairs' distances."""

    @staticmethod
    def assert_rows_match(g, sources):
        # every (row, v) pair, so dist.reshape(S, n) is the whole rows
        rows, targets = np.divmod(np.arange(len(sources) * g.n), g.n)
        block = bfs_levels(g, np.asarray(sources), (rows, targets))
        singles = [bfs_levels(g, int(s)) for s in sources]
        width = max(one.level_sizes.size for one in singles)
        assert block.dist.dtype == np.int64
        assert block.level_sizes.dtype == np.int64
        assert block.dist.shape == (len(sources) * g.n,)
        assert block.level_sizes.shape == (len(sources), width)
        dist = block.dist.reshape(len(sources), g.n)
        for row, one in enumerate(singles):
            sizes = one.level_sizes.tolist()
            assert dist[row].tolist() == one.dist.tolist()
            assert block.level_sizes[row].tolist() == \
                sizes + [0] * (width - len(sizes))

    def test_random_graphs_in_blocks_of_64(self):
        for g in random_graph_stream(30, 150, seed=61):
            for lo in range(0, g.n, 64):
                self.assert_rows_match(g, list(range(lo, min(lo + 64, g.n))))

    def test_isolated_vertices_around_the_edges(self):
        # isolated vertices before, between and after two random
        # graphs, so the CSR has empty rows at both ends and inside
        rng = np.random.default_rng(67)
        pieces = list(random_graph_stream(12, 40, seed=71, min_n=2))
        for a, b in zip(pieces[::2], pieces[1::2]):
            lead, gap, tail = (int(x) for x in rng.integers(1, 6, size=3))
            edges = np.concatenate([a.edge_array() + lead,
                                    b.edge_array() + lead + a.n + gap])
            n = lead + a.n + gap + b.n + tail
            g = Graph.from_edges(edges, n=n)
            for size in (1, 63, 64):
                sources = rng.choice(n, size=min(size, n), replace=False)
                self.assert_rows_match(g, sources.tolist())

    def test_single_vertex_and_edgeless(self):
        self.assert_rows_match(Graph.from_edges([], n=1), [0])
        self.assert_rows_match(Graph.from_edges([], n=5), [4, 0, 2])

    @pytest.mark.parametrize("size", [1, 63, 64])
    def test_block_sizes_and_unsorted_sources(self, size):
        g = Graph.from_edges(random_graph(120, 0.05, seed=73).edge_array(),
                             n=130)  # ten trailing isolated vertices
        rng = np.random.default_rng(size)
        self.assert_rows_match(g, rng.permutation(130)[:size].tolist())

    @pytest.mark.parametrize("size", [1, 63, 64])
    def test_pair_subsets_match_deque_oracle(self, size):
        # random pairs, repeats included, against the deque BFS; the
        # isolated vertices make some pairs unreachable (-1), and each
        # source's eccentricity is its non-empty levels minus 1
        rng = np.random.default_rng(83 + size)
        unreachable = 0
        for g in random_graph_stream(20, 90, seed=89, min_n=2):
            g = Graph.from_edges(g.edge_array() + 2, n=g.n + 5)
            oracle = brute_all_pairs_dist(g)
            sources = rng.choice(g.n, size=min(size, g.n), replace=False)
            count = int(rng.integers(0, 3 * g.n))
            rows = rng.integers(0, sources.size, size=count)
            targets = rng.integers(0, g.n, size=count)
            block = bfs_levels(g, sources, (rows, targets))
            assert block.dist.tolist() == oracle[sources[rows], targets].tolist()
            for row, s in enumerate(sources.tolist()):
                want = np.bincount(oracle[s][oracle[s] >= 0])
                sizes = block.level_sizes[row]
                assert sizes[:want.size].tolist() == want.tolist()
                assert not sizes[want.size:].any()
                assert np.count_nonzero(sizes) - 1 == oracle[s].max()
            unreachable += int((block.dist == -1).sum())
        assert unreachable > 0

    def test_empty_pair_list(self):
        g = Graph.from_edges(random_graph(60, 0.08, seed=97).edge_array(),
                             n=64)
        sources = np.arange(64)
        empty = np.zeros(0, dtype=np.int64)
        full = bfs_levels(g, sources, np.divmod(np.arange(64 * 64), 64))
        for block in (bfs_levels(g, sources, (empty, empty)),
                      bfs_levels(g, sources)):
            assert block.dist.shape == (0,) and block.dist.dtype == np.int64
            assert block.level_sizes.tolist() == full.level_sizes.tolist()

    @pytest.mark.parametrize("sources", [list(range(65)), [], [0, 130],
                                         [-1], [[0, 1]], [0.0]])
    def test_bad_blocks_rejected(self, sources):
        g = Graph.from_edges(random_graph(130, 0.05, seed=79).edge_array(),
                             n=130)
        with pytest.raises(ValueError):
            bfs_levels(g, np.asarray(sources))

    @pytest.mark.parametrize("pairs", [
        ([3], [0]), ([-1], [0]),            # a row outside the 3 sources
        ([0], [130]), ([0, 1], [5, -1]),    # a target outside [0, n)
        ([0, 1], [5]), ([0], [5, 6]),       # unequal lengths
        ([0.0], [5]), ([0], [5.0]),         # not integers
        ([[0]], [[5]]),                     # not 1-D
    ])
    def test_bad_pairs_rejected(self, pairs):
        g = Graph.from_edges(random_graph(130, 0.05, seed=79).edge_array(),
                             n=130)
        with pytest.raises(ValueError):
            bfs_levels(g, np.array([0, 4, 9]), tuple(map(np.asarray, pairs)))

    def test_pairs_need_a_block(self):
        with pytest.raises(ValueError):
            bfs_levels(path_graph(4), 0, (np.array([0]), np.array([3])))


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

    def test_non_integer_vertices_rejected(self):
        # a cast would truncate 0.9 and 1.2 to the vertices 0 and 1
        g = path_graph(4)
        message = "^vertices must have an integer dtype, not float64$"
        for vertices in ([0.9, 1.2], np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match=message):
                g.induced_subgraph(vertices)
        assert g.induced_subgraph(np.array([], dtype=float)).n == 0
        sub = g.induced_subgraph(np.array([2, 1], dtype=np.uint8))
        assert (sub.n, sub.m, sub.labels.tolist()) == (2, 1, [1, 2])

    def test_label_composition(self, edge_list_file):
        g = load_edge_list(edge_list_file("10 20\n20 30\n30 10\n"))
        sub = g.induced_subgraph([g.index_of(10), g.index_of(30)])
        assert sorted(sub.labels.tolist()) == [10, 30]
        assert sub.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(3).induced_subgraph([0, 7])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_definition(self, seed):
        # isolated vertices at both ends of the CSR and inside it
        rng = np.random.default_rng(seed)
        n = 40
        isolated = [0, 1, 17, 38, 39]
        live = np.setdiff1d(np.arange(n), isolated)
        pairs = rng.choice(live, size=(90, 2))
        g = Graph.from_edges(pairs, n=n,
                             labels=rng.permutation(10 * n)[:n] * 7 - 3)
        assert not g.degrees[isolated].any()
        subset = rng.permutation(n)[:int(rng.integers(1, n))]
        for vertices in [subset.tolist(),                   # unsorted
                         np.repeat(rng.permutation(n), 2),  # all repeated
                         [], range(n), isolated,
                         np.concatenate([subset, subset[::-1]])]:
            sub = g.induced_subgraph(vertices)
            sub.validate()
            indptr, indices, labels = brute_induced_subgraph(
                g, [int(v) for v in vertices])
            assert sub.indptr.tolist() == indptr
            assert sub.indices.tolist() == indices
            assert sub.labels.tolist() == labels


class TestVertexIds:
    """One rule at every entry point that takes vertex ids: an id is an
    integer in 0..n-1, and anything else raises ValueError. A bool is
    not an id, though Python and NumPy would read True as vertex 1."""

    N = 4
    # name -> (call, integer ids it runs with); a scalar entry point
    # takes one id, an array entry point an array of them
    ENTRY_POINTS = {
        "bfs_levels": (lambda g, v: bfs_levels(g, v), 1),
        "two_sweep": (lambda g, v: two_sweep(g, seed=v), 1),
        "tau": (lambda g, v: tau(g, v, 1), 1),
        "is_c_good": (lambda g, v: is_c_good(g, v, 1), 1),
        "induced_subgraph": (lambda g, ids: g.induced_subgraph(ids),
                             np.array([0, 1])),
        "block_sources": (lambda g, ids: bfs_levels(g, ids), np.array([0, 1])),
        "pair_targets": (lambda g, ids: bfs_levels(
            g, np.array([0]), (np.zeros(ids.size, dtype=np.int64), ids)),
            np.array([0, 1])),
        "clean_seeds": (lambda g, ids: clean(g, 0.5, seeds=ids.reshape(1, 2)),
                        np.array([0, 1])),
    }
    # the bad scalar, the bad array, and the message both give
    BAD = {"bool": (True, np.array([False, True]), "integer dtype, not bool$"),
           "float": (1.5, np.array([0.0, 1.0]),
                     "integer dtype, not float64$"),
           "n": (N, np.array([0, N]), r"vertices outside range\(4\): \[4\]$"),
           "negative": (-1, np.array([0, -1]),
                        r"vertices outside range\(4\): \[-1\]$")}

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_non_id_raises_value_error(self, entry, bad):
        run, good = self.ENTRY_POINTS[entry]
        scalar, array, message = self.BAD[bad]
        g = path_graph(self.N)
        run(g, good)  # the same call with integer ids runs
        with pytest.raises(ValueError, match=message):
            run(g, scalar if np.ndim(good) == 0 else array)

    @pytest.mark.parametrize("one_id", [[0], np.array([0])],
                             ids=["list", "array"])
    @pytest.mark.parametrize("entry", ["two_sweep", "tau", "is_c_good"])
    def test_one_element_sequence_is_not_an_id(self, entry, one_id):
        run, _ = self.ENTRY_POINTS[entry]
        for g in (path_graph(5), complete_graph(1)):
            with pytest.raises(ValueError, match="must be one vertex id, "
                                                 "not a list or array$"):
                run(g, one_id)

    def test_stray_ids_named_up_to_ten(self):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(np.arange(20_000).reshape(-1, 2), n=10)
        message = str(err.value)
        assert message.startswith(
            "edge endpoints has vertices outside range(10): [10, 11,")
        assert message.endswith(", 19] and 19980 more")
        assert len(message) < 200


class TestSpans:
    def test_spans_in_order(self):
        got = spans(np.array([5, 0, 9]), np.array([2, 1, 3]))
        assert got.tolist() == [5, 6, 0, 9, 10, 11]

    def test_zero_counts_give_no_positions(self):
        got = spans(np.array([3, 7, 1, 4]), np.array([0, 2, 0, 0]))
        assert got.tolist() == [7, 8]
        assert spans(np.array([3, 7]), np.array([0, 0])).size == 0

    def test_empty_input(self):
        empty = np.array([], dtype=np.int64)
        got = spans(empty, empty)
        assert got.size == 0 and got.dtype.kind == "i"

    def test_empty_frontier_has_no_next_level(self):
        g = cycle_graph(5)
        step = graph_module._next_level(g, np.array([], dtype=np.int64),
                                        np.ones(g.n, dtype=bool))
        assert step.size == 0


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
            assert dd.counts[dd.d_max] >= 1


class TestComponents:
    def test_components_and_largest(self):
        g = disjoint_union(path_graph(4), complete_graph(3), path_graph(2))
        comp = connected_components(g)
        assert len(set(comp.tolist())) == 3
        assert largest_component(g).n == 4

    def test_connected_graph_is_not_rebuilt(self):
        for g in (Graph.from_edges([], n=1), path_graph(5), petersen_graph(),
                  largest_component(random_graph(80, 0.05, seed=101))):
            assert largest_component(g) is g

    def test_labels_match_deque_oracle(self):
        graphs = list(random_graph_stream(40, 40, seed=13))
        graphs += [Graph.from_edges(g.edge_array() + 3, n=g.n + 5)
                   for g in graphs[:10]]
        graphs += [Graph.from_edges([], n=0), Graph.from_edges([], n=4)]
        # a long path under a random vertex order takes many hooking
        # rounds; a sparse random graph has many components of all sizes
        rng = np.random.default_rng(29)
        perm = rng.permutation(5000)
        graphs.append(Graph.from_edges(perm[path_graph(5000).edge_array()],
                                       n=5000))
        graphs.append(Graph.from_edges(rng.integers(0, 4000, size=(1800, 2)),
                                       n=4000))
        for g in graphs:
            comp = connected_components(g)
            assert comp.tolist() == brute_components(g)
            assert comp.dtype == np.int64
        assert connected_components(graphs[-1]).max() >= 2000
