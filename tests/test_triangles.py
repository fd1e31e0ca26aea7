import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from netclass import graph as graph_module
from netclass.generators import (complete_graph, complete_multipartite,
                                 cycle_graph, disjoint_union, lollipop_graph,
                                 path_graph, random_graph, random_tree,
                                 star_graph)
from netclass.graph import Graph, bfs_levels, wedge_count
from netclass.triangles import (ClusterCertificate, PhaseLog,
                                TightlyKnitFamily, _certificate, _radius,
                                clean, extract, tightly_knit_decomposition,
                                triangle_count_naive, triangle_count_oriented,
                                triangle_density, verify_tightly_knit)

from conftest import (brute_all_pairs_dist, brute_clean, brute_similarity,
                      brute_triangles, brute_triangles_dense, brute_wedges,
                      random_graph_stream)


# graphs whose degrees tie, so the orientation falls back to index order
TIE_HEAVY = [Graph.from_edges([], n=0), Graph.from_edges([], n=6),
             Graph.from_edges([(2, 3), (3, 4), (2, 4)], n=8),
             star_graph(1), star_graph(12),
             *(complete_graph(k) for k in range(1, 9)),
             complete_multipartite([3, 3, 3]),
             complete_multipartite([1, 2, 2, 4])]


class TestCounting:
    def test_k4(self):
        assert triangle_count_naive(complete_graph(4)).triangle_count == 4
        assert triangle_count_oriented(complete_graph(4)).triangle_count == 4

    def test_c5_triangle_free(self):
        assert triangle_count_naive(cycle_graph(5)).triangle_count == 0

    def test_octahedron(self):
        octa = complete_multipartite([2, 2, 2])
        assert brute_triangles(octa) == 8
        assert triangle_count_naive(octa).triangle_count == 8
        assert triangle_count_oriented(octa).triangle_count == 8

    def test_trees_are_triangle_free(self):
        g = random_tree(60, seed=4)
        assert triangle_count_oriented(g).triangle_count == 0

    def test_counters_match_triple_scan(self):
        for g in itertools.chain(TIE_HEAVY,
                                 random_graph_stream(40, 40, seed=113)):
            expected = brute_triangles(g)
            naive = triangle_count_naive(g)
            oriented = triangle_count_oriented(g)
            assert naive.triangle_count == expected
            assert oriented.triangle_count == expected
            assert naive.wedge_count == oriented.wedge_count == wedge_count(g)
            # each edge leaves the endpoint of lower (degree, index)
            deg = g.degrees.tolist()
            outdeg = [0] * g.n
            for u, v in g.edge_array().tolist():
                outdeg[min((deg[u], u), (deg[v], v))[1]] += 1
            assert oriented.operation_count == sum(math.comb(d, 2)
                                                   for d in outdeg)

    def test_operation_counts(self):
        k4 = complete_graph(4)
        # degree orientation of K4 falls back to index order, so the
        # out-degrees are 3,2,1,0 and the pair checks C(3,2)+C(2,2) = 4
        assert triangle_count_oriented(k4).operation_count == 4
        assert triangle_count_naive(k4).operation_count == wedge_count(k4)

    def test_density_examples(self):
        cliques = disjoint_union(complete_graph(3), complete_graph(5),
                                 complete_graph(4))
        assert triangle_density(cliques) == 1.0
        assert triangle_density(cycle_graph(7)) == 0.0
        assert triangle_density(complete_multipartite([3, 3, 3])) == pytest.approx(0.6)

    def test_k333_counts(self):
        stats = triangle_count_naive(complete_multipartite([3, 3, 3]))
        assert stats.triangle_count == 27
        assert stats.wedge_count == 135


class TestPlainCountBlocks:
    GRAPHS = [*TIE_HEAVY, *random_graph_stream(25, 30, seed=316)]

    @pytest.mark.parametrize("paths", [1, 7, 4096])
    def test_every_block_size_matches_triple_scan(self, monkeypatch, paths):
        # each block walks at most ``paths`` wedge paths, or one vertex's
        monkeypatch.setattr(graph_module, "PAIR_BLOCK_PATHS", paths)
        for g in self.GRAPHS:
            stats = triangle_count_naive(g)
            assert stats.triangle_count == brute_triangles(g)
            assert stats.wedge_count == stats.operation_count == brute_wedges(g)


class TestCleaner:
    def test_fixpoint_left_unchanged(self):
        g = disjoint_union(complete_graph(4), complete_graph(5))
        cleaned, log = clean(g, 0.3)
        assert log == []
        assert cleaned.m == g.m

    def test_path_fully_deleted(self):
        cleaned, log = clean(path_graph(6), 0.5)
        assert cleaned.m == 0
        assert len(log) == 5

    def test_lollipop_keeps_clique_drops_path(self):
        g = lollipop_graph(20, 6)
        # oracle: the per-edge similarities the cleaner will see first
        for u, v in map(tuple, g.edge_array().tolist()):
            sim = brute_similarity(g, u, v)
            if u < 20 and v < 20:
                assert sim >= 0.25
            else:
                assert sim < 0.25
        cleaned, log = clean(g, 0.25)
        assert cleaned.m == math.comb(20, 2)
        assert len(log) == 6
        assert cleaned.induced_subgraph(range(20)).m == math.comb(20, 2)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            clean(path_graph(3), 0.0)
        with pytest.raises(ValueError):
            clean(path_graph(3), 1.5)

    def test_seeds_outside_the_graph_rejected(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 3)], n=4)
        # (0, 6) would encode as 0 * 4 + 6, the key of the edge (1, 2)
        for seeds, stray in [([(0, 6)], r"\[6\]"), ([(1, 3), (-1, 2)], r"\[-1\]"),
                             (map(tuple, [[4, 0]]), r"\[4\]")]:
            message = rf"^seeds has vertices outside range\(4\): {stray}$"
            with pytest.raises(ValueError, match=message):
                clean(g, 0.9, seeds=seeds)
        # in-range seeds from an iterator still run
        _, log = clean(g, 0.9, seeds=map(tuple, np.array([[1, 2]])))
        assert log == clean(g, 0.9, seeds=[(1, 2)])[1] != []

    def test_seeds_that_are_not_integer_pairs_rejected(self):
        g = complete_graph(5)
        for seeds, message in [([(0, 1.0)], "integer dtype"),
                               ([(0, 1, 2)], "^seeds must be pairs$"),
                               ([0, 1], "^seeds must be pairs$")]:
            with pytest.raises(ValueError, match=message):
                clean(g, 0.5, seeds=seeds)
        # an empty seed list deletes nothing, and numpy ids reach the
        # worklist as Python ints
        assert clean(g, 0.5, seeds=[])[1] == []
        _, log = clean(path_graph(3), 0.5, seeds=np.array([[0, 1]]))
        assert log and all(type(x) is int for d in log for x in (d.u, d.v))

    def test_deletion_log_reproducible(self):
        g = next(random_graph_stream(1, 30, seed=127))
        log1 = clean(g, 0.4)[1]
        log2 = clean(g, 0.4)[1]
        assert log1 == log2

    def test_result_satisfies_threshold(self):
        for g in random_graph_stream(15, 25, seed=131):
            cleaned, _ = clean(g, 0.3)
            for u, v in map(tuple, cleaned.edge_array().tolist()):
                assert brute_similarity(cleaned, u, v) >= 0.3

    def test_triangles_destroyed_recorded_exactly(self):
        g = next(random_graph_stream(1, 25, seed=137, min_n=15))
        before = triangle_count_naive(g).triangle_count
        cleaned, log = clean(g, 0.5)
        after = triangle_count_naive(cleaned).triangle_count
        assert before - after == sum(d.triangles_destroyed for d in log)

    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.4, 1.0])
    def test_log_matches_fifo_oracle(self, epsilon):
        # a triangle edge (similarity 1), a path edge (0) and an isolated
        # edge (denominator 0, so 0) ahead of the random graphs
        graphs = [complete_graph(3), path_graph(3), path_graph(2)]
        graphs += random_graph_stream(100, 30, seed=808, min_n=3)
        for g in graphs:
            _, log = clean(g, epsilon)
            assert [(d.u, d.v, d.similarity, d.triangles_destroyed)
                    for d in log] == brute_clean(g, epsilon)

    def test_seeded_log_matches_fifo_oracle(self):
        # the decomposition's second clean: the residual after one
        # extraction, seeded at the boundary from each end of an edge
        g = random_graph(40, 0.2, seed=0)
        cleaned, _ = clean(g, 0.1)
        cluster, _, rest = extract(cleaned)
        inside = set(cluster.tolist())
        boundary = sorted({w for c in inside
                           for w in cleaned.neighbors(c).tolist()} - inside)
        index = {lab: i for i, lab in enumerate(rest.labels.tolist())}
        seeds = [(index[b], w) for b in boundary
                 for w in rest.neighbors(index[b]).tolist()]
        assert len(seeds) > len(set(map(frozenset, seeds)))  # repeats kept
        _, log = clean(rest, 0.1, seeds=seeds)
        want = brute_clean(rest, 0.1, seeds=seeds)
        assert want
        assert [(d.u, d.v, d.similarity, d.triangles_destroyed)
                for d in log] == want


class TestExtractor:
    def test_complete_graph_is_one_cluster(self):
        cluster, trace, rest = extract(complete_graph(6))
        assert cluster.tolist() == list(range(6))
        assert trace.supplement == ()
        assert rest.n == 0

    def test_tripartite_pulls_in_two_hop_vertices(self):
        g = complete_multipartite([3, 3, 3])
        cluster, trace, rest = extract(g)
        assert cluster.tolist() == list(range(9))
        assert trace.seed == 0
        # the two same-group vertices each close 9 triangles with the
        # seed's neighborhood
        assert trace.scores == {1: 9, 2: 9}
        assert rest.n == 0

    def test_two_cliques_take_larger_first(self):
        g = disjoint_union(complete_graph(5), complete_graph(3))
        cluster, trace, rest = extract(g)
        assert cluster.tolist() == [0, 1, 2, 3, 4]
        assert rest.n == 3
        assert rest.m == 3

    def test_supplement_capped_by_seed_degree(self):
        g = complete_multipartite([5, 1, 1])
        # seed is the vertex adjacent to everything; scores exist but
        # never more than deg(seed) vertices join
        cluster, trace, _ = extract(g)
        assert len(trace.supplement) <= trace.d_max

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            extract(Graph.from_edges([], n=4))


class TestDecomposition:
    def test_disjoint_cliques_fully_captured(self):
        g = disjoint_union(complete_graph(4), complete_graph(5),
                           complete_graph(6))
        family = tightly_knit_decomposition(g)
        assert family.captured_triangle_fraction == 1.0
        assert sorted(len(c) for c in family.clusters) == [4, 5, 6]
        for cert in family.certificates:
            assert cert.rho_edge == 1.0
            assert cert.rho_tri == 1.0
            assert cert.radius <= 1
        assert verify_tightly_knit(g, family).ok

    def test_triangle_free_auto_epsilon(self):
        family = tightly_knit_decomposition(cycle_graph(8))
        assert family.clusters == []
        assert family.captured_triangle_fraction == 0.0
        assert family.diagnostic is not None

    def test_triangle_free_explicit_epsilon(self):
        family = tightly_knit_decomposition(cycle_graph(8), epsilon=0.5)
        assert family.clusters == []
        assert family.captured_triangle_fraction == 0.0

    def test_lollipop_keeps_all_clique_triangles(self):
        g = lollipop_graph(16, 8)
        family = tightly_knit_decomposition(g)
        assert family.total_triangles == math.comb(16, 3)
        assert family.captured_triangle_fraction == 1.0
        assert verify_tightly_knit(g, family).ok

    def test_k333_single_cluster(self):
        g = complete_multipartite([3, 3, 3])
        family = tightly_knit_decomposition(g)
        assert family.clusters == [tuple(range(9))]
        cert = family.certificates[0]
        assert cert.radius == 2
        assert cert.rho_edge == pytest.approx(27 / 36)
        assert cert.rho_tri == pytest.approx(27 / 84)
        assert verify_tightly_knit(g, family).ok

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            tightly_knit_decomposition(complete_graph(4), epsilon=2.0)

    def test_certificates_verify_on_random_dense_graphs(self):
        rng = np.random.default_rng(139)
        for _ in range(20):
            n = int(rng.integers(10, 36))
            p = float(rng.choice([0.5, 0.7, 0.9]))
            iu = np.triu_indices(n, k=1)
            mask = rng.random(len(iu[0])) < p
            g = Graph.from_edges(
                np.column_stack([iu[0][mask], iu[1][mask]]), n=n)
            if triangle_count_naive(g).triangle_count == 0:
                continue
            family = tightly_knit_decomposition(g)
            check = verify_tightly_knit(g, family)
            assert check.ok, check.violations

    def test_cleaning_budget_at_quarter_density(self):
        # the charging argument: with epsilon = tau/4, cleaning may
        # destroy at most 3/4 of the original triangles
        rng = np.random.default_rng(149)
        for _ in range(15):
            n = int(rng.integers(12, 40))
            p = float(rng.choice([0.4, 0.6, 0.8]))
            iu = np.triu_indices(n, k=1)
            mask = rng.random(len(iu[0])) < p
            g = Graph.from_edges(
                np.column_stack([iu[0][mask], iu[1][mask]]), n=n)
            t = triangle_count_naive(g).triangle_count
            if t == 0:
                continue
            family = tightly_knit_decomposition(g)
            assert family.cleaning_triangles_destroyed <= 0.75 * t

    def test_seeded_clean_agrees_with_full_clean(self):
        g = next(random_graph_stream(1, 30, seed=151, min_n=20))
        full, _ = clean(g, 0.4)
        seeded, _ = clean(g, 0.4, seeds=map(tuple, g.edge_array().tolist()))
        assert full.edge_array().tolist() == seeded.edge_array().tolist()


def reference_decomposition(g: Graph, epsilon: float):
    """The decomposition as a chain of public calls: each phase rebuilds
    the residual graph, carries original ids through identity labels and
    reseeds the cleaner with the edges at the removed cluster's boundary.
    Certificate figures come from the brute-force oracles."""
    work = Graph(g.n, g.indptr, g.indices, labels=np.arange(g.n))
    clusters, phases = [], []
    seeds = None
    while work.m > 0:
        cleaned, deletions = clean(work, epsilon, seeds=seeds)
        phases.append(PhaseLog(
            kind="clean", edges_deleted=len(deletions),
            triangles_destroyed=sum(d.triangles_destroyed for d in deletions)))
        if cleaned.m == 0:
            break
        local, _, rest = extract(cleaned)
        clusters.append(tuple(cleaned.labels[local].tolist()))
        phases.append(PhaseLog(kind="extract"))
        inside = set(local.tolist())
        boundary = {w for c in inside
                    for w in cleaned.neighbors(c).tolist()} - inside
        rest_index = {lab: i for i, lab in enumerate(rest.labels.tolist())}
        seeds = []
        for b in sorted(boundary):
            rb = rest_index[int(cleaned.labels[b])]
            seeds += [(rb, w) for w in rest.neighbors(rb).tolist()]
        work = rest
    certificates = []
    for members in clusters:
        sub = g.induced_subgraph(members)
        dist = brute_all_pairs_dist(sub)
        eccs = [row.max() for row in dist if row.min() >= 0]
        size, tri = len(members), brute_triangles_dense(sub)
        certificates.append(ClusterCertificate(
            vertices=members, size=size, edge_count=sub.m,
            triangle_count=tri, radius=min(eccs, default=size + 1),
            rho_edge=sub.m / math.comb(size, 2) if size >= 2 else None,
            rho_tri=tri / math.comb(size, 3) if size >= 3 else None))
    return clusters, certificates, phases


def overlapping_groups(n: int, groups: int, seed: int) -> Graph:
    """Random groups of heavy-tailed size, member pairs joined w.p. 0.9."""
    rng = np.random.default_rng(seed)
    sizes = np.minimum((rng.pareto(1.6, size=groups) * 3).astype(int) + 3, 40)
    edges = []
    for size in sizes.tolist():
        members = rng.choice(n, size=size, replace=False)
        iu = np.triu_indices(size, k=1)
        keep = rng.random(len(iu[0])) < 0.9
        edges.append(np.column_stack([members[iu[0][keep]],
                                      members[iu[1][keep]]]))
    return Graph.from_edges(np.concatenate(edges), n=n)


class TestDecompositionOracle:
    @pytest.mark.parametrize("epsilon", [None, 0.1, 0.5])
    def test_matches_rebuilding_reference(self, epsilon):
        fixtures = [lollipop_graph(16, 8), complete_multipartite([3, 3, 3]),
                    disjoint_union(complete_graph(4), complete_graph(5),
                                   complete_graph(6)),
                    # at automatic epsilon, the cleaner's deletions here
                    # depend on a boundary edge being reseeded twice
                    overlapping_groups(250, 100, seed=5)]
        for g in itertools.chain(fixtures,
                                 random_graph_stream(25, 30, seed=157)):
            family = tightly_knit_decomposition(g, epsilon)
            eps = epsilon
            if eps is None:
                t = brute_triangles_dense(g)
                if t == 0:
                    assert family.clusters == []
                    continue
                eps = 3.0 * t / brute_wedges(g) / 4.0
            clusters, certificates, phases = reference_decomposition(g, eps)
            assert family.epsilon == eps
            assert family.clusters == clusters
            assert family.certificates == certificates
            assert family.phases == phases


def _dense_family():
    g = overlapping_groups(250, 100, seed=5)
    return g, tightly_knit_decomposition(g)


def _repeat_last_vertex(family):
    """Cluster 0 lists its last vertex twice, certified by the
    ``_certificate`` of that list, so every field and density agrees."""
    cluster = (*family.clusters[0], family.clusters[0][-1])
    own = _certificate(overlapping_groups(250, 100, seed=5),
                       np.array(cluster, dtype=np.int64))
    return replace(family, clusters=[cluster, *family.clusters[1:]],
                   certificates=[own, *family.certificates[1:]])


def _vertex_outside(vertex):
    """Cluster 1 also lists ``vertex``, which the graph does not have."""
    def mutate(family):
        cluster = (*family.clusters[1], vertex)
        return replace(family, clusters=[family.clusters[0], cluster,
                                         *family.clusters[2:]])
    return mutate


def _mutate_certificate(idx, fields):
    def mutate(family):
        certs = list(family.certificates)
        certs[idx] = replace(certs[idx], **fields(certs[idx]))
        return replace(family, certificates=certs)
    return mutate


class TestVerificationReports:
    """Each kind of wrong family gives its own violation, and only it."""

    def test_unmutated_family_is_ok(self):
        g, family = _dense_family()
        assert len(family.clusters) > 3
        assert all(c.size >= 3 for c in family.certificates[:3])
        check = verify_tightly_knit(g, family)
        assert check.ok and check.violations == []
        assert check.recomputed_capture == family.captured_triangle_fraction

    @pytest.mark.parametrize("mutate, want", [
        (lambda f: replace(f, total_triangles=f.total_triangles + 1),
         ["total triangle count mismatch"]),
        (_mutate_certificate(0, lambda c: {"edge_count": c.edge_count - 1}),
         ["cluster 0 edge count drifted"]),
        (_mutate_certificate(1, lambda c: {
            "triangle_count": c.triangle_count + 1}),
         ["cluster 1 triangle count drifted"]),
        (_mutate_certificate(2, lambda c: {"rho_edge": c.rho_edge * 1.001}),
         ["cluster 2 rho_edge mismatch"]),
        (_mutate_certificate(1, lambda c: {"rho_tri": None}),
         ["cluster 1 rho_tri definedness mismatch"]),
        (lambda f: replace(f, captured_triangle_fraction=(
            f.captured_triangle_fraction * 0.99)),
         ["captured fraction mismatch"]),
        (lambda f: replace(f, certificates=[
            replace(f.certificates[0], vertices=f.certificates[1].vertices),
            *f.certificates[1:]]),
         ["cluster 0 vertices drifted"]),
        (_mutate_certificate(1, lambda c: {"size": c.size + 1}),
         ["cluster 1 size drifted"]),
        (_mutate_certificate(2, lambda c: {"radius": 5}),
         ["cluster 2 radius drifted"]),
        (lambda f: replace(f, certificates=f.certificates[:-1]),
         ["13 certificates for 14 clusters"]),
        (_repeat_last_vertex, ["cluster 0 repeats vertices [247]"]),
        (_vertex_outside(250), ["cluster 1 has vertices outside "
                                "range(250): [250]",
                                "captured fraction mismatch"]),
        (_vertex_outside(-1), ["cluster 1 has vertices outside "
                               "range(250): [-1]",
                               "captured fraction mismatch"]),
        (_vertex_outside(1.5), ["cluster 1 must have an integer dtype, "
                                "not float64",
                                "captured fraction mismatch"]),
    ], ids=["total", "edge_count", "triangle_count", "rho_edge",
            "rho_tri_none", "captured", "vertices", "size", "radius",
            "missing_certificate", "repeated_vertex", "vertex_above_n",
            "negative_vertex", "non_integer_vertex"])
    def test_mutation_gives_its_message(self, mutate, want):
        g, family = _dense_family()
        check = verify_tightly_knit(g, mutate(family))
        assert not check.ok
        assert check.violations == want

    def test_repeated_cluster_overlaps(self):
        g, family = _dense_family()
        k = len(family.clusters)
        first = family.clusters[0]
        twice = replace(family, clusters=[*family.clusters, first],
                        certificates=[*family.certificates,
                                      family.certificates[0]])
        check = verify_tightly_knit(g, twice)
        assert check.violations == [
            f"cluster {k} overlaps earlier ones: {sorted(first)}",
            "captured fraction mismatch"]

    def test_disconnected_cluster_has_radius_beyond_two(self):
        # two triangles certified as one cluster: every count is right,
        # but no vertex reaches the other triangle
        g = disjoint_union(complete_graph(3), complete_graph(3))
        cert = ClusterCertificate(
            vertices=tuple(range(6)), size=6, edge_count=6, triangle_count=2,
            radius=7, rho_edge=6 / 15, rho_tri=2 / 20)
        family = TightlyKnitFamily(
            clusters=[tuple(range(6))], certificates=[cert],
            captured_triangle_fraction=1.0, epsilon=0.25, total_triangles=2)
        check = verify_tightly_knit(g, family)
        assert check.violations == ["cluster 0 has radius 7 > 2"]


def radius_one_candidates(g: Graph) -> list[tuple[int, int]]:
    """All vertex subsets inducing a radius-1 subgraph, as bitmasks with
    their internal triangle counts."""
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    out = []
    for bits in range(1, 2 ** g.n):
        members = [v for v in range(g.n) if bits >> v & 1]
        mset = set(members)
        if not any(mset - {v} <= adj[v] for v in members):
            continue
        tri = sum(1 for a, b, c in itertools.combinations(members, 3)
                  if b in adj[a] and c in adj[a] and c in adj[b])
        out.append((bits, tri))
    return out


def best_disjoint_capture(n: int, candidates: list[tuple[int, int]]) -> int:
    """Exact max triangles captured by any disjoint family (DP over masks)."""
    best = [0] * (2 ** n)
    for mask in range(1, 2 ** n):
        low = (mask & -mask).bit_length() - 1
        best[mask] = best[mask & (mask - 1)]  # leave the low vertex out
        for bits, tri in candidates:
            if bits & mask == bits and bits >> low & 1:
                best[mask] = max(best[mask], tri + best[mask & ~bits])
    return best[2 ** n - 1]


class TestRadiusOneCounterexample:
    def test_tripartite_radius_one_capture_is_bounded(self):
        # complete tripartite: radius-1 families top out at one part's
        # product of the other two, while radius-2 captures everything
        g3 = complete_multipartite([3, 3, 3])
        cap3 = best_disjoint_capture(9, radius_one_candidates(g3))
        assert cap3 == 9          # fraction 1/3 of 27
        family = tightly_knit_decomposition(g3)
        assert family.captured_triangle_fraction == 1.0

    def test_fraction_shrinks_with_part_size(self):
        g4 = complete_multipartite([4, 4, 4])
        cap4 = best_disjoint_capture(12, radius_one_candidates(g4))
        assert cap4 == 16         # fraction 1/4 of 64
        assert 16 / 64 < 9 / 27 < 1.0


class TestRadius:
    @staticmethod
    def brute_radius(g: Graph) -> int:
        dist = brute_all_pairs_dist(g)
        if (dist < 0).any():
            return g.n + 1
        return int(dist.max(axis=1).min()) if g.n else g.n + 1

    def test_matches_brute_min_eccentricity(self):
        graphs = list(random_graph_stream(60, 25, seed=181))
        graphs += [Graph.from_edges(np.zeros((0, 2), dtype=np.int64), n=n)
                   for n in (0, 1, 2)]
        graphs += [path_graph(2), star_graph(6), cycle_graph(7),
                   disjoint_union(complete_graph(3), complete_graph(3))]
        assert any(self.brute_radius(g) == g.n + 1 for g in graphs if g.n > 1)
        for g in graphs:
            assert _radius(g) == self.brute_radius(g), g.n

    def test_stops_at_the_lower_bound(self, monkeypatch):
        import netclass.triangles as tri_mod
        calls = []

        def counted(g, s):
            calls.append(s)
            return bfs_levels(g, s)

        monkeypatch.setattr(tri_mod, "bfs_levels", counted)
        # the hub has the top degree: one BFS proves radius 1
        assert _radius(star_graph(9)) == 1
        assert calls == [0]
        # no vertex sees all others; the first source reaching all in
        # two steps ends the scan
        calls.clear()
        assert _radius(complete_multipartite([2, 2, 2])) == 2
        assert len(calls) == 1
        # a disconnected graph stops at its first source
        calls.clear()
        g = disjoint_union(complete_graph(4), path_graph(5))
        assert _radius(g) == g.n + 1
        assert len(calls) == 1
