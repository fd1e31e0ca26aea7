"""Memory budgets of the pair, triangle, clique and BFS-sweep layers,
via tracemalloc.

tracemalloc counts every Python and NumPy allocation, so a peak repeats
exactly from run to run. Each bound below is linear in what the layer
must hold, with the walk's own transients as an explicit term, so that
keeping the whole pair table or one tuple per clique again fails here.
"""

from __future__ import annotations

import tracemalloc

import pytest

from netclass import graph as graph_module
from netclass.cliques import (EMIT_CHUNK, _bron_kerbosch,
                              enumerate_maximal_cliques)
from netclass.closure import weak_closure_number
from netclass.generators import moon_moser, random_connected_graph, random_graph
from netclass.graph import closure_rate_curve, wedge_count
from netclass.metric import bct_properties_report, eccentricities
from netclass.triangles import triangle_count_naive

# the streamed walk: per-edge arrays (heads, back, above, slot paths)
# take 32 bytes a CSR slot and one block's keys and counts at most 64
# bytes a wedge path, plus a fixed allowance for Python objects
SLOT_BYTES = 48
BLOCK_PATH_BYTES = 64
FIXED_BYTES = 64 * 1024
# the all-sources sweep: about 20 words a vertex (its per-vertex arrays
# and one level's unpacked bits), one word a CSR slot (the gathered
# frontier words) and 5 words a sampled pair, each term with some
# slack; one block's 64 x n distances alone would take 64 words a vertex
SWEEP_VERTEX_BYTES = 8 * 24
SWEEP_SLOT_BYTES = 8
SWEEP_PAIR_BYTES = 8 * 8


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, above those live at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_blocks(monkeypatch):
    # small blocks keep the walk's share well below the table's
    monkeypatch.setattr(graph_module, "PAIR_BLOCK_PATHS", 1 << 12)


def walk_bytes(g) -> int:
    """O(n + m + block): what streaming the pairs of g may hold."""
    return (SLOT_BYTES * (g.n + 2 * g.m)
            + BLOCK_PATH_BYTES * graph_module.PAIR_BLOCK_PATHS + FIXED_BYTES)


def test_curve_holds_one_block(small_blocks):
    g = random_graph(600, 0.08, seed=2)
    curve = closure_rate_curve(g)
    pairs = int(curve.pair_counts.sum())
    # a table of these pairs alone would take 21 bytes each
    assert 21 * pairs > walk_bytes(g)
    assert traced_peak(lambda: closure_rate_curve(g)) <= walk_bytes(g)


def test_plain_triangle_count_holds_one_block(small_blocks):
    g = random_graph(600, 0.08, seed=2)
    # gathering every wedge path's key at once would take 8 bytes a path
    assert 8 * wedge_count(g) > walk_bytes(g)
    assert traced_peak(lambda: triangle_count_naive(g)) <= walk_bytes(g)


def test_weak_closure_holds_32_bytes_an_open_pair(small_blocks):
    g = random_graph(600, 0.08, seed=2)
    curve = closure_rate_curve(g)
    open_pairs = int((curve.pair_counts - curve.closed_counts).sum())
    peak = traced_peak(lambda: weak_closure_number(g))
    assert peak <= 32 * open_pairs + walk_bytes(g)


def test_clique_count_holds_4_bytes_a_member():
    # Moon-Moser(27): 3^9 maximal cliques of 9 vertices each
    g = moon_moser(27)
    walk = traced_peak(lambda: _bron_kerbosch(g, lambda clique: None))
    count = traced_peak(lambda: len(enumerate_maximal_cliques(g)))
    cliques, members = 3 ** 9, 9 * 3 ** 9
    # int32 members and int64 ends, each with the array type's 1/16
    # spare capacity, and one chunk of members still held as a list
    assert count - walk <= 4.25 * members + 8.5 * cliques + 16 * EMIT_CHUNK


def test_sweep_holds_no_distance_matrix():
    g = random_connected_graph(5000, 2 / 5000, seed=1)
    bct_properties_report(g, sample_pairs=1)  # numpy.random's first import

    def sweep_bytes(pairs):
        return (SWEEP_VERTEX_BYTES * g.n + SWEEP_SLOT_BYTES * 2 * g.m
                + SWEEP_PAIR_BYTES * pairs + FIXED_BYTES)

    assert 8 * 64 * g.n > sweep_bytes(10_000)
    assert traced_peak(lambda: eccentricities(g)) <= sweep_bytes(0)
    assert traced_peak(lambda: bct_properties_report(g)) <= sweep_bytes(10_000)
