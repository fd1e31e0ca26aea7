"""Traced run: per-layer time and work counts, kept apart from the timed run.

Spans are recorded from outside the library. The names the CLI module
calls into (``netclass.cli.weak_closure_number`` and so on) and
``netclass.graph.largest_component`` are swapped for wrappers that
open a ``<module>.<function>`` span, and ``netclass.cli.main`` runs
in-process under a ``cli.<subcommand>`` span. Pieces that cannot be
split from outside run as standalone calls on the same graph under the
same subcommand span: the pair table as ``c_closure_number``, the
degeneracy ordering, the degree orientation, the naive triangle
counter, the first full clean at the tkf default epsilon and the first
extraction, the certifier, one BFS and the CSR build. BFS runs made by
the metric module are counted through a wrapper on
``netclass.metric.bfs_levels``.

Spans live in memory and are written to ``.bench_work`` when the run
ends. The wrappers are removed again before the run returns.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import procs
from check import sha256

# names netclass.cli imports and calls; each becomes a span
CLI_CALLS = ("load_edge_list", "weak_closure_number",
             "enumerate_maximal_cliques", "triangle_count_oriented",
             "tightly_knit_decomposition", "fit_gamma", "two_sweep",
             "eccentricities", "bct_properties_report", "closure_rate_curve")

PROBE_REPEATS = 3


class Tracer:
    """In-memory spans with parents, plus the last result of each call."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.last: dict[str, object] = {}
        self.bfs_calls = 0

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self.stack[-1] if self.stack else None,
               "start": time.perf_counter() - self.origin, "end": None,
               "bfs": self.bfs_calls}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.origin
            rec["bfs"] = self.bfs_calls - rec["bfs"]
            self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            out = fn(*args, **kwargs)
        self.last[name] = out
        return out

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def count_calls(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.bfs_calls += 1
            return fn(*args, **kwargs)
        return counted


@contextmanager
def instrumented(tracer: Tracer):
    from netclass import cli, graph, metric
    saved = [(cli, name, getattr(cli, name)) for name in CLI_CALLS]
    saved += [(graph, "largest_component", graph.largest_component),
              (metric, "bfs_levels", metric.bfs_levels)]
    for module, name, fn in saved:
        wrapper = tracer.count_calls(fn) if name == "bfs_levels" \
            else tracer.wrap(fn)
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


# -- standalone pieces, run after each subcommand on the same graph ----


def _closure_pieces(tr: Tracer) -> None:
    from netclass.closure import c_closure_number
    from netclass.graph import Graph
    g, _ = tr.last["graph.load_edge_list"]
    tr.call("closure.c_closure_number", c_closure_number, g)
    edges = g.edge_array()
    tr.call("graph.from_edges", Graph.from_edges, edges, n=g.n)


def _cliques_pieces(tr: Tracer) -> None:
    from netclass.cliques import degeneracy_ordering
    g, _ = tr.last["graph.load_edge_list"]
    tr.call("cliques.degeneracy_ordering", degeneracy_ordering, g)


def _triangle_pieces(tr: Tracer) -> None:
    from netclass.cliques import degree_orientation
    g, _ = tr.last["graph.load_edge_list"]
    tr.call("cliques.degree_orientation", degree_orientation, g)


def _tkf_pieces(tr: Tracer) -> None:
    from netclass.triangles import (clean, extract, triangle_count_naive,
                                    verify_tightly_knit)
    g, _ = tr.last["graph.load_edge_list"]
    naive = tr.call("triangles.triangle_count_naive", triangle_count_naive, g)
    # the decomposition's first clean examines every edge at tau/4; a
    # triangle-free graph is never cleaned, so there the call examines
    # no edge and costs only the cleaner's per-call rebuild
    if naive.density > 0:
        cleaned, _ = tr.call("triangles.clean", clean, g, naive.density / 4)
    else:
        cleaned, _ = tr.call("triangles.clean", clean, g, 1.0, seeds=[])
    tr.call("triangles.extract", extract, cleaned)
    family = tr.last["triangles.tightly_knit_decomposition"]
    tr.call("triangles.verify_tightly_knit", verify_tightly_knit, g, family)


def _diameter_pieces(tr: Tracer) -> None:
    from netclass.graph import bfs_levels
    h = tr.last["graph.largest_component"]
    tr.call("graph.bfs_levels", bfs_levels, h, 0)


PIECES = {"closure": _closure_pieces, "cliques": _cliques_pieces,
          "triangle": _triangle_pieces, "tkf": _tkf_pieces,
          "diameter": _diameter_pieces}

LAYER_SPANS = (
    "graph.load_edge_list", "graph.from_edges", "graph.closure_rate_curve",
    "graph.largest_component", "graph.bfs_levels", "metric.two_sweep",
    "metric.eccentricities", "metric.bct_properties_report",
    "closure.c_closure_number", "closure.weak_closure_number",
    "cliques.degeneracy_ordering", "cliques.enumerate_maximal_cliques",
    "cliques.degree_orientation", "triangles.triangle_count_oriented",
    "triangles.triangle_count_naive", "triangles.clean", "triangles.extract",
    "triangles.tightly_knit_decomposition", "plb.fit_gamma",
    "triangles.verify_tightly_knit")


def _one_pass(root: Path, tr: Tracer, sha: dict) -> tuple[dict, int, int]:
    """Every subcommand once in-process.

    Returns the pass's layer times, its failures (a nonzero exit or an
    output that differs from the checked CLI output) and the BFS runs
    the metric module made.
    """
    from netclass import cli
    first = len(tr.spans)
    failed = 0
    residual = {}
    for stem in procs.CALLS:
        out = root / procs.WORK_DIR / f"traced-{stem}.json"
        out.unlink(missing_ok=True)
        with tr.span(f"cli.{stem}"):
            with tr.span("cli.main") as main:
                try:
                    code = cli.main([*procs.cli_argv(stem), "--out", str(out)])
                except Exception as exc:  # count it; keep tracing the rest
                    print(f"FAILED traced {stem}: {exc!r}", file=sys.stderr)
                    code = -1
            if stem in PIECES and code == 0:
                PIECES[stem](tr)
        children = sum(s["end"] - s["start"] for s in tr.spans[first:]
                       if s["parent"] == main["id"])
        residual[stem] = main["end"] - main["start"] - children
        if code != 0 or sha256(out.read_bytes()) != sha[stem]:
            failed += 1
            print(f"FAILED traced {stem}: exit {code} or output differs "
                  "from the checked CLI output", file=sys.stderr)
    durations: dict[str, list[float]] = {}
    bfs: dict[str, int] = {}
    for s in tr.spans[first:]:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
        bfs[s["name"]] = bfs.get(s["name"], 0) + s["bfs"]
    times = {f"{name}_s": statistics.median(durations[name])
             for name in LAYER_SPANS if name in durations}
    times["closure.greedy_s"] = (times["closure.weak_closure_number_s"]
                                 - times["closure.c_closure_number_s"])
    times.update({f"cli.{stem}.residual_s": r for stem, r in residual.items()})
    times["metric.us_per_bfs"] = 1e6 * times["metric.eccentricities_s"] \
        / bfs["metric.eccentricities"]
    bfs_runs = sum(bfs[f"cli.{stem}"] for stem in procs.CALLS)
    return times, failed, bfs_runs


def _counts(tr: Tracer, bfs_runs: int) -> dict:
    g, _ = tr.last["graph.load_edge_list"]
    closure = tr.last["closure.weak_closure_number"]
    curve = tr.last["graph.closure_rate_curve"]
    tri = tr.last["triangles.triangle_count_oriented"]
    family = tr.last["triangles.tightly_knit_decomposition"]
    cliques = tr.last["cliques.enumerate_maximal_cliques"]
    return {
        "graph.n": g.n, "graph.m": g.m, "graph.wedges": tri.wedge_count,
        "closure.pairs": int((curve.pair_counts - curve.closed_counts).sum()),
        "closure.c": closure.c_closure, "closure.weak_c": closure.weak_closure,
        "cliques.maximal": len(cliques),
        "cliques.degeneracy":
            tr.last["cliques.degeneracy_ordering"].degeneracy,
        "triangles.t": tri.triangle_count,
        "triangles.oriented_ops": tri.operation_count,
        "tkf.clusters": len(family.clusters),
        "tkf.phases": len(family.phases),
        "tkf.edges_deleted": sum(p.edges_deleted for p in family.phases),
        "tkf.captured_fraction": family.captured_triangle_fraction,
        "metric.bfs_runs": bfs_runs,
    }


def run(root: Path, launcher, workload: str, seed: int, seconds: float,
        checker) -> dict:
    deadline = time.perf_counter() + seconds
    attempted = failed = 0
    metrics: dict = {}

    def probe(args):
        nonlocal attempted, failed
        walls = []
        for _ in range(PROBE_REPEATS):
            child = launcher.run(args)
            attempted += 1
            failed += not child.ok
            walls.append(child.wall_s)
        return statistics.median(walls)

    interpreter = probe(["-c", "pass"])
    metrics["cli.interpreter_s"] = interpreter
    imported = probe(["-c", "import netclass.cli"])
    metrics["cli.import_s"] = imported - interpreter

    sha = {}
    for stem in procs.CALLS:
        child = launcher.cli(procs.cli_argv(stem))
        attempted += 1
        problems = checker.problems(stem, child.stdout) if child.ok else \
            [f"exit {child.exit_code}, timed out: {child.timed_out}"]
        if problems:
            failed += 1
            print(f"FAILED {stem}: {problems}", file=sys.stderr)
        else:
            sha[stem] = sha256(child.stdout)
        metrics[f"cli.{stem}_s"] = child.wall_s
        metrics[f"cpu.{stem}_s"] = child.cpu_s
        metrics[f"rss.{stem}_mb"] = child.rss_mb
    if len(sha) < len(procs.CALLS):
        # a subcommand that failed or hung as a child is not run in-process
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    tracer = Tracer()
    passes = []
    try:
        with instrumented(tracer):
            while not passes or time.perf_counter() < deadline:
                times, bad, bfs_runs = _one_pass(root, tracer, sha)
                attempted += len(procs.CALLS)
                failed += bad
                passes.append(times)
        for key in passes[0]:
            metrics[key] = statistics.median(p[key] for p in passes)
        metrics.update(_counts(tracer, bfs_runs))
        metrics["cliques.us_per_clique"] = \
            1e6 * metrics["cliques.enumerate_maximal_cliques_s"] \
            / max(metrics["cliques.maximal"], 1)
        metrics["triangles.triangles_per_op"] = \
            metrics["triangles.t"] / max(metrics["triangles.oriented_ops"], 1)
    except Exception:  # a broken layer is a failure, not a crashed run
        traceback.print_exc()
        failed += 1

    trace_file = root / procs.WORK_DIR / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps(
        [{k: s[k] for k in ("name", "start", "end", "parent")}
         for s in tracer.spans]))
    print(f"traced passes: {len(passes)}; spans in {trace_file}",
          file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
