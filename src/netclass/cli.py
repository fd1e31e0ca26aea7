"""Command-line front end: one subcommand per analysis family.

``main`` is the one document path: it loads the edge list, frames the
envelope (``schema_version``, ``tool_version`` and ``dataset``; ``fetch``
gets only the first two) and writes sorted-key JSON through ``_write`` to
stdout or ``--out``. Handlers return only their body, in original vertex
ids; ``cliques --enumerate`` writes lines instead. Runs are deterministic
for fixed inputs and seeds; wall-clock timings appear only with
``--timings``, so default output stays byte-identical across repeat runs.
Exit codes: 0 success, 1 data/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .closure import (_open_pairs, _weak_closure_from_pairs,
                      weak_closure_number)
from .cliques import (DEFAULT_CLIQUE_BUDGET, enumerate_all_cliques,
                      enumerate_maximal_cliques, maximum_clique)
from .datasets import MANIFEST, default_cache_dir, fetch_dataset
from .errors import BudgetExceededError, DatasetError, ParseError
from .graph import (Graph, _curve_from_table, closure_rate_curve,
                    load_edge_list, pair_table)
from .metric import bct_properties_report, eccentricities, two_sweep
from .plb import fit_gamma, plb_constant, plb_diagnostics
from .triangles import tightly_knit_decomposition, triangle_count_oriented

SCHEMA_VERSION = 1
# a phase budget must fit the interval timer; 1e9 s does wherever
# time_t is 32 bits or wider
MAX_BUDGET_SECONDS = 1e9


class _PhaseTimeout(Exception):
    pass


@contextmanager
def _alarm(seconds: float):
    """Interrupt the enclosed phase after a wall-clock budget (POSIX only)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def handler(signum, frame):
        raise _PhaseTimeout()

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _budget_seconds(text: str) -> float:
    """``--budget-seconds``: a positive, finite budget the timer can hold."""
    seconds = float(text)
    if not 0 < seconds <= MAX_BUDGET_SECONDS:
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds in (0, {MAX_BUDGET_SECONDS:g}], "
            f"got {text!r}")
    return seconds


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _maybe_largest_cc(g: Graph, use_largest: bool) -> Graph:
    if not use_largest:
        return g
    # looked up at call time, not bound at import, so that a wrapper put
    # on netclass.graph.largest_component (perfbench's traced run) is used
    from .graph import largest_component
    return largest_component(g)


# -- subcommand bodies -------------------------------------------------


def _cmd_closure(g: Graph, args) -> dict:
    profile = weak_closure_number(g)
    return {"n": g.n, "m": g.m, "c": profile.c_closure,
            "weak_c": profile.weak_closure}


def _cmd_cliques(g: Graph, args) -> dict | None:
    budget = args.budget
    if args.enumerate:
        cliques = enumerate_maximal_cliques(g, budget=budget)
        lines = [" ".join(str(g.label_of(v)) for v in c) + "\n"
                 for c in cliques]
        _write("".join(lines), args.out)
        return None
    if args.max:
        best = maximum_clique(g, budget=budget)
        return {"maximum_clique": sorted(g.label_of(v) for v in best),
                "maximum_clique_size": len(best)}
    if args.count_all:
        return {"all_cliques_count": enumerate_all_cliques(g, budget=budget)}
    return {"maximal_clique_count": len(enumerate_maximal_cliques(
        g, budget=budget))}


def _cmd_triangle(g: Graph, args) -> dict:
    res = triangle_count_oriented(g)
    return {"t": res.triangle_count, "w": res.wedge_count,
            "tau": res.density, "oriented_pair_checks": res.operation_count}


def _cmd_tkf(g: Graph, args) -> dict:
    family = tightly_knit_decomposition(g, epsilon=args.epsilon)
    clusters = []
    for members, cert in zip(family.clusters, family.certificates):
        clusters.append({
            "vertices": sorted(int(g.labels[v]) for v in members),
            "size": cert.size,
            "edges": cert.edge_count,
            "triangles": cert.triangle_count,
            "rho_edge": cert.rho_edge,
            "rho_tri": cert.rho_tri,
            "radius": cert.radius,
        })
    return {
        "clusters": clusters,
        "captured_fraction": family.captured_triangle_fraction,
        "total_triangles": family.total_triangles,
        "epsilon": family.epsilon,
        "phases_executed": len(family.phases),
        "cleaning_triangles_destroyed": family.cleaning_triangles_destroyed,
        "diagnostic": family.diagnostic,
    }


def _cmd_plb(g: Graph, args) -> dict:
    dd = g.degree_distribution()
    if args.gamma is None:
        chosen = fit_gamma(dd, shift=args.shift)
        fit = chosen.fit
        fit_info = {"auto_gamma": True, "objective": chosen.objective,
                    "heuristic": True}
    else:
        fit = plb_constant(dd, args.gamma, args.shift)
        fit_info = {"auto_gamma": False}
    buckets = [{
        "r": b.r, "lo": b.lo, "hi": b.hi, "mass": b.mass,
        "bound": fit.c_plb * dd.n * b.bound_sum,
        "slack": b.ratio / fit.c_plb if fit.c_plb > 0 else None,
    } for b in fit.buckets]
    body = {"gamma": fit.gamma, "shift": fit.shift, "c": fit.c_plb,
            "isolated_vertices": fit.isolated, "buckets": buckets}
    body.update(fit_info)
    if args.tail_csv:
        lines = ["k,tail_mass,reference,ratio"]
        lines += [f"{p.k},{p.tail_mass},{p.reference:.10g},{p.ratio:.10g}"
                  for p in plb_diagnostics(g, fit).tail]
        _write("\n".join(lines) + "\n", args.tail_csv)
        body["tail_csv"] = str(args.tail_csv)
    return body


def _cmd_diameter(g: Graph, args) -> dict:
    h = _maybe_largest_cc(g, args.largest_cc)
    if args.exact:
        profile = eccentricities(h)
        return {"method": "exact", "diameter": profile.diameter,
                "radius": int(profile.eccentricity.min()),
                "component_n": h.n}
    res = two_sweep(h)
    return {"method": "two-sweep", "diameter_lower_bound": res.lower_bound,
            "endpoints": [int(h.labels[res.turn]), int(h.labels[res.far])],
            "component_n": h.n}


def _cmd_bct(g: Graph, args) -> dict:
    h = _maybe_largest_cc(g, args.largest_cc)
    rep = bct_properties_report(h, sample_pairs=args.samples,
                                rng_seed=args.rng_seed)
    return {
        "component_n": h.n,
        "k_star": rep.k_star,
        # infinite when no source has a finite tau; JSON has no infinity
        "level_average": (rep.level_average
                          if math.isfinite(rep.level_average) else None),
        "infinite_tau_sources": rep.infinite_tau_sources,
        "sampled_pairs": rep.sampled_pairs,
        "skipped_pairs": rep.skipped_pairs,
        "property1_fraction": rep.property1_fraction,
        "property2_fraction": rep.property2_fraction,
        "tail": [[gamma, frac] for gamma, frac in rep.tail],
        "fit": {"c": rep.fit.c, "slope": rep.fit.slope,
                "r_squared": rep.fit.r_squared},
        "rng_seed": rep.rng_seed,
    }


def _cmd_curve(g: Graph, args) -> dict:
    curve = closure_rate_curve(g)
    csv_text = curve.to_csv()
    if args.csv:
        _write(csv_text, args.csv)
    return {
        "edge_density": curve.edge_density,
        "max_common_neighbors": int(curve.ks.max()) if curve.ks.size else 0,
        "pairs_with_common_neighbors": int(curve.pair_counts.sum()),
        "csv": str(args.csv) if args.csv else csv_text,
    }


def _cmd_report(g: Graph, args) -> dict:
    phases: dict[str, dict] = {}
    timings: dict[str, float] = {}

    def run_phase(name, fn):
        start = time.perf_counter()
        try:
            with _alarm(args.budget_seconds):
                phases[name] = {"status": "ok", **fn()}
        except _PhaseTimeout:
            phases[name] = {"status": "skipped",
                            "reason": f"budget of {args.budget_seconds}s exceeded"}
        except (ValueError, BudgetExceededError) as exc:
            phases[name] = {"status": "error", "reason": str(exc)}
        timings[name] = time.perf_counter() - start

    # the closure and curve phases read one pair table, built by the
    # first of them that gets that far and dropped after both ran
    table = None

    def shared_table():
        nonlocal table
        if table is None:
            table = pair_table(g)
        return table

    def closure_phase():
        p = _weak_closure_from_pairs(g, _open_pairs(shared_table()))
        return {"c": p.c_closure, "weak_c": p.weak_closure}

    def cliques_phase():
        cliques = enumerate_maximal_cliques(g, budget=args.clique_budget)
        largest = cliques.largest()
        return {"maximal_clique_count": len(cliques),
                "maximum_clique_size": len(largest)}

    def triangle_phase():
        res = triangle_count_oriented(g)
        return {"t": res.triangle_count, "w": res.wedge_count,
                "tau": res.density}

    def diameter_phase():
        h = _maybe_largest_cc(g, True)
        res = two_sweep(h)
        return {"method": "two-sweep",
                "diameter_lower_bound": res.lower_bound,
                "component_n": h.n}

    def curve_phase():
        curve = _curve_from_table(g, shared_table())
        rates = {int(k): c / p for k, p, c in
                 zip(curve.ks[:5], curve.pair_counts[:5], curve.closed_counts[:5])}
        return {"edge_density": curve.edge_density, "first_rates": rates}

    run_phase("closure", closure_phase)
    run_phase("curve", curve_phase)
    table = None
    run_phase("cliques", cliques_phase)
    run_phase("triangle", triangle_phase)
    run_phase("tkf", lambda: _cmd_tkf(g, args))
    run_phase("plb", lambda: _cmd_plb(g, args))
    run_phase("diameter", diameter_phase)

    body = {"phases": phases}
    if args.timings:
        body["timings_seconds"] = {k: round(v, 6) for k, v in timings.items()}
    return body


def _cmd_fetch(args) -> dict:
    res = fetch_dataset(args.name, cache_dir=args.cache_dir)
    return {"name": res.name, "path": str(res.path),
            "from_cache": res.from_cache, "verified": res.verified,
            "n": res.n, "m": res.m, "raw_edge_lines": res.raw_edge_lines,
            "note": res.note}


# -- argument parsing -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netclass",
        description="Analyses for social-network graph classes: closure "
                    "numbers, cliques, triangle density, tightly-knit "
                    "families, power-law bounds, and diameter heuristics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        if name != "fetch":
            p.add_argument("file", help="edge-list file (SNAP text format)")
        p.add_argument("--out", help="write JSON here instead of stdout")
        return p

    add("closure", _cmd_closure, "c-closure and weak closure numbers")

    p = add("cliques", _cmd_cliques, "maximal-clique analyses")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--max", action="store_true",
                      help="report one maximum clique")
    mode.add_argument("--count", action="store_true",
                      help="count maximal cliques (default)")
    mode.add_argument("--count-all", action="store_true", dest="count_all",
                      help="count all non-empty cliques")
    mode.add_argument("--enumerate", action="store_true",
                      help="print each maximal clique as a line of ids")
    p.add_argument("--budget", type=int, default=DEFAULT_CLIQUE_BUDGET,
                   help="abort beyond this many cliques")

    add("triangle", _cmd_triangle, "triangle and wedge statistics")

    p = add("tkf", _cmd_tkf, "tightly-knit family decomposition")
    p.add_argument("--epsilon", type=float, default=None,
                   help="cleaner threshold (default: triangle density / 4)")

    p = add("plb", _cmd_plb, "power-law-bounded degree check")
    p.add_argument("--gamma", type=float, default=None,
                   help="exponent; omitted = heuristic grid search")
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--tail-csv", dest="tail_csv",
                   help="write tail-mass diagnostics CSV here")

    p = add("diameter", _cmd_diameter, "diameter, exact or two-sweep")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--two-sweep", action="store_true", dest="two_sweep")
    p.add_argument("--largest-cc", action="store_true", dest="largest_cc",
                   help="restrict to the largest connected component")

    p = add("bct", _cmd_bct, "level-threshold metric properties")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    p.add_argument("--largest-cc", action="store_true", dest="largest_cc")

    p = add("curve", _cmd_curve, "closure-rate curve (CSV)")
    p.add_argument("--csv", help="write the curve CSV here "
                                 "(otherwise embedded in the JSON)")

    p = add("report", _cmd_report, "run every analysis with per-phase budgets")
    p.add_argument("--budget-seconds", type=_budget_seconds, default=60.0,
                   dest="budget_seconds")
    p.add_argument("--clique-budget", type=int, default=DEFAULT_CLIQUE_BUDGET,
                   dest="clique_budget")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical "
                        "reruns)")
    p.set_defaults(tail_csv=None)  # the plb phase runs the plb handler

    p = add("fetch", _cmd_fetch, "download and cache a known dataset")
    p.add_argument("name", choices=sorted(MANIFEST))
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help=f"cache directory (default {default_cache_dir()})")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    doc = {"schema_version": SCHEMA_VERSION, "tool_version": __version__}
    try:
        if args.command == "fetch":
            body = args.handler(args)
        else:
            g, stats = load_edge_list(args.file, return_stats=True)
            doc["dataset"] = {
                "path": str(args.file),
                "raw_edge_lines": stats.raw_lines,
                "self_loops_dropped": stats.self_loops,
                "duplicates_dropped": stats.duplicates,
                "n": g.n,
                "m": g.m,
            }
            body = args.handler(g, args)
        if body is not None:
            doc.update(body)
            _write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
                   + "\n", args.out)
        return 0
    except ParseError as exc:
        print(f"netclass: parse error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"netclass: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
