"""Graph analytics for the deterministic social-network graph classes:
closure numbers, maximal cliques, triangle-dense decompositions,
power-law-bounded degree checks, and diameter heuristics.

The public names below load their submodule on first access (PEP 562),
so ``import netclass`` loads neither NumPy nor any submodule, and the
CLI can set up the process environment before NumPy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "graph": ("Graph", "DegreeDistribution", "ClosureRateCurve", "BfsLevels",
              "load_edge_list", "wedge_count", "closure_rate_curve",
              "bfs_levels", "connected_components", "largest_component"),
    "closure": ("ClosureProfile", "c_closure_number", "is_c_good",
                "weak_closure_number"),
    "cliques": ("CliqueSet", "OrientedGraph", "enumerate_maximal_cliques",
                "enumerate_maximal_cliques_backtracking", "maximum_clique",
                "degeneracy_ordering", "degree_orientation",
                "enumerate_all_cliques"),
    "triangles": ("TriangleStats", "TightlyKnitFamily", "ExtractorTrace",
                  "triangle_count_naive", "triangle_count_oriented",
                  "triangle_density", "clean", "extract",
                  "tightly_knit_decomposition", "verify_tightly_knit"),
    "plb": ("PlbFit", "PlbCheck", "GammaFit", "plb_constant", "is_plb",
            "fit_gamma", "plb_diagnostics"),
    "metric": ("MetricProfile", "TwoSweepResult", "BctReport",
               "EccDecomposition", "eccentricities", "two_sweep", "tau",
               "bct_properties_report", "eccentricity_decomposition_report"),
    "errors": ("ParseError", "BudgetExceededError", "NotConnectedError",
               "DatasetError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
