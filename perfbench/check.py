"""Check every CLI output against references computed off the timed path.

The references come from the benchmark's own SciPy code and from
networkx, never from the netclass routes under test, so the
cross-route identities hold transitively: ``triangle.t`` (oriented
counter), ``tkf.total_triangles`` (naive counter) and the curve's
``sum(k * closed_k) / 3`` must all equal one reference triangle count,
and ``closure.c`` and the curve's ``1 + max{k : pairs_k > closed_k}``
one reference c. The only netclass call here is
``verify_tightly_knit``, the library's independent certifier, run on
the clusters ``tkf`` printed.

Run as a script to re-record the output hashes for the default seed:
``python3 perfbench/check.py --record`` from the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import sparse

import procs
import workloads

DEFAULT_SEED = 1
SHA_FILE = Path(__file__).with_name("expected_sha256.json")
BCT_SAMPLES = 10_000        # the CLI's default --samples


@dataclass
class Reference:
    n: int
    m: int
    wedges: int
    triangles: int
    c: int
    degree_counts: np.ndarray   # degree_counts[d] = vertices of degree d
    maximal_cliques: int
    component_n: int            # largest connected component
    diameter: int               # of the largest connected component


def reference(edges: np.ndarray) -> Reference:
    labels, dense = np.unique(edges, return_inverse=True)
    dense = dense.reshape(edges.shape)
    n = len(labels)
    rows = np.concatenate([dense[:, 0], dense[:, 1]])
    cols = np.concatenate([dense[:, 1], dense[:, 0]])
    a = sparse.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)),
                          shape=(n, n))
    p = (a @ a).tocsr()
    p.setdiag(0)
    triangles = int(p.multiply(a).sum()) // 6
    open_pairs = (p - p.multiply(a)).tocsr()
    open_pairs.eliminate_zeros()
    deg = np.asarray(a.sum(axis=1)).ravel()

    g = nx.Graph()
    g.add_edges_from(edges.tolist())
    cliques = sum(1 for _ in nx.find_cliques(g))
    comp = g.subgraph(max(nx.connected_components(g), key=len))
    return Reference(
        n=n, m=len(edges), wedges=int((deg * (deg - 1) // 2).sum()),
        triangles=triangles,
        c=int(open_pairs.data.max()) + 1 if open_pairs.nnz else 1,
        degree_counts=np.bincount(deg), maximal_cliques=cliques,
        component_n=comp.number_of_nodes(),
        diameter=nx.diameter(comp, usebounds=True))


def _plb_constant(counts: np.ndarray, n: int, gamma: float) -> float:
    """Largest dyadic-bucket ratio mass / (n * sum d^-gamma), shift 0."""
    d_max = len(counts) - 1
    best = 0.0
    r = 0
    while 2 ** r <= d_max:
        lo, hi = 2 ** r, 2 ** (r + 1)
        mass = int(counts[lo:min(hi, d_max) + 1].sum())
        d = np.arange(lo, hi + 1, dtype=np.float64)
        best = max(best, mass / (n * float((d ** -gamma).sum())))
        r += 1
    return best


def _curve_rows(text: str) -> list[tuple[int, int, int]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [(int(r["k"]), int(r["pairs"]), int(r["closed"])) for r in rows]


def _check_tkf(doc: dict, graph) -> list[str]:
    from netclass.triangles import (ClusterCertificate, TightlyKnitFamily,
                                    verify_tightly_knit)
    clusters, certs = [], []
    for c in doc["clusters"]:
        members = tuple(graph.index_of(v) for v in c["vertices"])
        clusters.append(members)
        certs.append(ClusterCertificate(
            vertices=members, size=c["size"], edge_count=c["edges"],
            triangle_count=c["triangles"], radius=c["radius"],
            rho_edge=c["rho_edge"], rho_tri=c["rho_tri"]))
    family = TightlyKnitFamily(
        clusters=clusters, certificates=certs,
        captured_triangle_fraction=doc["captured_fraction"],
        epsilon=doc["epsilon"], total_triangles=doc["total_triangles"])
    res = verify_tightly_knit(graph, family)
    return [] if res.ok else [f"verify_tightly_knit: {res.violations[:3]}"]


def check_output(stem: str, doc: dict, ref: Reference, graph) -> list[str]:
    """Problems found in one subcommand's JSON output; empty when correct."""
    bad = []

    def want(label, got, expected):
        if got != expected:
            bad.append(f"{label} = {got!r}, expected {expected!r}")

    ds = doc["dataset"]
    want("dataset.path", ds["path"], procs.GRAPH_FILE)
    want("dataset.n", ds["n"], ref.n)
    want("dataset.m", ds["m"], ref.m)
    if stem == "closure":
        want("c", doc["c"], ref.c)
        if not 1 <= doc["weak_c"] <= doc["c"]:
            bad.append(f"weak_c = {doc['weak_c']} outside [1, c={doc['c']}]")
    elif stem == "cliques":
        want("maximal_clique_count", doc["maximal_clique_count"],
             ref.maximal_cliques)
    elif stem == "triangle":
        want("t", doc["t"], ref.triangles)
        want("w", doc["w"], ref.wedges)
    elif stem == "tkf":
        want("total_triangles", doc["total_triangles"], ref.triangles)
        bad += _check_tkf(doc, graph)
    elif stem == "plb":
        expected = _plb_constant(ref.degree_counts, ref.n, doc["gamma"])
        if not math.isclose(doc["c"], expected, rel_tol=1e-9):
            bad.append(f"plb c = {doc['c']!r}, recomputed {expected!r}")
    elif stem == "diameter":
        want("component_n", doc["component_n"], ref.component_n)
        if not 1 <= doc["diameter_lower_bound"] <= ref.diameter:
            bad.append(f"two-sweep bound {doc['diameter_lower_bound']} "
                       f"outside [1, {ref.diameter}]")
    elif stem == "diameter_exact":
        want("component_n", doc["component_n"], ref.component_n)
        want("diameter", doc["diameter"], ref.diameter)
    elif stem == "bct":
        want("component_n", doc["component_n"], ref.component_n)
        want("k_star", doc["k_star"], math.ceil(math.sqrt(ref.component_n)))
        want("sampled_pairs", doc["sampled_pairs"], BCT_SAMPLES)
    elif stem == "curve":
        rows = _curve_rows(doc["csv"])
        want("sum(k * closed_k)", sum(k * c for k, _, c in rows),
             3 * ref.triangles)
        open_ks = [k for k, p, c in rows if p > c]
        want("1 + max open k", 1 + max(open_ks, default=0), ref.c)
        want("pairs_with_common_neighbors",
             doc["pairs_with_common_neighbors"], sum(p for _, p, _ in rows))
    return bad


def expected_hashes(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(SHA_FILE.read_text()).get(workload, {})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Validates each distinct output of a subcommand once, then by hash."""

    def __init__(self, workload: str, seed: int, edges: np.ndarray,
                 graph_path: Path):
        from netclass.graph import load_edge_list
        self.ref = reference(edges)
        self.graph = load_edge_list(str(graph_path))
        self.expected = expected_hashes(workload, seed)
        self.verdicts: dict[tuple[str, str], list[str]] = {}

    def problems(self, stem: str, stdout: bytes) -> list[str]:
        digest = sha256(stdout)
        key = (stem, digest)
        if key not in self.verdicts:
            bad = []
            if stem in self.expected and digest != self.expected[stem]:
                bad.append(f"stdout sha256 {digest[:12]} differs from the "
                           f"recorded {self.expected[stem][:12]}")
            try:
                bad += check_output(stem, json.loads(stdout), self.ref,
                                    self.graph)
            except (ValueError, KeyError, TypeError) as exc:
                bad.append(f"unreadable output: {exc!r}")
            self.verdicts[key] = bad
        return self.verdicts[key]


def _record() -> None:
    """Write the stdout hashes of every subcommand for the default seed."""
    root = Path.cwd()
    (root / procs.WORK_DIR).mkdir(exist_ok=True)
    table = {}
    with procs.Launcher(root) as launcher:
        for name in workloads.PARAMS:
            edges = workloads.generate(name, DEFAULT_SEED)
            (root / procs.GRAPH_FILE).write_bytes(workloads.snap_text(edges))
            table[name] = {}
            for stem in procs.CALLS:
                child = launcher.cli(procs.cli_argv(stem))
                if not child.ok:
                    sys.exit(f"{name} {stem} failed: {child.stderr[-500:]!r}")
                table[name][stem] = sha256(child.stdout)
    SHA_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="re-record expected_sha256.json")
    parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    _record()
