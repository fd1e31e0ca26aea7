"""The benchmark's traced pass, run once against this checkout.

``perfbench/run.py --trace 1`` unpacks ``load_edge_list``'s result,
calls ``bfs_levels`` and the other library functions in-process, and
checks every output. A library change that breaks it would otherwise
show only as failed operations in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_traced_mesh_pass_is_correct(tmp_path):
    # run.py loads the library from ./src and writes .bench_work/ in the
    # working directory, so a directory holding only a link to src/
    # keeps the checkout clean
    (tmp_path / "src").symlink_to(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"),
         "--workload", "mesh", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == \
        (True, 0, 24), proc.stderr
    counts = {name: result["metrics"][name]["value"]
              for name in ("cliques.maximal", "tkf.phases")}
    assert counts == {"cliques.maximal": 1770, "tkf.phases": 0}


def test_traced_community_pass_is_correct(tmp_path):
    # the triangle-dense workload: its tkf and triangle children are
    # checked against the recorded sha256s and by verify_tightly_knit
    (tmp_path / "src").symlink_to(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"),
         "--workload", "community", "--seed", "1", "--seconds", "0",
         "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == \
        (True, 0, 24), proc.stderr
    counts = {name: result["metrics"][name]["value"] for name in
              ("triangles.t", "tkf.clusters", "tkf.phases",
               "tkf.edges_deleted", "closure.pairs", "cliques.degeneracy",
               "cliques.maximal")}
    assert counts == {"triangles.t": 106105, "tkf.clusters": 44,
                      "tkf.phases": 88, "tkf.edges_deleted": 3816,
                      "closure.pairs": 217696, "cliques.degeneracy": 32,
                      "cliques.maximal": 68840}
