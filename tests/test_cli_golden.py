"""Golden output: every deterministic subcommand and mode, byte for byte.

Each case runs ``netclass.cli.main`` in a fresh directory holding one
fixture edge list, then hashes the exit code, stdout, stderr and every
file the run wrote. The expected digests in ``cli_golden.json`` pin the
emitted documents, so a change to how the CLI frames or serialises them
shows up here. Regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output
change is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from netclass.cli import main

GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")

FIXTURES = {
    # two triangles sharing a vertex, a separate path, vertex 9 isolated
    # once its self-loop is dropped, and one duplicate edge
    "disconnected": "# fixture\n1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n2 1\n"
                    "9 9\n10 11\n11 12\n12 13\n",
    # K4 on 0..3 plus the pendant path 3-4-5-6
    "k4_path": "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n",
}

# case name -> argv with "G" standing for the fixture file
CASES = {
    "closure": ["closure", "G"],
    "cliques": ["cliques", "G"],
    "cliques_count": ["cliques", "G", "--count"],
    "cliques_max": ["cliques", "G", "--max"],
    "cliques_count_all": ["cliques", "G", "--count-all"],
    "cliques_enumerate": ["cliques", "G", "--enumerate"],
    "triangle": ["triangle", "G"],
    "tkf": ["tkf", "G"],
    "tkf_epsilon": ["tkf", "G", "--epsilon", "0.3"],
    "plb": ["plb", "G"],
    "plb_gamma_tail": ["plb", "G", "--gamma", "2.5", "--tail-csv", "tail.csv"],
    "diameter": ["diameter", "G"],
    "diameter_cc": ["diameter", "G", "--largest-cc"],
    "diameter_exact_cc": ["diameter", "G", "--exact", "--largest-cc"],
    "bct_cc": ["bct", "G", "--largest-cc"],
    "curve": ["curve", "G"],
    "curve_csv": ["curve", "G", "--csv", "curve.csv"],
    "report": ["report", "G"],
    "closure_out": ["closure", "G", "--out", "doc.json"],
    "cliques_enumerate_out": ["cliques", "G", "--enumerate", "--out", "c.txt"],
    "plb_tail_out": ["plb", "G", "--tail-csv", "tail.csv", "--out", "doc.json"],
    "curve_csv_out": ["curve", "G", "--csv", "curve.csv", "--out", "doc.json"],
    "report_out": ["report", "G", "--out", "doc.json"],
}


def run_case(workdir: Path, fixture: str, case: str) -> dict[str, str]:
    """Digests of one run: exit code, stdout, stderr and each file written."""
    graph = workdir / "graph.txt"
    graph.write_text(FIXTURES[fixture])
    argv = [a if a != "G" else "graph.txt" for a in CASES[case]]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    digests = {"exit": str(code)}
    for name, stream in (("stdout", stdout), ("stderr", stderr)):
        digests[name] = hashlib.sha256(stream.getvalue().encode()).hexdigest()
    for f in sorted(workdir.iterdir()):
        if f != graph:
            digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


GOLDEN = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(tmp_path, fixture, case):
    assert run_case(tmp_path, fixture, case) == GOLDEN[f"{fixture}/{case}"]


if __name__ == "__main__":
    out = {}
    for fixture in sorted(FIXTURES):
        for case in sorted(CASES):
            with tempfile.TemporaryDirectory() as d:
                out[f"{fixture}/{case}"] = run_case(Path(d), fixture, case)
    GOLDEN_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
