"""Run netclass as a user does: one CLI child process at a time.

Children are started by a lean helper process (launcher.py) that reaps
each one with ``os.wait4``, so each child's own peak RSS and CPU time
are read, not the maximum over every child so far and not the
benchmark's own size. A child that outlives its fixed timeout is killed
and reported as timed out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WORK_DIR = ".bench_work"
GRAPH_FILE = f"{WORK_DIR}/graph.txt"   # relative: it appears in every output
TIMEOUT_S = 30.0   # about ten times the slowest call

# metric stem -> CLI arguments placed before the edge-list path
CALLS = {
    "closure": ["closure"],
    "cliques": ["cliques"],
    "triangle": ["triangle"],
    "tkf": ["tkf"],
    "plb": ["plb"],
    "diameter": ["diameter", "--largest-cc"],
    "curve": ["curve"],
    "diameter_exact": ["diameter", "--exact", "--largest-cc"],
    "bct": ["bct", "--largest-cc"],
}


def cli_argv(stem: str) -> list[str]:
    return [*CALLS[stem], GRAPH_FILE]


@dataclass
class Child:
    """Outcome and resource use of one child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


class Launcher:
    """Helper process that starts, times and reaps every child."""

    def __init__(self, root: Path):
        self.root = root
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, python_args: list[str], timeout: float = TIMEOUT_S) -> Child:
        """Run ``python <python_args>`` in the checkout and wait for it."""
        out = self.root / WORK_DIR / "child.out"
        err = self.root / WORK_DIR / "child.err"
        request = {"argv": [sys.executable, *python_args],
                   "cwd": str(self.root), "env": child_env(self.root),
                   "timeout": timeout, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process ended unexpectedly")
        return Child(**json.loads(reply), stdout=out.read_bytes(),
                     stderr=err.read_bytes())

    def cli(self, argv: list[str]) -> Child:
        return self.run(["-m", "netclass.cli", *argv])
