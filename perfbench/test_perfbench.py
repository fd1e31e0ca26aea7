"""Tests of the benchmark's own parts: generators, checker, entry point.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# (low, high) bounds on shape_stats() over seeds 1..3 at the recorded
# parameters; they pin each workload to the shape it stands in for
SHAPES = {
    "community": {"n": (900, 1000), "m": (15_500, 17_000),
                  "tau": (0.35, 0.42), "triangles": (100_000, 115_000)},
    "mesh": {"n": (900, 900), "m": (1_770, 1_770), "triangles": (0, 0)},
}


@pytest.mark.parametrize("name", sorted(workloads.PARAMS))
def test_one_seed_gives_identical_files(name):
    first = workloads.snap_text(workloads.generate(name, 7))
    assert first == workloads.snap_text(workloads.generate(name, 7))
    assert first != workloads.snap_text(workloads.generate(name, 8))


@pytest.mark.parametrize("name", sorted(workloads.PARAMS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shape_stats_in_stated_ranges(name, seed):
    edges = workloads.generate(name, seed)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == len(edges)
    stats = workloads.shape_stats(edges)
    for key, (lo, hi) in SHAPES[name].items():
        assert lo <= stats[key] <= hi, (key, stats[key])


def _cli_outputs(root: Path) -> dict[str, bytes]:
    """Every subcommand's output, produced in-process from ``root``."""
    from netclass import cli
    outs = {}
    for stem in procs.CALLS:
        path = root / procs.WORK_DIR / f"{stem}.json"
        assert cli.main([*procs.cli_argv(stem), "--out", str(path)]) == 0
        outs[stem] = path.read_bytes()
    return outs


@pytest.fixture
def mesh_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / procs.WORK_DIR).mkdir()
    edges = run.write_graph(tmp_path, "mesh", check.DEFAULT_SEED)
    checker = check.Checker("mesh", check.DEFAULT_SEED, edges,
                            tmp_path / procs.GRAPH_FILE)
    return tmp_path, checker, _cli_outputs(tmp_path)


def test_checker_accepts_real_outputs(mesh_run):
    _, checker, outs = mesh_run
    for stem, data in outs.items():
        assert checker.problems(stem, data) == [], stem


class FakeLauncher:
    """Answers every CLI call with a canned output instead of a child."""

    def __init__(self, outs: dict[str, bytes]):
        self.by_argv = {tuple(procs.cli_argv(stem)): data
                        for stem, data in outs.items()}

    def cli(self, argv):
        data = b"0.1.0\n" if argv == ["--version"] \
            else self.by_argv[tuple(argv)]
        return procs.Child(wall_s=1.0, cpu_s=1.0, rss_mb=50.0, exit_code=0,
                           timed_out=False, stdout=data, stderr=b"")


def test_one_changed_digit_counts_as_a_failure(mesh_run):
    _, checker, outs = mesh_run
    assert json.loads(outs["triangle"])["t"] == 0
    bad_t = outs["triangle"].replace(b'"t": 0', b'"t": 1')
    assert bad_t != outs["triangle"]
    assert checker.problems("triangle", bad_t)

    assert json.loads(outs["closure"])["c"] == 3
    bad_c = outs["closure"].replace(b'"c": 3', b'"c": 4')
    calls = len(run.SCHEDULE)   # seconds=0: one round
    clean = run.measure(FakeLauncher(outs), 0.0, checker)
    assert (clean["attempted"], clean["failed"]) == (calls, 0)
    corrupted = run.measure(FakeLauncher({**outs, "closure": bad_c}), 0.0,
                            checker)
    assert (corrupted["attempted"], corrupted["failed"]) == (calls, 1)


def test_exit_nonzero_without_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "mesh", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_launcher_reads_each_childs_own_peak_rss_and_timeout(tmp_path):
    (tmp_path / procs.WORK_DIR).mkdir()
    with procs.Launcher(tmp_path) as launcher:
        big = launcher.run(["-c", "b = b'x' * (100 * 2**20)"])
        small = launcher.run(["-c", "pass"])
        slow = launcher.run(["-c", "import time; time.sleep(10)"],
                            timeout=0.5)
    assert big.ok and big.rss_mb >= 100
    # not the maximum over earlier children, nor this process's size
    assert small.ok and small.rss_mb < 50
    assert slow.timed_out and not slow.ok and slow.wall_s < 5
