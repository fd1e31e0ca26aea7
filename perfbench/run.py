"""netclass benchmark: CLI wall time per subcommand on seeded synthetic graphs.

Usage, from the repository root:

    python3 perfbench/run.py --workload community --seed 1 --seconds 50 --trace 0

``--trace 0`` runs ``netclass --version`` and every subcommand as a user
runs them, one ``python -m netclass.cli`` child at a time, and reports
the end-to-end metrics. ``--trace 1`` is the separate traced
run: it runs all nine subcommands once as children, then calls the
same library functions in-process with spans around each call, and
reports the per-layer metrics (see traced.py). Either way every output
is checked (check.py), and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import procs
import traced
import workloads
from check import DEFAULT_SEED, Checker

SETUP_MIN_REPEATS = 9
SETUP_MIN_S = 1.0
# Each subcommand call is preceded by a ``--version`` call, so start-up
# gets as many samples as all subcommands together.
SCHEDULE = [call for stem in procs.CALLS for call in ("startup", stem)]


def write_graph(root: Path, workload: str, seed: int):
    """Generate the workload's graph and write it; the timed set-up step."""
    edges = workloads.generate(workload, seed)
    (root / procs.GRAPH_FILE).write_bytes(workloads.snap_text(edges))
    return edges


def setup(root: Path, workload: str, seed: int):
    """Median CPU time of repeated set-ups, over at least SETUP_MIN_S."""
    times = []
    end = time.perf_counter() + SETUP_MIN_S
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() < end:
        start = time.process_time()
        edges = write_graph(root, workload, seed)
        times.append(time.process_time() - start)
    return edges, statistics.median(times)


def measure(launcher, seconds: float, checker) -> dict:
    """Go through SCHEDULE round-robin until ``seconds`` are spent.

    The first round runs in full, so every metric has a sample; after
    that a call starts only if its last duration still fits before the
    deadline. Times are the CPU time (user + system) of each child, as
    ``os.wait4`` reports it; wall times go to stderr.
    """
    argv = {"startup": ["--version"]}
    argv.update({stem: procs.cli_argv(stem) for stem in procs.CALLS})
    launcher.cli(["--version"])      # warm the file cache, untimed
    cpu: dict[str, list[float]] = {stem: [] for stem in argv}
    wall: dict[str, list[float]] = {stem: [] for stem in argv}
    last: dict[str, float] = {}
    rss = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for done in itertools.count():
        stem = SCHEDULE[done % len(SCHEDULE)]
        now = time.perf_counter()
        if done < len(SCHEDULE):
            fits = now < deadline + procs.TIMEOUT_S   # bounds a run of hangs
        else:
            fits = now + last[stem] <= deadline
        if not fits:
            break
        child = launcher.cli(argv[stem])
        attempted += 1
        last[stem] = child.wall_s
        rss = max(rss, child.rss_mb)
        if not child.ok:
            problems = [f"exit {child.exit_code}, timed out: "
                        f"{child.timed_out}, stderr: {child.stderr[-300:]!r}"]
        elif stem == "startup":
            problems = []
        else:
            problems = checker.problems(stem, child.stdout)
        if problems:
            failed += 1
            print(f"FAILED {stem}: {problems}", file=sys.stderr)
        else:
            cpu[stem].append(child.cpu_s)
            wall[stem].append(child.wall_s)
    median = {stem: statistics.median(v) for stem, v in cpu.items() if v}
    for stem, v in wall.items():
        if v:
            print(f"{stem}: {len(v)} calls, median cpu {median[stem]:.4f} s, "
                  f"median wall {statistics.median(v):.4f} s", file=sys.stderr)
    metrics = {
        "startup_cpu_s": median.get("startup", 0.0),
        "total_cpu_s": sum(median.get(stem, 0.0) for stem in procs.CALLS),
        "peak_rss_mb": rss,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def unit(name: str, value) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_" in name:
        return "us"
    return "count" if isinstance(value, int) else "ratio"


def with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit(name, value)}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "netclass" / "cli.py").is_file():
        print("perfbench: run from the root of a netclass checkout "
              "(src/netclass/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / procs.WORK_DIR).mkdir(exist_ok=True)

    edges, setup_s = setup(root, args.workload, args.seed)
    checker = Checker(args.workload, args.seed, edges, root / procs.GRAPH_FILE)
    with procs.Launcher(root) as launcher:
        if args.trace:
            result = traced.run(root, launcher, args.workload, args.seed,
                                args.seconds, checker)
        else:
            result = measure(launcher, args.seconds, checker)
            result["metrics"]["setup_s"] = setup_s
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": with_units(result["metrics"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
