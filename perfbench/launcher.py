"""Start, time and reap child processes on behalf of the benchmark.

Linux records a process's peak RSS across fork and exec, so a child
forked straight from the benchmark, which holds NumPy, SciPy, networkx
and the graph, would report at least the benchmark's own size. This
launcher imports nothing heavy; children forked from it report their
own peak. It reads one JSON request per line on stdin and answers each
with one JSON line on stdout; it exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    killed = []

    def kill(proc):
        killed.append(True)
        proc.kill()

    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(req["timeout"], kill, args=(proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode,
            "timed_out": bool(killed)}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
