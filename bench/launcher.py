"""Starts the benchmark's child processes from a process that stays small.

On Linux a child's peak RSS (``ru_maxrss`` from ``wait4``) is never below
the peak RSS of the process that spawned it, because the kernel counts
the spawning process's pages until ``exec``. The benchmark holds whole
workloads and reports in memory, so it spawns children through this
launcher instead.

Protocol: one JSON job per stdin line, ``{"argv", "cwd", "env", "stderr",
"timeout_s"}``; one JSON result per stdout line, ``{"wall_s", "rss_mb",
"code"}``. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    with open(job["stderr"], "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            job["argv"], cwd=job["cwd"], env=job["env"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        watchdog = threading.Timer(job["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall_s, "rss_mb": usage.ru_maxrss * 1024 / 1e6, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
