"""Starts the benchmark's `rleval` subprocesses from a process that stays small.

A child's peak RSS from wait4 includes the image of the process that forked
it, so commands forked from the benchmark itself (numpy and scipy loaded)
would report ~100 MB whatever they used. The server half of this file,
run as a script, imports only the standard library: it reads one JSON
request per line on stdin (argv, cwd, env, log path, timeout), runs it, and
answers one JSON line with the exit code, wall seconds, CPU seconds and peak
RSS in MB. `Spawner` is the client half.
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

PROCESS_TIMEOUT = 170.0


@dataclass
class Sample:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    output: str


class Spawner:
    """Runs `python -m rleval.cli` commands through a spawn.py server."""

    def __init__(self, src):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def run_cli(self, args, cwd):
        log = cwd / "command.log"
        request = {
            "argv": [sys.executable, "-m", "rleval.cli", *(str(a) for a in args)],
            "cwd": str(cwd),
            "env": dict(os.environ, PYTHONPATH=str(self.src)),
            "log": str(log),
            "timeout": PROCESS_TIMEOUT,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        output = log.read_text(encoding="utf-8", errors="replace")
        return Sample(output=output, **answer)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def serve(request):
    with open(request["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(serve(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
