"""Runs the benchmark's zsner commands from a small process of its own.

On Linux a child's ru_maxrss starts at the peak RSS of the process that
started it, because the count carries over the exec from the parent's
address space. Children of run.py, which holds the generated corpora and
reply plans, would report run.py's peak RSS instead of their own. This
process stays small, so the peak RSS that os.wait4 gives is the command's.

Protocol, one JSON object per line: run.py writes
{"argv", "cwd", "env", "out", "err", "timeout"} to stdin; this process
runs the command to completion and answers with
{"launch", "end", "returncode", "cpu_s", "rss_mb"} on stdout. `launch`
and `end` are time.monotonic() values, which all processes share. It
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"launch": launch, "end": end, "returncode": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
