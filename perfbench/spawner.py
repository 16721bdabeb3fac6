"""Start, time and reap processes on request from run.py.

Reads one JSON request per line on stdin:
``{"argv", "out", "err", "env", "cwd", "limit_s"}``, runs the process with
its output in the named files, and answers with one JSON line:
``{"wall_s", "code", "cpu_s", "rss_kb"}``.  A process still running after
``limit_s`` is killed.

The kernel counts the memory a child had at fork time in its peak resident
set (``ru_maxrss``).  Forking mcw from this small process, rather than from
run.py, which holds calibration tables and whole outputs, keeps that peak
the child's own.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=req["env"], cwd=req["cwd"],
        )
        killer = threading.Timer(req["limit_s"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    reply = {
        "wall_s": wall,
        "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }
    print(json.dumps(reply), flush=True)
