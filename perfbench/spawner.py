"""Child-process launcher with a small memory footprint.

On Linux the peak RSS that ``os.wait4`` reports for a child also counts
the memory of the process that spawned it, because the child starts as a
copy of that process. The benchmark holds numpy and parsed outputs, so
it launches every child through this small process instead.

Reads one JSON request per line on stdin, ``{"argv", "stdout",
"stderr"}``, runs the child to completion with this process's working
directory and environment, and answers with one JSON line, ``{"code",
"wall", "maxrss_kb"}``, where ``wall`` runs from spawn to exit. A child
still running after ``TIMEOUT_S`` is killed. Exits at the end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150.0


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
