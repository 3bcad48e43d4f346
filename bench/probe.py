"""Set-up probe: a fresh interpreter imports the package and runs one op.

    python3 bench/probe.py <workload> <seed>

``run.py`` times this process from start to exit as the workload's set-up.
An op that raises is timed all the same; the timed passes count it as failed.
"""

import contextlib
import sys

import workloads

if __name__ == "__main__":
    with contextlib.suppress(Exception):
        workloads.make(sys.argv[1], int(sys.argv[2])).warmup_op().run()
