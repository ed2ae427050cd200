"""Set-up probe: the imports and first solve of a fresh interpreter.

``run.py`` starts it as ``python3 perfbench/probe.py <workload>`` with the
checkout's ``src`` on PYTHONPATH.  It prints one JSON line with the seconds
spent importing the package and in the workload's warm-up solve.
"""

import importlib
import json
import sys
import time


def main(workload):
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    t1 = time.perf_counter()
    workloads.WORKLOADS[workload].warmup()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1])
