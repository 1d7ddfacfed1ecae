"""Child process of `run.py` for `setup_s`.

    python3 perfbench/setup_probe.py <workload> <workdir>

Prints the seconds from just before `import catprob` to a ready job context.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports no catprob module)

if __name__ == "__main__":
    t0 = time.perf_counter()
    workloads.setup(sys.argv[1], sys.argv[2])
    print(repr(time.perf_counter() - t0))
