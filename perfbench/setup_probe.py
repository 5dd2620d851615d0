"""Cold set-up probe: import diffcomb and build a workload's config(s).

    python3 perfbench/setup_probe.py WORKLOAD SEED SMOKE(0|1)

run.py starts it in a fresh interpreter for every set-up sample.  The
clock starts before diffcomb (and numpy) is imported; the interpreter's
own start-up is not counted.  Prints the seconds as one JSON object.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, build_configs  # noqa: E402


def main() -> int:
    name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    build_configs(WORKLOADS[name], seed, smoke)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
