"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Set-up is what a user waits for before the first result: importing the
program (numpy, scipy, cesarobench), parsing the config and building the
panel.  run.py starts this several times and reports the median.
"""

import sys
import time

start = time.perf_counter()
if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.perf_counter() - start))
