"""Set-up time of one workload, measured in a fresh interpreter.

Times importing qdrabi (with its command-line module), generating the
workload's configs from the seed, writing them and parsing them back, and
prints {"setup_s": ..., "kernel_s": [before, after], "configs": [...]} as
JSON, where kernel_s are the set-up reference kernel's times (calibrate.py)
just before and just after the timed part.

    python3 perfbench/setup_probe.py --src SRC --workload NAME --seed N --dir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads
from calibrate import Kernel


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    kernel = Kernel("setup")
    kernel.sample()  # warm the kernel's own first-call costs
    before = kernel.sample()
    started = time.perf_counter()
    sys.path.insert(0, args.src)
    import qdrabi.cli  # noqa: F401  (the import is what is timed)
    from qdrabi.config import SweepConfig, parse_config_file

    paths = workloads.write_configs(args.workload, args.seed, args.dir)
    for path in paths:
        config = parse_config_file(path)
        if isinstance(config, SweepConfig) != (args.workload == "coarse_sweep"):
            raise SystemExit(f"{path}: parsed to an unexpected config kind")
    elapsed = time.perf_counter() - started
    after = kernel.sample()
    print(json.dumps({"setup_s": elapsed, "kernel_s": [before, after],
                      "configs": [str(p) for p in paths]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
