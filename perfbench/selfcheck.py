"""The benchmark's own tests: exact counts repeat, and the traces confirm the workload design.

    python3 perfbench/selfcheck.py [--seconds S]

Runs every workload traced (--trace 1) twice on seed 1 and once on seed 2.

* dynamics.steps, oracle.dim, oracle.components and runner.points must be
  identical on all three runs.
* serialize.bytes_written must be identical on the two seed-1 runs.  Across
  seeds it is only required to agree within 1%: the CSV writes 17
  significant digits, and the text of a value is as wide as its sign and
  exponent need, so the file size depends on the drawn parameters.
* runner.points_failed must be 0, every run must report correct = true.
* Layer shares must match the design: dynamics.share >= 0.8 on fig_runs and
  <= 0.25 on leakage_check; oracle.share >= 0.7 on leakage_check and 0 on
  the other two; serialize.share >= 0.2 on coarse_sweep and <= 0.05 on
  leakage_check.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
EXACT = ("dynamics.steps", "oracle.dim", "oracle.components", "runner.points")
SHARES = {
    "fig_runs": {"dynamics.share": (0.8, None), "oracle.share": (0.0, 0.0)},
    "coarse_sweep": {"serialize.share": (0.2, None), "oracle.share": (0.0, 0.0)},
    "leakage_check": {"dynamics.share": (None, 0.25), "oracle.share": (0.7, None),
                      "serialize.share": (None, 0.05)},
}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    failures = 0

    def report(ok: bool, text: str):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}", flush=True)

    for workload in workloads.WORKLOADS:
        runs = [traced_run(workload, seed, args.seconds) for seed in (1, 1, 2)]
        values = [{k: m["value"] for k, m in run["metrics"].items()} for run in runs]
        for run in runs:
            report(run["correct"] and run["failed"] == 0,
                   f"{workload}: {run['attempted']} ops, {run['failed']} failed")
        for name in EXACT:
            seen = [v[name] for v in values]
            report(len(set(seen)) == 1, f"{workload}: {name} identical across runs and seeds {seen}")
        written = [v["serialize.bytes_written"] for v in values]
        report(written[0] == written[1], f"{workload}: serialize.bytes_written identical "
                                         f"for one seed {written[:2]}")
        report(abs(written[2] - written[0]) <= 0.01 * max(written[0], 1.0),
               f"{workload}: serialize.bytes_written within 1% across seeds {written[::2]}")
        report(all(v["runner.points_failed"] == 0 for v in values),
               f"{workload}: runner.points_failed = 0")
        for name, (low, high) in SHARES[workload].items():
            share = values[0][name]
            ok = (low is None or share >= low) and (high is None or share <= high)
            report(ok, f"{workload}: {name} = {share:.4f} within [{low}, {high}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
