"""The benchmark in perfbench/ still runs, and checks, against the package in src/.

perfbench wraps internal names of the package when it traces and reads
internal results when it checks an op, so a change under src/ can break it
while the package's own tests pass.  It wraps runner._sweep_point,
runner.ProcessPoolExecutor (resolved on first use), oracle.basis_index and
build_hamiltonian with its positional cutoffs; it reads the output path from
the first argument of runner.write_timeseries_csv(path, series) and
runner.write_p2_csv(path, p2_text), which takes the text the first returned,
and reads TimeSeries.p2, to_dynamics_spec().y0.as_tuple(),
SweepConfig.points() as a list and .s/.m/.n of the elements of
oracle.manifold_states(...).  `spans.install` looks up every wrapped name
whatever the workload, and between them the coarse_sweep and leakage_check
checkers read every coupling, so a short traced run of each covers what the
benchmark depends on.  The run works on a copy of src/ and
perfbench/, since perfbench writes its work and span files next to them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["coarse_sweep", "leakage_check"])
def test_traced_run_is_correct(tmp_path, workload):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result.get("correct") is True, proc.stdout
