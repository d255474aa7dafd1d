"""End-to-end and per-layer benchmark of the qdrabi command line.

    python3 perfbench/run.py --workload {fig_runs,coarse_sweep,leakage_check} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One closed-loop client calls
`qdrabi.cli.main` in-process: each op is one `run`, `sweep` or `check`
invocation on a generated config file, and the next op starts only when the
previous one has returned and its outputs have been checked (checks are not
timed).  Ops cycle through the workload's config pool (see workloads.py).

Before timing, a fresh interpreter is started seven times to measure set-up
(import qdrabi, write and parse the configs), and one untimed warm-up op is
run, so first-call costs land in neither `setup_s` nor `op_s.*`.

--trace 0 runs ops for S seconds and reports the end-to-end metrics:
setup_s, op_s.p50, op_s.tail, points_per_s, peak_rss_mib.  The host's speed
drifts, so the workload's reference kernel (calibrate.py) is timed before the
first op and after every op, and each set-up probe times the set-up kernel
just before and after its timed part; each op and each probe is scaled by its
kernel's REFERENCE_S over the mean kernel time around it, and the timings are
reported in those reference seconds.  The raw wall times are printed in the
detail line.
--trace 1 times untraced ops for S/2 seconds, then installs span wrappers
(spans.py) and runs whole pool cycles for S/2 more, and reports per-layer
metrics per op plus bench.warmup_s and trace.overhead_frac.  The spans, kept
in memory while ops run, are written to .perfbench_spans/WORKLOAD-SEED.json
when the run ends.

The last line of standard output is the result object; the line before it
holds details: failed_frac, the tail percentile with its sample counts, the
failures, and the environment (CPU, library versions, BLAS threads).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import WINDOW, Kernel
from checks import CheckFailed, Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_BEYOND = 10


def measure_setup(workload: str, seed: int,
                  config_dir: Path) -> tuple[list[float], list[float], list[Path]]:
    """Each fresh-process probe's set-up in reference and in wall seconds, and the configs."""
    kernel = Kernel("setup")
    samples = []
    walls = []
    configs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--src", str(SRC),
             "--workload", workload, "--seed", str(seed), "--dir", str(config_dir)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(report["setup_s"])
        samples.append(report["setup_s"] * kernel.scale(report["kernel_s"]))
        configs = [Path(p) for p in report["configs"]]
    return samples, walls, configs


def import_qdrabi():
    sys.path.insert(0, str(SRC))
    import qdrabi
    import qdrabi.cli  # noqa: F401

    if not Path(qdrabi.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"qdrabi was imported from {qdrabi.__file__}, not from {SRC}")
    return qdrabi


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with 10 samples beyond.

    With 20 samples or fewer that percentile would not lie above the
    median, so the maximum is reported, with 0 samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def environment(qdrabi) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "qdrabi": qdrabi.__version__,
    }


def blas_threads(numpy) -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its own symbol."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Client:
    """Closed-loop client: one op at a time, checked after it returns."""

    def __init__(self, qdrabi, workload: str, configs: list[Path], work: Path):
        self.qdrabi = qdrabi
        self.workload = workload
        self.configs = configs
        self.out_dir = work / "out"
        self.check = Checker(qdrabi, workload)
        self.tracer = None  # a spans.Tracer once the traced phase starts
        self.failures: list[str] = []

    def op(self, config: Path) -> tuple[float, bool]:
        """Run one op; return (wall seconds, passed)."""
        argv = workloads.op_argv(self.workload, config, self.out_dir)
        main = self.qdrabi.cli.main
        code = None
        error = None
        captured = io.StringIO()
        tracer = self.tracer
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if tracer is not None and tracer.enabled:
                    code = tracer.call("cli.main", main, (argv,))
                else:
                    code = main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started

        if tracer is not None:
            enabled, tracer.enabled = tracer.enabled, False
        try:
            if error is None:
                self.check(config, self.out_dir, code)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # unreadable outputs fail the op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.enabled = enabled
            shutil.rmtree(self.out_dir, ignore_errors=True)
        if error is not None:
            self.failures.append(f"{config.name}: {error}")
        return elapsed, error is None

    def loop(self, seconds: float, whole_cycles: bool = False,
             kernel: Kernel | None = None) -> tuple[list[tuple[float, bool]], list[float]]:
        """Ops until their summed wall time reaches `seconds` (at a cycle end if asked).

        With a kernel, it is timed before the first op and after every op, and
        its time counts towards `seconds`; the kernel times are returned too.
        """
        results = []
        speed = [kernel.sample()] if kernel is not None else []
        spent = sum(speed)
        i = 0
        while spent < seconds or (whole_cycles and i % len(self.configs)):
            elapsed, ok = self.op(self.configs[i % len(self.configs)])
            results.append((elapsed, ok))
            spent += elapsed
            if kernel is not None:
                speed.append(kernel.sample())
                spent += speed[-1]
            i += 1
        return results, speed


def scaled(kernel: Kernel, walls: list[float], speed: list[float]) -> list[float]:
    """Wall times in reference seconds, each by the WINDOW kernel times on either side.

    Op i ran between kernel samples speed[i] and speed[i + 1].
    """
    return [wall * kernel.scale(speed[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, wall in enumerate(walls)]


def end_to_end(workload: str, kernel: Kernel, results, speed,
               setup_samples, setup_walls) -> tuple[dict, dict]:
    walls = [t for t, _ in results]
    times = scaled(kernel, walls, speed)
    ok = sum(1 for _, passed in results if passed)
    tail_value, tail_pct, beyond = tail(times)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "points_per_s": (ok * workloads.points_per_op(workload) / sum(times), "1/s"),
        "peak_rss_mib": ((own + children) / 1024.0, "MiB"),
    }
    details = {
        "op_s.tail": {"percentile": tail_pct, "samples": len(times), "beyond": beyond},
        "setup_s.samples": setup_samples,
        "setup_s.wall": setup_walls,
        "op_s.samples": times,
        "op_s.wall": walls,
        "op_s.wall_p50": statistics.median(walls),
        "kernel_s": {"reference": kernel.reference_s, "p50": statistics.median(speed),
                     "min": min(speed), "max": max(speed)},
        "kernel_s.samples": speed,
    }
    return metrics, details


def traced(qdrabi, client: Client, seconds: float, warmup_s: float,
           spans_file: Path) -> tuple[list, dict, dict]:
    import spans

    untraced, _ = client.loop(seconds / 2)
    tracer = spans.Tracer()
    spans.install(tracer, qdrabi)
    client.tracer = tracer
    tracer.enabled = True
    results, _ = client.loop(seconds / 2, whole_cycles=True)
    tracer.enabled = False
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "parent", "name", "start", "end", "counts")
    spans_file.write_text(json.dumps([dict(zip(fields, span)) for span in tracer.spans]))

    op_wall = sum(t for t, _ in results)
    metrics = spans.layer_metrics(tracer.spans, len(results), op_wall,
                                  workloads.lanes(client.workload))
    p50_untraced = statistics.median(t for t, _ in untraced)
    p50_traced = statistics.median(t for t, _ in results)
    metrics["bench.warmup_s"] = (warmup_s, "s")
    metrics["trace.overhead_frac"] = (p50_traced / p50_untraced - 1.0, "fraction")
    details = {"op_s.untraced": [t for t, _ in untraced],
               "op_s.traced": [t for t, _ in results], "spans": len(tracer.spans)}
    return untraced + results, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdrabi" / "__init__.py").is_file():
        print(f"perfbench: no qdrabi sources under {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    kernel = None
    try:
        setup_samples, setup_walls, configs = measure_setup(args.workload, args.seed,
                                                            work / "configs")
        qdrabi = import_qdrabi()
        client = Client(qdrabi, args.workload, configs, work)
        if not args.trace:
            kernel = Kernel(args.workload)
            kernel.sample()  # warm the kernel's own first-call costs

        # the warm-up op also puts the host in the state every later kernel
        # sample sees: right after an op
        warmup_s, warm_ok = client.op(configs[0])
        if args.trace:
            spans_file = ROOT / ".perfbench_spans" / f"{args.workload}-{args.seed}.json"
            results, metrics, details = traced(qdrabi, client, args.seconds, warmup_s,
                                               spans_file)
        else:
            results, speed = client.loop(args.seconds, kernel=kernel)
            metrics, details = end_to_end(args.workload, kernel, results, speed,
                                          setup_samples, setup_walls)
            details["bench.warmup_s"] = warmup_s
        results.append((warmup_s, warm_ok))
    finally:
        if kernel is not None:
            kernel.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    failed = sum(1 for _, passed in results if not passed)
    details.update({
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "failed_frac": failed / len(results), "failures": client.failures[:5],
        "env": environment(qdrabi),
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
