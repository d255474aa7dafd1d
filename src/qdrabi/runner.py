"""Batch execution: single runs, sweeps, oracle checks, output manifests."""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import MAX_SWEEP_ROWS, RunConfig, SweepConfig, override, write_config
from .dynamics import DynamicsSpec, TimeSeries, integrate
from .errors import ConfigError, IntegrationDivergedError
from .oracle import compare, resolve_cutoffs, run_oracle
from .serialize import (
    fmt,
    write_lines,
    write_manifest,
    write_matrix_txt,
    write_p2_csv,
    write_timeseries_csv,
)
from .signal import dominant_angular_frequency

__all__ = ["RunOutcome", "ORACLE_TOLERANCE", "run_single", "run_sweep", "oracle_check"]

ORACLE_TOLERANCE = 1e-8

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"
STATUS_MISMATCH = "oracle-mismatch"
STATUS_PARTIAL = "partial"

# summary.csv columns after the swept values, each a key of RunOutcome.summary
SUMMARY_COLUMNS = ("max_p2", "min_p2", "dominant_freq", "max_norm_drift")


def __getattr__(name):
    # importing the pool loads multiprocessing (~20 ms), which only a sweep with
    # more than one worker uses; the first lookup caches the class as a global
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class RunOutcome:
    status: str
    out_dir: str
    files: dict[str, str] = field(default_factory=dict)  # relative path -> SHA-256
    error: str | None = None
    deviation: float | None = None
    max_leakage: float | None = None
    summary: dict = field(default_factory=dict)


def _param_entries(config: RunConfig) -> list[tuple[str, object]]:
    entries = []
    for key, value in config.entries():
        entries.append((f"param.{key}", value))
        if key == "lambda":
            entries.append(("param.shift", config.shift))
    entries.append(("defaulted", ", ".join(config.defaulted)))
    return entries


def _cutoffs(config: RunConfig):
    """The full-mode oracle's checked (n_a, n_b), configured or default; else None."""
    if not (config.oracle and config.oracle_mode == "full"):
        return None
    return resolve_cutoffs(config.index(), config.cutoff_a, config.cutoff_b)


def _oracle_report(spec: DynamicsSpec, mode: str, series: TimeSeries, cutoffs, out_dir: Path,
                   dump_hamiltonian: bool):
    """Run the Fock-basis validator against an integrated series; write its report.

    The returned error is None when the oracle agrees; a deviation or leakage
    that is not finite is a mismatch in either mode.
    """
    result = run_oracle(spec.params, series.t, index=spec.index, y0=spec.y0, mode=mode,
                        cutoffs=cutoffs)
    deviation = compare(result, series)
    leakage = result.max_leakage()
    if not math.isfinite(deviation):
        error = f"oracle deviation {fmt(deviation)} is not finite"
    elif not math.isfinite(leakage):
        error = f"oracle leakage {fmt(leakage)} is not finite"
    elif mode == "restricted" and deviation > ORACLE_TOLERANCE:
        error = (f"oracle deviation {fmt(deviation)} exceeds the tolerance "
                 f"{fmt(ORACLE_TOLERANCE)}")
    else:
        error = None
    lines = [f"mode = {mode}"]
    if cutoffs is not None:
        lines += [f"cutoff_a = {cutoffs[0]}", f"cutoff_b = {cutoffs[1]}"]
    lines += [
        f"tolerance = {fmt(ORACLE_TOLERANCE)}",
        f"max_deviation = {fmt(deviation)}",
        f"max_leakage = {fmt(leakage)}",
        f"status = {'ok' if error is None else 'mismatch'}",
    ]
    files = {"deviation.txt": write_lines(out_dir / "deviation.txt", lines)}
    if dump_hamiltonian:
        files["hamiltonian.txt"] = write_matrix_txt(out_dir / "hamiltonian.txt",
                                                    result.hamiltonian.matrix)
    return deviation, leakage, error, files


def run_single(
    config: RunConfig,
    out_dir,
    dump_hamiltonian: bool = False,
    verb: str = "run",
) -> RunOutcome:
    """Integrate one configuration and write its artifacts; the manifest goes last.

    The trajectory files are written for every verb but `check`.  A run that
    integrates fills `summary` with `max_norm_drift`, which the manifest and
    the command line report, for every verb; only a `sweep-point` also fills
    `max_p2`, `min_p2` and `dominant_freq`, the rest of summary.csv's columns.
    """
    spec = config.to_dynamics_spec()  # bad grids and cutoffs fail here, before any output
    cutoffs = _cutoffs(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    files: dict[str, str] = {}
    phases = {"integrate": 0.0, "oracle": 0.0, "write": 0.0}
    outcome = RunOutcome(status=STATUS_OK, out_dir=str(out_dir))

    t_last = None
    try:
        series = integrate(spec)
    except IntegrationDivergedError as exc:
        series, t_last = None, exc.t_last
        outcome.status, outcome.error = STATUS_DIVERGED, str(exc)
    phases["integrate"] = time.perf_counter() - started

    if series is not None:
        if verb != "check":
            mark = time.perf_counter()
            files["trajectory.csv"], p2_text = write_timeseries_csv(out_dir / "trajectory.csv",
                                                                    series)
            files["p2.csv"] = write_p2_csv(out_dir / "p2.csv", p2_text)
            files["resolved_config.txt"] = write_lines(out_dir / "resolved_config.txt",
                                                       write_config(config).splitlines())
            phases["write"] = time.perf_counter() - mark
        if config.oracle:
            mark = time.perf_counter()
            deviation, leakage, error, extra = _oracle_report(
                spec, config.oracle_mode, series, cutoffs, out_dir, dump_hamiltonian)
            phases["oracle"] = time.perf_counter() - mark
            outcome.deviation = deviation
            outcome.max_leakage = leakage
            files.update(extra)
            if error is not None:
                outcome.status = STATUS_MISMATCH
                outcome.error = error
        outcome.summary = {"max_norm_drift": series.max_norm_drift()}
        if verb == "sweep-point":  # the rest of summary.csv's columns, which no other verb writes
            p2 = series.p2
            outcome.summary.update(max_p2=float(p2.max()), min_p2=float(p2.min()),
                                   dominant_freq=dominant_angular_frequency(series.t, p2))

    entries = [("artifact", "qdrabi"), ("version", __version__), ("verb", verb),
               ("status", outcome.status)]
    if outcome.error is not None:
        entries.append(("error", outcome.error))
    if t_last is not None:
        entries.append(("t_last", t_last))
    entries.append(("duration_s", time.perf_counter() - started))
    if outcome.summary:
        entries.append(("max_norm_drift", outcome.summary["max_norm_drift"]))
    if outcome.deviation is not None:
        entries.append(("oracle_deviation", outcome.deviation))
        entries.append(("oracle_leakage", outcome.max_leakage))
    entries += [(f"phase.{name}_s", seconds) for name, seconds in phases.items()]
    entries += [("n_steps", spec.grid.n_steps()), ("sample_every", spec.grid.sample_every),
                ("t_final", spec.grid.t_final())]
    entries += _param_entries(config)
    files["manifest.txt"] = write_manifest(out_dir / "manifest.txt", entries, files)
    outcome.files = files
    return outcome


def oracle_check(config: RunConfig, out_dir, dump_hamiltonian: bool = False) -> RunOutcome:
    """The `check` verb: a run validated against the Fock oracle, with no trajectory files."""
    return run_single(override(config, oracle=True), out_dir, dump_hamiltonian=dump_hamiltonian,
                      verb="check")


def _sweep_point(job):
    index, point_dir, config = job
    return index, run_single(config, point_dir, verb="sweep-point")


def run_sweep(sweep: SweepConfig, out_dir, workers: int = 1) -> RunOutcome:
    """Run every grid point into its own subdirectory, then summarize.

    Every point's grid and oracle cutoffs are checked before any output,
    without building its spec; a ConfigError there names the point and its
    swept values.  The samples all the points keep together are bounded
    there too, by MAX_SWEEP_ROWS.  Each point then runs through `run_single`,
    and the results are taken in point order as they arrive.  Failed points
    are recorded in the manifest and skipped in the summary; the outcome is
    `partial` if any point failed.
    """
    points = sweep.points()
    width = max(3, len(str(len(points) - 1)))

    def name(i):
        return f"point_{i:0{width}d}"

    samples = 0
    for i, (values, config) in enumerate(points):  # a bad grid or bad cutoffs fail here
        try:
            samples += config.grid().n_samples()
            _cutoffs(config)
        except ConfigError as exc:
            at = ", ".join(f"{axis.parameter} = {fmt(v)}" for axis, v in zip(sweep.axes, values))
            raise ConfigError(f"{name(i)} ({at}): {exc}") from None
    if samples > MAX_SWEEP_ROWS:
        raise ConfigError(f"sweep of {len(points)} points keeps {samples} samples, more than the "
                          f"limit of {MAX_SWEEP_ROWS} rows")
    out_dir = Path(out_dir)
    jobs = ((i, out_dir / name(i), config) for i, (_, config) in enumerate(points))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    axis_names = [axis.parameter for axis in sweep.axes]
    rows = [",".join(axis_names + list(SUMMARY_COLUMNS))]
    point_entries, point_files, failed = [], {}, 0
    # the CPUs this process may run on (taskset, a cpuset), not all of the host's
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(points), cpus)
    # an attribute of the module, not a bare global name: that lookup imports the
    # pool on first use and finds a class that replaced it
    with (sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        results = (pool.map if workers > 1 else map)(_sweep_point, jobs)
        for i, outcome in results:
            point, values = name(i), points[i][0]
            cells = [fmt(v) for v in values]
            point_entries += [(f"point.{point}.values", ", ".join(cells)),
                              (f"point.{point}.status", outcome.status)]
            if outcome.status == STATUS_OK:
                rows.append(",".join(cells + [fmt(outcome.summary[k]) for k in SUMMARY_COLUMNS]))
            else:
                failed += 1
                point_entries.append((f"point.{point}.error", outcome.error))
            point_files.update((f"{point}/{rel}", digest) for rel, digest in outcome.files.items())
    files = {"summary.csv": write_lines(out_dir / "summary.csv", rows), **point_files}

    status = STATUS_PARTIAL if failed else STATUS_OK
    entries = [
        ("artifact", "qdrabi"),
        ("version", __version__),
        ("verb", "sweep"),
        ("status", status),
        ("duration_s", time.perf_counter() - started),
        ("points", len(points)),
        ("failed_points", failed),
        ("workers", workers),
        ("swept", ", ".join(axis_names)),
    ] + point_entries
    files["manifest.txt"] = write_manifest(out_dir / "manifest.txt", entries, files)
    return RunOutcome(status=status, out_dir=str(out_dir), files=files)
