"""Batch execution: single runs, sweeps, oracle checks, output manifests."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import FIELD_BY_KEY, RunConfig, SweepConfig, write_config
from .dynamics import TimeSeries, integrate
from .errors import IntegrationDivergedError
from .oracle import compare, default_cutoffs, run_oracle
from .serialize import (
    fmt,
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


@dataclass
class RunOutcome:
    status: str
    out_dir: str
    files: list[str] = field(default_factory=list)
    error: str | None = None
    deviation: float | None = None
    max_leakage: float | None = None
    summary: dict = field(default_factory=dict)


def _param_entries(config: RunConfig, step: float) -> list[tuple[str, object]]:
    entries = []
    for key, fname in FIELD_BY_KEY.items():
        value = step if key == "step" else getattr(config, fname)
        if value is None:  # an unset cutoff
            continue
        entries.append((f"param.{key}", value))
        if key == "lambda":
            entries.append(("param.shift", config.shift))
            if config.phonon_modes:
                pairs = ", ".join(f"{fmt(c)}:{fmt(w)}" for c, w in config.phonon_modes)
                entries.append(("param.phonon_modes", pairs))
    entries.append(("defaulted", ", ".join(config.defaulted)))
    return entries


def _cutoffs(config: RunConfig) -> tuple[int, int]:
    auto = default_cutoffs(config.index(), config.oracle_mode)
    return (
        config.cutoff_a if config.cutoff_a is not None else auto[0],
        config.cutoff_b if config.cutoff_b is not None else auto[1],
    )


def _oracle_report(config: RunConfig, series: TimeSeries, y0, out_dir: Path,
                   dump_hamiltonian: bool):
    """Run the Fock-basis validator against an integrated series; write its report."""
    cutoffs = _cutoffs(config)
    mode = config.oracle_mode
    result = run_oracle(
        config.to_model_params(), series.t, index=config.index(),
        y0=y0, mode=mode, cutoffs=cutoffs,
    )
    deviation = compare(result, series)
    mismatch = mode == "restricted" and deviation > ORACLE_TOLERANCE
    lines = [
        f"mode = {mode}",
        f"cutoff_a = {cutoffs[0]}",
        f"cutoff_b = {cutoffs[1]}",
        f"tolerance = {fmt(ORACLE_TOLERANCE)}",
        f"max_deviation = {fmt(deviation)}",
        f"max_leakage = {fmt(result.max_leakage())}",
        f"status = {'mismatch' if mismatch else 'ok'}",
    ]
    files = ["deviation.txt"]
    with open(out_dir / "deviation.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if dump_hamiltonian:
        from .oracle import build_hamiltonian

        ham = build_hamiltonian(config.to_model_params(), *cutoffs,
                                mode=mode, index=config.index())
        write_matrix_txt(out_dir / "hamiltonian.txt", ham.matrix)
        files.append("hamiltonian.txt")
    return deviation, result.max_leakage(), mismatch, files


def run_single(
    config: RunConfig,
    out_dir,
    step: float | None = None,
    oracle: bool | None = None,
    dump_hamiltonian: bool = False,
    verb: str = "run",
    write_trajectory: bool = True,
) -> RunOutcome:
    """Integrate one configuration and write its artifacts; the manifest goes last."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    h = config.step if step is None else step
    started = time.perf_counter()
    entries = [
        ("artifact", "qdrabi"),
        ("version", __version__),
        ("verb", verb),
    ]
    files: list[str] = []

    spec = config.to_dynamics_spec(step=h)
    try:
        series = integrate(spec)
    except IntegrationDivergedError as exc:
        entries += [("status", STATUS_DIVERGED), ("error", str(exc)),
                    ("t_last", exc.t_last), ("duration_s", time.perf_counter() - started)]
        entries += _param_entries(config, h)
        write_manifest(out_dir / "manifest.txt", entries, files)
        return RunOutcome(status=STATUS_DIVERGED, out_dir=str(out_dir),
                          files=files + ["manifest.txt"], error=str(exc))

    if write_trajectory:
        write_timeseries_csv(out_dir / "trajectory.csv", series)
        write_p2_csv(out_dir / "p2.csv", series)
        with open(out_dir / "resolved_config.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(write_config(config))
        files += ["trajectory.csv", "p2.csv", "resolved_config.txt"]

    outcome = RunOutcome(status=STATUS_OK, out_dir=str(out_dir))
    if oracle or (oracle is None and config.oracle):
        deviation, leakage, mismatch, extra = _oracle_report(
            config, series, spec.y0, out_dir, dump_hamiltonian)
        outcome.deviation = deviation
        outcome.max_leakage = leakage
        files += extra
        if mismatch:
            outcome.status = STATUS_MISMATCH

    outcome.summary = {
        "max_p2": float(series.p2.max()),
        "min_p2": float(series.p2.min()),
        "dominant_freq": dominant_angular_frequency(series.t, series.p2),
        "max_norm_drift": series.max_norm_drift(),
    }
    entries.append(("status", outcome.status))
    entries.append(("duration_s", time.perf_counter() - started))
    entries.append(("max_norm_drift", outcome.summary["max_norm_drift"]))
    if outcome.deviation is not None:
        entries.append(("oracle_deviation", outcome.deviation))
        entries.append(("oracle_leakage", outcome.max_leakage))
    entries += _param_entries(config, h)
    write_manifest(out_dir / "manifest.txt", entries, files)

    outcome.files = files + ["manifest.txt"]
    return outcome


def oracle_check(
    config: RunConfig,
    out_dir,
    step: float | None = None,
    dump_hamiltonian: bool = False,
) -> RunOutcome:
    """The `check` verb: a run validated against the Fock oracle, with no trajectory files."""
    return run_single(config, out_dir, step=step, oracle=True,
                      dump_hamiltonian=dump_hamiltonian, verb="check", write_trajectory=False)


def _sweep_point(args):
    index, point_dir, config, step, oracle = args
    outcome = run_single(config, point_dir, step=step, oracle=oracle,
                         verb="sweep-point")
    return index, outcome


def run_sweep(
    sweep: SweepConfig,
    out_dir,
    step: float | None = None,
    workers: int = 1,
    oracle: bool | None = None,
) -> RunOutcome:
    """Run every grid point into its own subdirectory, then summarize.

    Failed points are recorded in the manifest and skipped in the summary;
    the outcome is `partial` if any point failed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    points = sweep.points()
    width = max(3, len(str(len(points) - 1)))
    names = [f"point_{i:0{width}d}" for i in range(len(points))]

    jobs = [
        (i, out_dir / names[i], cfg, step, oracle)
        for i, (_, cfg) in enumerate(points)
    ]
    outcomes: list[RunOutcome | None] = [None] * len(points)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, outcome in pool.map(_sweep_point, jobs):
                outcomes[i] = outcome
    else:
        for job in jobs:
            i, outcome = _sweep_point(job)
            outcomes[i] = outcome

    axis_names = [axis.parameter for axis in sweep.axes]
    header = ",".join(axis_names + ["max_p2", "min_p2", "dominant_freq"])
    rows = [header]
    for (values, _), outcome in zip(points, outcomes):
        if outcome.status != STATUS_OK:
            continue
        cells = [fmt(float(v)) if isinstance(v, float) else str(v) for v in values]
        cells += [fmt(outcome.summary[k]) for k in ("max_p2", "min_p2", "dominant_freq")]
        rows.append(",".join(cells))
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")

    failed = [i for i, o in enumerate(outcomes) if o.status != STATUS_OK]
    status = STATUS_PARTIAL if failed else STATUS_OK
    entries = [
        ("artifact", "qdrabi"),
        ("version", __version__),
        ("verb", "sweep"),
        ("status", status),
        ("duration_s", time.perf_counter() - started),
        ("points", len(points)),
        ("failed_points", len(failed)),
        ("swept", ", ".join(axis_names)),
    ]
    files = ["summary.csv"]
    for (values, _), name, outcome in zip(points, names, outcomes):
        tag = ", ".join(fmt(float(v)) if isinstance(v, float) else str(v) for v in values)
        entries.append((f"point.{name}.values", tag))
        entries.append((f"point.{name}.status", outcome.status))
        files += [f"{name}/{rel}" for rel in outcome.files]
    write_manifest(out_dir / "manifest.txt", entries, files)
    return RunOutcome(status=status, out_dir=str(out_dir), files=files + ["manifest.txt"])
