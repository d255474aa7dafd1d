"""Seeded workload inputs for the qdrabi benchmark.

Each workload is a short pool of config files that a closed-loop client
feeds to `qdrabi.cli.main`, one invocation at a time, cycling through the
pool.  The pool is drawn from the seed alone; the program only ever sees
the written files.  Step counts, sample counts and oracle cutoffs are fixed
per workload, so the cost of an op does not depend on the drawn values.

This module uses the standard library only: the set-up probe imports it
before it starts timing the import of qdrabi.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("fig_runs", "coarse_sweep", "leakage_check")

WHY = {
    "fig_runs": "paper-figure path: single 25k-step RK4 trajectories, where the "
                "pure-Python integrator dominates and an exact propagator must show",
    "coarse_sweep": "only workload using the sweep process pool and writing many "
                    "artifacts, so CSV, hashing and batching changes show here",
    "leakage_check": "full-mode Fock oracle up to dim 578 dominates and no trajectory "
                     "is written, so oracle changes show and integrator changes barely move it",
}

SWEEP_WORKERS = 2
SWEEP_SIDE = 6

# (g_nl, delta_a, delta_b, lambda) of the paper's figure captions
PRESETS = {
    "fig3": (2.0, 1.0, 0.1, 0.01),
    "fig4": (2.0, 0.2, 0.1, 0.01),
    "fig5": (0.5, 1.0, 0.1, 0.01),
}
LEAKAGE_CUTOFFS = (8, 12, 16)


def _around(rng: random.Random, value: float) -> float:
    return value * rng.uniform(0.9, 1.1)


def _preset_lines(rng: random.Random, preset: str) -> list[str]:
    g_nl, delta_a, delta_b, lam = (_around(rng, v) for v in PRESETS[preset])
    return [f"g_nl = {g_nl!r}", f"delta_a = {delta_a!r}",
            f"delta_b = {delta_b!r}", f"lambda = {lam!r}"]


def generate(workload: str, seed: int) -> list[tuple[str, str]]:
    """(file name, config text) for every config of one cycle of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fig_runs":
        return [(f"{name}.conf", "\n".join(_preset_lines(rng, name)) + "\n")
                for name in PRESETS]
    if workload == "coarse_sweep":
        # g_nl stays <= 3: there the RK4 error at step 0.005 is ~5e-8,
        # well inside the 1e-6 tolerance of the summary check
        g_nl = sorted(rng.uniform(0.5, 3.0) for _ in range(SWEEP_SIDE))
        delta_a = sorted(rng.uniform(0.2, 1.5) for _ in range(SWEEP_SIDE))
        lines = [f"delta_b = {_around(rng, 0.1)!r}", f"lambda = {_around(rng, 0.01)!r}",
                 "step = 0.005", "", "[sweep]",
                 "parameter = g_nl", "values = " + ", ".join(map(repr, g_nl)),
                 "parameter2 = delta_a", "values2 = " + ", ".join(map(repr, delta_a))]
        return [("grid.conf", "\n".join(lines) + "\n")]
    if workload == "leakage_check":
        configs = []
        for preset, cutoff in zip(PRESETS, LEAKAGE_CUTOFFS):
            lines = _preset_lines(rng, preset) + [
                "step = 0.01", "oracle_mode = full",
                f"cutoff_a = {cutoff}", f"cutoff_b = {cutoff}"]
            configs.append((f"{preset}_cut{cutoff}.conf", "\n".join(lines) + "\n"))
        return configs
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_configs(workload: str, seed: int, directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in generate(workload, seed):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def op_argv(workload: str, config: Path, out_dir: Path) -> list[str]:
    """Arguments of one `qdrabi` invocation."""
    if workload == "fig_runs":
        return ["run", str(config), "--out", str(out_dir)]
    if workload == "coarse_sweep":
        return ["sweep", str(config), "--out", str(out_dir), "--workers", str(SWEEP_WORKERS)]
    return ["check", str(config), "--out", str(out_dir)]


def lanes(workload: str) -> int:
    """Processes that run points concurrently within one op."""
    return SWEEP_WORKERS if workload == "coarse_sweep" else 1


def points_per_op(workload: str) -> int:
    return SWEEP_SIDE * SWEEP_SIDE if workload == "coarse_sweep" else 1
