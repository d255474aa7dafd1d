"""Output checks, run after each op outside the timed region.

The checks compare values within tolerances rather than by digest, so an
implementation that changes the last bits of a correct result still passes:

* every op: exit code 0 and `verify_manifest` on each output directory;
* fig_runs: `p2.csv` against the restricted Fock oracle within 1e-8;
* coarse_sweep: `summary.csv` max_p2 / min_p2 against the restricted oracle
  within 1e-6 (at step 0.005 the RK4 error reaches ~5e-8 near g_nl = 3);
* leakage_check: `max_leakage` in `deviation.txt` against an independent
  propagation of the same Hamiltonian with `scipy.linalg.expm`, within 1e-8.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

P2_TOL = 1e-8
SUMMARY_TOL = 1e-6
LEAKAGE_TOL = 1e-8


class CheckFailed(Exception):
    pass


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _restricted_p2(qdrabi, config, times) -> np.ndarray:
    result = qdrabi.oracle.run_oracle(
        config.to_model_params(), times, index=config.index(),
        y0=config.to_dynamics_spec().y0, mode="restricted")
    return result.p2


def _verify(qdrabi, directory: Path):
    try:
        qdrabi.serialize.verify_manifest(directory / "manifest.txt")
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{directory.name}: manifest check failed: {exc}") from exc


def _expm_max_leakage(qdrabi, config, times) -> float:
    """Largest out-of-manifold probability on the sample grid, stepping with expm."""
    from scipy.linalg import expm

    oracle = qdrabi.oracle
    n_a, n_b = config.cutoff_a, config.cutoff_b
    ham = oracle.build_hamiltonian(config.to_model_params(), n_a, n_b,
                                   mode="full", index=config.index()).matrix
    slots = [oracle.basis_index(s.s, s.m, s.n, n_a, n_b)
             for s in oracle.manifold_states(config.index())]
    y0 = config.to_dynamics_spec().y0.as_tuple()
    psi = np.zeros(len(ham), dtype=complex)
    for k, slot in enumerate(slots):
        psi[slot] = complex(y0[2 * k], y0[2 * k + 1])
    spacing = np.diff(times)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0) or times[0] != 0.0:
        raise CheckFailed("leakage check expects a uniform grid starting at t = 0")
    step = expm(-1j * ham * spacing[0])
    states = np.empty((len(times), len(psi)), dtype=complex)
    states[0] = psi
    for k in range(1, len(times)):
        psi = step @ psi
        states[k] = psi
    prob = np.abs(states) ** 2
    return float((prob.sum(axis=1) - prob[:, slots].sum(axis=1)).max())


class Checker:
    """Checks one op's outputs; caches the leakage reference of each config."""

    def __init__(self, qdrabi, workload: str):
        self.qdrabi = qdrabi
        self.workload = workload
        self._leakage = {}

    def __call__(self, config_path: Path, out_dir: Path, exit_code: int):
        if exit_code != 0:
            raise CheckFailed(f"exit code {exit_code}")
        _verify(self.qdrabi, out_dir)
        config = self.qdrabi.config.parse_config_file(config_path)
        getattr(self, f"_{self.workload}")(config_path, config, out_dir)

    def _fig_runs(self, config_path, config, out_dir):
        cols = _read_columns(out_dir / "p2.csv")
        expected = _restricted_p2(self.qdrabi, config, cols["t"])
        deviation = float(np.abs(cols["p2"] - expected).max())
        if not deviation <= P2_TOL:
            raise CheckFailed(f"p2 deviates from the oracle by {deviation:.3e}")

    def _coarse_sweep(self, config_path, config, out_dir):
        points = config.points()
        summary = _read_columns(out_dir / "summary.csv")
        if len(summary["max_p2"]) != len(points):
            raise CheckFailed(f"summary has {len(summary['max_p2'])} rows, "
                              f"expected {len(points)}")
        for i, (_, point) in enumerate(points):
            point_dir = out_dir / f"point_{i:03d}"
            _verify(self.qdrabi, point_dir)
            times = _read_columns(point_dir / "p2.csv")["t"]
            p2 = _restricted_p2(self.qdrabi, point, times)
            for key, expected in (("max_p2", p2.max()), ("min_p2", p2.min())):
                deviation = abs(summary[key][i] - expected)
                if not deviation <= SUMMARY_TOL:
                    raise CheckFailed(f"point {i}: {key} deviates by {deviation:.3e}")

    def _leakage_check(self, config_path, config, out_dir):
        report = self.qdrabi.serialize.parse_manifest(out_dir / "deviation.txt")
        used = (int(report["cutoff_a"]), int(report["cutoff_b"]))
        if report["mode"] != "full" or used != (config.cutoff_a, config.cutoff_b):
            raise CheckFailed(f"deviation.txt reports mode {report['mode']}, cutoffs {used}")
        if config_path not in self._leakage:
            spec = config.to_dynamics_spec().grid
            samples = spec.n_steps() // spec.sample_every
            grid = spec.t_start + spec.step * spec.sample_every * np.arange(samples + 1)
            self._leakage[config_path] = _expm_max_leakage(self.qdrabi, config, grid)
        deviation = abs(float(report["max_leakage"]) - self._leakage[config_path])
        if not deviation <= LEAKAGE_TOL:
            raise CheckFailed(f"max_leakage deviates from expm by {deviation:.3e}")
