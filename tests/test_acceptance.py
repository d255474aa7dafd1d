"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on stdout.
"""

import math
import time
from dataclasses import replace

import numpy as np

from qdrabi import (
    ManifoldAmplitudes,
    compare,
    dominant_angular_frequency,
    integrate,
    parse_config,
    preset_config,
    rhs,
    run_oracle,
    run_single,
    run_sweep,
)

PRESETS = ("fig3", "fig4", "fig5")


def with_grid(spec, **changes):
    return replace(spec, grid=replace(spec.grid, **changes))


def local_maxima(t, x):
    """Times and values of interior local maxima of a sampled trace."""
    inner = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]))[0] + 1
    return t[inner], x[inner]


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    # fig3 preset plus 10 random draws, t in [0, 20], restricted oracle vs
    # integrator, max componentwise deviation < 1e-8, under 10 s total
    started = time.perf_counter()
    cases = [preset_config("fig3")]
    rng = np.random.default_rng(20260810)
    for _ in range(10):
        g_a, g_b, g_nl, delta_a, delta_b = (float(x) for x in rng.uniform(0.0, 2.0, 5))
        lam = float(rng.uniform(0.0, 1.0))
        text = (
            f"g_a = {g_a!r}\ng_b = {g_b!r}\ng_nl = {g_nl!r}\n"
            f"delta_a = {delta_a!r}\ndelta_b = {delta_b!r}\nlambda = {lam!r}\n"
        )
        cases.append(parse_config(text))

    worst = 0.0
    for cfg in cases:
        series = integrate(with_grid(cfg.to_dynamics_spec(), t_end=20.0))
        result = run_oracle(cfg.to_model_params(), series.t)
        worst = max(worst, compare(result, series))
    elapsed = time.perf_counter() - started

    ok = worst < 1e-8 and elapsed < 10.0
    report(1, "oracle equivalence", ok,
           f"max deviation {worst:.3e} (tol 1e-8), runtime {elapsed:.1f}s (limit 10s)")


def test_criterion_2_norm_conservation_and_convergence():
    # |N(t) - N(0)| < 1e-9 over [0, 50] at the default step for every preset;
    # successive step halvings contract the solution by ~2^4 (Richardson
    # ratio of trajectory differences in [12, 20])
    details = []
    ok = True
    for name in PRESETS:
        spec = with_grid(preset_config(name).to_dynamics_spec(), t_end=50.0)
        runs = {}
        for divisor in (1, 2, 4):
            halved = with_grid(spec, step=1e-3 / divisor, sample_every=10 * divisor)
            runs[divisor] = integrate(halved)
        assert np.array_equal(runs[1].t, runs[2].t)
        assert np.array_equal(runs[2].t, runs[4].t)

        drift = runs[1].max_norm_drift()
        coarse = np.abs(runs[1].amplitudes - runs[2].amplitudes).max()
        fine = np.abs(runs[2].amplitudes - runs[4].amplitudes).max()
        ratio = coarse / fine
        ok = ok and drift < 1e-9 and 12.0 <= ratio <= 20.0
        details.append(f"{name}: drift {drift:.2e}, halving ratio {ratio:.1f}")
    report(2, "norm conservation", ok, "; ".join(details))


def test_criterion_3_analytic_limits():
    # (a) resonant two-state limit: P2 = cos^2(g_a t) to 1e-8
    cfg = parse_config("g_nl = 0\ng_b = 0\ndelta_a = 0\ndelta_b = 0\nlambda = 0\n"
                       "t_end = 20\nsamples = 20000\n")
    series = integrate(cfg.to_dynamics_spec())
    err_a = float(np.abs(series.p2 - np.cos(series.t) ** 2).max())

    # (b) detuned minimum: min P2 = delta^2/(delta^2 + 4 g^2) = 0.2 to 1e-6
    cfg = parse_config("g_nl = 0\ng_b = 0\ndelta_a = 1\ndelta_b = 0\nlambda = 0\n"
                       "t_end = 20\nsamples = 20000\n")
    series = integrate(cfg.to_dynamics_spec())
    err_b = abs(float(series.p2.min()) - 0.2)

    # (c) isolated nonlinear block: fitted block frequency equals
    # g_nl*sqrt((n+1)(m+1)(m+2)) to 1e-6 (the population oscillates at twice
    # the block frequency)
    cfg = parse_config("g_nl = 0.5\ng_a = 0\ng_b = 0\ndelta_a = 0\ndelta_b = 0\nlambda = 0\n"
                       "m = 1\nn = 2\ninitial = b\nt_end = 20\nsamples = 20000\n")
    series = integrate(cfg.to_dynamics_spec())
    pop_b = series.amplitudes[:, 2] ** 2 + series.amplitudes[:, 3] ** 2
    fitted = dominant_angular_frequency(series.t, pop_b) / 2.0
    err_c = abs(fitted - 0.5 * math.sqrt(18.0))

    ok = err_a < 1e-8 and err_b < 1e-6 and err_c < 1e-6
    report(3, "analytic limits", ok,
           f"cos^2 err {err_a:.1e} (tol 1e-8), min err {err_b:.1e} (tol 1e-6), "
           f"freq err {err_c:.1e} (tol 1e-6)")


def test_criterion_4_polaron_dressing(tmp_path):
    # frequency ratio between lambda = 1 and lambda = 0 in the two-state
    # limit equals exp(-1/2) +- 1e-3, measured through the sweep summary
    sweep = parse_config("g_nl = 0\ng_b = 0\ndelta_a = 0\ndelta_b = 0\n"
                         "[sweep]\nparameter = lambda\nvalues = 0, 1\n")
    run_sweep(sweep, tmp_path / "sweep")
    rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()[1:]
    freqs = {float(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
    ratio = freqs[1.0] / freqs[0.0]
    err = abs(ratio - math.exp(-0.5))

    # with no exciton-photon coupling, lambda must not perturb a single bit
    base = "g_a = 0\ng_b = 0\ng_nl = 1.3\ndelta_a = 0.7\ndelta_b = 0.2\ninitial = b\nt_end = 10\n"
    run_a = integrate(parse_config(base + "lambda = 0\n").to_dynamics_spec())
    run_b = integrate(parse_config(base + "lambda = 5\n").to_dynamics_spec())
    identical = np.array_equal(run_a.amplitudes, run_b.amplitudes)

    ok = err < 1e-3 and identical
    report(4, "polaron dressing", ok,
           f"ratio {ratio:.6f} vs e^-1/2 (err {err:.1e}, tol 1e-3), "
           f"bit-identical = {identical}")


def test_criterion_5_block_decoupling():
    # generator cross-blocks vanish identically at 100 random points, and the
    # nonlinear block stays empty along the default trajectory
    rng = np.random.default_rng(512)
    clean = True
    for _ in range(100):
        cfg = parse_config(
            f"g_a = {float(rng.uniform(0, 2))!r}\ng_b = {float(rng.uniform(0, 2))!r}\n"
            f"g_nl = {float(rng.uniform(0, 2))!r}\ndelta_a = {float(rng.uniform(-2, 2))!r}\n"
            f"delta_b = {float(rng.uniform(-2, 2))!r}\nlambda = {float(rng.uniform(0, 1))!r}\n"
            f"m = {int(rng.integers(0, 4))}\nn = {int(rng.integers(0, 4))}\n")
        spec = cfg.to_dynamics_spec()
        t = float(rng.uniform(0.0, 40.0))
        for k in range(12):
            unit = np.zeros(12)
            unit[k] = 1.0
            column = np.array(rhs(t, ManifoldAmplitudes(*unit), spec))
            cross = column[4:] if k < 4 else column[:4]
            clean = clean and not cross.any()

    series = integrate(preset_config("fig3").to_dynamics_spec())
    residual = float(np.abs(series.amplitudes[:, :4]).max())

    ok = clean and residual <= 1e-14
    report(5, "block decoupling", ok,
           f"cross-blocks exactly zero = {clean}, max |a,b| along fig3 = {residual:.1e}")


def test_criterion_6_figure_reproduction():
    # fig3: sustained oscillation whose interior peaks return above 0.95;
    # fig5: amplitude modulation with local maxima differing by more than 20%
    fig3 = integrate(preset_config("fig3").to_dynamics_spec())
    _, peaks3 = local_maxima(fig3.t, fig3.p2)
    sustained = len(peaks3) >= 5 and float(fig3.p2.min()) < 0.5
    revived = peaks3.max() > 0.95

    fig5 = integrate(preset_config("fig5").to_dynamics_spec())
    _, peaks5 = local_maxima(fig5.t, fig5.p2)
    spread = (peaks5.max() - peaks5.min()) / peaks5.max()
    modulated = len(peaks5) >= 2 and spread > 0.2

    ok = sustained and revived and modulated
    report(6, "figure reproduction", ok,
           f"fig3: {len(peaks3)} peaks, best {peaks3.max():.3f} (need > 0.95); "
           f"fig5: peak spread {spread:.0%} (need > 20%)")


def test_criterion_7_determinism(tmp_path):
    cfg = preset_config("fig3")
    run_single(cfg, tmp_path / "one")
    run_single(cfg, tmp_path / "two")
    same = all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        for name in ("trajectory.csv", "p2.csv")
    )
    report(7, "determinism", same, "repeated runs yield byte-identical CSV outputs")
