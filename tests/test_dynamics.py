import math
from dataclasses import replace

import numpy as np
import pytest

from qdrabi import (
    DynamicsSpec,
    IntegrationDivergedError,
    ManifoldAmplitudes,
    ManifoldIndex,
    ModelParams,
    TimeGrid,
    TimeSeries,
    integrate,
    jc_baseline,
    nl_block_baseline,
    parse_config,
    preset_config,
    rhs,
)
from qdrabi import dynamics
from qdrabi.dynamics import SLOTS, _derivs, _phase_rates


def make_spec(g_a=1.0, g_b=1.0, g_nl=0.0, delta_a=0.0, delta_b=0.0, lam=0.0,
              m=0, n=0, y0=None, t_end=20.0, step=1e-3, sample_every=10):
    if y0 is None:
        y0 = ManifoldAmplitudes.unit("d")
    return DynamicsSpec(
        params=ModelParams(g_a, g_b, g_nl, delta_a, delta_b, lam),
        index=ManifoldIndex(m, n),
        y0=y0,
        grid=TimeGrid(0.0, t_end, step, sample_every),
    )


def complex_rhs(t, y, spec):
    """Independent re-derivation of the equations of motion in complex form.

    The six amplitudes obey (K = sqrt((n+1)(m+1)(m+2)), Ga = g_a*exp(-lam/2)*sqrt(m+1),
    Gb = g_b*exp(-lam/2)*sqrt(n+1)):

        i dA/dt = gnl K B                 i dB/dt = gnl K A
        i dC/dt = Gb e^{-i db t} D + gnl K E
        i dD/dt = Ga e^{+i da t} F + Gb e^{+i db t} C
        i dE/dt = gnl K C                 i dF/dt = Ga e^{-i da t} D
    """
    m, n = spec.index.m, spec.index.n
    p = spec.params
    dressing = math.exp(-p.lam / 2)
    big_k = p.g_nl * math.sqrt((n + 1) * (m + 1) * (m + 2))
    ga = p.g_a * dressing * math.sqrt(m + 1)
    gb = p.g_b * dressing * math.sqrt(n + 1)
    da, db = p.delta_a, p.delta_b
    a, b, c, d, e, f = (complex(y[2 * k], y[2 * k + 1]) for k in range(6))
    da_phase = complex(math.cos(da * t), math.sin(da * t))
    db_phase = complex(math.cos(db * t), math.sin(db * t))
    dot = [
        -1j * big_k * b,
        -1j * big_k * a,
        -1j * (gb * db_phase.conjugate() * d + big_k * e),
        -1j * (ga * da_phase * f + gb * db_phase * c),
        -1j * big_k * c,
        -1j * ga * da_phase.conjugate() * d,
    ]
    out = []
    for z in dot:
        out += [z.real, z.imag]
    return np.array(out)


class TestRhs:
    def test_zero_couplings_give_zero_derivative(self):
        spec = make_spec(g_a=0.0, g_b=0.0, g_nl=0.0, delta_a=1.3, delta_b=0.7)
        state = ManifoldAmplitudes(*np.linspace(-1, 1, 12))
        assert list(rhs(2.7, state, spec)) == [0.0] * 12

    def test_excited_state_feeds_only_f(self):
        # t=0, only the g_a channel open: cos(0)=1 collapses everything to f2' = -g_a*d1
        spec = make_spec(g_a=1.0, g_b=0.0, g_nl=0.0)
        deriv = rhs(0.0, ManifoldAmplitudes.unit("d"), spec)
        expected = [0.0] * 12
        expected[11] = -1.0
        assert list(deriv) == expected

    def test_matches_independent_complex_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = make_spec(
                g_a=rng.uniform(0, 2), g_b=rng.uniform(0, 2), g_nl=rng.uniform(0, 2),
                delta_a=rng.uniform(-2, 2), delta_b=rng.uniform(-2, 2),
                lam=rng.uniform(0, 1), m=int(rng.integers(0, 3)), n=int(rng.integers(0, 3)),
            )
            y = rng.normal(size=12)
            y /= np.linalg.norm(y)
            t = rng.uniform(0, 30)
            got = np.array(rhs(t, ManifoldAmplitudes(*y), spec))
            want = complex_rhs(t, y, spec)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    def test_nonlinear_block_decoupled_from_exciton_block(self):
        # columns of the (linear) generator: rhs applied to unit vectors
        rng = np.random.default_rng(3)
        spec = make_spec(g_a=1.1, g_b=0.7, g_nl=1.9, delta_a=0.4, delta_b=1.2)
        for k in range(12):
            basis_vec = np.zeros(12)
            basis_vec[k] = 1.0
            col = np.array(rhs(rng.uniform(0, 10),
                               ManifoldAmplitudes(*basis_vec), spec))
            if k < 4:
                assert not col[4:].any()
            else:
                assert not col[:4].any()


class TestIntegrate:
    def test_zero_couplings_constant(self):
        y0 = ManifoldAmplitudes(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
        spec = make_spec(g_a=0, g_b=0, g_nl=0, delta_a=1.0, delta_b=0.5, y0=y0, t_end=5.0)
        series = integrate(spec)
        assert np.array_equal(series.amplitudes, np.tile(np.array(y0), (len(series), 1)))

    def test_resonant_rabi_is_cos_squared(self):
        spec = make_spec(g_a=1.0, g_b=0.0, g_nl=0.0, t_end=20.0)
        series = integrate(spec)
        np.testing.assert_allclose(series.p2, np.cos(series.t) ** 2, atol=1e-10)

    def test_norm_conserved(self):
        spec = make_spec(g_a=1.0, g_b=1.0, g_nl=2.0, delta_a=1.0, delta_b=0.1, lam=0.01)
        assert integrate(spec).max_norm_drift() < 1e-12

    def test_time_reversal_returns_to_start(self):
        spec = make_spec(g_a=1.0, g_b=1.0, g_nl=2.0, delta_a=1.0, delta_b=0.1, lam=0.01)
        forward = integrate(spec)
        back_spec = DynamicsSpec(
            params=spec.params, index=spec.index,
            y0=ManifoldAmplitudes(*forward.amplitudes[-1]),
            grid=TimeGrid(20.0, 0.0, -1e-3, 10),
        )
        returned = integrate(back_spec).amplitudes[-1]
        np.testing.assert_allclose(returned, np.array(spec.y0), atol=1e-8)

    def test_lambda_irrelevant_without_exciton_coupling(self):
        # nonlinear terms are undressed, so trajectories must be bit-identical
        y0 = ManifoldAmplitudes.unit("b")
        runs = [
            integrate(make_spec(g_a=0.0, g_b=0.0, g_nl=1.3, lam=lam, y0=y0, t_end=10.0))
            for lam in (0.0, 5.0)
        ]
        assert np.array_equal(runs[0].amplitudes, runs[1].amplitudes)

    def test_divergence_reports_last_good_time(self):
        spec = make_spec(g_nl=10.0, g_a=0.0, g_b=0.0, t_end=100_000.0, step=100.0,
                         sample_every=1, y0=ManifoldAmplitudes.unit("b"))
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(spec)
        assert err.value.t_last >= 0.0
        assert err.value.t_last < 100_000.0

    def test_sampling_includes_endpoints(self):
        spec = make_spec(t_end=1.0, step=1e-3, sample_every=7)
        series = integrate(spec)
        assert series.t[0] == 0.0
        assert series.t[-1] == pytest.approx(1.0, abs=1e-12)


def reference_integrate(spec):
    """Classical RK4, one Python step at a time: the reference for the step-matrix propagator."""
    ga, gb, gk, da, db = spec.coefficients()
    grid = spec.grid
    h = grid.step
    t0 = grid.t_start
    n_steps = grid.n_steps()
    stride = grid.sample_every

    y = spec.y0.as_tuple()
    ts = [t0]
    ys = [y]
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(n_steps):
        t = t0 + i * h
        k1 = _derivs(t, y, ga, gb, gk, da, db)
        k2 = _derivs(t + h2, tuple(v + h2 * k for v, k in zip(y, k1)), ga, gb, gk, da, db)
        k3 = _derivs(t + h2, tuple(v + h2 * k for v, k in zip(y, k2)), ga, gb, gk, da, db)
        k4 = _derivs(t + h, tuple(v + h * k for v, k in zip(y, k3)), ga, gb, gk, da, db)
        y = tuple(
            v + h6 * (p + 2.0 * q + 2.0 * r + s)
            for v, p, q, r, s in zip(y, k1, k2, k3, k4)
        )
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            norm = sum(v * v for v in y)
            if not norm < math.inf:
                raise IntegrationDivergedError(
                    f"state became nonfinite between t={ts[-1]!r} and t={t0 + (i + 1) * h!r}",
                    t_last=ts[-1],
                )
            ts.append(t0 + (i + 1) * h)
            ys.append(y)

    amplitudes = np.array(ys)
    return TimeSeries(t=np.array(ts), amplitudes=amplitudes,
                      norm=(amplitudes ** 2).sum(axis=1))


# every slot populated, so a phase error in any slot shows
RANDOM_Y0 = ManifoldAmplitudes(*np.random.default_rng(11).normal(size=12))


def with_grid(spec, **changes):
    return replace(spec, grid=replace(spec.grid, **changes))


def _fig(name, y0=None, **grid):
    spec = preset_config(name).to_dynamics_spec()
    if y0 is not None:
        spec = replace(spec, y0=y0)
    return with_grid(spec, **grid) if grid else spec


PROPAGATOR_CASES = {
    "fig3": lambda: _fig("fig3"),
    "fig4": lambda: _fig("fig4"),
    "fig5": lambda: _fig("fig5"),
    "t_start": lambda: _fig("fig3", RANDOM_Y0, t_start=3.7, t_end=13.7),
    "backward": lambda: _fig("fig4", RANDOM_Y0, t_start=10.0, t_end=0.0, step=-1e-3),
    "partial_stride": lambda: _fig("fig5", t_end=5.0, sample_every=7),
    "m1_n2_random_y0": lambda: make_spec(
        g_a=0.8, g_b=1.3, g_nl=0.6, delta_a=0.9, delta_b=-0.4, lam=0.2, m=1, n=2,
        y0=RANDOM_Y0, t_end=8.0),
    "coarse_step": lambda: _fig("fig3", step=0.3, t_end=25.0, sample_every=1),
}


def _sample_edge(n_full, rest=0):
    """fig3 from RANDOM_Y0 at step 1e-2 over n_full strides of 3 steps, then `rest` steps more."""
    return _fig("fig3", RANDOM_Y0, t_end=(3 * n_full + rest) * 1e-2, step=1e-2, sample_every=3)


# n_full + 1 on-stride samples, filled in doubling rounds of 1, 2, 4, .. samples:
# edges of the first rounds and of the round that ends at 1024
PROPAGATOR_CASES.update({
    f"n_full_{n}": (lambda n=n: _sample_edge(n)) for n in (1, 2, 3, 4, 5, 1023, 1024, 1025)})
PROPAGATOR_CASES["n_full_1024_off_stride"] = lambda: _sample_edge(1024, rest=2)


class TestStepMatrixPropagator:
    @pytest.mark.parametrize("case", sorted(PROPAGATOR_CASES))
    def test_matches_per_step_reference(self, case):
        spec = PROPAGATOR_CASES[case]()
        got, want = integrate(spec), reference_integrate(spec)
        assert np.array_equal(got.t, want.t)
        assert len(got) == spec.grid.n_samples()  # the count the row limit checks
        assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12
        assert np.abs(got.p2 - want.p2).max() <= 1e-12

    def test_divergence_time_matches_reference(self, monkeypatch):
        # the spectral-radius bound rejects this step before any step is
        # taken; without it, the nonfinite-state check must match the reference
        spec = parse_config(
            "g_nl = 10\ndelta_a = 0\ndelta_b = 0\nlambda = 0\ng_a = 0\ng_b = 0\n"
            "initial = b\nt_end = 100000\nstep = 100\n").to_dynamics_spec()
        monkeypatch.setattr(dynamics, "_MAX_GROWTH", math.inf)
        with pytest.raises(IntegrationDivergedError) as got:
            integrate(spec)
        with pytest.raises(IntegrationDivergedError) as want:
            reference_integrate(spec)
        assert got.value.t_last == want.value.t_last
        assert str(got.value) == str(want.value)

    def test_step_past_stability_limit_raises(self, monkeypatch):
        # fig3 at step 1: RK4 is unstable, the norm grows ~1e9-fold but stays
        # finite.  The spectral radius rejects the step before any step is
        # taken; without that bound, the doubled-norm check still catches it at
        # the last sample at most twice the initial norm
        spec = replace(preset_config("fig3"), step=1.0).to_dynamics_spec()
        with pytest.raises(IntegrationDivergedError, match="spectral radius 1.57") as got:
            integrate(spec)
        assert got.value.t_last == spec.grid.t_start
        want = reference_integrate(spec)
        first = int(np.flatnonzero(want.norm > 2.0 * want.norm[0])[0])
        monkeypatch.setattr(dynamics, "_MAX_GROWTH", math.inf)
        with pytest.raises(IntegrationDivergedError, match="norm more than doubled") as got:
            integrate(spec)
        assert got.value.t_last == want.t[first - 1]

    @pytest.mark.parametrize("step, t_end", [(0.94, 25.0), (0.94, 10.0), (0.95, 10.0)])
    def test_spectral_radius_rejects_unstable_steps(self, monkeypatch, step, t_end):
        spec = replace(preset_config("fig3"), step=step, t_end=t_end).to_dynamics_spec()
        with pytest.raises(IntegrationDivergedError, match="RK4 stability limit") as got:
            integrate(spec)
        assert got.value.t_last == 0.0
        # the norm never doubles (1.33 at step 0.94, 1.94 at 0.95), so the
        # doubled-norm check alone lets these unstable steps end ok
        monkeypatch.setattr(dynamics, "_MAX_GROWTH", math.inf)
        assert integrate(spec).norm.max() < 2.0

    @pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("step", [1e-5, 1e-3, 0.01])
    def test_stable_steps_pass_the_bound(self, preset, step):
        # the bound's headroom covers eigvals' rounding of rho ~ 1 over long windows
        spec = replace(preset_config(preset), step=step).to_dynamics_spec()
        assert len(integrate(spec)) == spec.grid.n_samples()

    def test_generator_is_covariant_under_time_shifts(self):
        # A(t) = R(t) A(0) R(t)^T, R(t) turning slot pairs by the rates the
        # propagator uses: a wrong entry in the rate table breaks this
        rng = np.random.default_rng(29)
        for _ in range(20):
            spec = make_spec(
                g_a=rng.uniform(0.1, 2), g_b=rng.uniform(0.1, 2), g_nl=rng.uniform(0, 2),
                delta_a=rng.uniform(-2, 2), delta_b=rng.uniform(-2, 2),
                m=int(rng.integers(0, 3)), n=int(rng.integers(0, 3)))
            ga, gb, _, da, db = spec.coefficients()
            rates = _phase_rates(ga, gb, da, db)

            def generator(t):
                return np.column_stack([
                    rhs(t, ManifoldAmplitudes(*unit), spec)
                    for unit in np.eye(12)])

            t = rng.uniform(0, 30)
            rot = np.zeros((12, 12))
            for slot, angle in enumerate(rates * t):
                c, s = math.cos(angle), math.sin(angle)
                rot[2 * slot:2 * slot + 2, 2 * slot:2 * slot + 2] = ((c, -s), (s, c))
            residual = generator(t) - rot @ generator(0.0) @ rot.T
            assert np.abs(residual).max() <= 1e-14


def reference_rotate(pairs, angles):
    """cos and sin of every slot's angle: the reference for `_rotate`'s bits."""
    cos, sin = np.cos(angles), np.sin(angles)
    re, im = pairs[..., 0], pairs[..., 1]
    return np.stack((cos * re - sin * im, sin * re + cos * im), axis=-1)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestRotation:
    # an uncoupled channel's rate drops to zero: -0.0 for g_b = 0, +0.0 for g_a = 0
    @pytest.mark.parametrize("uncoupled", ["none", "g_a", "g_b"])
    @pytest.mark.parametrize("step", [1e-2, -1e-2], ids=["forward", "backward"])
    @pytest.mark.parametrize("t_start", [0.0, -0.0, -3.7, 1e3], ids=["0", "-0", "-3.7", "1e3"])
    def test_matches_full_trig_formula(self, monkeypatch, uncoupled, step, t_start):
        couplings = {"g_a": 0.8, "g_b": 1.3, **({uncoupled: 0.0} if uncoupled != "none" else {})}
        rotate, calls = dynamics._rotate, []

        def recording(z, t, rates):
            calls.append((z.copy(), rotate(z, t, rates)))
            return calls[-1][1]

        monkeypatch.setattr(dynamics, "_rotate", recording)
        # each start slot, and again with its zeros as -0.0, whose signs a
        # dropped or flipped zero angle would change
        starts = [ManifoldAmplitudes.unit(slot) for slot in SLOTS]
        starts += [ManifoldAmplitudes(*(v or -0.0 for v in y0)) for y0 in starts]
        for y0 in starts:
            spec = replace(
                make_spec(g_nl=0.6, delta_a=0.9, delta_b=-0.4, lam=0.2, m=1, n=2,
                          y0=y0, **couplings),
                grid=TimeGrid(t_start, t_start + math.copysign(2.0, step), step, 7))
            ga, gb, _, da, db = spec.coefficients()
            rates = _phase_rates(ga, gb, da, db)
            if uncoupled != "none":
                assert (rates == 0.0).sum() == 3 + (uncoupled == "g_a") + 2 * (uncoupled == "g_b")
            calls.clear()
            series = integrate(spec)
            # the start turned into the co-moving frame, then the samples turned back
            (first, start), (z, back) = calls
            assert np.array_equal(bits(first), bits(np.array(y0)))
            want = reference_rotate(np.array(y0).reshape(6, 2), -rates * t_start).ravel()
            assert np.array_equal(bits(start), bits(want))
            want = reference_rotate(z.reshape(-1, 6, 2), np.outer(series.t, rates))
            assert np.array_equal(bits(back), bits(want.reshape(-1, 12)))
            assert back is series.amplitudes


class TestJcBaseline:
    def test_resonant_limit(self):
        t = np.linspace(0, 10, 400)
        np.testing.assert_allclose(jc_baseline(t, g=1.0), np.cos(t) ** 2, atol=1e-14)

    def test_unity_at_time_zero(self):
        assert jc_baseline(0.0, g=2.3, lam=0.4, delta=1.7, m=2) == pytest.approx(1.0)

    def test_detuned_minimum(self):
        # min P2 = delta^2/(delta^2 + 4 g^2) = 0.2 for delta = g = 1
        t = np.linspace(0, 20, 20001)
        assert jc_baseline(t, g=1.0, delta=1.0).min() == pytest.approx(0.2, abs=1e-6)

    def test_matches_integration(self):
        spec = make_spec(g_a=0.9, g_b=0.0, g_nl=0.0, delta_a=0.7, lam=0.3)
        series = integrate(spec)
        np.testing.assert_allclose(
            series.p2, jc_baseline(series.t, g=0.9, lam=0.3, delta=0.7), atol=1e-8)

    def test_zero_coupling_stays_excited(self):
        np.testing.assert_array_equal(jc_baseline(np.linspace(0, 5, 10), g=0.0), 1.0)


class TestNlBlockBaseline:
    def test_zero_coupling_constant(self):
        np.testing.assert_array_equal(nl_block_baseline(np.linspace(0, 5, 10), 0.0), 1.0)

    def test_vacuum_block_frequency(self):
        t = np.linspace(0, 10, 500)
        np.testing.assert_allclose(
            nl_block_baseline(t, 1.0), np.cos(math.sqrt(2.0) * t) ** 2, atol=1e-14)

    def test_matches_integration_for_excited_photon_numbers(self):
        # m=1, n=2: Omega = 0.5*sqrt(3*2*3) = 0.5*sqrt(18)
        spec = make_spec(g_a=0.0, g_b=0.0, g_nl=0.5, m=1, n=2,
                         y0=ManifoldAmplitudes.unit("b"), t_end=20.0)
        series = integrate(spec)
        pb = series.amplitudes[:, 2] ** 2 + series.amplitudes[:, 3] ** 2
        np.testing.assert_allclose(pb, nl_block_baseline(series.t, 0.5, m=1, n=2), atol=1e-8)
        np.testing.assert_allclose(
            pb, np.cos(0.5 * math.sqrt(18.0) * series.t) ** 2, atol=1e-8)


class TestValidation:
    def test_grid_rejects_zero_step(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.0, 1)

    def test_grid_rejects_inconsistent_direction(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, -1.0, 1e-3, 1)
        # a window of at most half a step rounds to no step
        with pytest.raises(ValueError, match="so it takes no step"):
            TimeGrid(0.0, 0.5, 100.0, 1)

    def test_grid_rejects_zero_sample_every(self):
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            TimeGrid(0.0, 1.0, 1e-3, 0)

    @pytest.mark.parametrize("baseline", [jc_baseline, nl_block_baseline])
    def test_baselines_reject_negative_coupling(self, baseline):
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            baseline(np.linspace(0.0, 1.0, 3), -1.0)

    def test_spec_rejects_zero_initial_norm(self):
        with pytest.raises(ValueError):
            make_spec(y0=ManifoldAmplitudes())

    def test_manifold_index_rejects_negative(self):
        with pytest.raises(ValueError):
            ManifoldIndex(-1, 0)

    def test_unit_slot_validation(self):
        with pytest.raises(ValueError):
            ManifoldAmplitudes.unit("z")
