import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qdrabi import (
    ConfigError,
    GridMismatchError,
    ManifoldAmplitudes,
    ManifoldIndex,
    ModelParams,
    build_hamiltonian,
    compare,
    integrate,
    preset_config,
    propagate,
    run_oracle,
    to_interaction_picture,
)
from qdrabi.oracle import (
    OracleResult,
    _sample_lattice,
    basis_index,
    basis_states,
    manifold_states,
    resolve_cutoffs,
)


def params(g_a=0.0, g_b=0.0, g_nl=0.0, delta_a=1.0, delta_b=0.1, lam=0.0):
    return ModelParams(g_a, g_b, g_nl, delta_a, delta_b, lam)


def free_energies(p, states) -> np.ndarray:
    """Free energy of each state, one at a time: the reference for the diagonal."""
    return np.array([p.omega_a * st.m + p.omega_b * st.n + p.omega_ex * (st.s - 1)
                     for st in states])


class TestBasis:
    def test_enumeration_is_total_and_ordered(self):
        states = basis_states(2, 1)
        assert len(states) == 2 * 3 * 2
        assert [s.s for s in states[:6]] == [1] * 6
        assert [(s.m, s.n) for s in states[:6]] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        for i, state in enumerate(states):
            assert basis_index(state.s, state.m, state.n, 2, 1) == i
        assert states == [(s, m, n) for s in (1, 2) for m in range(3) for n in range(2)]

    def test_manifold_matches_amplitude_order(self):
        six = manifold_states(ManifoldIndex(1, 2))
        assert [(s.s, s.m, s.n) for s in six] == [
            (2, 3, 2), (2, 1, 3), (1, 1, 3), (2, 1, 2), (1, 3, 2), (1, 2, 2)]


class TestBuildHamiltonian:
    def test_zero_couplings_diagonal(self):
        p = params(delta_a=0.8, delta_b=-0.1)  # omega_a = 0.9, omega_ex = 1.7
        ham = build_hamiltonian(p, 4, 3).matrix
        assert not np.abs(ham - np.diag(np.diag(ham))).any()
        # |1,m,n> -> omega_a*m + omega_b*n; |2,m,n> adds the shifted exciton level
        assert ham[basis_index(1, 2, 1, 4, 3)][basis_index(1, 2, 1, 4, 3)] == \
            pytest.approx(0.9 * 2 + 1.8, rel=1e-15)
        assert ham[basis_index(2, 0, 0, 4, 3)][basis_index(2, 0, 0, 4, 3)] == \
            pytest.approx(1.7, rel=1e-15)

    def test_restricted_nonlinear_pairs(self):
        # with only g_nl, the vacuum manifold carries exactly one coupled
        # pair per dot level, a = |2,2,0> <-> b = |2,0,1> and
        # e = |1,2,0> <-> c = |1,0,1>, each with element
        # g_nl*sqrt((0+1)(0+1)(0+2))
        p = params(g_nl=1.7)
        ham = build_hamiltonian(p, 2, 1, mode="restricted").matrix
        assert ham.shape == (6, 6)
        a, b, c, d, e, f = range(6)
        expected = np.zeros((6, 6))
        expected[a, b] = expected[b, a] = expected[e, c] = expected[c, e] = 1.7 * math.sqrt(2.0)
        np.testing.assert_array_equal(ham - np.diag(np.diag(ham)), expected)

    @pytest.mark.parametrize("m, n", [(0, 0), (1, 2)])
    def test_restricted_is_manifold_block_of_full(self, m, n):
        p = params(g_a=1.2, g_b=0.5, g_nl=0.8, lam=0.3)
        index = ManifoldIndex(m, n)
        n_a, n_b = resolve_cutoffs(index)
        full = build_hamiltonian(p, n_a, n_b, mode="full", index=index).matrix
        slots = [basis_index(st.s, st.m, st.n, n_a, n_b) for st in manifold_states(index)]
        restricted = build_hamiltonian(p, n_a, n_b, mode="restricted", index=index).matrix
        assert np.array_equal(restricted, full[np.ix_(slots, slots)])

    def test_full_mode_is_exactly_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = params(*rng.uniform(0, 2, 5), lam=rng.uniform(0, 1))
            ham = build_hamiltonian(p, 5, 4).matrix
            assert np.array_equal(ham, ham.conj().T)

    def test_restricted_mode_is_exactly_hermitian(self):
        p = params(g_a=1.2, g_b=0.5, g_nl=0.8)
        ham = build_hamiltonian(p, 4, 3, mode="restricted").matrix
        assert np.array_equal(ham, ham.conj().T)

    def test_full_mode_needs_headroom(self):
        with pytest.raises(ConfigError, match="headroom"):
            build_hamiltonian(params(), 2, 1, mode="full")

    def test_full_mode_cutoff_cap(self):
        with pytest.raises(ConfigError, match="capped"):
            build_hamiltonian(params(), 17, 3, mode="full")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            build_hamiltonian(params(), 3, 2, mode="exact")

    def test_resolve_cutoffs_defaults(self):
        assert resolve_cutoffs(ManifoldIndex(0, 0)) == (4, 3)
        assert resolve_cutoffs(ManifoldIndex(2, 1)) == (6, 4)

    def test_resolve_cutoffs_defaults_each_field_alone(self):
        assert resolve_cutoffs(ManifoldIndex(), 10, None) == (10, 3)
        assert resolve_cutoffs(ManifoldIndex(), None, 7) == (4, 7)
        assert resolve_cutoffs(ManifoldIndex(1, 2), None, 6) == (5, 6)

    def test_resolve_cutoffs_checks_a_defaulted_pair(self):
        with pytest.raises(ConfigError, match="headroom"):
            resolve_cutoffs(ManifoldIndex(), 3, None)
        with pytest.raises(ConfigError, match="capped"):
            resolve_cutoffs(ManifoldIndex(15, 0))

    @pytest.mark.parametrize("mode, cutoffs", [("full", (4, 3)), ("restricted", (2, 1))],
                             ids=["full", "restricted"])
    def test_build_hamiltonian_defaults_its_cutoffs(self, mode, cutoffs):
        p = params(g_a=1.2, g_b=0.5, g_nl=0.8, lam=0.3)
        got = build_hamiltonian(p, mode=mode)
        want = build_hamiltonian(p, *cutoffs, mode=mode)
        assert np.array_equal(got.matrix, want.matrix)
        assert got.states == want.states


def reference_hamiltonian(p, states) -> np.ndarray:
    """The per-state loop over a position dict: the reference for build_hamiltonian's bits."""
    position = {st: i for i, st in enumerate(states)}
    ham = np.diag(free_energies(p, states))
    ga, gb, g_nl = p.dressed_g_a(), p.dressed_g_b(), p.g_nl
    for (s, m, n), i in position.items():
        partners = [((1, m + 1, n), ga * math.sqrt(m + 1)),
                    ((1, m, n + 1), gb * math.sqrt(n + 1))] if s == 2 else []
        if n > 0:
            partners.append(((s, m + 2, n - 1), g_nl * math.sqrt(n * (m + 1) * (m + 2))))
        for partner, value in partners:
            j = position.get(partner)
            if j is not None:
                ham[i, j] = ham[j, i] = value
    return ham


HAMILTONIAN_PARAMS = {
    "generic": params(g_a=1.2, g_b=-0.5, g_nl=0.8, delta_a=0.9, delta_b=-0.4, lam=0.3),
    "overflow+": params(g_a=1.0, g_b=1.0, g_nl=2.0, delta_a=1e308, delta_b=-1e308),
    "overflow-": params(g_a=1.0, g_b=1.0, g_nl=2.0, delta_a=-1e308, delta_b=1e308),
    # every frequency negative: |1,0,0> sits at -0.0 on the diagonal
    "negative": params(g_a=1.2, g_b=-0.5, g_nl=0.8, delta_a=-1.0, delta_b=0.5, lam=0.3),
}


class TestHamiltonianBits:
    @pytest.mark.parametrize("name", sorted(HAMILTONIAN_PARAMS))
    @pytest.mark.parametrize("mode, cutoffs", [("restricted", None), ("full", None),
                                               ("full", 16)], ids=["restricted", "full-min",
                                                                   "full-16"])
    @pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (0, 2), (3, 1)])
    def test_matches_per_state_loop(self, name, mode, cutoffs, m, n):
        p, index = HAMILTONIAN_PARAMS[name], ManifoldIndex(m, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is a silent inf, as in the loop
            ham = build_hamiltonian(p, cutoffs, cutoffs, mode=mode, index=index)
        want = reference_hamiltonian(p, ham.states)
        assert np.array_equal(ham.matrix.view(np.uint64), want.view(np.uint64))
        # an overflowed energy is inf, or nan where an inf frequency meets no quanta
        assert np.isfinite(ham.matrix).all() != name.startswith("overflow")
        assert list(ham.manifold) == [ham.states.index(st) for st in manifold_states(index)]

    def test_photon_products_past_int64(self):
        # (n+1)(m+1)(m+2) near 1e27: math.sqrt rounds the exact integer once
        index = ManifoldIndex(10**9, 10**9)
        p = HAMILTONIAN_PARAMS["generic"]
        ham = build_hamiltonian(p, mode="restricted", index=index)
        want = reference_hamiltonian(p, ham.states)
        assert np.array_equal(ham.matrix.view(np.uint64), want.view(np.uint64))


class TestPropagate:
    def test_zero_hamiltonian_freezes_state(self):
        psi0 = np.array([0.6, 0.8j, 0.0])
        psi_t = propagate(np.zeros((3, 3)), psi0, [0.0, 1.0, 5.0], range(3))
        np.testing.assert_allclose(psi_t, np.tile(psi0, (3, 1)), atol=1e-15)

    def test_diagonal_hamiltonian_rotates_phases(self):
        energies = np.array([0.0, 1.5, -0.7])
        psi0 = np.ones(3) / math.sqrt(3.0)
        times = np.array([0.0, 0.9, 2.4])
        psi_t = propagate(np.diag(energies), psi0, times, range(3))
        expected = np.exp(-1j * np.outer(times, energies)) * psi0
        np.testing.assert_allclose(psi_t, expected, atol=1e-12)

    def test_two_level_resonant_oscillation(self):
        g = 0.8
        ham = np.array([[0.0, g], [g, 0.0]])
        times = np.linspace(0, 10, 101)
        psi_t = propagate(ham, np.array([1.0, 0.0]), times, range(2))
        np.testing.assert_allclose(np.abs(psi_t[:, 0]) ** 2, np.cos(g * times) ** 2, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        ham = mat + mat.conj().T
        psi0 = rng.normal(size=40) + 1j * rng.normal(size=40)
        psi0 /= np.linalg.norm(psi0)
        psi_t = propagate(ham, psi0, np.linspace(0, 50, 60), range(40))
        norms = np.linalg.norm(psi_t, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @staticmethod
    def _coupled_system():
        """A dense real symmetric matrix and times with an off-lattice last sample."""
        mat = np.random.default_rng(37).normal(size=(12, 12))
        return mat + mat.T, np.append(np.linspace(0.0, 4.0, 17), 4.1)

    def test_nan_in_psi0_keeps_every_mode(self):
        # nan compares false against any cut, which would skip every mode
        ham, times = self._coupled_system()
        psi0 = np.zeros(12, dtype=complex)
        psi0[[2, 7]] = np.nan, 1.0
        got = propagate(ham, psi0, times, [0, 2, 5])
        assert got.shape == (18, 3)
        assert not np.isfinite(got).any()

    def test_all_zero_psi0_gives_zeros(self):
        # no mode carries weight, so none is kept
        ham, times = self._coupled_system()
        got = propagate(ham, np.zeros(12), times, [0, 2, 5])
        assert got.dtype == complex
        assert np.array_equal(got, np.zeros((18, 3)))

    def test_no_components_give_no_columns(self):
        ham, times = self._coupled_system()
        got = propagate(ham, np.ones(12), times, [])
        assert got.shape == (18, 0)


class TestInteractionPicture:
    def test_identity_at_time_zero(self):
        p = params(g_a=1.0, g_b=0.5, g_nl=2.0)
        psi = np.arange(12, dtype=complex).reshape(1, 12)
        out = to_interaction_picture(psi, [0.0], free_energies(p, basis_states(2, 1)))
        np.testing.assert_array_equal(out, psi)

    @pytest.mark.parametrize("delta_a, delta_b", [(1.0, 0.1), (-1.0, 0.5)],
                             ids=["+0-energy", "-0-energy"])
    def test_matches_per_column_formula(self, delta_a, delta_b):
        # |1,0,0> has energy -0.0 when omega_a, omega_b and omega_ex are all
        # negative; |1,2,0> and |1,0,1> share an energy, and so one column
        p = params(delta_a=delta_a, delta_b=delta_b)
        e0 = free_energies(p, basis_states(2, 1))
        assert math.copysign(1.0, e0[0]) == (1.0 if delta_a > 0 else -1.0)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(7, 12)) + 1j * rng.normal(size=(7, 12))
        times = np.array([0.0, -0.0, 0.4, -3.7, 1e3, 2.5e5, -1e-300])
        want = np.exp(1j * np.outer(times, e0)) * psi
        got = to_interaction_picture(psi, times, e0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_free_evolution_gives_constant_amplitudes(self):
        p = params(g_a=0.0, g_b=0.0, g_nl=0.0, delta_a=1.3, delta_b=0.4)
        times = np.linspace(0, 15, 40)
        result = run_oracle(p, times)
        np.testing.assert_allclose(
            result.amplitudes, np.tile(result.amplitudes[0], (40, 1)), atol=1e-12)


class TestOracleAgainstIntegrator:
    @pytest.mark.parametrize("t_start", [0.0, 3.7, -2.0])
    def test_restricted_matches_ode_on_fig3(self, t_start):
        # both engines take the initial amplitudes at t_start
        cfg = replace(preset_config("fig3"), t_start=t_start, t_end=t_start + 25.0)
        series = integrate(cfg.to_dynamics_spec())
        result = run_oracle(cfg.to_model_params(), series.t)
        assert compare(result, series) < 1e-8

    def test_full_mode_leakage_does_not_depend_on_the_window_start(self):
        # one excited amplitude: anchoring it at t_start is a global phase,
        # so the leakage depends on the time since t_start alone
        results = []
        for t_start in (0.0, 3.7):
            cfg = replace(preset_config("fig3"), initial="excited", step=1e-2,
                          t_start=t_start, t_end=t_start + 25.0)
            spec = cfg.to_dynamics_spec()
            series = integrate(spec)
            results.append(run_oracle(cfg.to_model_params(), series.t, y0=spec.y0, mode="full"))
        at_0, at_3_7 = results
        assert at_0.max_leakage() > 1e-3
        assert abs(at_3_7.max_leakage() - at_0.max_leakage()) <= 1e-12
        # sample by sample too: the window maxima alone may share a sample
        assert np.abs(at_3_7.leakage - at_0.leakage).max() <= 1e-12

    def test_restricted_matches_ode_off_vacuum_manifold(self):
        cfg = preset_config("fig3")
        index = ManifoldIndex(1, 1)
        spec = cfg.to_dynamics_spec()
        spec = replace(spec, index=index)
        series = integrate(spec)
        result = run_oracle(cfg.to_model_params(), series.t, index=index)
        assert compare(result, series) < 1e-8

    def test_full_mode_reports_leakage_without_failing(self):
        cfg = preset_config("fig3")
        series = integrate(replace(cfg, step=1e-2).to_dynamics_spec())
        result = run_oracle(cfg.to_model_params(), series.t, mode="full")
        assert result.max_leakage() > 0.0
        assert np.all(result.leakage >= -1e-12)
        # restricted mode keeps everything inside the manifold
        restricted = run_oracle(cfg.to_model_params(), series.t, mode="restricted")
        assert restricted.max_leakage() < 1e-12


class TestCompare:
    def test_identical_series_deviate_by_zero(self):
        cfg = preset_config("fig3")
        series = integrate(replace(cfg, step=1e-2).to_dynamics_spec())
        result = run_oracle(cfg.to_model_params(), series.t)
        result.amplitudes = series.amplitudes.copy()
        assert compare(result, series) == 0.0

    def test_single_entry_perturbation_is_measured(self):
        cfg = preset_config("fig3")
        series = integrate(replace(cfg, step=1e-2).to_dynamics_spec())
        result = run_oracle(cfg.to_model_params(), series.t)
        result.amplitudes = series.amplitudes.copy()
        result.amplitudes[17, 3] += 1e-6
        assert compare(result, series) == pytest.approx(1e-6, rel=1e-9)

    def test_no_samples_give_nan(self):
        # no sample to take a maximum over, as for a trace without crossings
        p = preset_config("fig3").to_model_params()
        result = run_oracle(p, [])
        assert math.isnan(result.max_leakage())
        assert math.isnan(compare(result, run_oracle(p, [])))

    def test_grid_mismatch_rejected(self):
        cfg = preset_config("fig3")
        series = integrate(replace(cfg, step=1e-2).to_dynamics_spec())
        result = run_oracle(cfg.to_model_params(), series.t[:-1])
        with pytest.raises(GridMismatchError):
            compare(result, series)


class TestInitialStates:
    def test_oracle_accepts_manifold_superposition(self):
        cfg = preset_config("fig3")
        y0 = ManifoldAmplitudes(c1=0.6, d2=0.8)
        spec = replace(replace(cfg, step=1e-3).to_dynamics_spec(), y0=y0)
        series = integrate(spec)
        result = run_oracle(cfg.to_model_params(), series.t, y0=y0)
        assert compare(result, series) < 1e-8

    @pytest.mark.parametrize("mode", ["restricted", "full"])
    def test_array_y0_gives_the_same_bits(self, mode):
        # both engines read y0 as 12 plain reals, whatever holds them
        cfg = preset_config("fig4")
        values = np.array(_random_y0(13))
        runs = []
        for y0 in (values, ManifoldAmplitudes(*values)):
            series = integrate(replace(cfg.to_dynamics_spec(), y0=y0))
            result = run_oracle(cfg.to_model_params(), series.t, y0=y0, mode=mode)
            runs.append((series.amplitudes, result.amplitudes, result.leakage))
        for from_array, from_tuple in zip(*runs):
            assert np.array_equal(from_array, from_tuple)

    def test_y0_of_other_than_12_reals_rejected(self):
        # two reals would otherwise fill all six slots by broadcasting
        cfg = preset_config("fig3")
        with pytest.raises(ValueError):
            run_oracle(cfg.to_model_params(), np.linspace(0.0, 1.0, 11), y0=(1.0, 0.0))
        with pytest.raises(ValueError):
            integrate(replace(cfg.to_dynamics_spec(), y0=(1.0, 0.0)))


def reference_propagate(ham, psi0, times) -> np.ndarray:
    """Every component on the complex Hermitian path: the reference for propagate."""
    matrix = np.asarray(ham, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    try:
        energies, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(matrix).max()) if matrix.size else 0.0
        raise RuntimeError(
            f"eigendecomposition failed for a {matrix.shape[0]}x{matrix.shape[1]} "
            f"matrix with max |entry| {scale:.3e}: {exc}"
        ) from exc
    coeffs = vectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, energies))
    return (phases * coeffs) @ vectors.T


def reference_run_oracle(
    params: ModelParams,
    times,
    index: ManifoldIndex = ManifoldIndex(),
    y0: ManifoldAmplitudes | None = None,
    mode: str = "restricted",
    cutoffs: tuple[int, int] | None = None,
) -> OracleResult:
    """The full-state oracle: the reference for run_oracle's six-component path.

    y0 is the interaction-picture state at the first sample time t0: the
    Schroedinger state there is exp(-i E0 t0) y0, evolved over t - t0.
    """
    if y0 is None:
        y0 = ManifoldAmplitudes.unit("d")
    n_a, n_b = cutoffs if cutoffs is not None else (None, None)
    ham = build_hamiltonian(params, n_a, n_b, mode=mode, index=index)
    times = np.asarray(times, dtype=float)
    t0 = times[0] if len(times) else 0.0

    six = manifold_states(index)
    slots = [ham.states.index(st) for st in six]
    e0 = free_energies(params, six)
    psi0 = np.zeros(len(ham.states), dtype=complex)
    y0_flat = y0.as_tuple()
    for k, slot in enumerate(slots):
        psi0[slot] = complex(y0_flat[2 * k], y0_flat[2 * k + 1])

    # to_interaction_picture at -t0 multiplies each slot by exp(-i E0 t0)
    psi0[slots] = to_interaction_picture(psi0[slots][None, :], [-t0], e0)[0]
    psi_t = reference_propagate(ham.matrix, psi0, times - t0)
    inside = (np.abs(psi_t[:, slots]) ** 2).sum(axis=1)
    total = (np.abs(psi_t) ** 2).sum(axis=1)
    amps_c = to_interaction_picture(psi_t[:, slots], times, e0)

    amplitudes = np.empty((len(amps_c), 12))
    amplitudes[:, 0::2] = amps_c.real
    amplitudes[:, 1::2] = amps_c.imag
    return OracleResult(t=np.asarray(times, dtype=float), amplitudes=amplitudes,
                        norm=total, leakage=total - inside, hamiltonian=ham)


def _random_y0(seed):
    vec = np.random.default_rng(seed).normal(size=12)
    return ManifoldAmplitudes(*(vec / np.linalg.norm(vec)))


# name -> (preset, keyword arguments of run_oracle, window start)
EQUIVALENCE_CASES = {
    "fig3": ("fig3", {}, 0.0),
    "fig4": ("fig4", {}, 0.0),
    "fig5": ("fig5", {}, 0.0),
    "fig3-cutoffs-10-10": ("fig3", {"cutoffs": (10, 10)}, 0.0),
    "fig4-index-1-1": ("fig4", {"index": ManifoldIndex(1, 1)}, 0.0),
    "fig5-random-y0": ("fig5", {"y0": _random_y0(17)}, 0.0),
    "fig3-t_start-3.7": ("fig3", {}, 3.7),
    # about two thirds of the 578 eigenmodes fall under propagate's cut
    "fig5-cutoffs-16-16": ("fig5", {"cutoffs": (16, 16)}, 0.0),
    "fig3-random-y0-t_start-3.7": ("fig3", {"y0": _random_y0(19)}, 3.7),
}


class TestSixComponentOracle:
    @pytest.mark.parametrize("mode", ["restricted", "full"])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_full_state_reference(self, case, mode):
        preset, kwargs, t_start = EQUIVALENCE_CASES[case]
        p = preset_config(preset).to_model_params()
        times = t_start + np.linspace(0.0, 25.0, 501)
        got = run_oracle(p, times, mode=mode, **kwargs)
        want = reference_run_oracle(p, times, mode=mode, **kwargs)
        assert np.array_equal(got.t, want.t)
        assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12
        assert np.abs(got.p2 - want.p2).max() <= 1e-12
        assert np.abs(got.leakage - want.leakage).max() <= 1e-13
        assert np.abs(got.norm - want.norm).max() <= 1e-13
        assert np.array_equal(got.hamiltonian.matrix, want.hamiltonian.matrix)
        if mode == "full":
            assert want.max_leakage() > 1e-3  # the case exercises leakage

    @pytest.mark.parametrize("kind", ["real-symmetric", "complex-hermitian"])
    def test_components_are_columns_of_the_full_state(self, kind):
        rng = np.random.default_rng(23)
        mat = rng.normal(size=(30, 30))
        if kind == "complex-hermitian":
            mat = mat + 1j * rng.normal(size=(30, 30))
        ham = mat + mat.conj().T
        psi0 = rng.normal(size=30) + 1j * rng.normal(size=30)
        times = np.linspace(0, 8, 33)
        comps = [29, 3, 17, 0, 4, 11]
        # equal up to the summation order of two differently shaped products
        np.testing.assert_allclose(propagate(ham, psi0, times, comps),
                                   reference_propagate(ham, psi0, times)[:, comps],
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", ["restricted", "full"])
    def test_hamiltonian_is_real_symmetric(self, mode):
        p = params(g_a=1.2, g_b=0.5, g_nl=0.8, lam=0.3)
        ham = build_hamiltonian(p, 6, 5, mode=mode).matrix
        assert ham.dtype == np.float64
        assert np.array_equal(ham, ham.T)


def _integrate_times(**fields):
    """Sample times of a fig3 trajectory with the given config fields."""
    return integrate(replace(preset_config("fig3"), **fields).to_dynamics_spec()).t


# name -> sample times; the integrate grids are what run_oracle receives
PHASE_GRIDS = {
    "t_start-0": lambda: _integrate_times(step=0.01),
    "t_start-3.7": lambda: _integrate_times(step=0.01, t_start=3.7, t_end=28.7),
    "backward": lambda: _integrate_times(step=-0.01, t_start=25.0, t_end=0.0),
    "off-stride-last": lambda: _integrate_times(step=0.01, samples=7),
    "minus-5-to-100": lambda: np.linspace(-5.0, 100.0, 2001),
    "random-sorted": lambda: np.sort(np.random.default_rng(29).uniform(0.0, 25.0, 300)),
    "one-sample": lambda: np.array([2.5]),
    "two-samples": lambda: np.array([0.0, 0.3]),
}


@pytest.fixture(scope="module")
def phase_systems():
    """(Hamiltonian, psi0, components): the dim-578 fig3 matrix and a small complex one."""
    p = preset_config("fig3").to_model_params()
    ham = build_hamiltonian(p, 16, 16)
    slots = [ham.states.index(st) for st in manifold_states(ManifoldIndex())]
    psi0 = np.zeros(len(ham.states), dtype=complex)
    psi0[slots[3]] = 1.0
    rng = np.random.default_rng(31)
    mat = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    small_psi0 = rng.normal(size=24) + 1j * rng.normal(size=24)
    return {"fig3-578": (ham.matrix, psi0, slots),
            "complex-hermitian": (mat + mat.conj().T, small_psi0 / np.linalg.norm(small_psi0),
                                  [23, 5, 0, 11])}


class TestFactorisedPhases:
    @pytest.mark.parametrize("system", ["fig3-578", "complex-hermitian"])
    @pytest.mark.parametrize("grid", sorted(PHASE_GRIDS))
    def test_matches_reference(self, phase_systems, system, grid):
        ham, psi0, comps = phase_systems[system]
        times = PHASE_GRIDS[grid]()
        want = reference_propagate(ham, psi0, times)
        assert np.abs(propagate(ham, psi0, times, comps) - want[:, comps]).max() <= 1e-12

    @pytest.mark.parametrize("grid", ["t_start-0", "t_start-3.7", "backward", "minus-5-to-100"])
    def test_uniform_grids_lie_on_the_lattice(self, grid):
        # a spacing taken from the first difference drifts off the lattice
        # from t_start = 3.7 on; one taken from the endpoints does not
        times = PHASE_GRIDS[grid]()
        spacing, on = _sample_lattice(times, scale=250.0)
        assert on.all()
        assert spacing == (times[-1] - times[0]) / (len(times) - 1)

    def test_off_stride_last_sample_is_the_only_one_off(self):
        times = PHASE_GRIDS["off-stride-last"]()
        _, on = _sample_lattice(times, scale=250.0)
        assert len(times) == 9
        assert on[:-1].all() and not on[-1]

    def test_overflowing_phases_stay_nonfinite(self):
        # E*t overflows at the last sample only, while its block anchor
        # (E*1.5e8) and in-block offset (E*5e7) phases are both finite
        ham = np.diag([1e300, -3e299, 0.0])
        psi0 = np.ones(3) / math.sqrt(3.0)
        times = np.linspace(0.0, 2e8, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            got = propagate(ham, psi0, times, range(3))
            want = reference_propagate(ham, psi0, times)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.isfinite(got[:4]).all() and not np.isfinite(got[4]).any()
