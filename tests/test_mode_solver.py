"""Unit tests for the invariant-operator mode solvers.

The convention locked here throughout: the invariant annihilation operator is
a(t) = U(t) a U(t)^dag, so for a constant boson Hamiltonian f-(t) carries the
phase e^{+i w0 (t - t_i)} while the oscillator mode function v(t) carries
e^{-i w (t - t_i)}.  Small exact Fock spaces double-check the operator
identity directly where the dimension permits.
"""

import cmath
import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st
from scipy.integrate._ivp import dop853_coefficients
from scipy.linalg import expm

from tfdyn import (
    BosonProtocol,
    Constant,
    FermionProtocol,
    IntegrationError,
    IntegratorConfig,
    OscillatorProtocol,
    Step,
    fermion_frame_coeffs,
    make_tanh_ramp,
    solve_boson_mode,
    solve_fermion_modes,
    solve_oscillator_mode,
)
from tfdyn.fock_oracle import (
    build_boson_hamiltonian,
    build_fermion_hamiltonian,
    build_fermion_space,
    fermion_single,
    invariant_operator_matrix,
)
from tfdyn import _dop853, mode_solver
from tfdyn.mode_solver import build_boson_generator, build_fermion_generator
from tfdyn.protocols import sampler

TIGHT = IntegratorConfig(rel_tol=1e-12, grid_points=101)

RNG_SEED = 20260814


class TestGenerators:
    def test_boson_generator_entries(self):
        m = build_boson_generator(2.0, 0.5 + 0.25j)
        expected = np.array([[2.0, -(0.5 - 0.25j)], [0.5 + 0.25j, -2.0]])
        assert np.allclose(m, expected, atol=0, rtol=0)

    def test_boson_generator_sigma3_m_hermitian(self):
        """s3 M Hermitian is the algebraic source of |f-|^2 - |f+|^2 = const."""
        rng = np.random.default_rng(RNG_SEED)
        s3 = np.diag([1.0, -1.0])
        for _ in range(20):
            w0 = rng.uniform(0.1, 5.0)
            wp = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            m = s3 @ build_boson_generator(w0, wp)
            assert np.allclose(m, m.conj().T, atol=1e-15)

    def test_fermion_generator_hermitian(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            a = build_fermion_generator(
                rng.uniform(0.1, 5.0),
                rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
            )
            assert np.allclose(a, a.conj().T, atol=1e-15)

    def test_fermion_generator_block_structure(self):
        a = build_fermion_generator(2.0, 0.0, 0.0)
        s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(a[:2, :2], -2.0 * s1, atol=0)
        assert np.allclose(a[2:, 2:], +2.0 * s1, atol=0)
        assert np.allclose(a[:2, 2:], 0.0, atol=0)


class TestBosonMode:
    def test_constant_hamiltonian_free_phase(self):
        """For constant diagonal H, f-(t) = e^{+i w0 (t - t_i)} and f+ = 0."""
        p = BosonProtocol(Constant(2.0), Constant(0.0), t_i=0.0, t_f=5.0)
        traj = solve_boson_mode(p, TIGHT)
        expected = np.exp(1j * 2.0 * traj.t)
        assert np.max(np.abs(traj.f_minus - expected)) < 1e-10
        assert np.max(np.abs(traj.f_plus)) < 1e-12

    def test_initial_condition(self):
        p = BosonProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 5.0, 0.5), t_i=0.0, t_f=10.0
        )
        traj = solve_boson_mode(p, TIGHT)
        assert traj.f_minus[0] == 1.0 + 0.0j
        assert traj.f_plus[0] == 0.0 + 0.0j

    def test_commutator_conserved_along_coupling_quench(self):
        p = BosonProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 5.0, 0.5), t_i=0.0, t_f=10.0
        )
        traj = solve_boson_mode(p, TIGHT)
        assert np.max(traj.deviation("commutator")) < 1e-10
        assert traj.drift["commutator"] < 1e-10

    def test_nondiagonal_initial_hamiltonian_refused(self):
        p = BosonProtocol(Constant(1.0), Constant(0.3), t_i=0.0, t_f=1.0)
        with pytest.raises(ValueError, match="diagonal"):
            solve_boson_mode(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_commutator_conserved_for_random_smooth_protocols(self, seed):
        # Ramp centers and widths keep the coupling tail at t_i below the
        # solver's diagonal-initial-Hamiltonian threshold.
        rng = np.random.default_rng(RNG_SEED + seed)
        p = BosonProtocol(
            make_tanh_ramp(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                           rng.uniform(4.5, 5.5), rng.uniform(0.3, 0.5)),
            make_tanh_ramp(0.0, rng.uniform(-0.4, 0.4),
                           rng.uniform(4.5, 5.5), rng.uniform(0.3, 0.5)),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_boson_mode(p, TIGHT)
        assert np.max(traj.deviation("commutator")) < 1e-9

    def test_operator_identity_against_truncated_unitary(self):
        """a(t) = U a U^dag, checked entry-wise away from the truncation edge.

        The coupling pulse is piecewise constant with declared jumps, so the
        brute-force unitary is an exact three-factor product; the identity
        then holds to ODE tolerance on the lower half of the basis while the
        truncation edge breaks it by design.
        """
        from tfdyn.fock_oracle import boson_single, build_boson_ladder

        p = BosonProtocol(
            Constant(1.0), lambda t: 0.1 if 0.5 <= t < 1.5 else 0.0,
            t_i=0.0, t_f=2.0, jump_times=(0.5, 1.5),
        )
        traj = solve_boson_mode(p, TIGHT)
        n = 60

        u = np.eye(n, dtype=complex)
        for (t0, t1, wp) in ((0.0, 0.5, 0.0), (0.5, 1.5, 0.1), (1.5, 2.0, 0.0)):
            h = build_boson_hamiltonian(1.0, wp, n).matrix
            u = expm(-1j * h * (t1 - t0)) @ u
        a_op, _ = build_boson_ladder(n)
        lhs = u @ a_op.matrix @ u.conj().T
        rhs = invariant_operator_matrix(traj.final, boson_single(n)).matrix
        block = 30
        assert np.max(np.abs(lhs[:block, :block] - rhs[:block, :block])) < 1e-10
        # The identity cannot survive at the edge of a truncated ladder.
        assert np.max(np.abs(lhs - rhs)) > 1e-2


class TestOscillatorMode:
    def test_constant_hamiltonian_mode_function(self):
        """v(t) = e^{-i w (t - t_i)} / sqrt(2 m w) for static (m, w)."""
        p = OscillatorProtocol(Constant(1.5), Constant(2.0), t_i=0.0, t_f=5.0)
        traj = solve_oscillator_mode(p, TIGHT)
        expected = np.exp(-1j * 2.0 * traj.t) / math.sqrt(2.0 * 1.5 * 2.0)
        assert np.max(np.abs(traj.v - expected)) < 1e-11
        assert np.max(np.abs(traj.v_dot + 1j * 2.0 * expected)) < 1e-10

    def test_wronskian_is_exactly_i_initially(self):
        p = OscillatorProtocol(Constant(1.0), Constant(1.0), t_i=0.0, t_f=1.0)
        traj = solve_oscillator_mode(p, TIGHT)
        assert traj.deviation("wronskian")[0] <= 1e-15

    def test_wronskian_conserved_through_frequency_quench(self):
        p = OscillatorProtocol(
            Constant(1.0), make_tanh_ramp(1.0, 2.0, 5.0, 0.5), t_i=0.0, t_f=10.0
        )
        traj = solve_oscillator_mode(p, TIGHT)
        assert np.max(traj.deviation("wronskian")) < 1e-10

    def test_wronskian_conserved_through_mass_ramp(self):
        ramp = make_tanh_ramp(1.0, 2.0, 5.0, 0.5)
        p = OscillatorProtocol(mass=ramp, omega=Constant(1.0), t_i=0.0, t_f=10.0)
        traj = solve_oscillator_mode(p, TIGHT)
        assert np.max(traj.deviation("wronskian")) < 1e-10
        assert traj.mass[-1] == pytest.approx(2.0, rel=1e-8)

    def test_wronskian_conserved_through_bare_mass_ramp(self):
        """A bare mass callable serves as well as a built-in profile."""
        ramp = make_tanh_ramp(1.0, 2.0, 5.0, 0.5)
        p = OscillatorProtocol(
            mass=lambda t: ramp(t), omega=Constant(1.0), t_i=0.0, t_f=10.0
        )
        traj = solve_oscillator_mode(p, TIGHT)
        assert np.max(traj.deviation("wronskian")) < 1e-10

    def test_mass_moving_at_start_takes_the_static_initial_data(self):
        """v = 1/sqrt(2 m w) and v' = -i w v at t_i, whatever m' is there."""
        p = OscillatorProtocol(
            mass=make_tanh_ramp(1.0, 2.0, 0.0, 0.5), omega=Constant(1.3),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_oscillator_mode(p, TIGHT)
        assert traj.mass[0] == 1.5
        assert traj.v[0] == pytest.approx(1.0 / math.sqrt(2.0 * 1.5 * 1.3), rel=1e-15)
        assert traj.v_dot[0] == pytest.approx(-1.3j * traj.v[0], rel=1e-15)
        assert np.max(traj.deviation("wronskian")) < 1e-10

    def test_declared_mass_jump_keeps_v_and_momentum_continuous(self):
        """Across a sudden mass jump v and pi = m v' are continuous, so v'
        jumps by the mass ratio and the Wronskian stays i."""
        p = OscillatorProtocol(
            mass=Step(1.0, 2.0, t_jump=1.0), omega=Constant(1.0),
            t_i=0.0, t_f=2.0, jump_times=(1.0,),
        )
        traj = solve_oscillator_mode(p, TIGHT)
        v1 = np.exp(-1j * 1.0) / math.sqrt(2.0)
        vd1 = -1j * v1 * (1.0 / 2.0)  # v'(1+) = m(1-) v'(1-) / m(1+)
        after = traj.t >= 1.0
        expected = v1 * np.cos(traj.t[after] - 1.0) + vd1 * np.sin(traj.t[after] - 1.0)
        assert np.max(np.abs(traj.v[after] - expected)) < 1e-10
        assert np.max(traj.deviation("wronskian")) < 1e-10

    def test_declared_jump_reproduces_sudden_matching(self):
        """Integrating across a declared step must match the continuity
        conditions v, v' continuous at the jump (handled by segment restart)."""
        p = OscillatorProtocol(
            mass=Constant(1.0), omega=Step(1.0, 4.0, t_jump=1.0),
            t_i=0.0, t_f=2.0, jump_times=(1.0,),
        )
        traj = solve_oscillator_mode(p, TIGHT)
        # Exact piecewise solution: free phase to the jump, then a mix of
        # e^{-+ i w_f (t-1)} fixed by continuity of (v, v') at t = 1.
        v1 = np.exp(-1j * 1.0) / math.sqrt(2.0)
        vd1 = -1j * v1
        c_plus = 0.5 * (v1 + 1j * vd1 / 4.0)
        c_minus = 0.5 * (v1 - 1j * vd1 / 4.0)
        t = traj.t[traj.t >= 1.0]
        expected = c_plus * np.exp(-4j * (t - 1.0)) + c_minus * np.exp(4j * (t - 1.0))
        got = traj.v[traj.t >= 1.0]
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_runaway_frequency_raises_integration_error(self):
        from tfdyn import LinearRamp

        p = OscillatorProtocol(
            mass=Constant(1.0),
            omega=LinearRamp(1.0, 1e200, t_start=0.0, t_end=1.0),
            t_i=0.0, t_f=1.0,
        )
        with pytest.raises(IntegrationError):
            solve_oscillator_mode(p)


class TestFermionModes:
    def test_initial_data(self):
        p = FermionProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 5.0, 0.5), Constant(0.0),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_fermion_modes(p, TIGHT)
        s0 = traj.sample(0)
        # The (W, Z) representation round-trips through /sqrt(2), so the
        # initial coefficients carry one rounding step.
        assert s0.f_a_minus == pytest.approx(1.0, abs=1e-15)
        assert s0.g_b_minus == pytest.approx(1.0, abs=1e-15)
        for name in ("f_a_plus", "g_a_minus", "g_a_plus", "f_b_minus", "f_b_plus", "g_b_plus"):
            assert getattr(s0, name) == 0.0

    def test_constant_hamiltonian_phases(self):
        """a(t) = e^{+i w0 t} a and b(t) = e^{-i w0 t} b for a diagonal H."""
        p = FermionProtocol(Constant(2.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=5.0)
        traj = solve_fermion_modes(p, TIGHT)
        assert np.max(np.abs(traj.f_a_minus - np.exp(2j * traj.t))) < 1e-10
        assert np.max(np.abs(traj.g_b_minus - np.exp(-2j * traj.t))) < 1e-10
        for name in ("f_a_plus", "g_a_minus", "g_a_plus", "f_b_minus", "f_b_plus", "g_b_plus"):
            assert np.max(np.abs(getattr(traj, name))) < 1e-12

    def test_all_four_anticommutator_invariants_conserved(self):
        p = FermionProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 5.0, 0.5), Constant(0.0),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_fermion_modes(p, TIGHT)
        for key, value in traj.drift.items():
            assert value < 1e-10, f"{key} drift {value}"

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_for_random_smooth_protocols(self, seed):
        rng = np.random.default_rng(RNG_SEED + seed)
        p = FermionProtocol(
            make_tanh_ramp(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                           rng.uniform(4.5, 5.5), rng.uniform(0.3, 0.5)),
            make_tanh_ramp(0.0, rng.uniform(-0.6, 0.6),
                           rng.uniform(4.5, 5.5), rng.uniform(0.3, 0.5)),
            make_tanh_ramp(0.0, rng.uniform(-0.6, 0.6),
                           rng.uniform(4.5, 5.5), rng.uniform(0.3, 0.5)),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_fermion_modes(p, TIGHT)
        for key, value in traj.drift.items():
            assert value < 1e-9, f"{key} drift {value}"

    def test_nondiagonal_initial_hamiltonian_refused(self):
        p = FermionProtocol(Constant(1.0), Constant(0.5), Constant(0.0), t_i=0.0, t_f=1.0)
        with pytest.raises(ValueError, match="diagonal"):
            solve_fermion_modes(p)

    def test_operator_identity_on_exact_space(self):
        """a(t) = U a U^dag on the exact 4-dimensional fermion space.

        The coupling pulse is piecewise constant with declared jumps, so the
        brute-force unitary is an exact three-factor product and the equality
        is limited only by the ODE tolerance.
        """
        p = FermionProtocol(
            omega0=Constant(1.0),
            omega_plus=lambda t: 0.5 if 3.0 <= t < 7.0 else 0.0,
            omega_minus=Constant(0.0),
            t_i=0.0, t_f=10.0, jump_times=(3.0, 7.0),
        )
        traj = solve_fermion_modes(p, TIGHT)

        u = np.eye(4, dtype=complex)
        for (t0, t1, wp) in ((0.0, 3.0, 0.0), (3.0, 7.0, 0.5), (7.0, 10.0, 0.0)):
            h = build_fermion_hamiltonian(1.0, wp, 0.0).matrix
            u = expm(-1j * h * (t1 - t0)) @ u

        ops = build_fermion_space(doubled=False)
        final = traj.final
        for channel, bare in (("a", ops["a"]), ("b", ops["b"])):
            lhs = u @ bare.matrix @ u.conj().T
            rhs = invariant_operator_matrix(final, fermion_single(), channel=channel).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-10, channel


def _sech_pulse(amplitude, width, chirp):
    """The chirped Rosen-Zener coupling amplitude sech(t/width) e^{i chirp t}."""
    return lambda t: amplitude / math.cosh(t / width) * cmath.exp(1j * chirp * t)


ROSEN_ZENER = IntegratorConfig(rel_tol=1e-12, grid_points=3)


class TestRosenZener:
    """Exact transition probabilities for a chirped sech pulse (Rosen &
    Zener, Phys. Rev. 40, 502 (1932)), on windows of +-40 widths whose tails
    sit at e^{-40}.  Only a chirp tells w+ from its conjugate, and only the
    hopping pulse reads w-."""

    @pytest.mark.parametrize("amplitude, width, chirp", [
        (0.3, 0.5, 0.8), (0.5, 1.0, 0.8), (0.3, 0.5, 0.0),
    ])
    def test_boson_pair_production(self, amplitude, width, chirp):
        """w0 = 1 and w+ the pulse: |f+|^2 = sinh^2(pi Omega T)
        sech^2(pi (w0 + kappa/2) T), the su(1,1) continuation."""
        p = BosonProtocol(
            Constant(1.0), _sech_pulse(amplitude, width, chirp), t_i=-40.0 * width, t_f=40.0 * width
        )
        traj = solve_boson_mode(p, ROSEN_ZENER)
        exact = (math.sinh(math.pi * amplitude * width)
                 / math.cosh(math.pi * (1.0 + 0.5 * chirp) * width)) ** 2
        assert abs(abs(traj.f_plus[-1]) ** 2 - exact) < 1e-10 * exact

    @pytest.mark.parametrize("amplitude, width, chirp, omega0", [
        (0.3, 0.5, 0.8, 1.0), (0.5, 0.5, 0.8, 0.4), (0.4, 1.0, 0.8, 0.4),
    ])
    def test_fermion_hopping(self, amplitude, width, chirp, omega0):
        """w+ = 0 and w- the pulse moves a into b with probability
        |B[0,2]|^2 = sin^2(pi Omega T) sech^2(pi (w0 - kappa/2) T)."""
        p = FermionProtocol(
            Constant(omega0), Constant(0.0), _sech_pulse(amplitude, width, chirp),
            t_i=-40.0 * width, t_f=40.0 * width,
        )
        frame = fermion_frame_coeffs(solve_fermion_modes(p, ROSEN_ZENER).final, omega0)
        exact = (math.sin(math.pi * amplitude * width)
                 / math.cosh(math.pi * (omega0 - 0.5 * chirp) * width)) ** 2
        assert abs(abs(frame[0, 2]) ** 2 - exact) < 1e-10 * exact


SOLVERS = {
    "boson": solve_boson_mode,
    "oscillator": solve_oscillator_mode,
    "fermion": solve_fermion_modes,
}

STATIC = {
    "boson": BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0),
    "oscillator": OscillatorProtocol(Constant(1.0), Constant(1.0), t_i=0.0, t_f=1.0),
    "fermion": FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=1.0),
}


def _complex_coupling(re, im):
    return lambda t: complex(re(t), im(t))


# Tanh ramps centred at 4.5..5.5 with widths up to 0.5 are below 1e-7 at
# t_i = 0, so every drawn coupling passes the diagonal-initial-Hamiltonian
# check; |w+| < 0.43 < w0 keeps the boson drive stable.  An oscillator's
# mass needs no quiet start, so its ramp may be centred near t_i = 0.
_centers, _widths = st.floats(4.5, 5.5), st.floats(0.3, 0.5)
_values = st.floats(0.5, 2.0)
_level = st.builds(make_tanh_ramp, _values, _values, _centers, _widths)
_mass = st.builds(make_tanh_ramp, _values, _values, st.floats(-0.5, 5.5), _widths)
_part = st.builds(make_tanh_ramp, st.just(0.0), st.floats(-0.3, 0.3), _centers, _widths)
_coupling = st.builds(_complex_coupling, _part, _part)
_window = {"t_i": st.just(0.0), "t_f": st.just(10.0)}
RAMPS = {
    "boson": st.builds(BosonProtocol, _level, _coupling, **_window),
    "oscillator": st.builds(OscillatorProtocol, _mass, _level, **_window),
    "fermion": st.builds(FermionProtocol, _level, _coupling, _coupling, **_window),
}


class TestModeTrajectory:
    @pytest.mark.parametrize(
        "solver_kind, protocol_kind",
        [(a, b) for a in SOLVERS for b in SOLVERS if a != b],
    )
    def test_solver_refuses_another_kinds_protocol(self, solver_kind, protocol_kind):
        with pytest.raises(TypeError, match=f"{solver_kind} protocol, got {protocol_kind}"):
            SOLVERS[solver_kind](STATIC[protocol_kind])

    @pytest.mark.parametrize("kind", sorted(STATIC))
    def test_sample_is_t_plus_the_kinds_columns(self, kind):
        traj = SOLVERS[kind](STATIC[kind], IntegratorConfig(grid_points=3))
        for k in (0, 1, -1):
            sample = vars(traj.sample(k))
            assert sample.keys() == {"t"} | traj.columns.keys()
            assert sample["t"] == traj.t[k]
            assert all(sample[name] == traj.columns[name][k] for name in traj.columns)
        assert vars(traj.final) == vars(traj.sample(-1))

    def test_missing_column_is_an_attribute_error(self):
        """So ``getattr`` with a default and ``hasattr`` work on a trajectory."""
        traj = SOLVERS["boson"](STATIC["boson"], IntegratorConfig(grid_points=3))
        with pytest.raises(AttributeError, match="v_dot"):
            traj.v_dot
        assert not hasattr(traj, "v_dot")

    @pytest.mark.parametrize("kind", sorted(RAMPS))
    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_meters_hold_for_random_complex_ramps(self, kind, data):
        traj = SOLVERS[kind](data.draw(RAMPS[kind]), TIGHT)
        for meter, drift in traj.drift.items():
            assert drift == np.max(traj.deviation(meter))
            assert drift <= 1e-10, f"{meter} drift {drift}"


class TestIntegratorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"grid_points": 1},
        {"rel_tol": 0.0},
        {"rel_tol": 1e-17},
        {"rel_tol": 2.2e-14},
        {"rel_tol": math.nan},
        {"rel_tol": math.inf},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_rel_tol_is_the_only_tolerance(self):
        with pytest.raises(TypeError, match="abs_tol"):
            IntegratorConfig(abs_tol=1e-12)

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-10, 1e-12])
    def test_absolute_tolerance_is_a_hundredth_of_rel_tol(self, monkeypatch, rel_tol):
        tolerances = []

        class Recording(_dop853.Dop853):
            def __init__(self, fun, t0, y0, t_bound, rtol, atol):
                tolerances.append((rtol, atol))
                super().__init__(fun, t0, y0, t_bound, rtol, atol)

        monkeypatch.setattr(mode_solver, "Dop853", Recording)
        p = FermionProtocol(
            Constant(1.0), Step(0.0, 0.5, 3.0), Constant(0.0), t_i=0.0, t_f=5.0, jump_times=(3.0,),
        )
        solve_fermion_modes(p, IntegratorConfig(rel_tol=rel_tol, grid_points=11))
        assert tolerances == [(rel_tol, rel_tol / 100)] * 2

    def test_stats_reported(self):
        p = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0)
        traj = solve_boson_mode(p, TIGHT)
        assert traj.stats.steps > 0
        assert traj.stats.function_evaluations >= 12 * traj.stats.steps
        assert traj.stats.segments == 1

    def test_jump_segments_counted(self):
        p = FermionProtocol(
            Constant(1.0), lambda t: 0.5 if 3.0 <= t < 7.0 else 0.0, Constant(0.0),
            t_i=0.0, t_f=10.0, jump_times=(3.0, 7.0),
        )
        traj = solve_fermion_modes(p, TIGHT)
        assert traj.stats.segments == 3

    def test_rel_tol_floor_is_100_machine_epsilons_and_accepted(self):
        assert mode_solver.REL_TOL_FLOOR == 100 * np.finfo(float).eps
        assert IntegratorConfig(rel_tol=mode_solver.REL_TOL_FLOOR).rel_tol == 2.220446049250313e-14


class ScipyDop853:
    """scipy.integrate.DOP853 behind the private stepper's interface: the
    reference the private stepper reproduces bit for bit."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.solver = scipy.integrate.DOP853(fun, t0, y0, t_bound, rtol=rtol, atol=atol)
        self.steps = self.interpolants = 0

    t = property(lambda self: self.solver.t)
    y = property(lambda self: self.solver.y)
    nfev = property(lambda self: self.solver.nfev)

    @property
    def rejected(self) -> int:
        # exact on one segment: 2 evaluations to start, 12 per attempt and 3
        # per interpolant
        attempts, rest = divmod(self.nfev - 2 - 3 * self.interpolants, 12)
        assert rest == 0
        return attempts - self.steps

    def step(self) -> None:
        message = self.solver.step()
        if self.solver.status == "failed":
            raise IntegrationError(message)
        self.steps += 1

    def dense_output(self):
        self.interpolants += 1
        return self.solver.dense_output()


def _complex_ramp(re_end, im_end):
    return _complex_coupling(
        make_tanh_ramp(0.0, re_end, 5.0, 0.5), make_tanh_ramp(0.0, im_end, 5.0, 0.4)
    )


REFERENCE_CASES = {
    "boson_ramp": (
        solve_boson_mode,
        BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.3, 5.0, 0.5), t_i=0.0, t_f=10.0),
        IntegratorConfig(grid_points=201),
    ),
    "oscillator_two_jumps": (
        solve_oscillator_mode,
        OscillatorProtocol(
            Step(1.0, 2.0, 7.0), Step(1.0, 2.0, 3.0), t_i=0.0, t_f=10.0, jump_times=(3.0, 7.0)
        ),
        IntegratorConfig(grid_points=201),
    ),
    "fermion_complex_couplings": (
        solve_fermion_modes,
        FermionProtocol(
            make_tanh_ramp(1.0, 1.5, 5.0, 0.5), _complex_ramp(0.2, -0.1), _complex_ramp(-0.15, 0.25),
            t_i=0.0, t_f=10.0,
        ),
        TIGHT,
    ),
    # sharp enough that one rejected attempt is cut by the largest factor
    "boson_sharp_ramp": (
        solve_boson_mode,
        BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.3, 1.0, 0.02), t_i=0.0, t_f=3.0),
        IntegratorConfig(grid_points=31),
    ),
    # ten segments with rejected steps in them: rebuilding the rejections from
    # the total evaluation count would overcount by one here
    "boson_ramp_ten_segments": (
        solve_boson_mode,
        BosonProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.3, 5.0, 0.3), t_i=0.0, t_f=10.0,
            jump_times=tuple(float(k) for k in range(1, 10)),
        ),
        IntegratorConfig(grid_points=201),
    ),
    # a mass ramp: the right-hand side divides by masses other than 1
    "oscillator_mass_ramp": (
        solve_oscillator_mode,
        OscillatorProtocol(
            make_tanh_ramp(1.0, 2.5, 5.0, 0.5), make_tanh_ramp(1.0, 0.6, 4.0, 0.7),
            t_i=0.0, t_f=10.0,
        ),
        IntegratorConfig(grid_points=201),
    ),
    # a sweep entry's window: the interpolant is built on almost every step
    "oscillator_long_window": (
        solve_oscillator_mode,
        OscillatorProtocol(
            Constant(1.0), make_tanh_ramp(1.0, 2.0, 0.0, 1.3), t_i=-32.0, t_f=32.0
        ),
        IntegratorConfig(grid_points=401),
    ),
    # f = 0 everywhere: the flat initial step, a zero error estimate, and
    # growth by the largest factor on every step
    "fermion_zero_hamiltonian": (
        solve_fermion_modes,
        FermionProtocol(Constant(0.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=2.0),
        IntegratorConfig(grid_points=5),
    ),
}


class TestPrivateDop853:
    """The private stepper against scipy.integrate.DOP853, driven side by side
    through the same ``_integrate``."""

    def test_tableau_is_scipys(self):
        for name in ("C", "A", "B", "E3", "E5", "D"):
            ours, ref = getattr(_dop853, name), getattr(dop853_coefficients, name)
            assert ours.shape == ref.shape and np.array_equal(ours, ref), name

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_same_samples_and_counts_as_scipy(self, case, monkeypatch):
        solve, protocol, config = REFERENCE_CASES[case]
        ours = solve(protocol, config)
        monkeypatch.setattr(mode_solver, "Dop853", ScipyDop853)
        ref = solve(protocol, config)
        # bytes, not values: -0.0 == 0.0, but the CSVs print them apart
        assert ours.t.tobytes() == ref.t.tobytes()
        assert ours.columns.keys() == ref.columns.keys()
        for name, series in ours.columns.items():
            assert series.tobytes() == ref.columns[name].tobytes(), name
        assert ours.stats == ref.stats

    def test_long_window_interpolates_on_almost_every_step(self):
        """The long window's comparison above covers the interpolant."""
        solve, protocol, config = REFERENCE_CASES["oscillator_long_window"]
        stats = solve(protocol, config).stats
        attempts = stats.steps + stats.rejected_steps
        interpolants = (stats.function_evaluations - 2 - 12 * attempts) // 3
        assert interpolants >= 0.9 * stats.steps

    def test_reference_cases_reject_steps(self):
        """The rejected-step comparison above is not vacuous."""
        solve, protocol, config = REFERENCE_CASES["boson_ramp_ten_segments"]
        stats = solve(protocol, config).stats
        assert stats.segments == 10 and stats.rejected_steps == 7

    def test_zero_hamiltonian_grows_without_error(self):
        """The zero-error comparison above is not vacuous: no step is
        rejected, and from the flat start each step grows by MAX_FACTOR."""
        solve, protocol, config = REFERENCE_CASES["fermion_zero_hamiltonian"]
        stats = solve(protocol, config).stats
        assert (stats.steps, stats.function_evaluations, stats.rejected_steps) == (8, 104, 0)

    @pytest.mark.parametrize("form", [tuple, list])
    def test_rhs_may_return_any_sequence(self, form):
        """An RHS that returns a tuple or a list of the values an ndarray RHS
        returns gives the same bytes and the same counts."""
        rate = np.array([0.3 - 1.1j, -0.0 + 0.7j, 1.5j])

        def as_array(t, y):
            return y * rate * math.cos(3.0 * t)

        def as_form(t, y):
            return form(as_array(t, y).tolist())

        runs = []
        for fun in (as_array, as_form):
            solver = _dop853.Dop853(fun, 0.0, np.array([1.0, 0.5j, -0.25]), 6.0, 1e-9, 1e-12)
            record = []
            while solver.t < 6.0:
                solver.step()
                assert type(solver.f) is np.ndarray and solver.f.dtype == complex
                dense = solver.dense_output()
                t_mid = solver.t_old + 0.3 * (solver.t - solver.t_old)
                states = (solver.y, solver.f, dense(t_mid))
                record.append((solver.t, *(x.tobytes() for x in states)))
            runs.append((record, solver.nfev, solver.steps, solver.rejected))
        assert runs[0] == runs[1]
        assert runs[0][3] > 0 and len(runs[0][0]) > 20

    @pytest.mark.parametrize(
        "y0",
        [
            [0.5 - 0.25j],
            [1.0, 0.5j, -0.25],
            [complex(-0.0, -0.0), complex(-0.0, 1.0), complex(0.75, -0.0)],
        ],
        ids=["one_component", "three_components", "negative_zeros"],
    )
    def test_same_bytes_as_scipy_at_every_size_and_sign(self, y0):
        """The stage sums on Python scalars against scipy's numpy sums, step
        by step: every state, f and interpolated value, byte for byte (the
        CSVs print -0.0 and 0.0 apart), and the same work, rejections
        included."""
        rate = np.array([0.3 - 1.1j, -0.0 + 0.7j, 1.5j])[: len(y0)]

        def fun(t, y):  # scipy hands it an ndarray, the stepper a list
            return np.asarray(y) * rate * math.cos(3.0 * t)

        y0 = np.array(y0)
        ours = _dop853.Dop853(fun, 0.0, y0, 6.0, 1e-9, 1e-11)
        ref = scipy.integrate.DOP853(fun, 0.0, y0, 6.0, rtol=1e-9, atol=1e-11)
        assert ours.f.tobytes() == ref.f.tobytes()
        steps = 0
        while ours.t < 6.0:
            ours.step()
            ref.step()
            steps += 1
            assert ours.t == ref.t
            assert ours.y.tobytes() == ref.y.tobytes()
            assert ours.f.tobytes() == ref.f.tobytes()
            dense, dense_ref = ours.dense_output(), ref.dense_output()
            for x in (0.0, 0.3, 0.8, 1.0):
                t = ours.t_old + x * (ours.t - ours.t_old)
                assert dense(t).tobytes() == dense_ref(t).tobytes(), (steps, x)
        assert ref.status == "finished" and ours.nfev == ref.nfev
        assert ours.steps == steps > 20 and ours.rejected > 0

    def test_step_size_collapse_raises(self, monkeypatch):
        """An undeclared frequency jump from 1 to 1e9: no step above the
        ten-ulp floor passes the error test across it."""
        p = OscillatorProtocol(
            Constant(1.0), lambda t: 1.0 if t < 0.5 else 1e9, t_i=0.0, t_f=1.0
        )
        where = r"at t ~ 0\.5 \(segment \[0\.0, 1\.0\]\)"
        with pytest.raises(IntegrationError, match=where + ": step size collapsed"):
            solve_oscillator_mode(p)
        monkeypatch.setattr(mode_solver, "Dop853", ScipyDop853)
        with pytest.raises(IntegrationError, match=where):
            solve_oscillator_mode(p)


class TestStageSumOverflow:
    """Python arithmetic overflows to inf where numpy under ``np.errstate``
    raises: a stage sum past the largest float still ends the solve at that
    step, as an overflow."""

    @pytest.mark.parametrize("y0", [1.7e308, -1.7e308, 1.7e308j])
    def test_state_past_the_largest_float_ends_the_solve(self, y0):
        """A constant drift of 1e305 from 1.7e308: the stages stay finite,
        and the step from t ~ 92.97 pushes the state past 1.8e308.  The
        solve stops there, not by a step collapse or the evaluation cap and
        not steps later."""
        drift = 1e305 * (y0 / abs(y0))
        protocol = SimpleNamespace(t_i=0.0, t_f=1000.0, jump_times=())
        calls = []

        def rhs(t, y):
            calls.append(t)
            return drift, 0j

        where = r"^integration failed at t ~ 92\.9682 \(segment \[0\.0, 1000\.0\]\): overflow"
        with pytest.raises(IntegrationError, match=where):
            mode_solver._integrate(
                rhs, protocol, np.array([y0, 1.0 + 0j]), IntegratorConfig(grid_points=3)
            )
        assert len(calls) < 100

    def test_dense_output_stage_past_the_largest_float_raises(self):
        """A dense-output stage whose sum overflows while the step's ends
        are finite: stage 15 weighs k6 and k7 by 7.68 and 4.07."""
        solver = _dop853.Dop853(lambda t, y: y, 0.0, np.ones(1, dtype=complex), 1.0, 1e-6, 1e-8)
        solver.step()
        k = solver._k
        k[:] = 0.0
        k[6] = k[7] = 1e307
        solver.y_old, solver.y = np.array([1e308 + 0j]), np.array([1.5e308 + 0j])
        solver.t_old, solver.t = 0.0, 1.0
        handed = []
        solver._fun = lambda t, y: handed.append(y) or [0j]
        with pytest.raises(IntegrationError, match="overflow in a stage sum"):
            solver.dense_output()
        assert len(handed) == 2 and all(cmath.isfinite(c) for y in handed for c in y)


@pytest.mark.parametrize(
    "case, samples",
    [("oscillator_long_window", 4701), ("boson_ramp", 668), ("fermion_complex_couplings", 1319)],
)
def test_one_protocol_sample_per_time(case, samples):
    """A step's last stage (node 1.0) and f at its end share a time, which
    the sampler samples once, so every attempt saves a sample; the
    evaluation count still counts right-hand-side calls.  Beyond those, each
    kind samples t_i once to check its initial state, and the oscillator its
    initial data (which the first call shares) and the mass column."""
    solve, protocol, config = REFERENCE_CASES[case]
    name = "omega" if protocol.kind == "oscillator" else "omega0"
    fn, times = getattr(protocol, name), []
    counted = dataclasses.replace(protocol, **{name: lambda t: times.append(t) or fn(t)})
    times.clear()  # building the protocol may sample it
    stats = solve(counted, config).stats
    assert stats == solve(protocol, config).stats
    attempts = stats.steps + stats.rejected_steps
    mass_column = config.grid_points if protocol.kind == "oscillator" else 0
    assert len(times) == stats.function_evaluations - attempts + 1 + mass_column == samples


def _column_digest(traj) -> str:
    return hashlib.sha256(b"".join(c.tobytes() for c in traj.columns.values())).hexdigest()


@pytest.mark.parametrize(
    "case", ["boson_ramp_ten_segments", "oscillator_two_jumps", "fermion_complex_couplings"]
)
def test_tableau_cast_keeps_mode_columns(case, monkeypatch):
    """The stepper multiplies complex stages by a tableau made complex at
    import; with the real tableau patched back in, every mode column hashes
    the same and the work counts agree."""
    for name in ("A", "B", "E3", "E5", "D"):
        assert getattr(_dop853, name).dtype == complex, name
    assert all(row.dtype == complex for row in _dop853._A_ROWS)
    assert all(type(c) is float for c in _dop853._C)

    solve, protocol, config = REFERENCE_CASES[case]
    cast = solve(protocol, config)
    monkeypatch.setattr(_dop853, "_A_ROWS", [row.real for row in _dop853._A_ROWS])
    for name in ("B", "E3", "E5", "D"):
        monkeypatch.setattr(_dop853, name, getattr(_dop853, name).real)
    monkeypatch.setattr(_dop853, "_C", _dop853.C)
    real = solve(protocol, config)
    assert _column_digest(cast) == _column_digest(real)
    assert cast.stats == real.stats


def _signed_parts(rng, size):
    """Complex components whose parts are +0.0, -0.0 or a number of any scale."""
    def part():
        pick = rng.integers(4)
        if pick < 2:
            return (0.0, -0.0)[pick]
        return float(rng.standard_normal() * 10.0 ** rng.uniform(-4, 4))
    return np.array([complex(part(), part()) for _ in range(size)])


def _frozen_oscillator_rhs(sample):
    """solve_oscillator_mode's right-hand side as it was, on numpy scalars."""
    def rhs(t, y):
        mass, omega = sample(t)
        v, pi = y
        return np.array([pi / mass, -mass * omega**2 * v], dtype=complex)

    return rhs


def _frozen_fermion_rhs(sample):
    """solve_fermion_modes' right-hand side as it was: one product and one
    slice store per channel."""
    def rhs(t, y):
        gen = build_fermion_generator(*sample(t))
        dy = np.empty_like(y)
        dy[:4] = -1j * (gen @ y[:4])
        dy[4:] = -1j * (gen @ y[4:])
        return dy

    return rhs


_FROZEN_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _frozen_boson_generator(omega0, omega_plus):
    """build_boson_generator as it was, through numpy scalars."""
    wp = complex(omega_plus)
    return np.array(
        [[complex(omega0), -np.conj(wp)], [wp, -complex(omega0)]], dtype=complex
    )


def _frozen_fermion_generator(omega0, omega_plus, omega_minus):
    """build_fermion_generator as it was: four block stores into a 4x4 zero."""
    wp = complex(omega_plus)
    wm = complex(omega_minus)
    n_block = np.array(
        [
            [1j * (wp + wm).imag, (wp + wm).real],
            [(wm - wp).real, 1j * (wm - wp).imag],
        ],
        dtype=complex,
    )
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = -omega0 * _FROZEN_SIGMA1
    a[2:, 2:] = omega0 * _FROZEN_SIGMA1
    a[:2, 2:] = n_block
    a[2:, :2] = n_block.conj().T
    return a


def _frozen_dense_output(solver):
    """Dop853.dense_output as it was: numpy stage views and Horner loop."""
    k, t_old, y_old = solver._k, solver.t_old, solver.y_old
    h = solver.t - t_old
    for s in range(_dop853.N_STAGES + 1, _dop853.N_STAGES_EXTENDED):
        dy = np.dot(k[:s].T, _dop853._A_ROWS[s]) * h
        k[s] = solver._fun(t_old + _dop853._C[s] * h, y_old + dy)

    f_old = k[0]
    delta_y = solver.y - y_old
    F = np.empty((_dop853.INTERPOLATOR_POWER, y_old.size), dtype=complex)
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (solver.f + f_old)
    F[3:] = h * np.dot(_dop853.D, k)

    def interpolate(t):
        x = (t - t_old) / h
        y = np.zeros_like(y_old)
        for i, f in enumerate(reversed(F)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        return y + y_old

    return interpolate


class TestFrozenCopies:
    """The scalar paths against frozen copies of the numpy code they
    replaced, byte for byte on seeded inputs with signed zeros."""

    def test_oscillator_rhs(self, monkeypatch):
        protocol = OscillatorProtocol(
            make_tanh_ramp(0.3, 7.0, 5.0, 0.5), make_tanh_ramp(0.5, 3.0, 4.0, 1.5),
            t_i=0.0, t_f=10.0,
        )
        handed = []
        integrate = mode_solver._integrate
        monkeypatch.setattr(
            mode_solver, "_integrate",
            lambda rhs, *args: handed.append(rhs) or integrate(rhs, *args),
        )
        solve_oscillator_mode(protocol, IntegratorConfig(grid_points=2))
        rhs, frozen = handed[0], _frozen_oscillator_rhs(sampler(protocol))

        rng = np.random.default_rng(RNG_SEED)
        masses = set()
        for t in rng.uniform(0.0, 10.0, 4000).tolist():
            y = _signed_parts(rng, 2)
            got, want = rhs(t, y), frozen(t, y)
            # a tuple of Python complexes, which the stepper stores as they are
            assert [type(c) for c in got] == [complex, complex] and type(got) is tuple
            assert np.array(got).tobytes() == want.tobytes(), (t, y)
            masses.add(sampler(protocol)(t)[0])
        assert len(masses) > 1000 and min(masses) < 0.5 and max(masses) > 6.0

    @pytest.mark.parametrize("hopping", [False, True], ids=["real_pairing", "complex_both"])
    def test_fermion_rhs(self, hopping, monkeypatch):
        """Both channels in one stacked product: the bytes of the two slice
        products, for real couplings and for complex w+ with nonzero w-."""
        up = make_tanh_ramp(0.0, 0.8, 5.0, 0.5)
        protocol = FermionProtocol(
            make_tanh_ramp(1.0, 1.6, 4.0, 1.0),
            (lambda t: up(t) * np.exp(0.4j)) if hopping else up,
            (lambda t: 0.5 * up(t - 1.0) * np.exp(-1.3j)) if hopping else Constant(0.0),
            t_i=0.0, t_f=10.0,
        )
        handed = []
        integrate = mode_solver._integrate
        monkeypatch.setattr(
            mode_solver, "_integrate",
            lambda rhs, *args: handed.append(rhs) or integrate(rhs, *args),
        )
        solve_fermion_modes(protocol, IntegratorConfig(grid_points=2))
        rhs, frozen = handed[0], _frozen_fermion_rhs(sampler(protocol))

        rng = np.random.default_rng(RNG_SEED + 2)
        for t in rng.uniform(0.0, 10.0, 4000).tolist():
            y = _signed_parts(rng, 8)
            got, want = rhs(t, y), frozen(t, y)
            assert got.dtype == complex and got.shape == (8,)
            assert got.tobytes() == want.tobytes(), (t, y)

    def test_generators(self):
        """Both generators against their frozen builds, on seeded (w0, w+, w-)
        with zeros of both signs in every part, integer w0 and non-finite
        parts; the -0.0 entries of -w0 s1 included."""
        rng = np.random.default_rng(RNG_SEED + 1)

        def part():
            pick = rng.integers(10)
            if pick < 4:
                return (0.0, -0.0)[pick % 2]
            if pick == 4:
                return float(rng.choice((math.inf, -math.inf, math.nan)))
            return float(rng.standard_normal() * 10.0 ** rng.uniform(-4, 4))

        negative_zeros = 0
        for _ in range(4000):
            w0 = int(rng.integers(-2, 3)) if rng.random() < 0.1 else part()
            wp, wm = complex(part(), part()), complex(part(), part())
            if rng.random() < 0.2:
                wp = part()  # a real coupling, as a config gives it
            with np.errstate(invalid="ignore"):
                want_b = _frozen_boson_generator(w0, wp)
                want_f = _frozen_fermion_generator(w0, wp, wm)
            got_b, got_f = build_boson_generator(w0, wp), build_fermion_generator(w0, wp, wm)
            assert got_b.dtype == got_f.dtype == complex
            assert got_b.tobytes() == want_b.tobytes(), (w0, wp)
            assert got_f.tobytes() == want_f.tobytes(), (w0, wp, wm)
            negative_zeros += bool(np.signbit(want_f.real[0, 0]))
        assert negative_zeros > 1000

    @pytest.mark.parametrize("size", [2, 8])
    def test_interpolant(self, size):
        rng = np.random.default_rng(RNG_SEED + size)
        rate = _signed_parts(rng, size)
        solver = _dop853.Dop853(
            lambda t, y: y * rate, 0.0, np.ones(size, dtype=complex), 1.0, 1e-6, 1e-8
        )
        solver.step()
        for _ in range(200):
            # signed zeros at every place the interpolant reads, and whole
            # components that are zero, as a mode coefficient that stays 0
            k = solver._k[: _dop853.N_STAGES + 1]
            k[:] = [_signed_parts(rng, size) for _ in range(len(k))]
            solver.y_old, solver.y, solver.f = (_signed_parts(rng, size) for _ in range(3))
            for j in np.flatnonzero(rng.random(size) < 0.5):
                for row in (*k, solver.y_old, solver.y, solver.f):
                    row[j] = complex(*rng.choice((0.0, -0.0), 2))
            solver.t_old = float(rng.uniform(-5.0, 5.0))
            solver.t = solver.t_old + float(10.0 ** rng.uniform(-4, 0))
            got, want = solver.dense_output(), _frozen_dense_output(solver)
            # past either end a Horner factor is negative and signed zeros
            # of every term show in the result
            t_old, h = solver.t_old, solver.t - solver.t_old
            for x in [0.0, 1.0, -0.5, 1.5, *rng.uniform(0.0, 1.0, 8).tolist()]:
                t = t_old + x * h
                assert got(t).tobytes() == want(t).tobytes(), t


class TestRhsEvaluationCap:
    """MAX_RHS_EVALUATIONS bounds the work of one solve, over all segments."""

    def test_cap_counts_over_segments(self, monkeypatch):
        solve, protocol, config = REFERENCE_CASES["boson_ramp_ten_segments"]
        used = solve(protocol, config).stats.function_evaluations
        monkeypatch.setattr(mode_solver, "MAX_RHS_EVALUATIONS", used)
        assert solve(protocol, config).stats.function_evaluations == used
        monkeypatch.setattr(mode_solver, "MAX_RHS_EVALUATIONS", used - 1)
        with pytest.raises(IntegrationError, match=rf"exceeded {used - 1} right-hand-side"):
            solve(protocol, config)

    def test_pole_stops_at_the_cap_naming_t(self, monkeypatch):
        """An undeclared pole shrinks the step towards t = 0.7; the cap ends
        the solve there, before the step size collapses."""
        monkeypatch.setattr(mode_solver, "MAX_RHS_EVALUATIONS", 20_000)
        p = BosonProtocol(
            Constant(1.0), lambda t: 0.0 if t < 0.5 else 1 / (0.7 - t), t_i=0.0, t_f=1.0
        )
        where = r"at t ~ 0\.7 \(segment \[0\.0, 1\.0\]\)"
        with pytest.raises(IntegrationError, match=where + ": the solve exceeded 20000"):
            solve_boson_mode(p)

    def test_default_leaves_room_for_the_suites_largest_solve(self):
        # c10's width-8 oscillator solve takes 25,940 evaluations
        assert mode_solver.MAX_RHS_EVALUATIONS >= 5 * 25_940
