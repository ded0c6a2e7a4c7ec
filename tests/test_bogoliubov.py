"""Unit tests for in/out Bogoliubov coefficient extraction."""

import math

import numpy as np
import pytest

from tfdyn import (
    Constant,
    FermionProtocol,
    IntegratorConfig,
    OscillatorProtocol,
    ReferenceMode,
    boson_overlap,
    fermion_frame_coeffs,
    make_tanh_ramp,
    production_number,
    solve_fermion_modes,
    solve_oscillator_mode,
    sudden_coeffs,
)

TIGHT = IntegratorConfig(rel_tol=1e-12, grid_points=101)

# Frozen sudden-quench reference: a 1 -> 4 frequency jump gives
# mu = 5/4, nu = 3/4, so the out-vacuum occupation is exactly 9/16.
SUDDEN_MU = 1.25
SUDDEN_NU = 0.75
SUDDEN_PRODUCTION = 0.5625

# Frozen resonant fermion pulse: omega_plus = 0.5 for a duration of 4 with
# omega0 = 1 creates pairs at the full Rabi weight sin^2(0.5 * 4), because the
# a quantum and the b^dag hole rotate at equal phases (zero detuning).
FERMION_PULSE_PRODUCTION = 0.8268218104318058  # sin(2)**2


class TestSuddenCoefficients:
    def test_frozen_one_to_four(self):
        c = sudden_coeffs(1.0, 4.0)
        assert c.mu == SUDDEN_MU and c.nu == SUDDEN_NU
        assert c.production == SUDDEN_PRODUCTION
        assert c.constraint_deviation == 0.0

    @pytest.mark.parametrize("wi, wf", [(1.0, 4.0), (2.0, 3.0), (0.5, 0.1), (1.0, 1.0)])
    def test_constraint_identity(self, wi, wf):
        c = sudden_coeffs(wi, wf)
        assert c.constraint_deviation < 1e-15

    def test_production_symmetric_under_direction(self):
        up = sudden_coeffs(1.0, 4.0)
        down = sudden_coeffs(4.0, 1.0)
        assert up.production == pytest.approx(down.production, rel=1e-15)
        assert down.nu == -up.nu

    def test_no_quench_no_production(self):
        c = sudden_coeffs(2.0, 2.0)
        assert c.mu == 1.0 and c.nu == 0.0

    @pytest.mark.parametrize("wi, wf", [(0.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_frequencies_rejected(self, wi, wf):
        with pytest.raises(ValueError):
            sudden_coeffs(wi, wf)


class TestReferenceMode:
    def test_frame_normalisation(self):
        ref = ReferenceMode(1.5, 2.0)
        assert ref.u(0.0) == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-15)
        assert ref.u_dot(0.3) == pytest.approx(-2j * ref.u(0.3), abs=1e-15)

    def test_invalid_frames_rejected(self):
        with pytest.raises(ValueError):
            ReferenceMode(-1.0, 1.0)
        with pytest.raises(ValueError):
            ReferenceMode(1.0, 0.0)
        with pytest.raises(ValueError):
            ReferenceMode(math.inf, 1.0)


class TestBosonOverlap:
    def test_static_mode_projects_to_identity(self):
        """A mode evolving under its own reference frame has mu = 1, nu = 0."""
        p = OscillatorProtocol(Constant(1.0), Constant(2.0), t_i=0.0, t_f=5.0)
        traj = solve_oscillator_mode(p, TIGHT)
        c = boson_overlap(traj.final, ReferenceMode(1.0, 2.0, phase_time=0.0))
        assert abs(c.mu - 1.0) < 1e-11
        assert abs(c.nu) < 1e-11

    def test_sudden_limit_of_narrow_tanh_quench(self):
        """A tanh ramp much faster than 1/omega reproduces the jump formula."""
        p = OscillatorProtocol(
            Constant(1.0), make_tanh_ramp(1.0, 4.0, 5.0, 1e-4),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_oscillator_mode(p, TIGHT)
        c = boson_overlap(traj.final, ReferenceMode(1.0, 4.0, phase_time=10.0))
        assert c.production == pytest.approx(SUDDEN_PRODUCTION, abs=1e-6)
        assert c.constraint_deviation < 1e-10

    @pytest.mark.parametrize("width", [0.25, 0.5, 1.0, 2.0])
    def test_constraint_conserved_at_any_ramp_speed(self, width):
        p = OscillatorProtocol(
            Constant(1.0), make_tanh_ramp(1.0, 2.0, 10.0, width),
            t_i=0.0, t_f=20.0,
        )
        traj = solve_oscillator_mode(p, TIGHT)
        c = boson_overlap(traj.final, ReferenceMode(1.0, 2.0, phase_time=20.0))
        assert c.constraint_deviation < 1e-10

    def test_slower_ramps_produce_fewer_quanta(self):
        """Adiabatic trend: |nu|^2 decreases monotonically with ramp width."""
        productions = []
        for width in (0.5, 1.0, 2.0):
            p = OscillatorProtocol(
                Constant(1.0), make_tanh_ramp(1.0, 2.0, 0.0, width),
                t_i=-20.0 * width, t_f=20.0 * width,
            )
            traj = solve_oscillator_mode(p, TIGHT)
            c = boson_overlap(traj.final, ReferenceMode(1.0, 2.0, phase_time=traj.t[-1]))
            productions.append(c.production)
        assert productions[0] > productions[1] > productions[2]

    def test_unequal_masses_give_a_bogoliubov_transformation(self):
        """Projecting a mass-1 mode on a frame of another mass pairs position
        with momentum amplitudes, so |mu|^2 - |nu|^2 = 1 still holds."""
        p = OscillatorProtocol(Constant(1.0), Constant(2.0), t_i=0.0, t_f=1.0)
        traj = solve_oscillator_mode(p, TIGHT)
        for m_ref in (0.5, 2.0, 3.7):
            c = boson_overlap(traj.final, ReferenceMode(m_ref, 2.0))
            assert c.constraint_deviation < 1e-12
            assert c.production > 1e-3  # a real change of frame, not the identity


class TestFermionFrame:
    def _pulse_protocol(self):
        return FermionProtocol(
            omega0=Constant(1.0),
            omega_plus=lambda t: 0.5 if 3.0 <= t < 7.0 else 0.0,
            omega_minus=Constant(0.0),
            t_i=0.0, t_f=10.0, jump_times=(3.0, 7.0),
        )

    def test_frame_is_identity_without_drive(self):
        """Stripping the free phases relative to t_i undoes trivial evolution."""
        p = FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=5.0)
        traj = solve_fermion_modes(p, TIGHT)
        b = fermion_frame_coeffs(traj.final, 1.0, protocol=p, phase_time=0.0)
        assert np.max(np.abs(b - np.eye(4))) < 1e-11

    def test_default_phase_time_keeps_raw_coefficients(self):
        p = FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=5.0)
        traj = solve_fermion_modes(p, TIGHT)
        b = fermion_frame_coeffs(traj.final, 1.0, protocol=p)
        assert b[0, 0] == pytest.approx(traj.final.f_a_minus, abs=1e-15)

    def test_frozen_pulse_production(self):
        traj = solve_fermion_modes(self._pulse_protocol(), TIGHT)
        b = fermion_frame_coeffs(traj.final, 1.0, protocol=self._pulse_protocol())
        assert production_number(b) == pytest.approx(FERMION_PULSE_PRODUCTION, abs=1e-10)

    def test_frame_unitary(self):
        traj = solve_fermion_modes(self._pulse_protocol(), TIGHT)
        b = fermion_frame_coeffs(traj.final, 1.0)
        assert np.max(np.abs(b @ b.conj().T - np.eye(4))) < 1e-10

    def test_frame_constant_after_quench_ends(self):
        """With phases stripped to a fixed reference time, B stops moving
        once the Hamiltonian is diagonal again."""
        traj = solve_fermion_modes(self._pulse_protocol(), TIGHT)
        ks = [k for k, t in enumerate(traj.t) if t >= 8.0]
        frames = [
            fermion_frame_coeffs(traj.sample(k), 1.0, phase_time=0.0) for k in ks
        ]
        for b in frames[1:]:
            assert np.max(np.abs(b - frames[0])) < 1e-9

    def test_production_bounded_by_one(self):
        traj = solve_fermion_modes(self._pulse_protocol(), TIGHT)
        for k in range(0, len(traj.t), 10):
            n = production_number(fermion_frame_coeffs(traj.sample(k), 1.0))
            assert -1e-12 <= n <= 1.0 + 1e-12

    def test_nondiagonal_frame_refused(self):
        p = FermionProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 5.0, 0.5), Constant(0.0),
            t_i=0.0, t_f=10.0,
        )
        traj = solve_fermion_modes(p, TIGHT)
        with pytest.raises(ValueError, match="diagonal"):
            fermion_frame_coeffs(traj.final, 1.0, protocol=p)

    def test_mismatched_final_frequency_refused(self):
        p = FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=5.0)
        traj = solve_fermion_modes(p, TIGHT)
        with pytest.raises(ValueError, match="omega0"):
            fermion_frame_coeffs(traj.final, 2.0, protocol=p)


class TestProductionNumber:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            production_number(np.eye(3))
