"""The acceptance suite: every analytic claim checked against brute force.

Each check pins a measured quantity against a fixed tolerance and reports a
``CheckResult``; nothing here is tunable per-check from the outside, so a
green suite means the same thing on every machine.  Expensive doubled-space
evolutions are shared between the checks that need them.

The checks that need the oracle (``ORACLE_CHECKS``) are skipped (not
silently passed) when the oracle is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bogoliubov, fock_oracle, mode_solver, thermal_observables
from .protocols import (
    BosonProtocol,
    Constant,
    FermionProtocol,
    OscillatorProtocol,
    make_tanh_ramp,
)

__all__ = [
    "CheckResult",
    "VerificationSettings",
    "run_all",
    "ANALYTIC_CHECKS",
    "ORACLE_CHECKS",
    "CHECK_NAMES",
]

LN2 = math.log(2.0)
# c07c runs a box this many times wider than ``VerificationSettings.n_levels``.
WIDE_BOX_FACTOR = 2


@dataclass(frozen=True)
class CheckResult:
    """One acceptance criterion: what was measured against what bound."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    skipped: bool = False

    def line(self) -> str:
        if self.skipped:
            return f"SKIP  {self.name}: {self.detail}"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: measured {self.measured:.3e} "
            f"vs tolerance {self.tolerance:.0e}"
            + (f"  [{self.detail}]" if self.detail else "")
        )


@dataclass(frozen=True)
class VerificationSettings:
    """Integrator/oracle knobs for the suite (tolerances of the checks are fixed)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    oracle_enabled: bool = True
    n_levels: int = fock_oracle.DEFAULT_N_LEVELS
    substeps_per_unit: float = fock_oracle.OracleConfig.substeps_per_unit
    hbar: float = 1.0


ANALYTIC_CHECKS = (
    "c01a_equilibrium_boson_analytic",
    "c01b_equilibrium_fermion_analytic",
    "c02a_boson_commutator_conservation",
    "c02b_oscillator_wronskian_conservation",
    "c02c_fermion_anticommutator_conservation",
    "c05a_sudden_production_analytic",
    "c05b_sudden_production_ode",
    "c09a_boson_constraint",
    "c09b_fermion_frame_unitarity",
    "c10_adiabatic_trend",
)
ORACLE_CHECKS = (
    "c01c_equilibrium_boson_oracle",
    "c01d_equilibrium_fermion_oracle",
    "c03a_thermal_condition_boson",
    "c03b_thermal_condition_fermion",
    "c04_constant_distribution",
    "c05c_sudden_production_oracle",
    "c06_evolved_distribution",
    "c07a_q_moments_equilibrium",
    "c07b_q_moments_midquench",
    "c07c_q_moment_ratio",
    "c08a_thermal_constructions_boson",
    "c08b_thermal_constructions_fermion",
)
# every name starts with its criterion number, so sorted order is report order
CHECK_NAMES = tuple(sorted(ANALYTIC_CHECKS + ORACLE_CHECKS))


def _skip(name: str) -> CheckResult:
    return CheckResult(name, True, math.nan, math.nan, "oracle disabled", skipped=True)


def _coupling_pulse(amplitude: float, width: float):
    up = make_tanh_ramp(0.0, amplitude, 3.0, width)
    down = make_tanh_ramp(0.0, amplitude, 7.0, width)
    return lambda t: up(t) - down(t)


def run_all(settings: VerificationSettings | None = None) -> list[CheckResult]:
    """Execute the full acceptance suite and return one result per check."""
    s = settings or VerificationSettings()
    hbar = s.hbar
    reported: dict[str, CheckResult] = {}

    def record(name: str, passed: bool, measured: float, tolerance: float, detail: str) -> None:
        if name in reported:
            raise RuntimeError(f"verification check {name} reported twice")
        reported[name] = CheckResult(name, passed, measured, tolerance, detail)

    mode_cfg = mode_solver.IntegratorConfig(
        rel_tol=s.rel_tol, abs_tol=s.abs_tol, grid_points=101
    )
    oracle_cfg = fock_oracle.OracleConfig(
        n_levels=s.n_levels,
        substeps_per_unit=s.substeps_per_unit,
        grid_points=101,
        hbar=hbar,
    )

    # -- criterion 1: equilibrium distributions ---------------------------
    # all pinned temperatures fix the product beta*hbar*omega, so beta scales
    # with 1/hbar throughout
    beta_ln2 = LN2 / hbar
    for name, statistics, expected, label in (
        ("c01a_equilibrium_boson_analytic", "boson", 1.0, "1"),
        ("c01b_equilibrium_fermion_analytic", "fermion", 1.0 / 3.0, "1/3"),
    ):
        n_eq = thermal_observables.equilibrium_occupation(beta_ln2, 1.0, hbar, statistics)
        dev = abs(n_eq - expected)
        record(name, dev <= 1e-12, dev, 1e-12, f"n(beta*h*w = ln 2) vs {label}")

    # -- criterion 2: conservation laws over tanh quenches on [0, 10] -----
    # each check reports the worst of its kind's meters
    osc_quench = OscillatorProtocol(
        mass=Constant(1.0), omega=make_tanh_ramp(1.0, 2.0, 5.0, 0.5),
        t_i=0.0, t_f=10.0,
    )
    conserved = {}
    for name, solve, quench, detail in (
        (
            "c02a_boson_commutator_conservation", mode_solver.solve_boson_mode,
            BosonProtocol(
                omega0=Constant(1.0), omega_plus=make_tanh_ramp(0.0, 0.5, 5.0, 0.5),
                t_i=0.0, t_f=10.0,
            ),
            "max | |f-|^2 - |f+|^2 - 1 |",
        ),
        (
            "c02b_oscillator_wronskian_conservation", mode_solver.solve_oscillator_mode,
            osc_quench, "max | m (v'* v - v' v*) - i |",
        ),
        (
            "c02c_fermion_anticommutator_conservation", mode_solver.solve_fermion_modes,
            FermionProtocol(
                omega0=Constant(1.0), omega_plus=make_tanh_ramp(0.0, 0.5, 5.0, 0.5),
                omega_minus=Constant(0.0), t_i=0.0, t_f=10.0,
            ),
            "max over W^dag W + Z^dag Z - 1 and cross anticommutators",
        ),
    ):
        traj = conserved[quench.kind] = solve(quench, mode_cfg)
        dev = max(traj.drift.values())
        record(name, dev < 1e-9, dev, 1e-9, detail)
    osc_traj = conserved["oscillator"]

    # -- criterion 5: sudden quench production -----------------------------
    sudden = bogoliubov.sudden_coeffs(1.0, 4.0)
    dev = abs(sudden.production - 0.5625)
    record(
        "c05a_sudden_production_analytic", dev <= 1e-12, dev, 1e-12,
        "matching formula |nu|^2 for 1 -> 4",
    )

    narrow = OscillatorProtocol(
        mass=Constant(1.0), omega=make_tanh_ramp(1.0, 4.0, 5.0, 1e-4),
        t_i=0.0, t_f=10.0,
    )
    narrow_traj = mode_solver.solve_oscillator_mode(narrow, mode_cfg)
    nu_sq = bogoliubov.boson_overlap(
        narrow_traj.final, bogoliubov.ReferenceMode(1.0, 4.0, 10.0)
    ).production
    dev = abs(nu_sq - 0.5625)
    record(
        "c05b_sudden_production_ode", dev <= 1e-3, dev, 1e-3,
        f"tanh width 1e-4 gives |nu|^2 = {nu_sq:.7f}",
    )

    # -- criterion 9: Bogoliubov constraints on every verification run -----
    # the 1 -> 2 tanh quench at beta = 1 (criteria 6 and 7 reuse its overlaps)
    nu_grid = [
        bogoliubov.boson_overlap(
            osc_traj.sample(k), bogoliubov.ReferenceMode(1.0, 2.0, 10.0)
        )
        for k in range(len(osc_traj.t))
    ]
    constraint = max(c.constraint_deviation for c in nu_grid)
    constraint = max(constraint, sudden.constraint_deviation)
    record(
        "c09a_boson_constraint", constraint < 1e-9, constraint, 1e-9,
        "max | |mu|^2 - |nu|^2 - 1 | across runs",
    )
    # piecewise-constant drive: CFM4 steps are exact, so the c03b residual
    # floor is set by the mode integration, run tight here
    fermion_pulse = FermionProtocol(
        omega0=Constant(1.0),
        omega_plus=lambda t: 0.5 if 3.0 <= t < 7.0 else 0.0,
        omega_minus=Constant(0.0),
        t_i=0.0, t_f=10.0, jump_times=(3.0, 7.0),
    )
    fp_traj = mode_solver.solve_fermion_modes(
        fermion_pulse,
        mode_solver.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, grid_points=101),
    )
    b_mat = bogoliubov.fermion_frame_coeffs(
        fp_traj.final, 1.0, protocol=fermion_pulse, phase_time=7.0
    )
    dev = float(np.max(np.abs(b_mat @ b_mat.conj().T - np.eye(4))))
    record(
        "c09b_fermion_frame_unitarity", dev < 1e-9, dev, 1e-9,
        f"|B B^dag - I|_max; production {bogoliubov.production_number(b_mat):.6f}",
    )

    # -- criterion 10: adiabatic suppression --------------------------------
    widths = (1.0, 2.0, 4.0, 8.0)
    productions = []
    for w in widths:
        proto = OscillatorProtocol(
            mass=Constant(1.0), omega=make_tanh_ramp(1.0, 2.0, 0.0, w),
            t_i=-16.0 * w, t_f=16.0 * w,
        )
        traj = mode_solver.solve_oscillator_mode(
            proto,
            mode_solver.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, grid_points=11),
        )
        productions.append(
            bogoliubov.boson_overlap(
                traj.final, bogoliubov.ReferenceMode(1.0, 2.0, 16.0 * w)
            ).production
        )
    decreasing = all(b < a for a, b in zip(productions, productions[1:]))
    worst_ratio = max(b / a for a, b in zip(productions, productions[1:]))
    record(
        "c10_adiabatic_trend", decreasing, worst_ratio, 1.0,
        "widths (1, 2, 4, 8) -> |nu|^2 = " + ", ".join(f"{p:.3e}" for p in productions),
    )

    if s.oracle_enabled:
        n = s.n_levels
        beta = 1.0 / hbar

        # -- criterion 1, brute force: traces over the thermal density ------
        a_op, ad_op = fock_oracle.build_boson_ladder(n)
        num_b = fock_oracle.OperatorMatrix(
            ad_op.matrix @ a_op.matrix, fock_oracle.boson_single(n)
        )
        ops4 = fock_oracle.build_fermion_space(doubled=False)
        num_f = fock_oracle.OperatorMatrix(
            ops4["a"].dag.matrix @ ops4["a"].matrix, fock_oracle.fermion_single()
        )
        for name, num, expected, tol, detail in (
            ("c01c_equilibrium_boson_oracle", num_b, 1.0, 1e-10, f"Tr[rho a^dag a] at N = {n}"),
            ("c01d_equilibrium_fermion_oracle", num_f, 1.0 / 3.0, 1e-12, "exact 4-dim trace"),
        ):
            rho = fock_oracle.thermal_density(beta_ln2, 1.0, hbar, num.basis)
            dev = abs(fock_oracle.expectation(rho, num).real - expected)
            record(name, dev <= tol, dev, tol, detail)

        # -- criterion 3: thermal-state conditions along evolved trajectories
        pulse_proto = BosonProtocol(
            omega0=Constant(1.0), omega_plus=_coupling_pulse(0.25, 0.4),
            t_i=0.0, t_f=10.0,
        )
        worst, tail = {}, {}
        for statistics, proto, traj in (
            ("boson", pulse_proto, mode_solver.solve_boson_mode(pulse_proto, mode_cfg)),
            ("fermion", fermion_pulse, fp_traj),
        ):
            th = thermal_observables.theta(beta, 1.0, hbar, statistics)
            dt = fock_oracle.evolve_doubled_thermal(proto, beta, oracle_cfg)
            worst[statistics] = 0.0
            for k in range(len(dt.t)):
                res = fock_oracle.thermal_state_condition_residual(
                    dt.states[k], traj.sample(k), th
                )
                worst[statistics] = max(worst[statistics], *res.values())
            tail[statistics] = float(dt.tail_weight.max())
        record(
            "c03a_thermal_condition_boson",
            worst["boson"] <= 1e-6 and tail["boson"] <= 1e-8, worst["boson"], 1e-6,
            f"coupling pulse 0->0.25->0, N = {n}, max tail {tail['boson']:.1e}",
        )
        record(
            "c03b_thermal_condition_fermion", worst["fermion"] < 1e-10, worst["fermion"],
            1e-10, "coupling pulse 0->0.5->0 (jumps), exact 16-dim space",
        )

        # -- criterion 4: constant Hamiltonian keeps the distribution -------
        const_proto = BosonProtocol(
            omega0=Constant(1.0), omega_plus=Constant(0.0), t_i=0.0, t_f=10.0
        )
        # constant H: the two CFM4 exponentials of a step commute, so any
        # substep count is exact
        const_cfg = fock_oracle.OracleConfig(
            n_levels=n, substeps_per_unit=200.0, grid_points=101, hbar=hbar
        )
        dt_c = fock_oracle.evolve_doubled_thermal(const_proto, beta, const_cfg)
        occ = np.array(
            [fock_oracle.expectation_single_factor(st, num_b).real for st in dt_c.states]
        )
        dev = float(np.max(np.abs(occ - occ[0])))
        record(
            "c04_constant_distribution", dev < 1e-9, dev, 1e-9,
            f"occupation stays {occ[0]:.6f} over [0, 10]",
        )

        # -- criterion 5, brute force: sudden 1 -> 4 from the vacuum --------
        h_before = fock_oracle.build_oscillator_hamiltonian(1.0, 1.0, n, 1.0, 1.0, hbar)
        h_after = fock_oracle.build_oscillator_hamiltonian(1.0, 4.0, n, 1.0, 1.0, hbar)
        u1 = fock_oracle.evolve_unitary(lambda t: h_before, 0.0, 5.0, substeps=1, hbar=hbar)
        u2 = fock_oracle.evolve_unitary(lambda t: h_after, 5.0, 10.0, substeps=1, hbar=hbar)
        vac = np.zeros(n, dtype=complex)
        vac[0] = 1.0
        psi = fock_oracle.StateVector(u2.matrix @ (u1.matrix @ vac), h_before.basis)
        a_f = fock_oracle.frame_annihilation(1.0, 4.0, n, 1.0, 1.0, hbar)
        n_f = fock_oracle.OperatorMatrix(a_f.dag.matrix @ a_f.matrix, a_f.basis)
        produced = fock_oracle.expectation(psi, n_f).real
        dev = abs(produced - 0.5625)
        record(
            "c05c_sudden_production_oracle", dev <= 1e-3, dev, 1e-3,
            f"vacuum evolution gives <a_f^dag a_f> = {produced:.7f}",
        )

        # -- criteria 6 + 7: the 1 -> 2 tanh quench at beta = 1 -------------
        dt_q = fock_oracle.evolve_doubled_thermal(osc_quench, beta, oracle_cfg)
        a_f = fock_oracle.frame_annihilation(1.0, 2.0, n, 1.0, 1.0, hbar)
        n_f_op = fock_oracle.OperatorMatrix(a_f.dag.matrix @ a_f.matrix, a_f.basis)
        predicted = thermal_observables.evolved_occupation_boson(
            nu_grid[-1].nu, beta, 1.0, hbar
        )
        traced = fock_oracle.expectation_single_factor(dt_q.states[-1], n_f_op).real
        dev = abs(predicted - traced)
        record(
            "c06_evolved_distribution", dev <= 1e-6, dev, 1e-6,
            f"nu*nu + (1+2 nu*nu) n_eq = {predicted:.8f} vs trace {traced:.8f}",
        )

        th_b = thermal_observables.theta(beta, 1.0, hbar, "boson")
        q_op = fock_oracle.position_operator(n, 1.0, 1.0, hbar)
        q2_op = fock_oracle.OperatorMatrix(q_op.matrix @ q_op.matrix, q_op.basis)
        q4_op = fock_oracle.OperatorMatrix(q2_op.matrix @ q2_op.matrix, q_op.basis)
        k_mid = len(dt_q.t) // 2
        for name, k, detail in (
            ("c07a_q_moments_equilibrium", 0, "n = 1, 2 at t_i"),
            ("c07b_q_moments_midquench", k_mid, f"n = 1, 2 at t = {dt_q.t[k_mid]:.2f}"),
        ):
            q2 = fock_oracle.expectation_single_factor(dt_q.states[k], q2_op).real
            q4 = fock_oracle.expectation_single_factor(dt_q.states[k], q4_op).real
            v = osc_traj.sample(k).v
            dev = max(
                abs(thermal_observables.q_moment(1, v, th_b, hbar) - q2),
                abs(thermal_observables.q_moment(2, v, th_b, hbar) - q4),
            )
            record(name, dev <= 1e-6, dev, 1e-6, detail)
        # The ratio probes Gaussianity, which quadratic propagation preserves
        # at any step size; its error floor is set purely by the basis edge,
        # so run a wider box with coarse steps.
        n_wide = WIDE_BOX_FACTOR * n
        q_wide = fock_oracle.position_operator(n_wide, 1.0, 1.0, hbar)
        q2_wide = fock_oracle.OperatorMatrix(q_wide.matrix @ q_wide.matrix, q_wide.basis)
        q4_wide = fock_oracle.OperatorMatrix(q2_wide.matrix @ q2_wide.matrix, q_wide.basis)
        wide_cfg = fock_oracle.OracleConfig(
            n_levels=n_wide, substeps_per_unit=100.0, grid_points=5, hbar=hbar
        )
        dt_wide = fock_oracle.evolve_doubled_thermal(osc_quench, beta, wide_cfg)
        ratio_dev = 0.0
        for st in dt_wide.states:
            m2 = fock_oracle.expectation_single_factor(st, q2_wide).real
            m4 = fock_oracle.expectation_single_factor(st, q4_wide).real
            ratio_dev = max(ratio_dev, abs(m4 / m2**2 - 3.0))
        record(
            "c07c_q_moment_ratio", ratio_dev <= 1e-10, ratio_dev, 1e-10,
            f"<q^4>/<q^2>^2 vs the Gaussian value 3, N = {n_wide}",
        )

        # -- criterion 8: the two thermal-state constructions agree ---------
        dist = 0.0
        for bw in (0.5, 1.0):
            psi_a, psi_b = fock_oracle.build_thermal_state_doubled(
                bw / hbar, 1.0, hbar, fock_oracle.boson_doubled(n)
            )
            dist = max(dist, float(np.linalg.norm(psi_a.vector - psi_b.vector)))
        record(
            "c08a_thermal_constructions_boson", dist <= 1e-8, dist, 1e-8,
            f"series vs squeeze exponential, beta*h*w in (0.5, 1), N = {n}",
        )
        fa, fb = fock_oracle.build_thermal_state_doubled(
            1.0 / hbar, 1.0, hbar, fock_oracle.fermion_doubled()
        )
        dist = float(np.linalg.norm(fa.vector - fb.vector))
        record(
            "c08b_thermal_constructions_fermion", dist < 1e-12, dist, 1e-12,
            "exact 16-dim space",
        )

    expected = CHECK_NAMES if s.oracle_enabled else ANALYTIC_CHECKS
    if set(reported) != set(expected):
        raise RuntimeError("verification suite did not report the expected set of checks")
    return [reported[name] if name in reported else _skip(name) for name in CHECK_NAMES]
