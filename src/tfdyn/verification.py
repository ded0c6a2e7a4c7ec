"""The acceptance suite: every analytic claim checked against brute force.

Each check pins a measured quantity against a fixed tolerance and reports a
``CheckResult``; nothing here is tunable per-check from the outside, so a
green suite means the same thing on every machine.  Expensive doubled-space
evolutions are shared between the checks that need them.

The checks that need the oracle (``ORACLE_CHECKS``) are skipped (not
silently passed) when the oracle is disabled.

``quench_observables`` builds the analytic observables of one quench and,
with an oracle configuration, their brute-force counterparts.  It is the one
definition of that comparison: ``tfdyn run`` writes its columns to
``observables.csv``, and the oracle checks of criteria 3, 4, 6 and 7 read
the same columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bogoliubov, fock_oracle, mode_solver, thermal_observables
from .protocols import (
    BosonProtocol,
    Constant,
    FermionProtocol,
    OscillatorProtocol,
    Protocol,
    evaluate,
    initial_frame,
    make_tanh_ramp,
)

__all__ = [
    "CheckResult",
    "run_all",
    "quench_observables",
    "condition_residuals",
    "ANALYTIC_CHECKS",
    "ORACLE_CHECKS",
    "CHECK_NAMES",
]

LN2 = math.log(2.0)
# c07c runs a box this many times wider than the oracle's ``n_levels``.
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


# ---------------------------------------------------------------------------
# observables of one quench: the columns of observables.csv
# ---------------------------------------------------------------------------

Columns = list[tuple[str, np.ndarray]]


def _boson_columns(protocol: Protocol, traj, beta: float, hbar: float, doubled) -> Columns:
    """Occupation and position moments of a boson or oscillator run.

    The occupation refers to the protocol's final static frame: for
    oscillator protocols nu comes from the mode-function overlap with that
    frame, for abstract bosons it is |f+(t)|^2 directly.  The q moments refer
    to the initial frame, in which the thermal state is prepared.  With a
    doubled trajectory, each quantity is also traced in the same frame and
    differenced against its analytic value.
    """
    m_i, omega_i = initial_frame(protocol)
    theta = thermal_observables.theta(beta, omega_i, hbar, "boson")
    n_eq = thermal_observables.equilibrium_occupation(beta, omega_i, hbar, "boson")
    frame = (m_i, omega_i)
    if protocol.kind == "oscillator":
        s_f = evaluate(protocol, protocol.t_f)
        frame = (s_f.mass, s_f.omega)
        ref = bogoliubov.ReferenceMode(*frame, protocol.t_f)
    scale = 1.0 / math.sqrt(2.0 * m_i * omega_i)

    n_pts = len(traj.t)
    nu_sq, q2, q4 = np.empty(n_pts), np.empty(n_pts), np.empty(n_pts)
    for k in range(n_pts):
        mode = traj.sample(k)
        if protocol.kind == "oscillator":
            nu_sq[k] = bogoliubov.boson_overlap(mode, ref).production
            v = mode.v
        else:
            nu_sq[k] = abs(mode.f_plus) ** 2
            v = np.conj(mode.f_minus - mode.f_plus) * scale
        q2[k] = thermal_observables.q_moment(1, v, theta, hbar)
        q4[k] = thermal_observables.q_moment(2, v, theta, hbar)
    analytic = {"occupation": nu_sq + (1.0 + 2.0 * nu_sq) * n_eq, "q2": q2, "q4": q4}
    columns = [
        ("t [time]", traj.t),
        ("occupation_equilibrium [1]", np.full(n_pts, n_eq)),
        ("nu_sq [1]", nu_sq),
        ("occupation_evolved [1]", analytic["occupation"]),
        ("q2 [length^2]", q2),
        ("q4 [length^4]", q4),
    ]
    if doubled is None:
        return columns

    n = doubled.states[0].basis.n_levels
    a_f = fock_oracle.frame_annihilation(*frame, n, m_i, omega_i, hbar).matrix
    q_op = fock_oracle.position_operator(n, m_i, omega_i, hbar)
    q2_op = q_op.matrix @ q_op.matrix
    ops = {"occupation": a_f.conj().T @ a_f, "q2": q2_op, "q4": q2_op @ q2_op}
    for name, unit in (("occupation", "1"), ("q2", "length^2"), ("q4", "length^4")):
        op = fock_oracle.OperatorMatrix(ops[name], q_op.basis)
        traced = np.array(
            [fock_oracle.expectation_single_factor(st, op).real for st in doubled.states]
        )
        columns += [
            (f"oracle_{name} [{unit}]", traced),
            (f"{name}_abs_diff [{unit}]", np.abs(analytic[name] - traced)),
        ]
    return columns


def _fermion_columns(protocol: Protocol, traj, beta: float, hbar: float, doubled) -> Columns:
    """Pair production |f+|^2 + |g+|^2 of each channel; with a doubled
    trajectory, also the traced occupation of each channel and the worst
    thermal-vacuum condition residual of the mode solution on each row."""
    columns = [
        ("t [time]", traj.t),
        ("production_a [1]", np.abs(traj.f_a_plus) ** 2 + np.abs(traj.g_a_plus) ** 2),
        ("production_b [1]", np.abs(traj.f_b_plus) ** 2 + np.abs(traj.g_b_plus) ** 2),
    ]
    if doubled is None:
        return columns

    ops = fock_oracle.build_fermion_space(doubled=True)
    for channel in ("a", "b"):
        c = ops[channel]
        num = fock_oracle.OperatorMatrix(c.dag.matrix @ c.matrix, c.basis)
        traced = np.array([fock_oracle.expectation(st, num).real for st in doubled.states])
        columns.append((f"oracle_occupation_{channel} [1]", traced))
    theta = thermal_observables.theta(beta, initial_frame(protocol)[1], hbar, "fermion")
    columns.append(
        ("oracle_condition_residual_max [1]", condition_residuals(doubled, traj, theta))
    )
    return columns


def condition_residuals(doubled: fock_oracle.DoubledTrajectory, traj, theta: float) -> np.ndarray:
    """Worst thermal-vacuum condition residual on each row: the oracle's
    evolved state against the invariant operators of the mode solution."""
    return np.array(
        [
            max(fock_oracle.thermal_state_condition_residual(st, traj.sample(k), theta).values())
            for k, st in enumerate(doubled.states)
        ]
    )


def _unitless(columns: Columns) -> dict[str, np.ndarray]:
    """Columns keyed by name without the unit tag."""
    return {name.split(" [")[0]: values for name, values in columns}


def quench_observables(
    protocol: Protocol,
    traj,
    beta: float,
    hbar: float,
    oracle: fock_oracle.OracleConfig | None = None,
) -> tuple[Columns, fock_oracle.DoubledTrajectory | None]:
    """The ``observables.csv`` columns of one quench, and the oracle's run.

    ``traj`` is the protocol's mode trajectory, on the output grid the
    oracle samples too.  Without an oracle configuration only the analytic
    columns are built and no doubled trajectory is returned; with one, the
    doubled thermal state is evolved at inverse temperature ``beta`` and
    each analytic quantity gets its traced counterpart, followed by the
    oracle's tail weight.
    """
    doubled = None
    if oracle is not None:
        doubled = fock_oracle.evolve_doubled_thermal(protocol, beta, oracle, hbar)
    build = _fermion_columns if protocol.kind == "fermion" else _boson_columns
    columns = build(protocol, traj, beta, hbar, doubled)
    if doubled is not None:
        columns.append(("oracle_tail_weight [1]", doubled.tail_weight))
    return columns, doubled


def _coupling_pulse(amplitude: float, width: float):
    up = make_tanh_ramp(0.0, amplitude, 3.0, width)
    down = make_tanh_ramp(0.0, amplitude, 7.0, width)
    return lambda t: up(t) - down(t)


def run_all(
    integrator: mode_solver.IntegratorConfig | None = None,
    oracle: fock_oracle.OracleConfig | None = fock_oracle.OracleConfig(),
    hbar: float = 1.0,
) -> list[CheckResult]:
    """Execute the full acceptance suite and return one result per check.

    The suite reads the integrator's tolerances and the oracle's ``n_levels``
    and ``substeps_per_unit``; it pins its own grids, temperatures, step caps
    and tail threshold.  ``oracle=None`` skips the oracle checks.
    """
    reported: dict[str, CheckResult] = {}

    def record(name: str, passed: bool, measured: float, tolerance: float, detail: str) -> None:
        if name in reported:
            raise RuntimeError(f"verification check {name} reported twice")
        reported[name] = CheckResult(name, passed, measured, tolerance, detail)

    mode_cfg = replace(
        integrator or mode_solver.IntegratorConfig(), grid_points=101, max_step=math.inf
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
    s_f = evaluate(narrow, narrow.t_f)
    frame_i, frame_f = initial_frame(narrow), (s_f.mass, s_f.omega)
    nu_sq = bogoliubov.boson_overlap(
        narrow_traj.final, bogoliubov.ReferenceMode(*frame_f, narrow.t_f)
    ).production
    dev = abs(nu_sq - 0.5625)
    record(
        "c05b_sudden_production_ode", dev <= 1e-3, dev, 1e-3,
        f"tanh width 1e-4 gives |nu|^2 = {nu_sq:.7f}",
    )

    # -- criterion 9: Bogoliubov constraints on every verification run -----
    # the 1 -> 2 tanh quench, projected on the exact omega = 2 frame
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

    if oracle is not None:
        n = oracle.n_levels
        beta = 1.0 / hbar
        oracle_cfg = fock_oracle.OracleConfig(
            n_levels=n, substeps_per_unit=oracle.substeps_per_unit, grid_points=101
        )

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
        pulse_traj = mode_solver.solve_boson_mode(pulse_proto, mode_cfg)
        _, dt = quench_observables(pulse_proto, pulse_traj, beta, hbar, oracle_cfg)
        th = thermal_observables.theta(beta, initial_frame(pulse_proto)[1], hbar, "boson")
        worst = float(np.max(condition_residuals(dt, pulse_traj, th)))
        tail = float(dt.tail_weight.max())
        record(
            "c03a_thermal_condition_boson", worst <= 1e-6 and tail <= 1e-8, worst, 1e-6,
            f"coupling pulse 0->0.25->0, N = {n}, max tail {tail:.1e}",
        )
        columns, _ = quench_observables(fermion_pulse, fp_traj, beta, hbar, oracle_cfg)
        worst = float(np.max(_unitless(columns)["oracle_condition_residual_max"]))
        record(
            "c03b_thermal_condition_fermion", worst < 1e-10, worst, 1e-10,
            "coupling pulse 0->0.5->0 (jumps), exact 16-dim space",
        )

        # -- criterion 4: constant Hamiltonian keeps the distribution -------
        const_proto = BosonProtocol(
            omega0=Constant(1.0), omega_plus=Constant(0.0), t_i=0.0, t_f=10.0
        )
        columns, _ = quench_observables(
            const_proto, mode_solver.solve_boson_mode(const_proto, mode_cfg), beta, hbar,
            oracle_cfg,
        )
        occ = _unitless(columns)["oracle_occupation"]
        dev = float(np.max(np.abs(occ - occ[0])))
        record(
            "c04_constant_distribution", dev < 1e-9, dev, 1e-9,
            f"occupation stays {occ[0]:.6f} over [0, 10]",
        )

        # -- criterion 5, brute force: sudden 1 -> 4 from the vacuum --------
        # c05b's 1 -> 4 quench with its ramp made a jump, in its frames
        h_before = fock_oracle.build_oscillator_hamiltonian(*frame_i, n, *frame_i, hbar)
        h_after = fock_oracle.build_oscillator_hamiltonian(*frame_f, n, *frame_i, hbar)
        u1 = fock_oracle.evolve_unitary(lambda t: h_before, 0.0, 5.0, substeps=1, hbar=hbar)
        u2 = fock_oracle.evolve_unitary(lambda t: h_after, 5.0, 10.0, substeps=1, hbar=hbar)
        vac = np.zeros(n, dtype=complex)
        vac[0] = 1.0
        psi = fock_oracle.StateVector(u2.matrix @ (u1.matrix @ vac), h_before.basis)
        a_f = fock_oracle.frame_annihilation(*frame_f, n, *frame_i, hbar)
        n_f = fock_oracle.OperatorMatrix(a_f.dag.matrix @ a_f.matrix, a_f.basis)
        produced = fock_oracle.expectation(psi, n_f).real
        dev = abs(produced - 0.5625)
        record(
            "c05c_sudden_production_oracle", dev <= 1e-3, dev, 1e-3,
            f"vacuum evolution gives <a_f^dag a_f> = {produced:.7f}",
        )

        # -- criteria 6 + 7: the 1 -> 2 tanh quench at beta = 1 -------------
        q = _unitless(quench_observables(osc_quench, osc_traj, beta, hbar, oracle_cfg)[0])
        dev = float(q["occupation_abs_diff"][-1])
        record(
            "c06_evolved_distribution", dev <= 1e-6, dev, 1e-6,
            f"nu*nu + (1+2 nu*nu) n_eq = {q['occupation_evolved'][-1]:.8f} "
            f"vs trace {q['oracle_occupation'][-1]:.8f}",
        )

        k_mid = len(q["t"]) // 2
        for name, k, tol, detail in (
            ("c07a_q_moments_equilibrium", 0, 1e-12, "n = 1, 2 at t_i"),
            ("c07b_q_moments_midquench", k_mid, 1e-6, f"n = 1, 2 at t = {q['t'][k_mid]:.2f}"),
        ):
            dev = float(max(q["q2_abs_diff"][k], q["q4_abs_diff"][k]))
            record(name, dev <= tol, dev, tol, detail)
        # The ratio probes Gaussianity.  Every CFM4 step is the exponential
        # of a quadratic generator, so without a box edge it would hold at
        # any step size; in the box each exponential leaks amplitude off the
        # edge, the more the longer its step (at N = 100 and 0.8
        # exponentials per unit the ratio reads 1.98e-10).  So run a wider
        # box at 100 exponentials per unit.  The ratio is the same for
        # every multiple of a + a^dag, so the unit normalisation of q below
        # is not a frame choice.
        n_wide = WIDE_BOX_FACTOR * n
        q_wide = fock_oracle.position_operator(n_wide, 1.0, 1.0, hbar)
        q2_wide = fock_oracle.OperatorMatrix(q_wide.matrix @ q_wide.matrix, q_wide.basis)
        q4_wide = fock_oracle.OperatorMatrix(q2_wide.matrix @ q2_wide.matrix, q_wide.basis)
        wide_cfg = fock_oracle.OracleConfig(
            n_levels=n_wide, substeps_per_unit=100.0, grid_points=5
        )
        dt_wide = fock_oracle.evolve_doubled_thermal(osc_quench, beta, wide_cfg, hbar)
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

    expected = CHECK_NAMES if oracle is not None else ANALYTIC_CHECKS
    if set(reported) != set(expected):
        raise RuntimeError("verification suite did not report the expected set of checks")
    return [reported[name] if name in reported else _skip(name) for name in CHECK_NAMES]
