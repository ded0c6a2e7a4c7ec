"""The acceptance suite: every analytic claim checked against brute force.

Each check is one function registered with ``_check(name, tolerance,
oracle)``: it reads the runs that several checks share from ``_Runs``, which
builds each on first read, and returns its measured value and a detail line.
A check passes when its measured value is strictly below its fixed tolerance
(and its extra condition holds, where it returns one); nothing here is
tunable per-check from the outside, so a green suite means the same thing on
every machine.  Like the rest of tfdyn, the suite works in units with
hbar = 1.  ``CHECK_NAMES``, ``ANALYTIC_CHECKS`` and ``ORACLE_CHECKS`` are
read off the registry.

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
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import bogoliubov, fock_oracle, mode_solver, thermal_observables
from .protocols import (
    BosonProtocol,
    Constant,
    FermionProtocol,
    OscillatorProtocol,
    evaluate,
    initial_frame,
    make_tanh_ramp,
    sampler,
)

__all__ = [
    "CheckResult",
    "run_all",
    "quench_observables",
    "oracle_configs",
    "condition_residuals",
    "ANALYTIC_CHECKS",
    "ORACLE_CHECKS",
    "CHECK_NAMES",
]

LN2 = math.log(2.0)
# c07c runs a box this many times wider than the oracle's ``n_levels``, at
# this many exponentials per unit time whatever the oracle's setting.
WIDE_BOX_FACTOR = 2
WIDE_BOX_SUBSTEPS_PER_UNIT = 20.0


@dataclass(frozen=True)
class CheckResult:
    """One acceptance criterion: what was measured against what bound.

    ``duration_seconds`` is the wall time of the check's own measure, which
    varies from run to run, so it stays out of ``repr`` and equality.
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    skipped: bool = False
    duration_seconds: float = field(default=0.0, repr=False, compare=False)

    def line(self) -> str:
        if self.skipped:
            return f"SKIP  {self.name}: {self.detail}"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: measured {self.measured:.3e} "
            f"vs tolerance {self.tolerance:.0e}"
            + (f"  [{self.detail}]" if self.detail else "")
        )


# ---------------------------------------------------------------------------
# observables of one quench: the columns of observables.csv
# ---------------------------------------------------------------------------

Columns = list[tuple[str, np.ndarray]]


def _boson_columns(traj, beta: float, doubled) -> Columns:
    """Occupation and position moments of a boson or oscillator run.

    The occupation refers to the protocol's final static frame: for
    oscillator protocols nu comes from the mode-function overlap with that
    frame, for abstract bosons it is |f+(t)|^2 directly.  The q moments refer
    to the initial frame, in which the thermal state is prepared.  With a
    doubled trajectory, each quantity is also traced in the same frame and
    differenced against its analytic value.
    """
    protocol = traj.protocol
    m_i, omega_i = initial_frame(protocol)
    theta = thermal_observables.theta(beta, omega_i)
    n_eq = thermal_observables.equilibrium_occupation(beta, omega_i)
    frame = (m_i, omega_i)
    if protocol.kind == "oscillator":
        frame = sampler(protocol)(protocol.t_f)
        ref = bogoliubov.ReferenceMode(*frame, protocol.t_f)
        nu_sq = np.array([c.production for c in bogoliubov.boson_overlaps(traj, ref)])
        v = traj.v.tolist()
    else:
        nu_sq = np.array([abs(f) ** 2 for f in traj.f_plus.tolist()])
        # v = conj(f- - f+) / sqrt(2 m w), of which the moments read only |v|
        scale = 1.0 / math.sqrt(2.0 * m_i * omega_i)
        diffs = (traj.f_minus - traj.f_plus).tolist()
        v = [complex(d.real * scale, d.imag * scale) for d in diffs]
    q2 = np.array(thermal_observables.q_moment(1, v, theta))
    q4 = np.array(thermal_observables.q_moment(2, v, theta))
    occupation = thermal_observables.evolved_occupation_boson(nu_sq, beta, omega_i)
    analytic = {"occupation": occupation, "q2": q2, "q4": q4}
    columns = [
        ("t [time]", traj.t),
        ("occupation_equilibrium [1]", np.full(len(traj.t), n_eq)),
        ("nu_sq [1]", nu_sq),
        ("occupation_evolved [1]", analytic["occupation"]),
        ("q2 [length^2]", q2),
        ("q4 [length^4]", q4),
    ]
    if doubled is None:
        return columns

    n = doubled.basis.n_levels
    a_f = fock_oracle.frame_annihilation(*frame, n, m_i, omega_i).matrix
    q_op = fock_oracle.position_operator(n, m_i, omega_i)
    q2_op = q_op.matrix @ q_op.matrix
    ops = [
        fock_oracle.OperatorMatrix(m, q_op.basis)
        for m in (a_f.conj().T @ a_f, q2_op, q2_op @ q2_op)
    ]
    traced = fock_oracle.expectation_single_factor(doubled, ops).real
    for (name, unit), values in zip(
        (("occupation", "1"), ("q2", "length^2"), ("q4", "length^4")), traced
    ):
        columns += [
            (f"oracle_{name} [{unit}]", values),
            (f"{name}_abs_diff [{unit}]", np.abs(analytic[name] - values)),
        ]
    return columns


def _fermion_columns(traj, beta: float, doubled) -> Columns:
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
    numbers = [
        fock_oracle.OperatorMatrix(ops[ch].dag.matrix @ ops[ch].matrix, ops[ch].basis)
        for ch in ("a", "b")
    ]
    traced = fock_oracle.expectation(doubled.states, numbers).real
    for channel, values in zip(("a", "b"), traced):
        columns.append((f"oracle_occupation_{channel} [1]", values))
    theta = thermal_observables.theta(
        beta, initial_frame(traj.protocol)[1], statistics="fermion"
    )
    columns.append(
        ("oracle_condition_residual_max [1]", condition_residuals(doubled, traj, theta))
    )
    return columns


def condition_residuals(doubled: fock_oracle.DoubledTrajectory, traj, theta: float) -> np.ndarray:
    """Worst thermal-vacuum condition residual on each row: the oracle's
    evolved state against the invariant operators of the mode solution,
    read from its coefficient columns."""
    residuals = fock_oracle.thermal_state_condition_residual(doubled, traj, theta)
    return np.max(list(residuals.values()), axis=0)


def _unitless(columns: Columns) -> dict[str, np.ndarray]:
    """Columns keyed by name without the unit tag."""
    return {name.split(" [")[0]: values for name, values in columns}


def quench_observables(
    traj,
    beta: float,
    *,
    oracle: fock_oracle.OracleConfig | None = None,
) -> tuple[Columns, fock_oracle.DoubledTrajectory | None]:
    """The ``observables.csv`` columns of one quench, and the oracle's run.

    ``traj`` is a mode trajectory; its protocol is the quench.  Without an
    oracle configuration only the analytic columns are built and no doubled
    trajectory is returned; with one, whose ``grid_points`` must be the
    trajectory's sample count, the doubled thermal state is evolved at
    inverse temperature ``beta`` and each analytic quantity gets its traced
    counterpart, followed by the oracle's tail weight.
    """
    protocol = traj.protocol
    doubled = None
    if oracle is not None:
        if oracle.grid_points != len(traj.t):
            raise ValueError(
                f"the oracle samples {oracle.grid_points} points but the trajectory "
                f"has {len(traj.t)}; they must share one grid"
            )
        doubled = fock_oracle.evolve_doubled_thermal(protocol, beta, oracle)
    build = _fermion_columns if protocol.kind == "fermion" else _boson_columns
    columns = build(traj, beta, doubled)
    if doubled is not None:
        columns.append(("oracle_tail_weight [1]", doubled.tail_weight))
    return columns, doubled


def oracle_configs(
    oracle: fock_oracle.OracleConfig,
) -> tuple[fock_oracle.OracleConfig, fock_oracle.OracleConfig]:
    """The suite's oracle runs at the run's ``n_levels`` and
    ``substeps_per_unit``: the settings of the shared runs, on their
    101-point grid, and c07c's box, ``WIDE_BOX_FACTOR`` times as many
    levels at ``WIDE_BOX_SUBSTEPS_PER_UNIT`` on 5 points.  Raises
    ``ValueError`` when either cannot be built, or when the shared settings
    would march past ``fock_oracle._MAX_MARCH_STEPS`` on the suite's
    window [0, 10]."""
    shared = fock_oracle.OracleConfig(
        n_levels=oracle.n_levels, substeps_per_unit=oracle.substeps_per_unit, grid_points=101
    )
    fock_oracle._march_steps(0.0, 10.0, (), shared)
    n_wide = WIDE_BOX_FACTOR * oracle.n_levels
    try:
        wide = fock_oracle.OracleConfig(
            n_levels=n_wide, substeps_per_unit=WIDE_BOX_SUBSTEPS_PER_UNIT, grid_points=5
        )
    except ValueError as exc:
        raise ValueError(
            f"n_levels = {oracle.n_levels}: verify runs check c07c at {n_wide} levels, and {exc}"
        ) from exc
    return shared, wide


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _timed(build):
    """A shared run, built on first read and kept; its build time is added
    to ``seconds`` once, also when another run's build reads it."""
    def timed(self):
        before, started = self.seconds, time.perf_counter()
        run = build(self)
        self.seconds = before + time.perf_counter() - started
        return run
    return cached_property(timed)


class _Runs:
    """The suite's settings, made at once, and the runs that several checks
    read, each built on first read.  Runs that a single check reads are built
    inside it, so no doubled trajectory outlives the check that evolved it."""

    def __init__(self, integrator, oracle):
        self.seconds = 0.0
        if oracle is not None:
            self.n = oracle.n_levels
            self.oracle_cfg, self.wide_cfg = oracle_configs(oracle)
        self.mode_cfg = replace(integrator or mode_solver.IntegratorConfig(), grid_points=101)

        # the 1 -> 2 tanh quench on [0, 10]: criteria 2, 6, 7 and 9
        self.osc_quench = OscillatorProtocol(
            mass=Constant(1.0), omega=make_tanh_ramp(1.0, 2.0, 5.0, 0.5), t_i=0.0, t_f=10.0
        )

        # the sudden 1 -> 4 quench of criterion 5, as a formula, as a narrow
        # ramp and (in the ramp's frames) as a jump
        self.sudden = bogoliubov.sudden_coeffs(1.0, 4.0)
        self.narrow = OscillatorProtocol(
            mass=Constant(1.0), omega=make_tanh_ramp(1.0, 4.0, 5.0, 1e-4), t_i=0.0, t_f=10.0
        )
        s_f = evaluate(self.narrow, self.narrow.t_f)
        self.frame_i, self.frame_f = initial_frame(self.narrow), (s_f.mass, s_f.omega)

        # piecewise-constant drive: the oracle takes one exact exponential per
        # output interval, so the c03b residual floor is set by the mode
        # integration, run tight here (and in c10)
        self.fermion_pulse = FermionProtocol(
            omega0=Constant(1.0), omega_plus=lambda t: 0.5 if 3.0 <= t < 7.0 else 0.0,
            omega_minus=Constant(0.0), t_i=0.0, t_f=10.0, jump_times=(3.0, 7.0),
        )
        self.tight_cfg = mode_solver.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, grid_points=101)

    @_timed
    def osc_traj(self):
        return mode_solver.solve_oscillator_mode(self.osc_quench, self.mode_cfg)

    @_timed
    def fp_traj(self):
        return mode_solver.solve_fermion_modes(self.fermion_pulse, self.tight_cfg)

    @_timed
    def q(self):
        """The columns of criteria 6 + 7: the 1 -> 2 tanh quench at beta = 1."""
        return _unitless(quench_observables(self.osc_traj, 1.0, oracle=self.oracle_cfg)[0])


# name -> (tolerance, needs the oracle, measure).  A measure takes a ``_Runs``
# and returns (measured, detail), or (measured, detail, extra) for a
# check that also requires the condition ``extra``.
_CHECKS: dict[str, tuple[float, bool, Callable[[_Runs], tuple]]] = {}


def _check(name: str, tolerance: float, oracle: bool = False):
    """Register the decorated measure as the check ``name``."""
    def register(measure):
        _CHECKS[name] = (tolerance, oracle, measure)
        return measure
    return register


# -- criterion 1: equilibrium distributions -------------------------------
@_check("c01a_equilibrium_boson_analytic", 1e-12)
def _c01a(s):
    n_eq = thermal_observables.equilibrium_occupation(LN2, 1.0)
    return abs(n_eq - 1.0), "n(beta*h*w = ln 2) vs 1"


@_check("c01b_equilibrium_fermion_analytic", 1e-12)
def _c01b(s):
    n_eq = thermal_observables.equilibrium_occupation(LN2, 1.0, statistics="fermion")
    return abs(n_eq - 1.0 / 3.0), "n(beta*h*w = ln 2) vs 1/3"


# brute force: traces over the thermal density
@_check("c01c_equilibrium_boson_oracle", 1e-10, oracle=True)
def _c01c(s):
    a_op, ad_op = fock_oracle.build_boson_ladder(s.n)
    num = fock_oracle.OperatorMatrix(ad_op.matrix @ a_op.matrix, fock_oracle.boson_single(s.n))
    rho = fock_oracle.thermal_density(LN2, 1.0, basis=num.basis)
    return abs(fock_oracle.expectation(rho, num).real - 1.0), f"Tr[rho a^dag a] at N = {s.n}"


@_check("c01d_equilibrium_fermion_oracle", 1e-12, oracle=True)
def _c01d(s):
    a = fock_oracle.build_fermion_space(doubled=False)["a"]
    num = fock_oracle.OperatorMatrix(a.dag.matrix @ a.matrix, fock_oracle.fermion_single())
    rho = fock_oracle.thermal_density(LN2, 1.0, basis=num.basis)
    return abs(fock_oracle.expectation(rho, num).real - 1.0 / 3.0), "exact 4-dim trace"


# -- criterion 2: conservation laws over tanh quenches on [0, 10] ---------
# each check reports the worst of its kind's meters
@_check("c02a_boson_commutator_conservation", 1e-9)
def _c02a(s):
    quench = BosonProtocol(
        omega0=Constant(1.0), omega_plus=make_tanh_ramp(0.0, 0.5, 5.0, 0.5), t_i=0.0, t_f=10.0
    )
    traj = mode_solver.solve_boson_mode(quench, s.mode_cfg)
    return max(traj.drift.values()), "max | |f-|^2 - |f+|^2 - 1 |"


@_check("c02b_oscillator_wronskian_conservation", 1e-9)
def _c02b(s):
    return max(s.osc_traj.drift.values()), "max | m (v'* v - v' v*) - i |"


@_check("c02c_fermion_anticommutator_conservation", 1e-9)
def _c02c(s):
    quench = FermionProtocol(
        omega0=Constant(1.0), omega_plus=make_tanh_ramp(0.0, 0.5, 5.0, 0.5),
        omega_minus=Constant(0.0), t_i=0.0, t_f=10.0,
    )
    traj = mode_solver.solve_fermion_modes(quench, s.mode_cfg)
    detail = "max over W^dag W + Z^dag Z - 1 and cross anticommutators"
    return max(traj.drift.values()), detail


# -- criterion 3: thermal-state conditions along evolved trajectories ----
@_check("c03a_thermal_condition_boson", 1e-6, oracle=True)
def _c03a(s):
    up, down = make_tanh_ramp(0.0, 0.25, 3.0, 0.4), make_tanh_ramp(0.0, 0.25, 7.0, 0.4)
    pulse_proto = BosonProtocol(
        omega0=Constant(1.0), omega_plus=lambda t: up(t) - down(t), t_i=0.0, t_f=10.0
    )
    pulse_traj = mode_solver.solve_boson_mode(pulse_proto, s.mode_cfg)
    _, dt = quench_observables(pulse_traj, 1.0, oracle=s.oracle_cfg)
    th = thermal_observables.theta(1.0, initial_frame(pulse_proto)[1])
    worst = float(np.max(condition_residuals(dt, pulse_traj, th)))
    tail = float(dt.tail_weight.max())
    detail = f"coupling pulse 0->0.25->0, N = {s.n}, max tail {tail:.1e}"
    return worst, detail, tail <= 1e-8


@_check("c03b_thermal_condition_fermion", 1e-10, oracle=True)
def _c03b(s):
    columns, _ = quench_observables(s.fp_traj, 1.0, oracle=s.oracle_cfg)
    worst = float(np.max(_unitless(columns)["oracle_condition_residual_max"]))
    return worst, "coupling pulse 0->0.5->0 (jumps), exact 16-dim space"


# -- criterion 4: constant Hamiltonian keeps the distribution ------------
@_check("c04_constant_distribution", 1e-9, oracle=True)
def _c04(s):
    const_proto = BosonProtocol(omega0=Constant(1.0), omega_plus=Constant(0.0), t_i=0.0, t_f=10.0)
    const_traj = mode_solver.solve_boson_mode(const_proto, s.mode_cfg)
    columns, _ = quench_observables(const_traj, 1.0, oracle=s.oracle_cfg)
    occ = _unitless(columns)["oracle_occupation"]
    dev = float(np.max(np.abs(occ - occ[0])))
    return dev, f"occupation stays {occ[0]:.6f} over [0, 10]"


# -- criterion 5: sudden quench production --------------------------------
@_check("c05a_sudden_production_analytic", 1e-12)
def _c05a(s):
    return abs(s.sudden.production - 0.5625), "matching formula |nu|^2 for 1 -> 4"


@_check("c05b_sudden_production_ode", 1e-3)
def _c05b(s):
    narrow_traj = mode_solver.solve_oscillator_mode(s.narrow, s.mode_cfg)
    ref = bogoliubov.ReferenceMode(*s.frame_f, s.narrow.t_f)
    nu_sq = bogoliubov.boson_overlap(narrow_traj.final, ref).production
    return abs(nu_sq - 0.5625), f"tanh width 1e-4 gives |nu|^2 = {nu_sq:.7f}"


# brute force: sudden 1 -> 4 from the vacuum, c05b's quench with its ramp
# made a jump, in its frames
@_check("c05c_sudden_production_oracle", 1e-3, oracle=True)
def _c05c(s):
    n, frame_i, frame_f = s.n, s.frame_i, s.frame_f
    h_before = fock_oracle.build_oscillator_hamiltonian(*frame_i, n, *frame_i)
    h_after = fock_oracle.build_oscillator_hamiltonian(*frame_f, n, *frame_i)
    # each constant segment lasts 5: one spectral exponential apiece
    u1, u2 = (fock_oracle._expi_neg_hermitian(h.matrix, 5.0) for h in (h_before, h_after))
    vac = np.zeros(n, dtype=complex)
    vac[0] = 1.0
    psi = fock_oracle.StateVector(u2 @ (u1 @ vac), h_before.basis)
    a_f = fock_oracle.frame_annihilation(*frame_f, n, *frame_i)
    n_f = fock_oracle.OperatorMatrix(a_f.dag.matrix @ a_f.matrix, a_f.basis)
    produced = fock_oracle.expectation(psi, n_f).real
    tail = fock_oracle.truncation_report(psi)
    detail = f"vacuum evolution gives <a_f^dag a_f> = {produced:.7f}, truncation tail {tail:.1e}"
    return abs(produced - 0.5625), detail


# -- criteria 6 + 7: the 1 -> 2 tanh quench at beta = 1 -------------------
@_check("c06_evolved_distribution", 1e-6, oracle=True)
def _c06(s):
    analytic, traced = s.q["occupation_evolved"][-1], s.q["oracle_occupation"][-1]
    detail = f"nu*nu + (1+2 nu*nu) n_eq = {analytic:.8f} vs trace {traced:.8f}"
    return float(s.q["occupation_abs_diff"][-1]), detail


@_check("c07a_q_moments_equilibrium", 1e-12, oracle=True)
def _c07a(s):
    return float(max(s.q["q2_abs_diff"][0], s.q["q4_abs_diff"][0])), "n = 1, 2 at t_i"


@_check("c07b_q_moments_midquench", 1e-6, oracle=True)
def _c07b(s):
    k = len(s.q["t"]) // 2
    dev = float(max(s.q["q2_abs_diff"][k], s.q["q4_abs_diff"][k]))
    return dev, f"n = 1, 2 at t = {s.q['t'][k]:.2f}"


# The ratio probes Gaussianity.  Each of the J exponentials of an oracle
# step (``fock_oracle._STEP_RULE``) has a quadratic generator, so without a
# box edge it would hold at any step size; the box edge sets it instead,
# hence the wider box.  A scan of the box's exponentials per unit (march
# time: median of 3 on one thread of a 2-core Xeon VM):
#
#   box      at 100/unit   at 20/unit   march time, 20 vs 100/unit
#   N = 80   1.06047e-8    1.06039e-8   0.11 vs 0.52 s
#   N = 100  2.3864e-11    2.3955e-11   0.18 vs 0.86 s
#   N = 120  7.6605e-13    9.0594e-14   0.20 vs 1.06 s
#   N = 160  6.0840e-13    1.4211e-13   0.49 vs 2.36 s
#
# Up to N = 100 the box sets the ratio at every count from 12 to 100 per
# unit (2.386-2.396e-11 at N = 100); beyond, it is round-off that grows
# with the count.  So the box runs at 20 per unit: more exponentials buy no
# accuracy, and a step of 0.1 still resolves the ramp of width 0.5.  The
# ratio is the same for every multiple of a + a^dag, so the unit
# normalisation of q below is not a frame choice.
@_check("c07c_q_moment_ratio", 1e-10, oracle=True)
def _c07c(s):
    n_wide = s.wide_cfg.n_levels
    q_wide = fock_oracle.position_operator(n_wide, 1.0, 1.0)
    q2_wide = fock_oracle.OperatorMatrix(q_wide.matrix @ q_wide.matrix, q_wide.basis)
    q4_wide = fock_oracle.OperatorMatrix(q2_wide.matrix @ q2_wide.matrix, q_wide.basis)
    dt_wide = fock_oracle.evolve_doubled_thermal(s.osc_quench, 1.0, s.wide_cfg)
    traced = fock_oracle.expectation_single_factor(dt_wide, [q2_wide, q4_wide])
    m2, m4 = traced.real.tolist()
    ratio_dev = 0.0
    for m2_k, m4_k in zip(m2, m4):
        ratio_dev = max(ratio_dev, abs(m4_k / m2_k**2 - 3.0))
    return ratio_dev, f"<q^4>/<q^2>^2 vs the Gaussian value 3, N = {n_wide}"


# -- criterion 8: the two thermal-state constructions agree ---------------
@_check("c08a_thermal_constructions_boson", 1e-8, oracle=True)
def _c08a(s):
    dist = 0.0
    for bw in (0.5, 1.0):
        psi_a, psi_b = fock_oracle.build_thermal_state_doubled(
            bw, 1.0, basis=fock_oracle.boson_doubled(s.n)
        )
        dist = max(dist, float(np.linalg.norm(psi_a.vector - psi_b.vector)))
    return dist, f"series vs squeeze exponential, beta*h*w in (0.5, 1), N = {s.n}"


@_check("c08b_thermal_constructions_fermion", 1e-12, oracle=True)
def _c08b(s):
    fa, fb = fock_oracle.build_thermal_state_doubled(
        1.0, 1.0, basis=fock_oracle.fermion_doubled()
    )
    return float(np.linalg.norm(fa.vector - fb.vector)), "exact 16-dim space"


# -- criterion 9: Bogoliubov constraints on every verification run --------
# the 1 -> 2 tanh quench, projected on the exact omega = 2 frame, and the
# sudden 1 -> 4 formula
@_check("c09a_boson_constraint", 1e-9)
def _c09a(s):
    ref = bogoliubov.ReferenceMode(1.0, 2.0, 10.0)
    overlaps = bogoliubov.boson_overlaps(s.osc_traj, ref)
    constraint = max(c.constraint_deviation for c in overlaps)
    return max(constraint, s.sudden.constraint_deviation), "max | |mu|^2 - |nu|^2 - 1 | across runs"


@_check("c09b_fermion_frame_unitarity", 1e-9)
def _c09b(s):
    b_mat = bogoliubov.fermion_frame_coeffs(
        s.fp_traj.final, 1.0, protocol=s.fermion_pulse, phase_time=7.0
    )
    dev = float(np.max(np.abs(b_mat @ b_mat.conj().T - np.eye(4))))
    return dev, f"|B B^dag - I|_max; production {bogoliubov.production_number(b_mat):.6f}"


# -- criterion 10: adiabatic suppression ----------------------------------
# The worst ratio of successive productions is below 1 exactly when the
# productions fall strictly with the width; a zero production gives inf or
# nan, which fails.
@_check("c10_adiabatic_trend", 1.0)
def _c10(s):
    cfg = replace(s.tight_cfg, grid_points=11)
    productions = []
    for w in (1.0, 2.0, 4.0, 8.0):
        proto = OscillatorProtocol(
            mass=Constant(1.0), omega=make_tanh_ramp(1.0, 2.0, 0.0, w),
            t_i=-16.0 * w, t_f=16.0 * w,
        )
        final = mode_solver.solve_oscillator_mode(proto, cfg).final
        ref = bogoliubov.ReferenceMode(1.0, 2.0, 16.0 * w)
        productions.append(bogoliubov.boson_overlap(final, ref).production)
    worst_ratio = max(b / a for a, b in zip(productions, productions[1:]))
    detail = "widths (1, 2, 4, 8) -> |nu|^2 = " + ", ".join(f"{p:.3e}" for p in productions)
    return worst_ratio, detail


# every name starts with its criterion number, so sorted order is report order
CHECK_NAMES = tuple(sorted(_CHECKS))
ANALYTIC_CHECKS = tuple(name for name in CHECK_NAMES if not _CHECKS[name][1])
ORACLE_CHECKS = tuple(name for name in CHECK_NAMES if _CHECKS[name][1])


def run_all(
    integrator: mode_solver.IntegratorConfig | None = None,
    oracle: fock_oracle.OracleConfig | None = fock_oracle.OracleConfig(),
    *,
    timings: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Execute the full acceptance suite and return one result per check.

    The suite reads the integrator's tolerances and the oracle's ``n_levels``
    and ``substeps_per_unit``; it pins its own grids and temperatures, its
    oracle runs abort at the fixed ``fock_oracle.TAIL_ABORT`` like every
    other, and c07c's wide box runs at
    ``WIDE_BOX_SUBSTEPS_PER_UNIT``.
    ``oracle=None`` skips the oracle checks; an oracle whose runs cannot be
    built (``oracle_configs``) is refused with ``ValueError`` before any
    run.  The runs that several checks share are built on first read; their
    wall time is stored in ``timings["shared_runs"]`` when a ``timings`` dict
    is passed, and each result carries the wall time of its check without it.
    """
    runs = _Runs(integrator, oracle)
    results = []
    for name in CHECK_NAMES:
        tolerance, needs_oracle, measure = _CHECKS[name]
        if needs_oracle and oracle is None:
            result = CheckResult(name, True, math.nan, math.nan, "oracle disabled", skipped=True)
        else:
            started, shared = time.perf_counter(), runs.seconds
            measured, detail, *extra = measure(runs)
            passed = measured < tolerance and all(extra)
            result = CheckResult(
                name, passed, measured, tolerance, detail,
                duration_seconds=time.perf_counter() - started - (runs.seconds - shared),
            )
        results.append(result)
    if timings is not None:
        timings["shared_runs"] = runs.seconds
    return results
