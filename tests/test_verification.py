"""Tests of the self-verification suite's bookkeeping.

The physics of each check is exercised by the full run in
``test_acceptance.py``; here the suite's reporting contract is pinned down
cheaply by disabling the brute-force oracle.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from tfdyn import (
    BosonProtocol,
    CheckResult,
    Constant,
    IntegratorConfig,
    OracleConfig,
    OscillatorProtocol,
    ReferenceMode,
    Step,
    bogoliubov,
    fock_oracle,
    make_tanh_ramp,
    mode_solver,
    run_all,
    solve_boson_mode,
    solve_oscillator_mode,
    thermal_observables,
)
from tfdyn.protocols import _OffsetImag, evaluate, initial_frame
from tfdyn.verification import _CHECKS, CHECK_NAMES, _boson_columns, quench_observables


@pytest.fixture(scope="module")
def fast_results():
    return run_all(oracle=None)


@pytest.fixture(scope="module")
def loose_results():
    return run_all(IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6), oracle=None)


class TestSuiteContract:
    def test_every_check_reported_exactly_once(self, fast_results):
        assert tuple(r.name for r in fast_results) == CHECK_NAMES

    def test_oracle_checks_skip_cleanly(self, fast_results):
        skipped = {r.name for r in fast_results if r.skipped}
        # Every oracle-dependent criterion must be marked, never silently passed.
        assert skipped == {
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
        }
        reported = [r.name for r in fast_results if not r.skipped]
        assert len(reported) == 10
        assert set(reported) == set(CHECK_NAMES) - skipped
        for r in fast_results:
            if r.skipped:
                assert math.isnan(r.measured)
                assert r.detail != ""

    def test_analytic_checks_pass_without_oracle(self, fast_results):
        for r in fast_results:
            if not r.skipped:
                assert r.passed, r.line()

    def test_line_format(self, fast_results):
        for r in fast_results:
            line = r.line()
            assert line.startswith(("PASS", "FAIL", "SKIP"))
            assert r.name in line
            if not r.skipped:
                assert "tolerance" in line

    def test_measured_values_are_finite_and_nonnegative(self, fast_results):
        for r in fast_results:
            if not r.skipped:
                assert math.isfinite(r.measured)
                assert r.measured >= 0.0


def _counting(calls: Counter, name: str, real):
    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return counted


class TestSharedRuns:
    """The runs several checks read are built once per suite run: the suite
    makes as many mode solves and oracle evolutions as it has distinct runs."""

    @staticmethod
    def _calls(monkeypatch, **kwargs) -> dict[str, int]:
        """Calls of each solver and evolution, and the matrices passed to the
        oracle's spectral exponential (under ``"exponentials"``)."""
        calls = Counter()
        for module, names in (
            (mode_solver, ("solve_boson_mode", "solve_oscillator_mode", "solve_fermion_modes")),
            (fock_oracle, ("evolve_doubled_thermal",)),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
        expi = fock_oracle._expi_neg_hermitian

        def counted_exponentials(h, dt, hbar):
            calls["exponentials"] += math.prod(h.shape[:-2])
            return expi(h, dt, hbar)

        monkeypatch.setattr(fock_oracle, "_expi_neg_hermitian", counted_exponentials)
        run_all(**kwargs)
        return dict(calls)

    def test_oracle_off(self, monkeypatch):
        # boson c02a; oscillator: the shared 1 -> 2 quench, c05b and c10's four
        # widths; fermion: c02c and the shared pulse of c03b/c09b
        assert self._calls(monkeypatch, oracle=None) == {
            "solve_boson_mode": 1,
            "solve_oscillator_mode": 6,
            "solve_fermion_modes": 2,
        }

    def test_oracle_on(self, monkeypatch):
        # adds the c03a and c04 boson solves, the doubled evolutions of c03a,
        # c03b, c04, c06/c07a/c07b and c07c, c05c's two segment exponentials
        # and c08's three squeeze exponentials.  The constant runs of c03b
        # and c04 take one exponential per block and output interval, and
        # c07c's N = 80 box builds 400 at its fixed 20 per unit.  The
        # exponentials pin the oracle's step count: a suite that ran its
        # shared oracle config at half the configured substeps builds 1,605,
        # and one that ran c07c's box at 100 per unit 3,557.
        oracle = OracleConfig(n_levels=40, substeps_per_unit=20.0)
        assert self._calls(monkeypatch, oracle=oracle) == {
            "solve_boson_mode": 3,
            "solve_oscillator_mode": 6,
            "solve_fermion_modes": 2,
            "evolve_doubled_thermal": 5,
            "exponentials": 1957,
        }


class TestHonestFailure:
    """A degraded integrator must turn checks red, not silently pass."""

    def test_wronskian_conservation_fails_when_sloppy(self, loose_results):
        by_name = {r.name: r for r in loose_results}
        r = by_name["c02b_oscillator_wronskian_conservation"]
        assert not r.skipped and not r.passed

    def test_failures_carry_measured_values(self, loose_results):
        failed = [r for r in loose_results if not r.skipped and not r.passed]
        assert failed
        for r in failed:
            assert math.isfinite(r.measured)
            assert r.measured > r.tolerance


class TestComplexBranchFault:
    """c08's squeeze route is the suite's one caller of the complex branch of
    the oracle's spectral exponential, since every suite protocol has real
    couplings: that branch run backwards in time must turn c08 red."""

    def test_time_reversed_complex_exponential_fails_c08(self, monkeypatch):
        expi = fock_oracle._expi_neg_hermitian

        def time_reversed(h, dt, hbar):
            return expi(h, -dt if np.any(np.imag(h)) else dt, hbar)

        monkeypatch.setattr(fock_oracle, "_expi_neg_hermitian", time_reversed)
        shared = SimpleNamespace(n=50, hbar=1.0)
        for name in ("c08a_thermal_constructions_boson", "c08b_thermal_constructions_fermion"):
            tolerance, _, measure = _CHECKS[name]
            measured, _ = measure(shared)
            assert measured >= tolerance, name


class TestQuenchObservables:
    def test_hbar_reaches_the_oracle(self):
        """The analytic columns and the oracle's evolution read the same
        hbar.  The thermal angle depends on beta*hbar*omega, so an oracle
        left at hbar = 1 would miss by O(1) at hbar = 2."""
        protocol = BosonProtocol(
            omega0=Constant(1.0), omega_plus=make_tanh_ramp(0.0, 0.3, 1.0, 0.1),
            t_i=0.0, t_f=2.0,
        )
        traj = solve_boson_mode(protocol, IntegratorConfig(grid_points=11))
        oracle = OracleConfig(n_levels=40, substeps_per_unit=100.0, grid_points=11)
        columns, _ = quench_observables(protocol, traj, 1.0, 2.0, oracle)
        diffs = {name.split(" [")[0]: values for name, values in columns}
        for name in ("occupation_abs_diff", "q2_abs_diff", "q4_abs_diff"):
            assert np.max(diffs[name]) < 1e-6, name


class TestCheckResult:
    def test_pass_line(self):
        r = CheckResult("demo", True, 1e-12, 1e-9, "context")
        assert r.line() == "PASS  demo: measured 1.000e-12 vs tolerance 1e-09  [context]"

    def test_fail_line(self):
        r = CheckResult("demo", False, 2e-6, 1e-9)
        assert r.line().startswith("FAIL  demo")

    def test_skip_line(self):
        r = CheckResult("demo", True, math.nan, math.nan, "oracle disabled", skipped=True)
        assert r.line() == "SKIP  demo: oracle disabled"

    def test_duration_stays_out_of_repr_and_equality(self):
        fast = CheckResult("demo", True, 1e-12, 1e-9, "context", duration_seconds=0.1)
        slow = CheckResult("demo", True, 1e-12, 1e-9, "context", duration_seconds=2.0)
        assert fast == slow and repr(fast) == repr(slow)
        assert "duration" not in repr(fast)


# ---------------------------------------------------------------------------
# the per-row observables against frozen copies of the numpy-scalar code
# ---------------------------------------------------------------------------

def _frozen_boson_overlap(mode, ref):
    """bogoliubov.boson_overlap as it was, on numpy complex scalars."""
    u = ref.u(mode.t)
    u_dot = ref.u_dot(mode.t)
    v_c = np.conj(mode.v)
    p_c = mode.mass * np.conj(mode.v_dot)
    mu = 1j * (ref.m_ref * v_c * u_dot - p_c * u)
    nu = 1j * (ref.m_ref * v_c * np.conj(u_dot) - p_c * np.conj(u))
    return complex(mu), complex(nu)


def _frozen_q_moment(n, v, theta, hbar=1.0):
    prefactor = math.factorial(2 * n) / (2**n * math.factorial(n))
    width = hbar * abs(v) ** 2 * (1.0 + 2.0 * math.sinh(theta) ** 2)
    return prefactor * width**n


def _frozen_analytic_columns(protocol, traj, beta, hbar):
    """_boson_columns' oracle-free columns as they were: one SimpleNamespace
    per row, numpy scalars in the overlap and the boson's v."""
    m_i, omega_i = initial_frame(protocol)
    theta = thermal_observables.theta(beta, omega_i, hbar, "boson")
    n_eq = thermal_observables.equilibrium_occupation(beta, omega_i, hbar, "boson")
    if protocol.kind == "oscillator":
        s_f = evaluate(protocol, protocol.t_f)
        ref = ReferenceMode(s_f.mass, s_f.omega, protocol.t_f)
    scale = 1.0 / math.sqrt(2.0 * m_i * omega_i)
    n_pts = len(traj.t)
    nu_sq, q2, q4 = np.empty(n_pts), np.empty(n_pts), np.empty(n_pts)
    for k in range(n_pts):
        mode = traj.sample(k)
        if protocol.kind == "oscillator":
            nu_sq[k] = abs(_frozen_boson_overlap(mode, ref)[1]) ** 2
            v = mode.v
        else:
            nu_sq[k] = abs(mode.f_plus) ** 2
            v = np.conj(mode.f_minus - mode.f_plus) * scale
        q2[k] = _frozen_q_moment(1, v, theta, hbar)
        q4[k] = _frozen_q_moment(2, v, theta, hbar)
    return [
        ("t [time]", traj.t),
        ("occupation_equilibrium [1]", np.full(n_pts, n_eq)),
        ("nu_sq [1]", nu_sq),
        ("occupation_evolved [1]", nu_sq + (1.0 + 2.0 * nu_sq) * n_eq),
        ("q2 [length^2]", q2),
        ("q4 [length^4]", q4),
    ]


def _signed(rng):
    """A float that is +0.0, -0.0 or a number of any scale and sign."""
    pick = rng.integers(6)
    if pick < 2:
        return (0.0, -0.0)[pick]
    return float(rng.standard_normal() * 10.0 ** rng.uniform(-6, 3))


_OBSERVABLE_RUNS = {
    "oscillator_tanh": OscillatorProtocol(
        Constant(1.0), make_tanh_ramp(1.0, 2.0, 5.0, 0.5), t_i=0.0, t_f=10.0
    ),
    "oscillator_mass_ramp": OscillatorProtocol(
        make_tanh_ramp(1.0, 2.5, 5.0, 0.5), make_tanh_ramp(1.3, 0.6, 4.0, 0.7),
        t_i=0.0, t_f=10.0, mass_dot=make_tanh_ramp(1.0, 2.5, 5.0, 0.5).derivative,
    ),
    "oscillator_jump": OscillatorProtocol(
        Constant(0.7), Step(1.0, 3.0, 4.0), t_i=0.0, t_f=8.0, jump_times=(4.0,)
    ),
    "boson_complex_coupling": BosonProtocol(
        make_tanh_ramp(1.0, 1.4, 5.0, 0.5),
        _OffsetImag(make_tanh_ramp(0.0, 0.3, 5.0, 0.5), -0.0), t_i=0.0, t_f=10.0,
    ),
}


class TestFrozenObservables:
    """The observables path on Python floats against frozen copies of the
    numpy-scalar code it replaced, byte for byte."""

    def test_boson_overlap(self):
        rng = np.random.default_rng(20260815)
        for _ in range(3000):
            ref = ReferenceMode(
                float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)),
                float(rng.uniform(-10.0, 10.0)),
            )
            mode = SimpleNamespace(
                t=float(rng.uniform(-20.0, 20.0)), v=complex(_signed(rng), _signed(rng)),
                v_dot=complex(_signed(rng), _signed(rng)), mass=float(rng.uniform(0.2, 5.0)),
            )
            got = bogoliubov.boson_overlap(mode, ref)
            want = _frozen_boson_overlap(mode, ref)
            assert np.array([got.mu, got.nu]).tobytes() == np.array(want).tobytes(), mode

    def test_q_moment_lists(self):
        rng = np.random.default_rng(20260816)
        values = [complex(_signed(rng), _signed(rng)) for _ in range(500)]
        for n in (1, 2, 3):
            for theta, hbar in ((0.0, 1.0), (0.37, 1.0), (1.2, 0.25)):
                got = thermal_observables.q_moment(n, values, theta, hbar)
                assert got == [thermal_observables.q_moment(n, v, theta, hbar) for v in values]
                want = [_frozen_q_moment(n, v, theta, hbar) for v in values]
                assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("run", sorted(_OBSERVABLE_RUNS))
    def test_analytic_columns(self, run):
        protocol = _OBSERVABLE_RUNS[run]
        solve = solve_oscillator_mode if protocol.kind == "oscillator" else solve_boson_mode
        traj = solve(protocol, IntegratorConfig(grid_points=301))
        for beta, hbar in ((1.0, 1.0), (0.3, 2.0)):
            got = _boson_columns(protocol, traj, beta, hbar, None)
            want = _frozen_analytic_columns(protocol, traj, beta, hbar)
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, values), (_, frozen) in zip(got, want):
                assert values.dtype == frozen.dtype == float, name
                assert values.tobytes() == frozen.tobytes(), name

    def test_overlaps_are_the_overlap_of_each_sample(self):
        protocol = _OBSERVABLE_RUNS["oscillator_mass_ramp"]
        traj = solve_oscillator_mode(protocol, IntegratorConfig(grid_points=101))
        ref = ReferenceMode(2.5, 0.6, 10.0)
        got = bogoliubov.boson_overlaps(traj, ref)
        assert got == [bogoliubov.boson_overlap(traj.sample(k), ref) for k in range(101)]
