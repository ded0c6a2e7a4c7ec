"""Tests of the self-verification suite's bookkeeping.

The physics of each check is exercised by the full run in
``test_acceptance.py``; here the suite's reporting contract is pinned down
cheaply by disabling the brute-force oracle.
"""

import math
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from tfdyn import (
    BosonProtocol,
    CheckResult,
    Constant,
    FermionProtocol,
    IntegratorConfig,
    LinearRamp,
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
    solve_fermion_modes,
    solve_oscillator_mode,
    thermal_observables,
)
from tfdyn.protocols import _OffsetImag, evaluate, initial_frame
from tfdyn.verification import (
    _CHECKS,
    ANALYTIC_CHECKS,
    CHECK_NAMES,
    WIDE_BOX_SUBSTEPS_PER_UNIT,
    _boson_columns,
    _Runs,
    oracle_configs,
    quench_observables,
)


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


# small enough that the shared oracle run takes a fraction of a second
CHEAP_ORACLE = OracleConfig(n_levels=40, substeps_per_unit=20.0)


class TestSharedRuns:
    """The runs several checks read are built once per suite run, each on
    first read: the suite makes as many mode solves and oracle evolutions as
    it has distinct runs, and a check pays only for the runs it reads."""

    @staticmethod
    def _counted(monkeypatch) -> Counter:
        """Calls of each solver and evolution, and the matrices passed to the
        oracle's spectral exponential (under ``"exponentials"``), from now on."""
        calls = Counter()
        for module, names in (
            (mode_solver, ("solve_boson_mode", "solve_oscillator_mode", "solve_fermion_modes")),
            (fock_oracle, ("evolve_doubled_thermal",)),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
        expi = fock_oracle._expi_neg_hermitian

        def counted_exponentials(h, dt):
            calls["exponentials"] += math.prod(h.shape[:-2])
            return expi(h, dt)

        monkeypatch.setattr(fock_oracle, "_expi_neg_hermitian", counted_exponentials)
        return calls

    @classmethod
    def _calls(cls, monkeypatch, **kwargs) -> dict[str, int]:
        """The counts of one ``run_all(**kwargs)``."""
        calls = cls._counted(monkeypatch)
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

    def test_settings_and_run_free_checks_build_no_run(self, monkeypatch):
        calls = self._counted(monkeypatch)
        runs = _Runs(None, OracleConfig(n_levels=50))
        assert not calls
        for name in ("c01a_equilibrium_boson_analytic", "c08a_thermal_constructions_boson"):
            _CHECKS[name][2](runs)
        assert dict(calls) == {"exponentials": 2}  # c08a's two squeeze exponentials

    def test_criteria_6_and_7_share_one_solve_and_one_evolution(self, monkeypatch):
        calls = self._counted(monkeypatch)
        runs = _Runs(None, CHEAP_ORACLE)
        for name in ("c06_evolved_distribution", "c07a_q_moments_equilibrium",
                     "c07b_q_moments_midquench"):
            _CHECKS[name][2](runs)
        assert calls["solve_oscillator_mode"] == 1
        assert calls["evolve_doubled_thermal"] == 1
        assert sum(calls[name] for name in ("solve_boson_mode", "solve_fermion_modes")) == 0

    def test_a_run_built_inside_another_is_timed_once(self):
        """``q`` builds ``osc_traj`` on its way: their time counts once."""
        runs = _Runs(None, CHEAP_ORACLE)
        started = time.perf_counter()
        runs.q
        elapsed = time.perf_counter() - started
        assert 0.0 < runs.seconds <= elapsed

    def test_a_check_reads_the_same_values_on_its_own(self, fast_results):
        """A value does not depend on which runs other checks built first."""
        suite = {r.name: r for r in fast_results}
        for name in ANALYTIC_CHECKS:
            measured, detail, *_ = _CHECKS[name][2](_Runs(None, None))
            expected = suite[name]
            assert float(measured).hex() == expected.measured.hex(), name
            assert detail == expected.detail, name


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

        def time_reversed(h, dt):
            return expi(h, -dt if np.any(np.imag(h)) else dt)

        monkeypatch.setattr(fock_oracle, "_expi_neg_hermitian", time_reversed)
        runs = _Runs(None, OracleConfig(n_levels=50))
        for name in ("c08a_thermal_constructions_boson", "c08b_thermal_constructions_fermion"):
            tolerance, _, measure = _CHECKS[name]
            measured, _ = measure(runs)
            assert measured >= tolerance, name


def _fail(*args, **kwargs):
    raise AssertionError("called before the refusal")


class TestOracleConfigs:
    def test_shared_and_wide_runs(self):
        """The shared runs keep the run's resolution on the 101-point grid;
        c07c's box doubles the levels at its own substeps on 5 points."""
        shared, wide = oracle_configs(OracleConfig(n_levels=50, substeps_per_unit=250.0))
        assert shared == OracleConfig(n_levels=50, substeps_per_unit=250.0, grid_points=101)
        assert wide == OracleConfig(
            n_levels=100, substeps_per_unit=WIDE_BOX_SUBSTEPS_PER_UNIT, grid_points=5
        )

    def test_impossible_wide_box_refused_before_any_run(self, monkeypatch):
        """At 129 levels c07c's box would need 258, past the doubled space's
        cap: run_all refuses before any mode solve or evolution."""
        monkeypatch.setattr(fock_oracle, "evolve_doubled_thermal", _fail)
        for name in ("solve_boson_mode", "solve_oscillator_mode", "solve_fermion_modes"):
            monkeypatch.setattr(mode_solver, name, _fail)
        with pytest.raises(ValueError, match="c07c at 258 levels"):
            run_all(oracle=OracleConfig(n_levels=129))


class TestQuenchObservables:
    @pytest.mark.parametrize(
        "protocol, solve",
        [
            (BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=2.0), solve_boson_mode),
            (
                OscillatorProtocol(Constant(1.0), Constant(1.0), t_i=0.0, t_f=2.0),
                solve_oscillator_mode,
            ),
            (
                FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=2.0),
                solve_fermion_modes,
            ),
        ],
        ids=["boson", "oscillator", "fermion"],
    )
    def test_oracle_grid_must_be_the_trajectorys(self, protocol, solve, monkeypatch):
        """An oracle sampling another grid than the trajectory's is refused
        before it evolves anything, and so is the old call that passed an
        hbar before the oracle configuration."""
        traj = solve(protocol, IntegratorConfig(grid_points=11))
        monkeypatch.setattr(fock_oracle, "evolve_doubled_thermal", _fail)
        with pytest.raises(ValueError, match="samples 21 points but the trajectory has 11"):
            quench_observables(traj, 1.0, oracle=OracleConfig(n_levels=20, grid_points=21))
        with pytest.raises(TypeError):
            quench_observables(traj, 1.0, 1.0, OracleConfig(n_levels=20, grid_points=11))

    def test_the_oracle_runs_the_trajectorys_protocol(self):
        """The doubled run covers the trajectory's own window, [0, 2] here,
        on its grid."""
        protocol = OscillatorProtocol(
            Constant(1.0), make_tanh_ramp(1.0, 1.5, 1.0, 0.2), t_i=0.0, t_f=2.0
        )
        traj = solve_oscillator_mode(protocol, IntegratorConfig(grid_points=11))
        oracle = OracleConfig(substeps_per_unit=100.0, grid_points=11)
        columns, doubled = quench_observables(traj, 1.0, oracle=oracle)
        assert doubled.t.tobytes() == traj.t.tobytes()
        assert columns[0][1] is traj.t

    @pytest.mark.parametrize(
        "mass, omega, t_f",
        [
            (LinearRamp(1.0, 1.8, 0.0, 2.0), Constant(1.3), 2.0),
            (make_tanh_ramp(1.0, 3.0, 0.0, 0.3), make_tanh_ramp(1.3, 0.7, 0.0, 0.4), 3.0),
        ],
        ids=["linear_mass", "tanh_mass_and_omega"],
    )
    def test_mass_moving_at_t_i_matches_the_oracle(self, mass, omega, t_f):
        """The initial data and the Gibbs state read m and w at t_i alone,
        so a mass that already moves there needs nothing more: the mode
        solver and the oracle agree to about 1e-11 at rel_tol 1e-12."""
        protocol = OscillatorProtocol(mass, omega, t_i=0.0, t_f=t_f)
        traj = solve_oscillator_mode(protocol, IntegratorConfig(rel_tol=1e-12, grid_points=21))
        assert np.max(traj.deviation("wronskian")) <= 1e-10
        oracle = OracleConfig(n_levels=60, grid_points=21)
        columns, _ = quench_observables(traj, 1.0, oracle=oracle)
        diffs = {name.split(" [")[0]: values for name, values in columns}
        for name in ("occupation_abs_diff", "q2_abs_diff", "q4_abs_diff"):
            assert np.max(diffs[name]) <= 1e-9, name


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


def _frozen_q_moment(n, v, theta):
    prefactor = math.factorial(2 * n) / (2**n * math.factorial(n))
    width = abs(v) ** 2 * (1.0 + 2.0 * math.sinh(theta) ** 2)
    return prefactor * width**n


def _frozen_analytic_columns(protocol, traj, beta):
    """_boson_columns' oracle-free columns as they were: one SimpleNamespace
    per row, numpy scalars in the overlap and the boson's v."""
    m_i, omega_i = initial_frame(protocol)
    theta = thermal_observables.theta(beta, omega_i)
    n_eq = thermal_observables.equilibrium_occupation(beta, omega_i)
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
        q2[k] = _frozen_q_moment(1, v, theta)
        q4[k] = _frozen_q_moment(2, v, theta)
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
        t_i=0.0, t_f=10.0,
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
            for theta in (0.0, 0.37, 1.2):
                got = thermal_observables.q_moment(n, values, theta)
                want = [_frozen_q_moment(n, v, theta) for v in values]
                assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("run", sorted(_OBSERVABLE_RUNS))
    def test_analytic_columns(self, run):
        protocol = _OBSERVABLE_RUNS[run]
        solve = solve_oscillator_mode if protocol.kind == "oscillator" else solve_boson_mode
        traj = solve(protocol, IntegratorConfig(grid_points=301))
        for beta in (1.0, 0.3):
            got = _boson_columns(traj, beta, None)
            want = _frozen_analytic_columns(protocol, traj, beta)
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
