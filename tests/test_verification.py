"""Tests of the self-verification suite's bookkeeping.

The physics of each check is exercised by the full run in
``test_acceptance.py``; here the suite's reporting contract is pinned down
cheaply by disabling the brute-force oracle.
"""

import math
from collections import Counter

import numpy as np
import pytest

from tfdyn import (
    BosonProtocol,
    CheckResult,
    Constant,
    IntegratorConfig,
    OracleConfig,
    fock_oracle,
    make_tanh_ramp,
    mode_solver,
    run_all,
    solve_boson_mode,
)
from tfdyn.verification import CHECK_NAMES, quench_observables


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
        calls = Counter()
        for module, names in (
            (mode_solver, ("solve_boson_mode", "solve_oscillator_mode", "solve_fermion_modes")),
            (fock_oracle, ("evolve_doubled_thermal", "evolve_unitary")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
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
        # c03b, c04, c06/c07a/c07b and c07c, and c05c's two unitaries
        oracle = OracleConfig(n_levels=40, substeps_per_unit=20.0)
        assert self._calls(monkeypatch, oracle=oracle) == {
            "solve_boson_mode": 3,
            "solve_oscillator_mode": 6,
            "solve_fermion_modes": 2,
            "evolve_doubled_thermal": 5,
            "evolve_unitary": 2,
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
