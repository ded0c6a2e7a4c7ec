"""Acceptance gate: every verification criterion at its stated tolerance.

Runs the full suite once (analytic checks plus truncated-Fock-space oracle
cross-checks) and turns each criterion into one parametrized test.  Run with

    pytest tests/test_acceptance.py -v -s

to see one ``PASS``/``SKIP`` line per criterion with the measured value and
the tolerance it was held to.  Any regression past a stated tolerance fails
the matching test with that line as the message.  A second gate holds each
measured value near its recorded value (``RECORDED``), so a regression that
stays under its tolerance still fails.
"""

import numpy as np
import pytest

from tfdyn import parse_config, run_all, run_quench
from tfdyn.verification import CHECK_NAMES

# The oscillator quench of criteria 6 and 7, as a `tfdyn run` config at the
# suite's beta, grid and default integrator and oracle settings.
SUITE_QUENCH = """
[run]
kind = quench
beta = 1.0

[protocol]
kind = oscillator
family = tanh
value_initial = 1.0
value_final = 2.0
center = 5.0
width = 0.5
t_i = 0.0
t_f = 10.0

[integrator]
grid_points = 101
"""

# Each check's measured value at the default settings.  The table may only go
# down: a change that lowers a value may lower its entry to the new value, and
# no entry is ever raised.
RECORDED = {
    "c01a_equilibrium_boson_analytic": 0.0,
    "c01b_equilibrium_fermion_analytic": 0.0,
    "c01c_equilibrium_boson_oracle": 0.0,
    "c01d_equilibrium_fermion_oracle": 0.0,
    "c02a_boson_commutator_conservation": 3.5434533085521025e-10,
    "c02b_oscillator_wronskian_conservation": 2.6522239959803073e-10,
    "c02c_fermion_anticommutator_conservation": 3.4764091605410385e-10,
    "c03a_thermal_condition_boson": 2.8561868898297015e-08,
    "c03b_thermal_condition_fermion": 9.204369169638613e-13,
    "c04_constant_distribution": 6.661338147750939e-16,
    "c05a_sudden_production_analytic": 0.0,
    "c05b_sudden_production_ode": 1.0302521202820714e-07,
    "c05c_sudden_production_oracle": 2.220446049250313e-16,
    "c06_evolved_distribution": 6.103249017286316e-10,
    "c07a_q_moments_equilibrium": 2.220446049250313e-16,
    "c07b_q_moments_midquench": 6.950080511103351e-10,
    "c07c_q_moment_ratio": 9.059419880941277e-14,
    "c08a_thermal_constructions_boson": 1.266081860952093e-15,
    "c08b_thermal_constructions_fermion": 1.1102230246251565e-16,
    "c09a_boson_constraint": 2.652225106203332e-10,
    "c09b_fermion_frame_unitarity": 8.215650382226158e-14,
    "c10_adiabatic_trend": 0.002450832336972538,
}
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def results():
    """Full verification run at default tolerances, keyed by criterion."""
    found = run_all()
    return {result.name: result for result in found}


def test_suite_reports_every_criterion_in_order(results):
    assert tuple(results) == CHECK_NAMES


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_criterion(results, name):
    result = results[name]
    print(result.line())
    assert result.passed, result.line()


def test_recorded_values_cover_every_criterion():
    assert tuple(RECORDED) == CHECK_NAMES


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_measured_value_ratchet(results, name):
    """Each measured value stays within 2x of its recorded value, a margin for
    round-off that differs between hosts; an exact zero stays exactly zero.
    The bound is max(2x, 4 eps) for the values at round-off (c05c and c07a,
    1 eps, and c08b, recorded at 0.5 eps and now read at about 2.6 eps by the
    spectral squeeze exponential), which one more rounding could double; for
    every other value 2x is the larger."""
    measured, recorded = results[name].measured, RECORDED[name]
    if recorded == 0.0:
        assert measured == 0.0, results[name].line()
    else:
        bound = max(2.0 * recorded, 4.0 * EPS)
        assert measured <= bound, f"{results[name].line()}; recorded {recorded:.4e}"


def test_run_columns_are_what_the_suite_measures(results, tmp_path):
    """c06, c07a and c07b read the observables.csv columns of the same
    quench: the CSV's differences equal the checks' measured values."""
    run_quench(parse_config(SUITE_QUENCH, "quench"), tmp_path)
    lines = (tmp_path / "observables.csv").read_text().splitlines()
    header = [name.split(" [")[0] for name in lines[0].split(",")]
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    column = dict(zip(header, rows.T))
    assert column["occupation_abs_diff"][-1] == results["c06_evolved_distribution"].measured
    for name, k in (("c07a_q_moments_equilibrium", 0), ("c07b_q_moments_midquench", 50)):
        worst = max(column["q2_abs_diff"][k], column["q4_abs_diff"][k])
        assert worst == results[name].measured
