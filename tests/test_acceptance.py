"""Acceptance gate: every verification criterion at its stated tolerance.

Runs the full suite once (analytic checks plus truncated-Fock-space oracle
cross-checks) and turns each criterion into one parametrized test.  Run with

    pytest tests/test_acceptance.py -v -s

to see one ``PASS``/``SKIP`` line per criterion with the measured value and
the tolerance it was held to.  Any regression past a stated tolerance fails
the matching test with that line as the message.
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
