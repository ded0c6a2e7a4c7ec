"""Unit tests for equilibrium and evolved thermal observables."""

import math

import numpy as np
import pytest

from tfdyn import (
    equilibrium_occupation,
    evolved_occupation_boson,
    q_moment,
    theta,
)
from tfdyn.thermal_observables import EXP_ARG_MAX

LN2 = math.log(2.0)

# Frozen equilibrium references:
#   boson  at beta*omega = 1:    1/(e - 1)
#   boson  at beta*omega = ln 2: exactly 1
#   fermion at beta*omega = ln 2: exactly 1/3
N_BOSON_AT_ONE = 0.5819767068693265
THETA_BOSON_LN2 = 0.8813735870195432   # atanh(1/sqrt(2))
THETA_FERMION_LN2 = 0.6154797086703874  # atan(1/sqrt(2))


class TestTheta:
    def test_frozen_boson_mixing_angle(self):
        assert theta(LN2, 1.0, statistics="boson") == pytest.approx(THETA_BOSON_LN2, abs=1e-15)

    def test_frozen_fermion_mixing_angle(self):
        assert theta(LN2, 1.0, statistics="fermion") == pytest.approx(THETA_FERMION_LN2, abs=1e-15)

    def test_boson_angle_reproduces_occupation(self):
        """sinh^2(theta) must equal the Bose-Einstein occupation."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            beta, omega = rng.uniform(0.2, 5.0, size=2)
            th = theta(beta, omega, statistics="boson")
            n = equilibrium_occupation(beta, omega, statistics="boson")
            assert math.sinh(th) ** 2 == pytest.approx(n, rel=1e-12)

    def test_fermion_angle_reproduces_occupation(self):
        """sin^2(theta) must equal the Fermi-Dirac occupation."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            beta, omega = rng.uniform(0.2, 5.0, size=2)
            th = theta(beta, omega, statistics="fermion")
            n = equilibrium_occupation(beta, omega, statistics="fermion")
            assert math.sin(th) ** 2 == pytest.approx(n, rel=1e-12)

    def test_zero_temperature_limit_clamps_to_zero(self):
        assert theta(2 * EXP_ARG_MAX + 1.0, 1.0) == 0.0
        assert theta(2 * EXP_ARG_MAX + 1.0, 1.0, statistics="fermion") == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"beta": -1.0, "omega": 1.0},
        {"beta": 0.0, "omega": 1.0},
        {"beta": 1.0, "omega": -2.0},
        {"beta": 1.0, "omega": math.nan},
        {"beta": math.inf, "omega": 1.0},
    ])
    def test_nonpositive_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            theta(**kwargs)

    def test_unknown_statistics_rejected(self):
        with pytest.raises(ValueError):
            theta(1.0, 1.0, statistics="anyon")

    @pytest.mark.parametrize("x", [1e-20, 1.1e-16])
    def test_boson_angle_refused_where_half_rounds_to_one(self, x):
        """artanh(1) is infinite: a boson b*w whose e^{-b*w/2} rounds to 1
        is refused by name; a fermion's arctan(1) = pi/4 is finite."""
        with pytest.raises(ValueError, match=rf"b\*w = {x} is too small"):
            theta(x, 1.0)
        assert theta(x, 1.0, statistics="fermion") == math.pi / 4
        assert math.isfinite(theta(1.2e-16, 1.0))


class TestEquilibriumOccupation:
    def test_frozen_bose_einstein_value(self):
        assert equilibrium_occupation(1.0, 1.0) == pytest.approx(N_BOSON_AT_ONE, rel=1e-15)

    def test_boson_occupation_of_one(self):
        # beta*omega = ln 2 makes e^x - 1 exactly 1.
        assert equilibrium_occupation(LN2, 1.0, statistics="boson") == pytest.approx(1.0, rel=1e-14)

    def test_frozen_fermi_dirac_value(self):
        assert equilibrium_occupation(LN2, 1.0, statistics="fermion") == pytest.approx(
            1.0 / 3.0, rel=1e-14
        )

    def test_fermion_bounded_by_half(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            beta, omega = rng.uniform(0.05, 10.0, size=2)
            n = equilibrium_occupation(beta, omega, statistics="fermion")
            assert 0.0 < n < 0.5

    def test_zero_temperature_clamp(self):
        assert equilibrium_occupation(2 * EXP_ARG_MAX, 1.0) == 0.0
        assert equilibrium_occupation(2 * EXP_ARG_MAX, 1.0, statistics="fermion") == 0.0

    def test_high_temperature_boson_divergence(self):
        # n ~ 1/(beta omega) for small argument; expm1 keeps it accurate.
        n = equilibrium_occupation(1e-8, 1.0)
        assert n == pytest.approx(1e8, rel=1e-6)
        assert equilibrium_occupation(1e-300, 1.0) == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize(
        "beta, omega, x", [(1e-200, 1e-200, 0.0), (1e-320, 1.0, 1e-320)],
        ids=["b_w_underflows", "occupation_overflows"],
    )
    def test_boson_occupation_refused_where_not_finite(self, beta, omega, x):
        """b*w = 0 (an underflowed product) divides by zero, and below
        about 5.6e-309 1/expm1(b*w) overflows: both are refused by name,
        also where the evolved occupation reads them; a fermion's 1/2 is
        finite."""
        for call in (
            lambda: equilibrium_occupation(beta, omega),
            lambda: evolved_occupation_boson(0.25, beta, omega),
        ):
            with pytest.raises(ValueError, match=rf"b\*w = {x} is too small"):
                call()
        assert equilibrium_occupation(beta, omega, statistics="fermion") == 0.5


class TestEvolvedOccupation:
    def test_frozen_sudden_quench_value(self):
        """|nu|^2 = 9/16 on a unit-occupation bath: 9/16 + (1 + 9/8) * 1 = 2.6875."""
        assert evolved_occupation_boson(0.5625, LN2, 1.0) == pytest.approx(2.6875, rel=1e-14)
        got = evolved_occupation_boson(np.array([0.0, 0.5625]), LN2, 1.0)
        assert got == pytest.approx([1.0, 2.6875], rel=1e-14)

    def test_reduces_to_equilibrium_without_production(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            beta, omega = rng.uniform(0.2, 5.0, size=2)
            assert evolved_occupation_boson(0.0, beta, omega) == pytest.approx(
                equilibrium_occupation(beta, omega), rel=1e-14
            )


class TestQMoments:
    def test_q2_formula(self):
        """<q^2> = |v|^2 (1 + 2 sinh^2 theta) for a Gaussian thermal state."""
        v = 0.3 - 0.4j
        th = 0.7
        expected = abs(v) ** 2 * (1.0 + 2.0 * math.sinh(th) ** 2)
        assert q_moment(1, [v], th) == pytest.approx([expected], rel=1e-14)

    def test_higher_moments_follow_wick_factors(self):
        # <q^{2n}> = (2n-1)!! <q^2>^n; the double factorial of 2n-1 is
        # (2n)! / (2^n n!).
        v = 0.25 + 0.1j
        th = 0.4
        (q2,) = q_moment(1, [v], th)
        for n, double_factorial in ((2, 3.0), (3, 15.0), (4, 105.0)):
            assert q_moment(n, [v], th) == pytest.approx([double_factorial * q2**n], rel=1e-12)

    def test_gaussian_ratio_is_three(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = [complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))]
            th = rng.uniform(0.0, 2.0)
            (q4,), (q2,) = q_moment(2, v, th), q_moment(1, v, th)
            assert q4 / q2**2 == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("bad_n", [0, -1, 1.5, "2"])
    def test_moment_order_must_be_positive_integer(self, bad_n):
        with pytest.raises((ValueError, TypeError)):
            q_moment(bad_n, [0.5], 0.3)


@pytest.mark.parametrize(
    "function, args",
    [
        (theta, (1.0, 1.0, 1.0, "boson")),
        (equilibrium_occupation, (1.0, 1.0, 1.0, "boson")),
        (evolved_occupation_boson, (0.25, 1.0, 1.0, 1.0)),
        (q_moment, (1, [0.5], 0.3, 1.0)),
    ],
    ids=["theta", "equilibrium_occupation", "evolved_occupation_boson", "q_moment"],
)
def test_old_hbar_argument_refused(function, args):
    """Everything here is in units with hbar = 1: a call that still passes
    an hbar after the other arguments fails with TypeError (statistics is
    keyword-only, so a positional hbar cannot be read as it)."""
    with pytest.raises(TypeError):
        function(*args)
