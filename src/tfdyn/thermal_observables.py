"""Closed-form finite-temperature quantities.

The thermal vacuum in the doubled space is a two-mode squeezed state whose
squeeze angle theta(beta) encodes the temperature: tanh(theta) = e^{-b*w/2}
for bosons and tan(theta) = e^{-b*w/2} for fermions.  This module collects
the angle itself, the equilibrium occupations, the post-quench occupation
formula, which builds the ``occupation_evolved`` column of a boson or
oscillator run, and the normal-ordered position moments <q^(2n)>.
Everything here is an arithmetic identity, in units with hbar = 1; the
matching brute-force expectations live in fock_oracle.
"""

from __future__ import annotations

import math

__all__ = [
    "theta",
    "equilibrium_occupation",
    "evolved_occupation_boson",
    "q_moment",
    "EXP_ARG_MAX",
]

# Largest b*omega fed to exp(); e^700 is near the double-precision ceiling.
# Beyond it the zero-temperature limits are returned exactly.
EXP_ARG_MAX = 700.0

_STATISTICS = ("boson", "fermion")


def _exponent(beta: float, omega: float, statistics: str) -> float:
    """b*w, after the refusals that theta and the occupation share."""
    for name, value in (("beta", beta), ("omega", omega)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if statistics not in _STATISTICS:
        raise ValueError(f"unknown statistics {statistics!r}")
    return beta * omega


def theta(beta: float, omega: float, *, statistics: str = "boson") -> float:
    """Squeeze angle of the thermal vacuum.

    Bosons: cosh(theta) = (1 - e^{-b*w})^{-1/2}, i.e.
    theta = artanh(e^{-b*w/2}); fermions: cos(theta) = (1 + e^{-b*w})^{-1/2},
    i.e. theta = arctan(e^{-b*w/2}).  Always >= 0, and -> 0 as T -> 0.
    A boson b*w so small that e^{-b*w/2} rounds to 1 has no finite angle
    and is refused.
    """
    x = _exponent(beta, omega, statistics)
    if x > EXP_ARG_MAX:
        return 0.0
    half = math.exp(-0.5 * x)
    if statistics == "boson" and half == 1.0:
        raise ValueError(f"boson b*w = {x} is too small: e^(-b*w/2) rounds to 1")
    return math.atanh(half) if statistics == "boson" else math.atan(half)


def equilibrium_occupation(beta: float, omega: float, *, statistics: str = "boson") -> float:
    """Mean occupation 1/(e^{b*w} -+ 1): sinh^2(theta) or sin^2(theta).
    A boson b*w so small that the occupation is not finite is refused."""
    x = _exponent(beta, omega, statistics)
    if x > EXP_ARG_MAX:
        return 0.0
    if statistics == "fermion":
        return 1.0 / (math.exp(x) + 1.0)
    occupation = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if math.isinf(occupation):
        raise ValueError(f"boson b*w = {x} is too small: 1/(e^(b*w) - 1) is not finite")
    return occupation


def evolved_occupation_boson(n_pair, beta: float, omega: float):
    """Occupation of the out-mode after a quench that produced |nu|^2 = n_pair.

    n_pair + (1 + 2 n_pair)/(e^{b*w} - 1): the produced pairs plus the
    thermal population amplified by the squeezing.  n_pair is a float or an
    array of them (one per output time), and the result has its type.  beta
    and omega are the *initial* equilibrium parameters.
    """
    return n_pair + (1.0 + 2.0 * n_pair) * equilibrium_occupation(beta, omega)


def q_moment(n: int, v: list, theta: float) -> list:
    """Normal-ordered position moments <q^(2n)> for the boson thermal state.

    (2n)!/(2^n n!) * |v|^(2n) * (1 + 2 sinh^2 theta)^n, with v the mode
    function value at the evaluation time.  The combinatorial prefactor is the
    Gaussian (2n-1)!!, so <q^4>/<q^2>^2 = 3 regardless of v and theta.  It
    takes a list of mode function values, one per output time, and returns
    the list of their moments.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"moment order n must be a positive integer, got {n!r}")
    prefactor = math.factorial(2 * n) / (2**n * math.factorial(n))
    spread = 1.0 + 2.0 * math.sinh(theta) ** 2
    return [prefactor * (abs(x) ** 2 * spread) ** n for x in v]
