"""In/out Bogoliubov coefficients from solved invariant-operator modes.

A quench drags the invariant operators away from the static ladder operators
of the final Hamiltonian.  Writing a(t) = mu * a_f + nu * a_f^dag against a
static reference frame turns the whole history into two complex numbers; the
out-vacuum occupation of the in-mode is |nu|^2.  This module extracts (mu, nu)
from an oscillator mode function, provides the analytic sudden-quench
reference, and builds the 4x4 frame matrix for the fermion pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .mode_solver import FermionModeState, OscillatorMode
from .protocols import FermionProtocol, evaluate

__all__ = [
    "ReferenceMode",
    "BogoliubovCoefficients",
    "boson_overlap",
    "sudden_coeffs",
    "fermion_frame_coeffs",
    "production_number",
    "FRAME_DIAGONAL_TOL",
]

# A fermion frame extraction at a non-diagonal Hamiltonian would produce
# coefficients that satisfy no constraint; such requests are rejected outright.
FRAME_DIAGONAL_TOL = 1e-6


@dataclass(frozen=True)
class ReferenceMode:
    """Static frame u(t) = exp(-i*omega_ref*(t - phase_time))/sqrt(2*m_ref*omega_ref)."""

    m_ref: float
    omega_ref: float
    phase_time: float = 0.0

    def __post_init__(self) -> None:
        if not (self.m_ref > 0.0 and math.isfinite(self.m_ref)):
            raise ValueError(f"m_ref must be positive and finite, got {self.m_ref}")
        if not (self.omega_ref > 0.0 and math.isfinite(self.omega_ref)):
            raise ValueError(f"omega_ref must be positive and finite, got {self.omega_ref}")

    def u(self, t: float) -> complex:
        return cmath.exp(-1j * self.omega_ref * (t - self.phase_time)) / math.sqrt(
            2.0 * self.m_ref * self.omega_ref
        )

    def u_dot(self, t: float) -> complex:
        return -1j * self.omega_ref * self.u(t)


@dataclass(frozen=True)
class BogoliubovCoefficients:
    """Mixing a(t) = mu * a_f + nu * a_f^dag (boson) or its fermion analogue.

    Bosons satisfy |mu|^2 - |nu|^2 = 1, fermions |mu|^2 + |nu|^2 = 1; the
    deviation is exposed rather than enforced.
    """

    mu: complex
    nu: complex
    statistics: str = "boson"

    def __post_init__(self) -> None:
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"unknown statistics {self.statistics!r}")

    @property
    def production(self) -> float:
        return abs(self.nu) ** 2

    @property
    def constraint_deviation(self) -> float:
        sign = -1.0 if self.statistics == "boson" else 1.0
        return abs(abs(self.mu) ** 2 + sign * abs(self.nu) ** 2 - 1.0)


def boson_overlap(mode: OscillatorMode, ref: ReferenceMode) -> BogoliubovCoefficients:
    """Project an oscillator mode onto a static reference frame.

    mu = i*(m_ref v* u' - m v'* u) and nu = i*(m_ref v* u'* - m v'* u*),
    evaluated at mode.t.  Each term pairs a position amplitude with a
    momentum amplitude (m v' for the mode, m_ref u' for the frame), so the
    result is a Bogoliubov transformation, |mu|^2 - |nu|^2 = 1, whether or
    not the two masses agree.
    """
    u = ref.u(mode.t)
    u_dot = ref.u_dot(mode.t)
    v_c = np.conj(mode.v)
    p_c = mode.mass * np.conj(mode.v_dot)
    mu = 1j * (ref.m_ref * v_c * u_dot - p_c * u)
    nu = 1j * (ref.m_ref * v_c * np.conj(u_dot) - p_c * np.conj(u))
    return BogoliubovCoefficients(complex(mu), complex(nu), "boson")


def sudden_coeffs(omega_i: float, omega_f: float) -> BogoliubovCoefficients:
    """Analytic coefficients for an instantaneous frequency jump.

    Matching v and v' across the jump (mass unchanged) gives
    mu = (w_f + w_i)/(2 sqrt(w_i w_f)) and nu = (w_f - w_i)/(2 sqrt(w_i w_f)),
    so |mu|^2 - |nu|^2 = 1 identically and |nu|^2 is symmetric in w_i, w_f.
    """
    if not (omega_i > 0.0 and omega_f > 0.0):
        raise ValueError(f"frequencies must be positive, got ({omega_i}, {omega_f})")
    denom = 2.0 * math.sqrt(omega_i * omega_f)
    return BogoliubovCoefficients(
        complex((omega_f + omega_i) / denom), complex((omega_f - omega_i) / denom), "boson"
    )


def fermion_frame_coeffs(
    state: FermionModeState,
    omega0_f: float,
    *,
    protocol: FermionProtocol | None = None,
    phase_time: float | None = None,
) -> np.ndarray:
    """4x4 matrix B expressing (a_i, a_i^dag, b_i, b_i^dag) in the final frame.

    Valid only when the Hamiltonian is diagonal at state.t, where the
    coefficients rotate with the free phases exp(+/- i*omega0_f*t); those are
    stripped relative to ``phase_time`` (default: state.t) so that B is
    constant once a quench has ended.  Pass the protocol to have the
    diagonal-frame precondition checked; B*B^dag = identity up to integrator
    drift.
    """
    if protocol is not None:
        s = evaluate(protocol, state.t)
        for name, value in (("omega_plus", s.omega_plus), ("omega_minus", s.omega_minus)):
            if abs(value) > FRAME_DIAGONAL_TOL:
                raise ValueError(
                    f"{name}(t={state.t}) = {value}: the Hamiltonian is not diagonal, "
                    "so no static final frame exists here"
                )
        if abs(s.omega0 - omega0_f) > FRAME_DIAGONAL_TOL * max(1.0, abs(omega0_f)):
            raise ValueError(
                f"omega0(t={state.t}) = {s.omega0} does not match omega0_f = {omega0_f}"
            )
    if phase_time is None:
        phase_time = state.t
    phase = cmath.exp(1j * omega0_f * (state.t - phase_time))

    def row(f_minus: complex, f_plus: complex, g_minus: complex, g_plus: complex):
        # f- and g+ rotate as e^{+i w0 t}, f+ and g- as e^{-i w0 t}.
        return [f_minus / phase, f_plus * phase, g_minus * phase, g_plus / phase]

    r_a = row(state.f_a_minus, state.f_a_plus, state.g_a_minus, state.g_a_plus)
    r_b = row(state.f_b_minus, state.f_b_plus, state.g_b_minus, state.g_b_plus)
    b = np.empty((4, 4), dtype=complex)
    b[0] = r_a
    b[1] = [np.conj(r_a[1]), np.conj(r_a[0]), np.conj(r_a[3]), np.conj(r_a[2])]
    b[2] = r_b
    b[3] = [np.conj(r_b[1]), np.conj(r_b[0]), np.conj(r_b[3]), np.conj(r_b[2])]
    return b


def production_number(coeffs: BogoliubovCoefficients | np.ndarray) -> float:
    """Out-vacuum occupation of the in-mode.

    For boson coefficients this is |nu|^2; for a fermion frame matrix it is
    the weight of the creation-operator columns in the a_i row,
    |B[0,1]|^2 + |B[0,3]|^2, which lies in [0, 1].
    """
    if isinstance(coeffs, BogoliubovCoefficients):
        return abs(coeffs.nu) ** 2
    b = np.asarray(coeffs)
    if b.shape != (4, 4):
        raise ValueError(f"expected a 4x4 frame matrix, got shape {b.shape}")
    return float(abs(b[0, 1]) ** 2 + abs(b[0, 3]) ** 2)
