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
from types import SimpleNamespace

import numpy as np

from .protocols import FermionProtocol, sampler

__all__ = [
    "ReferenceMode",
    "BogoliubovCoefficients",
    "boson_overlap",
    "boson_overlaps",
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
    """Boson mixing a(t) = mu * a_f + nu * a_f^dag.

    The coefficients satisfy |mu|^2 - |nu|^2 = 1; the deviation is exposed
    rather than enforced.  The fermion counterpart is the 4x4 frame matrix of
    ``fermion_frame_coeffs``.
    """

    mu: complex
    nu: complex

    @property
    def production(self) -> float:
        return abs(self.nu) ** 2

    @property
    def constraint_deviation(self) -> float:
        return abs(abs(self.mu) ** 2 - abs(self.nu) ** 2 - 1.0)


def boson_overlap(mode: SimpleNamespace, ref: ReferenceMode) -> BogoliubovCoefficients:
    """Project an oscillator mode sample (any record with ``t, v, v_dot,
    mass``) onto a static reference frame.

    mu = i*(m_ref v* u' - m v'* u) and nu = i*(m_ref v* u'* - m v'* u*),
    evaluated at mode.t.  Each term pairs a position amplitude with a
    momentum amplitude (m v' for the mode, m_ref u' for the frame), so the
    result is a Bogoliubov transformation, |mu|^2 - |nu|^2 = 1, whether or
    not the two masses agree.
    """
    return _overlap(ref, -1j * ref.omega_ref, mode.t, mode.v, mode.v_dot, mode.mass)


def boson_overlaps(traj, ref: ReferenceMode) -> list[BogoliubovCoefficients]:
    """``boson_overlap`` at every grid point of an oscillator trajectory."""
    rate = -1j * ref.omega_ref  # u' = rate * u, as ReferenceMode.u_dot forms it
    return [
        _overlap(ref, rate, *row)
        for row in zip(traj.t.tolist(), traj.v.tolist(), traj.v_dot.tolist(), traj.mass.tolist())
    ]


def _overlap(
    ref: ReferenceMode, rate: complex, t: float, v: complex, v_dot: complex, mass: float
) -> BogoliubovCoefficients:
    """mu and nu on Python floats, in the real operations of numpy's complex
    scalar arithmetic: each real factor r acts as r + 0j on the conjugate,
    and the result is multiplied by 1j."""
    u = ref.u(t)
    ud = rate * u
    # m_ref v* and m v'*
    ar, ai = ref.m_ref * v.real + 0.0 * v.imag, 0.0 * v.real - ref.m_ref * v.imag
    pr, pi = mass * v_dot.real + 0.0 * v_dot.imag, 0.0 * v_dot.real - mass * v_dot.imag
    # (a u' - p u) and (a u'* - p u*)
    mr = (ar * ud.real - ai * ud.imag) - (pr * u.real - pi * u.imag)
    mi = (ar * ud.imag + ai * ud.real) - (pr * u.imag + pi * u.real)
    nr = (ar * ud.real + ai * ud.imag) - (pr * u.real + pi * u.imag)
    ni = (ai * ud.real - ar * ud.imag) - (pi * u.real - pr * u.imag)
    return BogoliubovCoefficients(
        complex(0.0 * mr - mi, 0.0 * mi + mr), complex(0.0 * nr - ni, 0.0 * ni + nr)
    )


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
        complex((omega_f + omega_i) / denom), complex((omega_f - omega_i) / denom)
    )


def fermion_frame_coeffs(
    state: SimpleNamespace,
    omega0_f: float,
    *,
    protocol: FermionProtocol | None = None,
    phase_time: float | None = None,
) -> np.ndarray:
    """4x4 matrix B expressing (a_i, a_i^dag, b_i, b_i^dag) in the final frame.

    ``state`` is any record with ``t`` and the eight fermion coefficients
    (``f_a_minus`` ... ``g_b_plus``), such as a fermion trajectory's sample.
    Valid only when the Hamiltonian is diagonal at state.t, where the
    coefficients rotate with the free phases exp(+/- i*omega0_f*t); those are
    stripped relative to ``phase_time`` (default: state.t) so that B is
    constant once a quench has ended.  Pass the protocol to have the
    diagonal-frame precondition checked; B*B^dag = identity up to integrator
    drift.
    """
    if protocol is not None:
        omega0, omega_plus, omega_minus = sampler(protocol)(state.t)
        for name, value in (("omega_plus", omega_plus), ("omega_minus", omega_minus)):
            if abs(value) > FRAME_DIAGONAL_TOL:
                raise ValueError(
                    f"{name}(t={state.t}) = {value}: the Hamiltonian is not diagonal, "
                    "so no static final frame exists here"
                )
        if abs(omega0 - omega0_f) > FRAME_DIAGONAL_TOL * max(1.0, abs(omega0_f)):
            raise ValueError(
                f"omega0(t={state.t}) = {omega0} does not match omega0_f = {omega0_f}"
            )
    if phase_time is None:
        phase_time = state.t
    phase = cmath.exp(1j * omega0_f * (state.t - phase_time))

    b = np.empty((4, 4), dtype=complex)
    for i, channel in enumerate(("a", "b")):
        f_minus, f_plus, g_minus, g_plus = (
            getattr(state, f"{c}_{channel}_{s}") for c in "fg" for s in ("minus", "plus")
        )
        # f- and g+ rotate as e^{+i w0 t}, f+ and g- as e^{-i w0 t}.
        r = [f_minus / phase, f_plus * phase, g_minus * phase, g_plus / phase]
        b[2 * i] = r
        b[2 * i + 1] = np.conj([r[1], r[0], r[3], r[2]])
    return b


def production_number(frame: np.ndarray) -> float:
    """Out-vacuum occupation of the in-mode, read off the 4x4 fermion frame
    matrix of ``fermion_frame_coeffs``: the weight of the creation-operator
    columns in the a_i row, |B[0,1]|^2 + |B[0,3]|^2, which lies in [0, 1].
    The boson counterpart is ``BogoliubovCoefficients.production``.
    """
    b = np.asarray(frame)
    if b.shape != (4, 4):
        raise ValueError(f"expected a 4x4 frame matrix, got shape {b.shape}")
    return float(abs(b[0, 1]) ** 2 + abs(b[0, 3]) ** 2)
