"""Mode equations for invariant annihilation operators.

For a quadratic Hamiltonian H(t), an invariant operator a(t) satisfies the
Liouville-von Neumann equation  i*hbar*da/dt + [a(t), H(t)] = 0  and carries
exact solutions of the Schroedinger equation through arbitrary parameter
sweeps.  Expanding a(t) on the static ladder operators turns this into small
linear ODE systems:

* boson:      a(t) = f-(t) a + f+(t) a^dag, with  i dV/dt + M V = 0,
              V = (f-, f+),  M = [[w0, -w+*], [w+, -w0]];
* oscillator: a(t) = (i/sqrt(hbar)) [v* p - m v'* q], where the mode function
              solves  v'' + (m'/m) v' + w^2 v = 0  with unit Wronskian
              m (v'* v - v' v*) = i;
* fermion:    a(t) = fa- a + fa+ a^dag + ga- b + ga+ b^dag (and likewise
              b(t)), organised into W = (f- + f+, f- - f+)/sqrt(2) and
              Z = (g- + g+, g- - g+)/sqrt(2) which obey
              i dW/dt = -w0 s1 W + N Z,   i dZ/dt = +w0 s1 Z + N^dag W,
              a Hermitian 4x4 system per channel.

All solvers integrate with an adaptive explicit Runge-Kutta scheme (DOP853)
with an embedded error estimate, restart at declared jump times, and return
samples on a uniform grid together with a drift report for the conserved
quantities.  Drift is reported, never renormalised away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import DOP853

from .errors import IntegrationError
from .protocols import (
    INITIAL_DIAGONAL_TOL,
    BosonProtocol,
    FermionProtocol,
    OscillatorProtocol,
    check_initial_state,
    evaluate,
)

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "BosonModeVector",
    "OscillatorMode",
    "FermionModeState",
    "BosonModeTrajectory",
    "OscillatorModeTrajectory",
    "FermionModeTrajectory",
    "build_boson_generator",
    "build_fermion_generator",
    "solve_boson_mode",
    "solve_oscillator_mode",
    "solve_fermion_modes",
    "INITIAL_DIAGONAL_TOL",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and sampling of the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    grid_points: int = 1001

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class IntegratorStats:
    """Accepted step count, estimated rejections and RHS evaluations.

    ``rejected_steps`` is reconstructed from the evaluation count (12 stages
    per DOP853 attempt, 3 extra per dense-output interpolation); the solver
    does not expose rejections directly, so treat it as an estimate.
    """

    steps: int
    rejected_steps: int
    function_evaluations: int
    segments: int


# ---------------------------------------------------------------------------
# mode-state types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BosonModeVector:
    """Invariant-operator coefficients a(t) = f- a + f+ a^dag at one time."""

    t: float
    f_minus: complex
    f_plus: complex

    @property
    def commutator_deviation(self) -> float:
        """| |f-|^2 - |f+|^2 - 1 |, zero when [a(t), a(t)^dag] = 1."""
        return abs(abs(self.f_minus) ** 2 - abs(self.f_plus) ** 2 - 1.0)


@dataclass(frozen=True)
class OscillatorMode:
    """Oscillator mode function sample (v, v') plus the instantaneous mass."""

    t: float
    v: complex
    v_dot: complex
    mass: float

    @property
    def wronskian(self) -> complex:
        return self.mass * (np.conj(self.v_dot) * self.v - self.v_dot * np.conj(self.v))


@dataclass(frozen=True)
class FermionModeState:
    """Coefficients of both fermion invariant operators at one time.

    a(t) = fa- a + fa+ a^dag + ga- b + ga+ b^dag and b(t) likewise with the
    (fb, gb) set.
    """

    t: float
    f_a_minus: complex
    f_a_plus: complex
    g_a_minus: complex
    g_a_plus: complex
    f_b_minus: complex
    f_b_plus: complex
    g_b_minus: complex
    g_b_plus: complex


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def build_boson_generator(omega0: float, omega_plus: complex) -> np.ndarray:
    """2x2 generator M of the boson mode equation i dV/dt + M V = 0.

    M = w0*s3 - ((w+* - w+)/2)*s1 - (i(w+* + w+)/2)*s2, which works out to
    [[w0, -w+*], [w+, -w0]].  s3 M is Hermitian for real w0, which is what
    conserves |f-|^2 - |f+|^2.
    """
    wp = complex(omega_plus)
    return np.array(
        [[complex(omega0), -np.conj(wp)], [wp, -complex(omega0)]], dtype=complex
    )


def build_fermion_generator(
    omega0: float, omega_plus: complex, omega_minus: complex
) -> np.ndarray:
    """Hermitian 4x4 generator A of i d/dt (W, Z) = A (W, Z).

    The blocks are A = [[-w0*s1, N], [N^dag, +w0*s1]] with
    N = [[i Im(w+ + w-), Re(w+ + w-)], [Re(w- - w+), i Im(w- - w+)]].
    The opposite signs of the w0*s1 blocks reflect that the g-coefficients
    rotate against the f-coefficients (the b mode carries energy -hbar*w0).
    """
    wp = complex(omega_plus)
    wm = complex(omega_minus)
    n_block = np.array(
        [
            [1j * (wp + wm).imag, (wp + wm).real],
            [(wm - wp).real, 1j * (wm - wp).imag],
        ],
        dtype=complex,
    )
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = -omega0 * SIGMA1
    a[2:, 2:] = omega0 * SIGMA1
    a[:2, 2:] = n_block
    a[2:, :2] = n_block.conj().T
    return a


# ---------------------------------------------------------------------------
# integration core
# ---------------------------------------------------------------------------

def _integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_i: float,
    t_f: float,
    y0: np.ndarray,
    jump_times: tuple[float, ...],
    config: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray, IntegratorStats]:
    """Integrate across [t_i, t_f], restarting at declared jumps.

    Returns the uniform sample grid, the state at each grid point, and the
    integrator statistics.  Coefficients are never evaluated exactly at a
    segment's right end when that end is a jump (the protocol is
    right-continuous there, which would leak the wrong side into the last
    Runge-Kutta stage); the evaluation time is nudged left by ~1e-12 instead.
    """
    grid = np.linspace(t_i, t_f, config.grid_points)
    y = np.asarray(y0, dtype=complex)
    out = np.empty((config.grid_points, y.size), dtype=complex)
    out[0] = y
    filled = 1

    bounds = [t_i, *jump_times, t_f]
    accepted = 0
    nfev = 0
    dense_calls = 0

    for a, b in zip(bounds[:-1], bounds[1:]):
        if b < t_f:  # interior jump: keep stage evaluations on the left side
            delta = max(1e-12, 1e-14 * abs(b))
            seg_rhs = lambda t, yv, _b=b, _d=delta: rhs(min(t, _b - _d), yv)
        else:
            seg_rhs = rhs
        # Arithmetic blow-ups inside the RHS (overflowing coefficients,
        # runtime-invalid protocol values) are integration failures, not
        # programming errors; the config itself was validated before entry.
        try:
            solver = DOP853(
                seg_rhs, a, y, b,
                rtol=config.rel_tol, atol=config.abs_tol, max_step=config.max_step,
            )
        except (OverflowError, FloatingPointError, ZeroDivisionError, ValueError) as exc:
            raise IntegrationError(
                f"cannot start integration on segment [{a}, {b}]: {exc}"
            ) from exc
        while solver.status == "running":
            try:
                solver.step()
            except (OverflowError, FloatingPointError, ZeroDivisionError, ValueError) as exc:
                raise IntegrationError(
                    f"integration failed at t ~ {solver.t:.6g} "
                    f"(segment [{a}, {b}]): {exc}"
                ) from exc
            if solver.status == "failed":
                raise IntegrationError(
                    f"integration failed at t ~ {solver.t:.6g} (segment [{a}, {b}])"
                )
            accepted += 1
            t_new = solver.t
            tol = 1e-12 * (abs(t_new) + 1.0)
            if filled < grid.size and grid[filled] <= t_new + tol:
                dense = solver.dense_output()
                dense_calls += 1
                while filled < grid.size and grid[filled] <= t_new + tol:
                    out[filled] = dense(min(grid[filled], t_new))
                    filled += 1
        nfev += solver.nfev
        y = solver.y.copy()

    if filled == grid.size - 1:  # end point not caught by the tolerance window
        out[-1] = y
        filled += 1
    if filled != grid.size:
        raise IntegrationError(
            f"integration ended with {filled} of {grid.size} grid points sampled"
        )
    out[-1] = y  # exact final state, not the interpolant

    attempts = max(accepted, (nfev - 2 - 3 * dense_calls) // 12)
    stats = IntegratorStats(
        steps=accepted,
        rejected_steps=max(0, attempts - accepted),
        function_evaluations=nfev,
        segments=len(bounds) - 1,
    )
    return grid, out, stats


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class BosonModeTrajectory:
    t: np.ndarray
    f_minus: np.ndarray
    f_plus: np.ndarray
    drift: dict[str, float]
    stats: IntegratorStats
    protocol: BosonProtocol

    def commutator_deviation(self) -> np.ndarray:
        return np.abs(np.abs(self.f_minus) ** 2 - np.abs(self.f_plus) ** 2 - 1.0)

    def sample(self, k: int) -> BosonModeVector:
        return BosonModeVector(float(self.t[k]), complex(self.f_minus[k]), complex(self.f_plus[k]))

    @property
    def final(self) -> BosonModeVector:
        return self.sample(-1)


@dataclass
class OscillatorModeTrajectory:
    t: np.ndarray
    v: np.ndarray
    v_dot: np.ndarray
    mass: np.ndarray
    drift: dict[str, float]
    stats: IntegratorStats
    protocol: OscillatorProtocol

    def wronskian_deviation(self) -> np.ndarray:
        w = self.mass * (np.conj(self.v_dot) * self.v - self.v_dot * np.conj(self.v))
        return np.abs(w - 1j)

    def sample(self, k: int) -> OscillatorMode:
        return OscillatorMode(
            float(self.t[k]), complex(self.v[k]), complex(self.v_dot[k]), float(self.mass[k])
        )

    @property
    def final(self) -> OscillatorMode:
        return self.sample(-1)


_FERMION_FIELDS = (
    "f_a_minus", "f_a_plus", "g_a_minus", "g_a_plus",
    "f_b_minus", "f_b_plus", "g_b_minus", "g_b_plus",
)


@dataclass
class FermionModeTrajectory:
    t: np.ndarray
    f_a_minus: np.ndarray
    f_a_plus: np.ndarray
    g_a_minus: np.ndarray
    g_a_plus: np.ndarray
    f_b_minus: np.ndarray
    f_b_plus: np.ndarray
    g_b_minus: np.ndarray
    g_b_plus: np.ndarray
    drift: dict[str, float]
    stats: IntegratorStats
    protocol: FermionProtocol

    def sample(self, k: int) -> FermionModeState:
        return FermionModeState(
            float(self.t[k]),
            *(complex(getattr(self, name)[k]) for name in _FERMION_FIELDS),
        )

    @property
    def final(self) -> FermionModeState:
        return self.sample(-1)

    def norm_a_deviation(self) -> np.ndarray:
        return np.abs(
            np.abs(self.f_a_minus) ** 2 + np.abs(self.f_a_plus) ** 2
            + np.abs(self.g_a_minus) ** 2 + np.abs(self.g_a_plus) ** 2 - 1.0
        )

    def norm_b_deviation(self) -> np.ndarray:
        return np.abs(
            np.abs(self.f_b_minus) ** 2 + np.abs(self.f_b_plus) ** 2
            + np.abs(self.g_b_minus) ** 2 + np.abs(self.g_b_plus) ** 2 - 1.0
        )

    def anticommutator_ab_deviation(self) -> np.ndarray:
        """|{a(t), b(t)}| = |fa- fb+ + fa+ fb- + ga- gb+ + ga+ gb-|, conserved at 0."""
        return np.abs(
            self.f_a_minus * self.f_b_plus + self.f_a_plus * self.f_b_minus
            + self.g_a_minus * self.g_b_plus + self.g_a_plus * self.g_b_minus
        )

    def anticommutator_adag_b_deviation(self) -> np.ndarray:
        """|{a(t)^dag, b(t)}|, conserved at 0."""
        return np.abs(
            np.conj(self.f_a_minus) * self.f_b_minus + np.conj(self.f_a_plus) * self.f_b_plus
            + np.conj(self.g_a_minus) * self.g_b_minus + np.conj(self.g_a_plus) * self.g_b_plus
        )


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def solve_boson_mode(
    protocol: BosonProtocol, config: IntegratorConfig | None = None
) -> BosonModeTrajectory:
    """Integrate the boson mode vector V = (f-, f+) from V(t_i) = (1, 0).

    The initial condition identifies a(t_i) with the static operator a, which
    requires the initial Hamiltonian to be diagonal: |w+(t_i)| must not exceed
    ``INITIAL_DIAGONAL_TOL``.
    """
    config = config or IntegratorConfig()
    check_initial_state(protocol)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        s = evaluate(protocol, t)
        m = build_boson_generator(s.omega0, s.omega_plus)
        return 1j * (m @ y)

    grid, out, stats = _integrate(
        rhs, protocol.t_i, protocol.t_f, np.array([1.0, 0.0], dtype=complex),
        protocol.jump_times, config,
    )
    traj = BosonModeTrajectory(
        t=grid, f_minus=out[:, 0], f_plus=out[:, 1],
        drift={}, stats=stats, protocol=protocol,
    )
    traj.drift = {"commutator": float(np.max(traj.commutator_deviation()))}
    return traj


def solve_oscillator_mode(
    protocol: OscillatorProtocol, config: IntegratorConfig | None = None
) -> OscillatorModeTrajectory:
    """Integrate v'' + (m'/m) v' + w^2 v = 0 from the adiabatic initial data.

    v(t_i) = 1/sqrt(2 m w), v'(t_i) = -i w v(t_i) (both evaluated at t_i),
    which makes the conserved Wronskian m (v'* v - v' v*) exactly i.  Requires
    mass_dot(t_i) = 0 and w(t_i) > 0.
    """
    config = config or IntegratorConfig()
    check_initial_state(protocol)
    s0 = evaluate(protocol, protocol.t_i)
    v0 = 1.0 / math.sqrt(2.0 * s0.mass * s0.omega)
    y0 = np.array([v0, -1j * s0.omega * v0], dtype=complex)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        s = evaluate(protocol, t)
        v, v_dot = y
        return np.array(
            [v_dot, -(s.mass_dot / s.mass) * v_dot - s.omega**2 * v], dtype=complex
        )

    grid, out, stats = _integrate(
        rhs, protocol.t_i, protocol.t_f, y0, protocol.jump_times, config
    )
    mass = np.array([evaluate(protocol, float(t)).mass for t in grid])
    traj = OscillatorModeTrajectory(
        t=grid, v=out[:, 0], v_dot=out[:, 1], mass=mass,
        drift={}, stats=stats, protocol=protocol,
    )
    traj.drift = {"wronskian": float(np.max(traj.wronskian_deviation()))}
    return traj


def solve_fermion_modes(
    protocol: FermionProtocol, config: IntegratorConfig | None = None
) -> FermionModeTrajectory:
    """Integrate both fermion invariant operators from the static initial data.

    fa-(t_i) = 1 and gb-(t_i) = 1 (all other coefficients zero), i.e.
    W_a = (1, 1)/sqrt(2), Z_a = 0, W_b = 0, Z_b = (1, 1)/sqrt(2).  Requires a
    diagonal initial Hamiltonian: |w+(t_i)| and |w-(t_i)| below
    ``INITIAL_DIAGONAL_TOL``.
    """
    config = config or IntegratorConfig()
    check_initial_state(protocol)

    # y = (W_a, Z_a, W_b, Z_b) flattened; both channels obey the same system.
    y0 = np.zeros(8, dtype=complex)
    y0[0] = y0[1] = 1.0 / _SQRT2       # W_a
    y0[6] = y0[7] = 1.0 / _SQRT2       # Z_b

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        s = evaluate(protocol, t)
        gen = build_fermion_generator(s.omega0, s.omega_plus, s.omega_minus)
        dy = np.empty_like(y)
        dy[:4] = -1j * (gen @ y[:4])
        dy[4:] = -1j * (gen @ y[4:])
        return dy

    grid, out, stats = _integrate(
        rhs, protocol.t_i, protocol.t_f, y0, protocol.jump_times, config
    )

    def coeff(w1, w2):
        return (w1 + w2) / _SQRT2, (w1 - w2) / _SQRT2

    f_a_minus, f_a_plus = coeff(out[:, 0], out[:, 1])
    g_a_minus, g_a_plus = coeff(out[:, 2], out[:, 3])
    f_b_minus, f_b_plus = coeff(out[:, 4], out[:, 5])
    g_b_minus, g_b_plus = coeff(out[:, 6], out[:, 7])

    traj = FermionModeTrajectory(
        t=grid,
        f_a_minus=f_a_minus, f_a_plus=f_a_plus, g_a_minus=g_a_minus, g_a_plus=g_a_plus,
        f_b_minus=f_b_minus, f_b_plus=f_b_plus, g_b_minus=g_b_minus, g_b_plus=g_b_plus,
        drift={}, stats=stats, protocol=protocol,
    )
    traj.drift = {
        "norm_a": float(np.max(traj.norm_a_deviation())),
        "norm_b": float(np.max(traj.norm_b_deviation())),
        "anticommutator_ab": float(np.max(traj.anticommutator_ab_deviation())),
        "anticommutator_adag_b": float(np.max(traj.anticommutator_adag_b_deviation())),
    }
    return traj
