"""Mode equations for invariant annihilation operators.

For a quadratic Hamiltonian H(t), in units with hbar = 1, an invariant
operator a(t) satisfies the Liouville-von Neumann equation
i*da/dt + [a(t), H(t)] = 0  and carries exact solutions of the Schroedinger
equation through arbitrary parameter sweeps.  Expanding a(t) on the static ladder operators turns this into small
linear ODE systems:

* boson:      a(t) = f-(t) a + f+(t) a^dag, with  i dV/dt + M V = 0,
              V = (f-, f+),  M = [[w0, -w+*], [w+, -w0]];
* oscillator: a(t) = i [v* p - m v'* q], where the mode function
              and its momentum pi = m v' solve  v' = pi/m,  pi' = -m w^2 v
              with unit Wronskian  pi* v - pi v* = i; v and pi, not v', stay
              continuous across a sudden jump of m or w;
* fermion:    a(t) = fa- a + fa+ a^dag + ga- b + ga+ b^dag (and likewise
              b(t)), organised into W = (f- + f+, f- - f+)/sqrt(2) and
              Z = (g- + g+, g- - g+)/sqrt(2) which obey
              i dW/dt = -w0 s1 W + N Z,   i dZ/dt = +w0 s1 Z + N^dag W,
              a Hermitian 4x4 system per channel.

All solvers integrate with tfdyn's own DOP853 (``_dop853``: the Dormand-Prince
8(5,3) pair with its embedded error estimate and 7th-degree dense output, in
the arithmetic of ``scipy.integrate.DOP853`` operation for operation), restart
at declared jump times, and return one ``ModeTrajectory`` for every kind:
named coefficient columns on a uniform grid together with a drift report for
the kind's conserved quantities.  Drift is reported, never renormalised away.
A sample is a plain record of ``t`` and the kind's columns; its readers (the
oracle, the Bogoliubov projections) take any record that carries the
coefficients they need, by name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._dop853 import Dop853
from .errors import IntegrationError
from .protocols import (
    INITIAL_DIAGONAL_TOL,
    BosonProtocol,
    FermionProtocol,
    OscillatorProtocol,
    Protocol,
    check_initial_state,
    sampler,
)

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "ModeTrajectory",
    "build_boson_generator",
    "build_fermion_generator",
    "solve_boson_mode",
    "solve_oscillator_mode",
    "solve_fermion_modes",
    "INITIAL_DIAGONAL_TOL",
    "MAX_RHS_EVALUATIONS",
]

_SQRT2 = math.sqrt(2.0)

# The fermion columns, in modes.csv order: a(t) = fa- a + fa+ a^dag + ga- b +
# ga+ b^dag, then b(t) likewise with the (fb, gb) set.
_FERMION_COLUMNS = (
    "f_a_minus", "f_a_plus", "g_a_minus", "g_a_plus",
    "f_b_minus", "f_b_plus", "g_b_minus", "g_b_plus",
)


# The most right-hand-side evaluations one solve may spend, over all its
# segments.  The acceptance suite's largest solve takes ~26,000; a coefficient
# with an undeclared pole shrinks the step until it collapses, which can take
# several hundred thousand evaluations first.
MAX_RHS_EVALUATIONS = 200_000

# Below 100 machine epsilons a relative tolerance asks for more digits than
# the stages' rounding can deliver.
REL_TOL_FLOOR = 100 * sys.float_info.epsilon


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerance and sampling of the adaptive integrator: DOP853 scales each
    component's error by ``rel_tol / 100 + rel_tol * |y|``."""

    rel_tol: float = 1e-10
    grid_points: int = 1001

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if not self.rel_tol >= REL_TOL_FLOOR:
            raise ValueError(
                f"rel_tol must be at least {REL_TOL_FLOOR!r} (100 machine epsilons), "
                f"got {self.rel_tol!r}"
            )
        # an infinite tolerance passes the bound above and would accept
        # every step
        if not self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite, got {self.rel_tol!r}")


@dataclass(frozen=True)
class IntegratorStats:
    """Work of one solve, summed over its segments.

    ``steps`` counts accepted steps and ``rejected_steps`` the attempts the
    error test refused, both counted by the stepper as it runs.
    ``function_evaluations`` counts RHS calls: two to start each segment,
    12 per attempt and 3 per dense-output interpolant.
    """

    steps: int
    rejected_steps: int
    function_evaluations: int
    segments: int


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def build_boson_generator(omega0: float, omega_plus: complex) -> np.ndarray:
    """2x2 generator M of the boson mode equation i dV/dt + M V = 0.

    M = w0*s3 - ((w+* - w+)/2)*s1 - (i(w+* + w+)/2)*s2, which works out to
    [[w0, -w+*], [w+, -w0]].  s3 M is Hermitian for real w0, which is what
    conserves |f-|^2 - |f+|^2.
    """
    w0, wp = complex(omega0), complex(omega_plus)
    return np.array([[w0, complex(-wp.real, wp.imag)], [wp, -w0]])


def _times_sigma1(x: float) -> tuple[complex, complex]:
    """x s1's zero and unit entries with the signed zeros of numpy's product
    (x + 0j)(s + 0j)."""
    return complex(x * 0.0 - 0.0, x * 0.0 + 0.0), complex(x - 0.0, x * 0.0 + 0.0)


def build_fermion_generator(
    omega0: float, omega_plus: complex, omega_minus: complex
) -> np.ndarray:
    """Hermitian 4x4 generator A of i d/dt (W, Z) = A (W, Z).

    The blocks are A = [[-w0*s1, N], [N^dag, +w0*s1]] with
    N = [[i Im(w+ + w-), Re(w+ + w-)], [Re(w- - w+), i Im(w- - w+)]].
    The opposite signs of the w0*s1 blocks reflect that the g-coefficients
    rotate against the f-coefficients (the b mode carries energy -w0).
    """
    wp = complex(omega_plus)
    wm = complex(omega_minus)
    n00, n01 = 1j * (wp + wm).imag, complex((wp + wm).real)
    n10, n11 = complex((wm - wp).real), 1j * (wm - wp).imag
    mz, mo = _times_sigma1(float(-omega0))
    pz, po = _times_sigma1(float(omega0))
    return np.array([
        [mz, mo, n00, n01],
        [mo, mz, n10, n11],
        [n00.conjugate(), n10.conjugate(), pz, po],
        [n01.conjugate(), n11.conjugate(), po, pz],
    ])


# ---------------------------------------------------------------------------
# integration core
# ---------------------------------------------------------------------------

def _integrate(
    rhs: Callable[[float, list[complex]], np.ndarray],
    protocol: Protocol,
    y0: np.ndarray,
    config: IntegratorConfig | None,
) -> tuple[np.ndarray, np.ndarray, IntegratorStats]:
    """Integrate across the protocol window, restarting at declared jumps.

    Returns the uniform sample grid, the state at each grid point, and the
    integrator statistics.  Coefficients are never evaluated exactly at a
    segment's right end when that end is a jump (the protocol is
    right-continuous there, which would leak the wrong side into the last
    Runge-Kutta stage); the evaluation time is nudged left by ~1e-12 instead.
    A solve that spends more than ``MAX_RHS_EVALUATIONS`` RHS evaluations
    raises ``IntegrationError`` at the time it reached.
    """
    config = config or IntegratorConfig()
    t_i, t_f = protocol.t_i, protocol.t_f
    grid = np.linspace(t_i, t_f, config.grid_points)
    times = grid.tolist()
    y = np.asarray(y0, dtype=complex)
    out = np.empty((config.grid_points, y.size), dtype=complex)
    out[0] = y
    filled = 1

    bounds = [t_i, *protocol.jump_times, t_f]
    steps = rejected = nfev = 0

    for a, b in zip(bounds[:-1], bounds[1:]):
        if b < t_f:  # interior jump: keep stage evaluations on the left side
            delta = max(1e-12, 1e-14 * abs(b))
            seg_rhs = lambda t, yv, _b=b, _d=delta: rhs(min(t, _b - _d), yv)
        else:
            seg_rhs = rhs
        # A collapsing step size and arithmetic blow-ups (overflowing
        # coefficients or error norms, invalid values: numpy raises on the
        # first) are integration failures, not programming errors; the config
        # itself was validated before entry.
        t_new = a
        try:
            with np.errstate(over="raise", invalid="raise"):
                solver = Dop853(seg_rhs, a, y, b, config.rel_tol, config.rel_tol / 100)
                while solver.t < b:
                    solver.step()
                    t_new = solver.t
                    tol = 1e-12 * (abs(t_new) + 1.0)
                    if filled < grid.size and times[filled] <= t_new + tol:
                        dense = solver.dense_output()
                        while filled < grid.size and times[filled] <= t_new + tol:
                            out[filled] = dense(min(times[filled], t_new))
                            filled += 1
                    if nfev + solver.nfev > MAX_RHS_EVALUATIONS:
                        raise IntegrationError(
                            f"the solve exceeded {MAX_RHS_EVALUATIONS} right-hand-side evaluations"
                        )
        except (
            IntegrationError, OverflowError, FloatingPointError, ZeroDivisionError, ValueError
        ) as exc:
            raise IntegrationError(
                f"integration failed at t ~ {t_new:.6g} (segment [{a}, {b}]): {exc}"
            ) from exc
        steps += solver.steps
        rejected += solver.rejected
        nfev += solver.nfev
        y = solver.y.copy()

    if filled != grid.size:
        raise IntegrationError(
            f"integration ended with {filled} of {grid.size} grid points sampled"
        )
    out[-1] = y  # exact final state, not the interpolant

    stats = IntegratorStats(
        steps=steps,
        rejected_steps=rejected,
        function_evaluations=nfev,
        segments=len(bounds) - 1,
    )
    return grid, out, stats


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _commutator(traj: ModeTrajectory) -> np.ndarray:
    return np.abs(np.abs(traj.f_minus) ** 2 - np.abs(traj.f_plus) ** 2 - 1.0)


def _wronskian(traj: ModeTrajectory) -> np.ndarray:
    w = traj.mass * (np.conj(traj.v_dot) * traj.v - traj.v_dot * np.conj(traj.v))
    return np.abs(w - 1j)


def _norm(channel: str) -> Callable[[ModeTrajectory], np.ndarray]:
    """||f-|^2 + |f+|^2 + |g-|^2 + |g+|^2 - 1| of one channel, conserved at 0."""
    names = [name for name in _FERMION_COLUMNS if f"_{channel}_" in name]
    return lambda traj: np.abs(sum(np.abs(traj.columns[name]) ** 2 for name in names) - 1.0)


def _anticommutator_ab(traj: ModeTrajectory) -> np.ndarray:
    """|{a(t), b(t)}| = |fa- fb+ + fa+ fb- + ga- gb+ + ga+ gb-|, conserved at 0."""
    return np.abs(
        traj.f_a_minus * traj.f_b_plus + traj.f_a_plus * traj.f_b_minus
        + traj.g_a_minus * traj.g_b_plus + traj.g_a_plus * traj.g_b_minus
    )


def _anticommutator_adag_b(traj: ModeTrajectory) -> np.ndarray:
    """|{a(t)^dag, b(t)}|, conserved at 0."""
    return np.abs(
        np.conj(traj.f_a_minus) * traj.f_b_minus + np.conj(traj.f_a_plus) * traj.f_b_plus
        + np.conj(traj.g_a_minus) * traj.g_b_minus + np.conj(traj.g_a_plus) * traj.g_b_plus
    )


# kind -> conserved-quantity meters
_KINDS: dict[str, dict[str, Callable[[ModeTrajectory], np.ndarray]]] = {
    "boson": {"commutator": _commutator},
    "oscillator": {"wronskian": _wronskian},
    "fermion": {
        "norm_a": _norm("a"),
        "norm_b": _norm("b"),
        "anticommutator_ab": _anticommutator_ab,
        "anticommutator_adag_b": _anticommutator_adag_b,
    },
}


@dataclass
class ModeTrajectory:
    """One solve of any kind: named coefficient series on the sample grid.

    ``columns`` holds the kind's series in modes.csv order (``f_minus,
    f_plus``; ``v, v_dot, mass``; or the eight fermion coefficients), and
    each reads as an attribute (``traj.f_minus``, ``traj.v``).  ``drift``
    maps every conserved-quantity meter of the kind to its largest deviation.
    """

    t: np.ndarray
    columns: dict[str, np.ndarray]
    stats: IntegratorStats
    protocol: Protocol
    drift: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        meters = _KINDS[self.protocol.kind]
        self.drift = {name: float(np.max(self.deviation(name))) for name in meters}

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def deviation(self, meter: str) -> np.ndarray:
        """The deviation of one conserved quantity at every grid point."""
        return _KINDS[self.protocol.kind][meter](self)

    def sample(self, k: int) -> SimpleNamespace:
        """Grid point ``k`` as a record: ``t`` and one scalar per column."""
        return SimpleNamespace(
            t=float(self.t[k]), **{name: s[k].item() for name, s in self.columns.items()}
        )

    @property
    def final(self) -> SimpleNamespace:
        return self.sample(-1)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _require(protocol: Protocol, kind: str) -> None:
    """Refuse another kind's protocol, then non-standard initial data."""
    got = getattr(protocol, "kind", type(protocol).__name__)
    if got != kind:
        raise TypeError(f"the {kind} mode solver needs a {kind} protocol, got {got}")
    check_initial_state(protocol)


def solve_boson_mode(
    protocol: BosonProtocol, config: IntegratorConfig | None = None
) -> ModeTrajectory:
    """Integrate the boson mode vector V = (f-, f+) from V(t_i) = (1, 0).

    The initial condition identifies a(t_i) with the static operator a, which
    requires the initial Hamiltonian to be diagonal: |w+(t_i)| must not exceed
    ``INITIAL_DIAGONAL_TOL``.
    """
    _require(protocol, "boson")
    sample = sampler(protocol)

    def rhs(t: float, y: list[complex]) -> np.ndarray:
        m = build_boson_generator(*sample(t))
        return 1j * (m @ np.asarray(y))

    grid, out, stats = _integrate(rhs, protocol, np.array([1.0, 0.0], dtype=complex), config)
    return ModeTrajectory(grid, {"f_minus": out[:, 0], "f_plus": out[:, 1]}, stats, protocol)


def solve_oscillator_mode(
    protocol: OscillatorProtocol, config: IntegratorConfig | None = None
) -> ModeTrajectory:
    """Integrate v' = pi/m, pi' = -m w^2 v from the adiabatic initial data.

    v(t_i) = 1/sqrt(2 m w), v'(t_i) = -i w v(t_i) (both evaluated at t_i),
    which makes the conserved Wronskian m (v'* v - v' v*) exactly i.  The
    state (v, pi) carries over a declared jump unchanged, and the ``v_dot``
    column is pi/m.  Requires w(t_i) > 0; the mass may move at t_i.
    """
    _require(protocol, "oscillator")
    sample = sampler(protocol)
    mass0, omega0 = sample(protocol.t_i)
    v0 = 1.0 / math.sqrt(2.0 * mass0 * omega0)
    # pi = m v' = -i m w v, its real part +0.0 as complex arithmetic before
    # Python 3.14 gave it
    y0 = np.array([v0, complex(0.0, mass0 * (-omega0 * v0))])

    def rhs(t: float, y: list[complex]) -> tuple[complex, complex]:
        # (pi / m, -m w^2 v) on Python scalars, in numpy's complex arithmetic:
        # its division by m + 0j (Smith's formula, ratio 0) and its product
        # with -m w^2 + 0j, written out in real operations
        mass, omega = sample(t)
        v, pi = y
        scl = 1.0 / mass
        c = -mass * omega**2
        return (
            complex((pi.real + pi.imag * 0.0) * scl, (pi.imag - pi.real * 0.0) * scl),
            complex(c * v.real - 0.0 * v.imag, c * v.imag + 0.0 * v.real),
        )

    grid, out, stats = _integrate(rhs, protocol, y0, config)
    mass = np.array([sample(t)[0] for t in grid.tolist()])
    columns = {"v": out[:, 0], "v_dot": out[:, 1] / mass, "mass": mass}
    return ModeTrajectory(grid, columns, stats, protocol)


def solve_fermion_modes(
    protocol: FermionProtocol, config: IntegratorConfig | None = None
) -> ModeTrajectory:
    """Integrate both fermion invariant operators from the static initial data.

    fa-(t_i) = 1 and gb-(t_i) = 1 (all other coefficients zero), i.e.
    W_a = (1, 1)/sqrt(2), Z_a = 0, W_b = 0, Z_b = (1, 1)/sqrt(2).  Requires a
    diagonal initial Hamiltonian: |w+(t_i)| and |w-(t_i)| below
    ``INITIAL_DIAGONAL_TOL``.
    """
    _require(protocol, "fermion")

    # y = (W_a, Z_a, W_b, Z_b) flattened; both channels obey the same system.
    y0 = np.zeros(8, dtype=complex)
    y0[0] = y0[1] = 1.0 / _SQRT2       # W_a
    y0[6] = y0[7] = 1.0 / _SQRT2       # Z_b

    sample = sampler(protocol)

    def rhs(t: float, y: list[complex]) -> np.ndarray:
        gen = build_fermion_generator(*sample(t))
        return (-1j * np.matmul(gen, np.asarray(y).reshape(2, 4, 1))).reshape(8)

    grid, out, stats = _integrate(rhs, protocol, y0, config)
    # each pair (w1, w2) of y holds (c- + c+, c- - c+)/sqrt(2) for the next
    # two coefficients, in _FERMION_COLUMNS order
    series = []
    for j in range(0, 8, 2):
        w1, w2 = out[:, j], out[:, j + 1]
        series += [(w1 + w2) / _SQRT2, (w1 - w2) / _SQRT2]
    return ModeTrajectory(grid, dict(zip(_FERMION_COLUMNS, series)), stats, protocol)
