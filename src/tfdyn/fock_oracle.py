"""Brute-force matrix mechanics for validating every analytic result.

Everything the closed-form modules claim is re-derivable here the slow way:
ladder operators become dense matrices on a truncated (boson) or exact
(fermion) Fock space, Hamiltonians and thermal states become concrete arrays,
and time evolution is an ordered product of matrix exponentials.  The two
routes share no formulas, which is the point -- agreement is evidence, not
tautology.  Evolutions start from the vacuum summed with e^{-beta w/2}
per pair; only ``build_thermal_state_doubled``'s squeeze route reads theta.

Everything here is in units with hbar = 1, as in the rest of tfdyn.  H is
a frequency, the generator of the Liouville-von Neumann equation
i drho/dt + [rho, H] = 0 that ``mode_solver`` integrates too; each
exponential is exp(-i H dt), and the thermal builders and
``evolve_doubled_thermal`` weigh H with e^{-beta H}.

Bosons live on ``n_levels`` retained number states (default 60); the price is
a truncation tail, which is measured and reported rather than hidden.  The
fermion spaces (4- and 16-dimensional) are exact, built as graded tensor
products so that every anticommutator holds to machine precision.

The doubled space carries a copy of the system with conjugated coefficients;
the physical generator is H_hat = H - H_tilde.  For bosons H_tilde acts on
the second tensor factor with the complex-conjugate matrix, so a state
reshaped to an (n x n) coefficient matrix C evolves by C -> U C U^dag per
step -- the full n^2-dimensional exponential is never materialised.

Time evolution uses a commutator-free Magnus scheme, which one record,
``_STEP_RULE``, names and defines: each step samples H at the rule's nodes
and applies J exponentials of fixed combinations of the samples, one per
row of its weights (Alvermann & Fehske, J. Comput. Phys. 230, 5930
(2011)).  It is exact for constant H, so a stretch of constant H takes one
exponential, exp(-i H span); and where H varies along a single unit
generator B on a parity block, its exponentials there commute, and a
stretch takes one, exp(-i theta B), with theta the rule's quadrature of
the coefficient (a fermion pairing or hopping drive, a boson frequency
drive).  A march is capped at ``_MAX_MARCH_STEPS`` steps, and refuses a
coefficient of H so large that a generator would not be finite.  Quadratic
Hamiltonians conserve parity, and the doubled evolution uses it: boson H
couples |n> only to |n +- 2>, so C stays block-diagonal in (even, odd)
number states, and the doubled fermion generator keeps the thermal vacuum
in two 4-dimensional sectors of the 16-dimensional space.

The march's fixed costs are paid per stack, not per piece: consecutive
short pieces of one shape share one generator contraction, one batched
eigensolve and one batched product of their steps, within one budget of
elements (``_SUB_BATCH``) that also bounds the blocks of a long piece.
Pieces of a stack whose generators are equal share one eigendecomposition,
and a task's pieces are sampled and checked in one pass.  Every propagator
keeps the bits it has when built alone.

A trajectory keeps its states as the march does, as parity blocks, and
its observables are read in one pass over them: ``expectation_single_factor``
reads a trajectory's blocks, and it, ``thermal_state_condition_residual``
and ``expectation`` take a stack of states, check it, and hand its arrays
to the kernels of ``tfdyn._readers``, which work in row batches within the
same budget, multiply only the parity sub-blocks that are not exactly
zero, and give every state the bits it gets alone; the suite's and the
CLI's observables keep the bits of the full n x n products they replace.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import os
from dataclasses import dataclass
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import _readers
from .errors import TruncationError
from .protocols import Protocol, initial_frame, sampler, statistics_of
from .thermal_observables import EXP_ARG_MAX, theta as thermal_theta

__all__ = [
    "BasisDescriptor",
    "boson_single",
    "boson_doubled",
    "fermion_single",
    "fermion_doubled",
    "OperatorMatrix",
    "DensityMatrix",
    "StateVector",
    "OracleConfig",
    "DoubledTrajectory",
    "build_boson_ladder",
    "build_boson_hamiltonian",
    "position_operator",
    "momentum_operator",
    "oscillator_boson_coefficients",
    "build_oscillator_hamiltonian",
    "frame_annihilation",
    "build_fermion_space",
    "build_fermion_hamiltonian",
    "FermionDoubledHamiltonians",
    "thermal_density",
    "expectation",
    "expectation_single_factor",
    "build_thermal_state_doubled",
    "invariant_operator_matrix",
    "thermal_state_condition_residual",
    "truncation_report",
    "evolve_doubled_thermal",
    "DEFAULT_N_LEVELS",
    "TAIL_REFUSAL",
    "TAIL_ABORT",
]

DEFAULT_N_LEVELS = 60
# Thermal-state builders refuse when the geometric tail beyond the retained
# levels exceeds TAIL_REFUSAL; evolution aborts when the measured tail passes
# TAIL_ABORT.
TAIL_REFUSAL = 1e-8
TAIL_ABORT = 1e-6
# State vectors on the doubled space cost n^2 amplitudes.
_MAX_DOUBLED_LEVELS = 256
# A piece of the doubled march spans at most this many exponentials of one
# cut interval; its propagator is one ordered product, applied at once.
_CHUNK = 512
# A march takes at most this many steps, counted from its cut intervals
# before any piece is built.  The largest march of the suite, the bench, the
# demos and the tests takes 7,500 steps (a 60-unit fermion pulse at 250
# exponentials per unit), so the cap sits 133 times above it.  At the cap
# the march holds J = 2 node times of 8 bytes a step, 16 MB, and runs for
# about 5 minutes on one core at N = 60 (0.28 ms a step of two 30 x 30
# blocks) and 11 s for a fermion.
_MAX_MARCH_STEPS = 10**6
# The doubled march hands propagator construction to threads in tasks of
# about this many generator matrix elements: fewer leave the threads idle on
# Python overhead.  _SUB_BATCH is the one budget of what a thread builds at
# once, in generator elements per exponent: a stack of consecutive short
# pieces of one shape, or one block of a longer piece (a power of two of
# steps, at least one).  At N = 60 it holds 18 steps of a 30 x 30 block.
_TASK_ELEMENTS = 2**18
_SUB_BATCH = 2**14
# The march's step rule, the one place that defines it: H is sampled at
# ``nodes`` c_k, as fractions of a step, and exponential j of a step (row j
# of ``weights``, in the order they apply) has the exponent
# sum_k weights[j, k] H(c_k).  J, the number of exponentials per step, is the
# number of rows, and the march's step counts derive from it.  The weights
# sum to 1, so a step of constant H is exp(-i H step); every node lies
# in the step, so steps may restart at any cut.  This is the fourth-order
# commutator-free Magnus scheme CFM4, J = 2, at the two Gauss-Legendre nodes
# (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)).
_STEP_RULE = SimpleNamespace(
    nodes=np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0]),
    weights=np.array([[3.0 + 2.0 * math.sqrt(3.0), 3.0 - 2.0 * math.sqrt(3.0)],
                      [3.0 - 2.0 * math.sqrt(3.0), 3.0 + 2.0 * math.sqrt(3.0)]]) / 12.0,
)
# The doubled fermion generator conserves the parity of the system modes and
# that of the tilde modes.  The thermal vacuum lives in the (even, even) and
# (odd, odd) sectors; index bits are the occupations a, b, a~, b~, most
# significant first.
_FERMION_SECTORS = (np.array([0, 3, 12, 15]), np.array([5, 6, 9, 10]))


# ---------------------------------------------------------------------------
# bases and wrapper types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisDescriptor:
    """Identifies which Fock space a matrix or vector lives on."""

    kind: str
    dimension: int
    n_levels: int | None = None


def boson_single(n_levels: int) -> BasisDescriptor:
    if n_levels < 2:
        raise ValueError(f"need at least 2 boson levels, got {n_levels}")
    return BasisDescriptor("boson_single", n_levels, n_levels)


def boson_doubled(n_levels: int) -> BasisDescriptor:
    boson_single(n_levels)  # raises below two levels
    if n_levels > _MAX_DOUBLED_LEVELS:
        raise ValueError(
            f"doubled boson space capped at {_MAX_DOUBLED_LEVELS} levels "
            f"(dimension {_MAX_DOUBLED_LEVELS**2}), got {n_levels}"
        )
    return BasisDescriptor("boson_doubled", n_levels * n_levels, n_levels)


def fermion_single() -> BasisDescriptor:
    return BasisDescriptor("fermion_single", 4)


def fermion_doubled() -> BasisDescriptor:
    return BasisDescriptor("fermion_doubled", 16)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator with its basis."""

    matrix: np.ndarray
    basis: BasisDescriptor

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.basis.dimension, self.basis.dimension):
            raise ValueError(
                f"matrix shape {m.shape} does not match basis dimension "
                f"{self.basis.dimension}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.matrix.conj().T, self.basis)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive (up to round-off) state."""

    matrix: np.ndarray
    basis: BasisDescriptor

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.basis.dimension, self.basis.dimension):
            raise ValueError("density matrix shape does not match basis")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {np.trace(m)} is not 1 to 1e-12")
        if self.basis.dimension <= 512:  # eigenvalue check priced out for large spaces
            if float(np.min(np.linalg.eigvalsh(m))) < -1e-10:
                raise ValueError("density matrix has an eigenvalue below -1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class StateVector:
    """Normalised pure state.

    Builders produce unit norm to 1e-12; evolved samples may carry integrator
    round-off, so the constructor tolerates 1e-10 and trajectories report the
    actual norm deviation separately.
    """

    vector: np.ndarray
    basis: BasisDescriptor

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=complex)
        if v.shape != (self.basis.dimension,):
            raise ValueError("state vector shape does not match basis")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"state vector norm {np.linalg.norm(v)} is not 1")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    def c_matrix(self) -> np.ndarray:
        """Coefficient matrix C[n, m] = <n, m~|psi> on a doubled boson basis."""
        if self.basis.kind != "boson_doubled":
            raise ValueError("c_matrix is defined on the doubled boson basis only")
        n = self.basis.n_levels
        return self.vector.reshape(n, n)


# ---------------------------------------------------------------------------
# boson operators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def build_boson_ladder(n_levels: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Truncated annihilation/creation pair: a[n-1, n] = sqrt(n).

    Built once per level count; the matrices are read-only, so callers share them.
    """
    basis = boson_single(n_levels)
    a = np.zeros((n_levels, n_levels), dtype=complex)
    for n in range(1, n_levels):
        a[n - 1, n] = math.sqrt(n)
    return OperatorMatrix(a, basis), OperatorMatrix(a.conj().T, basis)


def build_boson_hamiltonian(omega0: float, omega_plus: complex, n_levels: int) -> OperatorMatrix:
    """w0 a^dag a + (w+/2) a^dag^2 + (w+*/2) a^2 on the retained levels."""
    a_op, ad_op = build_boson_ladder(n_levels)
    a, ad = a_op.matrix, ad_op.matrix
    wp = complex(omega_plus)
    h = omega0 * (ad @ a) + 0.5 * wp * (ad @ ad) + 0.5 * np.conj(wp) * (a @ a)
    return OperatorMatrix(h, a_op.basis)


def position_operator(n_levels: int, m_ref: float, omega_ref: float) -> OperatorMatrix:
    """q = sqrt(1/(2 m_ref w_ref)) (a + a^dag) in the reference frame."""
    a_op, ad_op = build_boson_ladder(n_levels)
    scale = math.sqrt(1.0 / (2.0 * m_ref * omega_ref))
    return OperatorMatrix(scale * (a_op.matrix + ad_op.matrix), a_op.basis)


def momentum_operator(n_levels: int, m_ref: float, omega_ref: float) -> OperatorMatrix:
    """p = i sqrt(m_ref w_ref / 2) (a^dag - a) in the reference frame."""
    a_op, ad_op = build_boson_ladder(n_levels)
    scale = math.sqrt(m_ref * omega_ref / 2.0)
    return OperatorMatrix(1j * scale * (ad_op.matrix - a_op.matrix), a_op.basis)


def oscillator_boson_coefficients(
    mass: float, omega: float, m_ref: float, omega_ref: float
) -> tuple[float, float]:
    """(w0, w+) such that p^2/2m + m w^2 q^2/2 equals the quadratic form in
    the reference-frame ladder operators.  w+ comes out real.  Raises
    ``ValueError`` where a denominator, 2 m or 2 m_ref w_ref, is not
    finite: a quotient by it would collapse H towards 0."""
    two_m, two_m_ref_omega_ref = 2.0 * mass, 2.0 * m_ref * omega_ref
    if not (math.isfinite(two_m) and math.isfinite(two_m_ref_omega_ref)):
        raise ValueError(
            f"2 m = {two_m} or 2 m_ref omega_ref = {two_m_ref_omega_ref} is not finite at "
            f"m = {mass:.6g} in the frame ({m_ref:.6g}, {omega_ref:.6g}): the oscillator's "
            "H would collapse"
        )
    kinetic = m_ref * omega_ref / two_m
    potential = mass * omega**2 / two_m_ref_omega_ref
    return kinetic + potential, potential - kinetic


def build_oscillator_hamiltonian(
    mass: float, omega: float, n_levels: int, m_ref: float, omega_ref: float
) -> OperatorMatrix:
    """p^2/(2m) + m w^2 q^2 / 2 with q and p fixed in the reference frame."""
    q = position_operator(n_levels, m_ref, omega_ref).matrix
    p = momentum_operator(n_levels, m_ref, omega_ref).matrix
    h = (p @ p) / (2.0 * mass) + 0.5 * mass * omega**2 * (q @ q)
    return OperatorMatrix(h, boson_single(n_levels))


def frame_annihilation(
    mass: float, omega: float, n_levels: int, m_ref: float, omega_ref: float
) -> OperatorMatrix:
    """Annihilation operator of the static (mass, omega) frame, expressed on
    the reference-frame basis: a_frame = (m w q + i p)/sqrt(2 m w)."""
    q = position_operator(n_levels, m_ref, omega_ref).matrix
    p = momentum_operator(n_levels, m_ref, omega_ref).matrix
    mat = (mass * omega * q + 1j * p) / math.sqrt(2.0 * mass * omega)
    return OperatorMatrix(mat, boson_single(n_levels))


# ---------------------------------------------------------------------------
# fermion operators (graded tensor construction)
# ---------------------------------------------------------------------------

_S = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # two-level annihilator
_P = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)  # parity


def _jw_annihilators(n_modes: int) -> list[np.ndarray]:
    """Mode annihilators c_k = P x .. x P x s x I x .. x I (k parities).

    The parity string carries the fermionic sign between modes, making every
    cross-mode anticommutator vanish exactly.
    """
    ops = []
    for k in range(n_modes):
        factors = [_P] * k + [_S] + [np.eye(2, dtype=complex)] * (n_modes - 1 - k)
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        ops.append(mat)
    return ops


@functools.lru_cache(maxsize=4)
def build_fermion_space(doubled: bool = False) -> Mapping[str, OperatorMatrix]:
    """Annihilation operators on the exact fermion space.

    Mode order is a, b (single, dim 4) or a, b, a~, b~ (doubled, dim 16);
    daggers come from ``.dag``.  Built once per space and returned as a
    read-only mapping of read-only matrices, so callers share them.
    """
    if doubled:
        basis = fermion_doubled()
        names = ("a", "b", "a_tilde", "b_tilde")
    else:
        basis = fermion_single()
        names = ("a", "b")
    mats = _jw_annihilators(len(names))
    return MappingProxyType(
        {name: OperatorMatrix(m, basis) for name, m in zip(names, mats)}
    )


class FermionDoubledHamiltonians(NamedTuple):
    h: OperatorMatrix
    h_tilde: OperatorMatrix
    h_hat: OperatorMatrix  # h - h_tilde, the generator of doubled evolution


def _fermion_h(
    ops: Mapping[str, OperatorMatrix],
    a_name: str,
    b_name: str,
    omega0: float,
    omega_plus: complex,
    omega_minus: complex,
) -> np.ndarray:
    a = ops[a_name].matrix
    b = ops[b_name].matrix
    ad, bd = a.conj().T, b.conj().T
    wp, wm = complex(omega_plus), complex(omega_minus)
    return (
        omega0 * (ad @ a - bd @ b)
        + wp * (ad @ bd) - np.conj(wp) * (a @ b)
        + wm * (a @ bd) - np.conj(wm) * (ad @ b)
    )


def build_fermion_hamiltonian(
    omega0: float,
    omega_plus: complex,
    omega_minus: complex,
    doubled: bool = False,
) -> OperatorMatrix | FermionDoubledHamiltonians:
    """w0 (a^dag a - b^dag b) + w+ a^dag b^dag - w+* a b + w- a b^dag - w-* a^dag b.

    With ``doubled`` the fictitious copy H~ is built by the tilde conjugation
    rule -- conjugated coefficients on the tilde operators -- and the triple
    (H, H~, H_hat = H - H~) is returned.
    """
    ops = build_fermion_space(doubled)
    h = _fermion_h(ops, "a", "b", omega0, omega_plus, omega_minus)
    if not doubled:
        return OperatorMatrix(h, fermion_single())
    basis = fermion_doubled()
    h_t = _fermion_h(
        ops, "a_tilde", "b_tilde",
        omega0, np.conj(complex(omega_plus)), np.conj(complex(omega_minus)),
    )
    return FermionDoubledHamiltonians(
        OperatorMatrix(h, basis),
        OperatorMatrix(h_t, basis),
        OperatorMatrix(h - h_t, basis),
    )


# ---------------------------------------------------------------------------
# thermal states
# ---------------------------------------------------------------------------

def _beta_omega(beta: float, omega: float) -> float:
    """beta w, the Gibbs exponent, refusing a NaN with a ValueError."""
    x = beta * omega
    if math.isnan(x):
        raise ValueError(f"beta*omega is NaN (beta = {beta}, omega = {omega})")
    return x


def _fermion_beta_omega(beta: float, omega: float) -> float:
    """beta w of a fermion Gibbs state, refusing a value that is not positive
    with a ValueError.  The fermion spaces are exact, so no box tail refuses
    it, as ``_boltzmann_ratio`` does for bosons."""
    x = beta * omega
    if not x > 0.0:  # refuses a NaN too
        raise ValueError(f"beta*omega must be positive and not NaN, got {x}")
    return x


def _boltzmann_ratio(beta: float, omega: float, n_levels: int) -> float:
    """x = e^{-beta w}, after refusing a NaN beta w and a box of
    ``n_levels`` whose geometric tail x^N (the Gibbs weight beyond the box)
    exceeds ``TAIL_REFUSAL``."""
    x = math.exp(-min(_beta_omega(beta, omega), EXP_ARG_MAX))
    if x > 0.0 and x**n_levels > TAIL_REFUSAL:
        hint = "no finite box holds this state"
        if x < 1.0:
            required = max(2, math.floor(math.log(TAIL_REFUSAL) / math.log(x)))
            while x**required > TAIL_REFUSAL:  # x^N decides, not the rounded logs
                required += 1
            hint = f"use at least {required} levels"
        raise TruncationError(
            f"geometric tail x^N = {x**n_levels:.3e} exceeds {TAIL_REFUSAL:.0e} at "
            f"N = {n_levels}; {hint} for beta*omega = {beta * omega:.4g}"
        )
    return x


def thermal_density(beta: float, omega: float, *, basis: BasisDescriptor) -> DensityMatrix:
    """Gibbs state e^{-beta w N}/Z on a single-system basis.

    The number operator is a^dag a for bosons and a^dag a - b^dag b for the
    fermion pair (the b mode carries negative energy); weights are shifted by
    the ground energy before exponentiation so large beta never overflows.
    A boson box whose geometric tail exceeds ``TAIL_REFUSAL`` is refused,
    and so is a fermion pair at beta w <= 0.
    """
    if basis.kind == "boson_single":
        _boltzmann_ratio(beta, omega, basis.n_levels)
        energies = np.arange(basis.n_levels, dtype=float)
    elif basis.kind == "fermion_single":
        _fermion_beta_omega(beta, omega)
        ops = build_fermion_space(doubled=False)
        a, b = ops["a"].matrix, ops["b"].matrix
        number = a.conj().T @ a - b.conj().T @ b
        energies = np.real(np.diag(number))
    else:
        raise ValueError(f"thermal_density needs a single-system basis, got {basis.kind}")
    # an excited weight is 0 once beta w passes EXP_ARG_MAX; clipping it at
    # twice that keeps x finite (no overflow at 1e308, no inf * 0 at inf)
    x = min(_beta_omega(beta, omega), 2 * EXP_ARG_MAX) * (energies - energies.min())
    weights = np.exp(-np.minimum(x, EXP_ARG_MAX))
    weights[x > EXP_ARG_MAX] = 0.0
    weights /= weights.sum()
    return DensityMatrix(np.diag(weights).astype(complex), basis)


def _thermal_series(beta: float, omega: float, basis: BasisDescriptor) -> StateVector:
    """Route one of ``build_thermal_state_doubled``: |0(beta)> summed as its
    series, e^{-beta w/2} per pair, normalised; it reads no theta."""
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        x = _boltzmann_ratio(beta, omega, n)
        levels = np.arange(n)
        amps = x ** (0.5 * levels)
        amps /= np.linalg.norm(amps)
        c_series = np.zeros((n, n), dtype=complex)
        c_series[levels, levels] = amps
        return StateVector(c_series.reshape(-1), basis)
    if basis.kind == "fermion_doubled":
        ops = build_fermion_space(doubled=True)
        a, b = ops["a"].matrix, ops["b"].matrix
        at, bt = ops["a_tilde"].matrix, ops["b_tilde"].matrix
        x = _fermion_beta_omega(beta, omega)
        amp = math.exp(-0.5 * x) if x <= EXP_ARG_MAX else 0.0
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        eye = np.eye(16, dtype=complex)
        pair_a = eye + amp * (a.conj().T @ at.conj().T)
        pair_b = eye + amp * (b.conj().T @ bt.conj().T)
        psi = pair_a @ (pair_b @ vac)
        return StateVector(psi / np.linalg.norm(psi), basis)
    raise ValueError(f"build_thermal_state_doubled needs a doubled basis, got {basis.kind}")


def build_thermal_state_doubled(
    beta: float, omega: float, *, basis: BasisDescriptor
) -> tuple[StateVector, StateVector]:
    """Thermal vacuum |0(beta)> by two independent routes.

    Route one sums the series directly, with x = e^{-beta w}: amplitudes
    x^{n/2} on the pair states |n, n~> (bosons) or the expanded product
    (1 + x^{1/2} a^dag a~^dag)(1 + x^{1/2} b^dag b~^dag)|0> (fermions),
    normalised.  It is the definition of the thermal vacuum, and
    ``evolve_doubled_thermal`` starts from it.  Route two, the only one that
    reads the analytic angle theta(beta), exponentiates the squeeze generator,
    the paper's construction: exp(theta (a^dag a~^dag - a~ a))|0> and its
    two-channel fermion analogue.  The generator G is real and antisymmetric,
    so iG is Hermitian and exp(G) is the march's own spectral exponential of
    iG at unit step.  They must agree to truncation tolerance
    (bosons) or round-off (fermions); returned as (series, squeezed).
    """
    series = _thermal_series(beta, omega, basis)
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        x = _boltzmann_ratio(beta, omega, n)
        th = thermal_theta(beta, omega, statistics="boson")
        # The squeeze exponential is evaluated on a padded pair ladder and
        # projected back: exponentiating the generator truncated hard at n
        # reflects amplitude off the boundary and would contaminate the top
        # levels at the x^(n/2) scale (amplitude, not population).
        m_pad = n if x == 0.0 else max(n, math.ceil(-74.0 / math.log(x)))
        gen = np.zeros((m_pad, m_pad))
        for m in range(m_pad - 1):
            gen[m + 1, m] = th * (m + 1)   # a^dag a~^dag raises the pair level
            gen[m, m + 1] = -th * (m + 1)  # a~ a lowers it
        pair = _expi_neg_hermitian(1j * gen, 1.0)[:n, 0]
        pair /= np.linalg.norm(pair)
        levels = np.arange(n)
        c_squeezed = np.zeros((n, n), dtype=complex)
        c_squeezed[levels, levels] = pair
        return series, StateVector(c_squeezed.reshape(-1), basis)

    ops = build_fermion_space(doubled=True)
    a, b = ops["a"].matrix, ops["b"].matrix
    at, bt = ops["a_tilde"].matrix, ops["b_tilde"].matrix
    th = thermal_theta(beta, omega, statistics="fermion")
    gen = th * (a.conj().T @ at.conj().T - at @ a + b.conj().T @ bt.conj().T - bt @ b)
    return series, StateVector(_expi_neg_hermitian(1j * gen, 1.0)[:, 0], basis)  # on |0>


# ---------------------------------------------------------------------------
# expectations and evolution
# ---------------------------------------------------------------------------

def _stack(items, kind: type) -> tuple[list, bool]:
    """``items`` as a list, and whether it was a single ``kind`` rather than
    a stack of them.  An empty stack is refused, and so is one whose items
    do not share one basis."""
    if isinstance(items, kind):
        return [items], True
    items = list(items)
    if not items:
        raise ValueError(f"need at least one {kind.__name__}")
    if any(item.basis != items[0].basis for item in items):
        raise ValueError(f"the items of a {kind.__name__} stack must share one basis")
    return items, False


def expectation(
    state: DensityMatrix | StateVector | Sequence[StateVector],
    op: OperatorMatrix | Sequence[OperatorMatrix],
) -> complex | np.ndarray:
    """Tr[rho A], or <psi|A|psi> on each state of a stack, for an operator or
    each of a stack, on a shared basis.

    K operators and R states give a (K, R) array; a single operator or state
    drops its axis, and one of each gives a complex.  Each value has the bits
    of np.vdot(psi, A @ psi): one matrix-vector and one dot product per pair,
    a row batch of states at once.
    """
    ops, one_op = _stack(op, OperatorMatrix)
    if isinstance(state, DensityMatrix):
        states, one_state = [state], True
    else:
        states, one_state = _stack(state, StateVector)
    if states[0].basis != ops[0].basis:
        raise ValueError(f"basis mismatch in expectation: {states[0].basis} vs {ops[0].basis}")
    if isinstance(state, DensityMatrix):
        values = np.array([[np.trace(state.matrix @ o.matrix)] for o in ops])
    else:
        values = _readers.vdots([st.vector for st in states], [o.matrix for o in ops], _SUB_BATCH)
    return _readers.shaped(values, one_op, one_state)


def expectation_single_factor(
    psi: StateVector | Sequence[StateVector] | DoubledTrajectory,
    op: OperatorMatrix | Sequence[OperatorMatrix],
    tilde: bool = False,
) -> complex | np.ndarray:
    """<psi| A (x) I |psi> (or I (x) A with ``tilde``) on the doubled boson
    basis, for a state or each of a stack and an operator or each of a stack
    (shaped as ``expectation``).  A ``DoubledTrajectory`` is read as the
    stack of its states, from the parity blocks it keeps, without
    assembling them; its values are the same to the bit.

    Works on the (n x n) coefficient matrix directly -- no n^2-dimensional
    Kronecker product: <A (x) I> = tr(C^dag A C), <I (x) A> = tr(A C^T C*).
    Each trace reads one product, A C or G = C^T C*, and sums its level
    terms in level order, as ``np.trace`` does: the k-th is the dot of
    column k of C* and of A C, or of column k of A^T and of G.  C and A are
    taken as their (even, odd) parity sub-blocks, stride-2 views, and only
    the pairs of sub-blocks that are not exactly zero are multiplied, so a
    stack gives every state the bits it gets alone.  An evolved doubled
    state keeps C block-diagonal, so each trace takes two (n/2)^2 products,
    for every operator of a stack at once; the occupation and q moments
    that ``verification`` traces keep the bits of the full n x n products
    they replace.
    """
    trajectory = isinstance(psi, DoubledTrajectory)
    if trajectory:
        basis, count, one_state = psi.basis, len(psi.t), False
    else:
        states, one_state = _stack(psi, StateVector)
        basis, count = states[0].basis, len(states)
    ops, one_op = _stack(op, OperatorMatrix)
    if basis.kind != "boson_doubled":
        raise ValueError("expectation_single_factor needs the doubled boson basis")
    n = basis.n_levels
    if ops[0].basis.kind != "boson_single" or ops[0].basis.n_levels != n:
        raise ValueError("operator must live on the matching single boson basis")
    if trajectory:  # its even and odd blocks are C's (0, 0) and (1, 1) parity blocks
        c_rows = functools.partial(_readers.row_stacks, dict(zip(((0, 0), (1, 1)), psi.blocks)))
    else:
        c_rows = functools.partial(_readers.parity_stacks, [st.c_matrix() for st in states])
    values = _readers.single_factor_traces(
        c_rows, count, n, [o.matrix for o in ops], tilde, _SUB_BATCH
    )
    return _readers.shaped(values, one_op, one_state)


def _expi_neg_hermitian(h: np.ndarray, dt: float | np.ndarray) -> np.ndarray:
    """exp(-i h dt) for a Hermitian h, or a stack of them, via spectral
    decomposition.  h is a frequency, as the builders return it, so the
    phases are w dt.  ``dt`` is one step for the whole stack or one per
    matrix (an array that broadcasts to the stack's shape).  A real
    symmetric h takes the real eigensolver, and its exponential
    Q diag(phases) Q^T is then assembled by a real product."""
    return _spectral_exponential(*np.linalg.eigh(h), dt)


def _spectral_exponential(w: np.ndarray, q: np.ndarray, dt: float | np.ndarray) -> np.ndarray:
    """Q diag(exp(-i w dt)) Q^dag from the eigenvalues w and eigenvectors Q
    of a Hermitian matrix, or of a stack of them: the one exponential
    formula of the oracle (``_expi_neg_hermitian``)."""
    phases = np.exp(-1j * w * np.asarray(dt)[..., None])
    if np.isrealobj(q):
        # Q times the interleaved (real, imaginary) columns of diag(phases) Q^T
        right = np.multiply(phases[..., :, None], q.swapaxes(-1, -2), order="C")
        return (q @ right.view(float)).view(complex)
    return (q * phases[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _distinct_generators(
    rows: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The generators of a stack that differ from every earlier one, bit
    for bit, and each generator's position among them; None when all
    differ.  ``rows[k]`` holds the coefficients that built ``h[k]``: equal
    rows are found by their bytes, and their generators confirmed equal."""
    first: dict[bytes, int] = {}
    distinct: list[int] = []
    position = []
    for k, row in enumerate(rows):
        j = first.setdefault(row.tobytes(), len(distinct))
        if j == len(distinct) or h[distinct[j]].tobytes() != h[k].tobytes():
            j = len(distinct)
            distinct.append(k)
        position.append(j)
    return None if len(distinct) == len(rows) else (np.array(distinct), np.array(position))


def _step_propagators(
    exponent_h: np.ndarray,
    step: float | np.ndarray,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Propagators of a stack of steps, each the product of its J
    exponentials in the order they apply.

    ``exponent_h[j]`` is the j-th exponent applied in each step, a frequency
    (``_expi_neg_hermitian``); its shape is (J, ..., n, n) and the result's
    (..., n, n).  ``step`` is one length or one per step.  A step of the
    march has J rows of ``_STEP_RULE.weights``: the node generators h
    weighted by row j.  A step of constant h has J = 1 and the exponent h
    itself, since the rule's exponentials then commute and, with weights
    that sum to 1, multiply to exp(-i h step).  With ``shared``, the
    exponents in C order are decomposed only where they first appear
    (``_distinct_generators``), and each keeps its own phases at its own
    step; eigh works matrix by matrix, so every exponential keeps its bits.
    """
    if shared is None:
        w, q = np.linalg.eigh(exponent_h)
    else:
        distinct, position = shared
        w, q = np.linalg.eigh(exponent_h.reshape((-1,) + exponent_h.shape[-2:])[distinct])
        w, q = w[position].reshape(exponent_h.shape[:-1]), q[position].reshape(exponent_h.shape)
    e = _spectral_exponential(w, q, step)
    u = e[0]
    for later in e[1:]:
        u = later @ u
    return u


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[-1] @ ... @ u[1] @ u[0] over the axis before the matrices, by
    rounds of pairwise batched products; leading axes are a batch, each
    bracketed as alone."""
    while u.shape[-3] > 1:
        paired = u[..., 1::2, :, :] @ u[..., :-1:2, :, :]
        u = np.concatenate([paired, u[..., -1:, :, :]], axis=-3) if u.shape[-3] % 2 else paired
    return u[..., 0, :, :]


# ---------------------------------------------------------------------------
# invariant operators and thermal-state conditions
# ---------------------------------------------------------------------------

def _named_coefficients(
    coeffs: SimpleNamespace, names: tuple[str, ...], basis: BasisDescriptor
) -> list:
    """The named coefficients of a mode sample, refusing one that lacks any."""
    missing = [name for name in names if not hasattr(coeffs, name)]
    if missing:
        raise ValueError(
            f"an invariant operator on basis {basis.kind} needs the coefficients "
            f"{', '.join(missing)}, which the sample lacks"
        )
    return [getattr(coeffs, name) for name in names]


def _factor_operators(
    basis: BasisDescriptor, tilde: bool, channel: str
) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The coefficient names of an invariant annihilation operator and the
    operators they multiply, in order: a(t) = f- a + f+ a^dag on a boson
    factor; fa- a + fa+ a^dag + ga- b + ga+ b^dag on the fermion modes,
    channel "b" likewise, on the tilde modes for ``tilde``."""
    if basis.kind.startswith("boson"):
        a_op, ad_op = build_boson_ladder(basis.n_levels)
        return ("f_minus", "f_plus"), [a_op.matrix, ad_op.matrix]
    ops = build_fermion_space(doubled=basis.kind == "fermion_doubled")
    suffix = "_tilde" if tilde else ""
    a, b = ops["a" + suffix].matrix, ops["b" + suffix].matrix
    names = tuple(f"{c}_{channel}_{s}" for c in "fg" for s in ("minus", "plus"))
    return names, [a, a.conj().T, b, b.conj().T]


def invariant_operator_matrix(
    coeffs: SimpleNamespace,
    basis: BasisDescriptor,
    tilde: bool = False,
    channel: str = "a",
) -> OperatorMatrix:
    """Invariant annihilation operator as a dense matrix.

    ``coeffs`` is any record carrying the coefficients the basis needs, by
    name: a boson basis reads ``f_minus, f_plus``, a fermion basis the four
    ``f_{channel}_minus, f_{channel}_plus, g_{channel}_minus,
    g_{channel}_plus``.  Boson: a(t) = f- a + f+ a^dag (the tilde copy
    carries conjugated coefficients).  Fermion: a(t) = fa- a + fa+ a^dag +
    ga- b + ga+ b^dag, channel "b" likewise.  On doubled bases the operator
    is embedded on its factor.  Note the doubled boson embedding
    materialises the Kronecker product; prefer the coefficient-matrix
    helpers at large n_levels.
    """
    if basis.kind not in ("boson_single", "boson_doubled", "fermion_single", "fermion_doubled"):
        raise ValueError(f"no invariant operator on basis {basis.kind}")
    if tilde and not basis.kind.endswith("_doubled"):
        raise ValueError("tilde operators need the doubled basis")
    if basis.kind.startswith("fermion") and channel not in ("a", "b"):
        raise ValueError(f"channel must be 'a' or 'b', got {channel!r}")
    names, operators = _factor_operators(basis, tilde, channel)
    factor = _readers.combination(_named_coefficients(coeffs, names, basis), operators, tilde)
    if basis.kind == "boson_doubled":
        eye = np.eye(basis.n_levels, dtype=complex)
        factor = np.kron(eye, factor) if tilde else np.kron(factor, eye)
    return OperatorMatrix(factor, basis)


def thermal_state_condition_residual(
    psi: StateVector | Sequence[StateVector] | DoubledTrajectory,
    coeffs: SimpleNamespace,
    theta: float,
) -> dict[str, float] | dict[str, np.ndarray]:
    """Residual norms of the thermal-vacuum eigenvalue conditions.

    ``coeffs`` is any record with the coefficients ``psi``'s basis needs (see
    ``invariant_operator_matrix``).  Boson: || (a(t) - tanh(theta)
    a~^dag(t)) psi || and the tilde partner || (a~(t) - tanh(theta)
    a^dag(t)) psi ||.  Fermion: four residuals with the sign structure
    a psi = tan(theta) a~^dag psi, a~ psi = -tan(theta) a^dag psi, and the
    same for the b channel.  All vanish identically for the exact evolved
    thermal vacuum.

    ``psi`` may be a stack of states of one basis, or a
    ``DoubledTrajectory``, whose states are assembled from its blocks a row
    batch at a time; then each coefficient is a scalar or one value per
    state (a mode trajectory's columns), and each residual an array with one
    norm per state.  A stack gives every state the bits it gets alone.
    """
    if isinstance(psi, DoubledTrajectory):
        basis, count, one_state, stacked = psi.basis, len(psi.t), False, psi._assembled
    else:
        states, one_state = _stack(psi, StateVector)
        basis, count = states[0].basis, len(states)

        def stacked(rows: list[int]) -> np.ndarray:
            return np.stack([states[k].vector for k in rows])
    if basis.kind not in ("boson_doubled", "fermion_doubled"):
        raise ValueError(f"thermal-state residuals need a doubled basis, got {basis.kind}")
    operators, columns = {}, {}
    for channel in ("a",) if basis.kind == "boson_doubled" else ("a", "b"):
        names, ops = _factor_operators(basis, False, channel)
        operators[channel] = (ops, _factor_operators(basis, True, channel)[1])
        columns[channel] = [
            _readers.per_state(value, count, name)
            for value, name in zip(_named_coefficients(coeffs, names, basis), names)
        ]
    if basis.kind == "boson_doubled":
        out = _readers.boson_residuals(
            stacked, count, operators["a"][0], columns["a"], math.tanh(theta), _SUB_BATCH
        )
    else:
        out = _readers.fermion_residuals(
            stacked(list(range(count))), operators, columns, math.tan(theta), _SUB_BATCH
        )
    return {key: float(values[0]) for key, values in out.items()} if one_state else out


def truncation_report(psi: StateVector | Sequence[np.ndarray]) -> float:
    """Tail weight: the population a boson state keeps on the top tenth of
    its levels, n >= floor(0.9 N), counting a doubled pair |n, m~> once when
    either level lies there.  Zero for a fermion state, which is not
    truncated.  ``psi`` may also be a doubled boson state as the march
    keeps it: the even and the odd block of its coefficient matrix C, which
    is zero off them; its weight matrix |C|^2 is then laid out from the
    blocks and summed as a state's is."""
    if isinstance(psi, StateVector):
        if psi.basis.kind in ("fermion_single", "fermion_doubled"):
            return 0.0
        n = psi.basis.n_levels
        weight = np.abs(psi.vector if psi.basis.kind == "boson_single" else psi.c_matrix()) ** 2
    else:
        n = sum(len(block) for block in psi)
        weight = np.zeros((n, n))
        for p, block in enumerate(psi):
            weight[p::2, p::2] = np.abs(block) ** 2
    cutoff = int(math.floor(0.9 * n))
    if weight.ndim == 1:
        return float(weight[cutoff:].sum())
    return float(weight[cutoff:, :].sum() + weight[:cutoff, cutoff:].sum())


# ---------------------------------------------------------------------------
# doubled-space evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    """Resolution settings for brute-force evolution, and only those.

    ``substeps_per_unit`` counts matrix exponentials per unit time where H
    varies; a step spends J of them (``_STEP_RULE``), and a march takes at
    most ``_MAX_MARCH_STEPS`` steps.  A piece of the march (at most 512
    configured exponentials) takes one exponential per parity block where
    every sampled coefficient is the same, or where H varies along a single
    unit generator on the block, so a constant stretch takes one per 512
    (``evolve_doubled_thermal``).  The running-tail abort is the fixed
    ``TAIL_ABORT``.
    """

    n_levels: int = DEFAULT_N_LEVELS
    substeps_per_unit: float = 500.0
    grid_points: int = 201

    def __post_init__(self) -> None:
        boson_doubled(self.n_levels)  # raises for an unsupported level count
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if not 0.0 < self.substeps_per_unit < math.inf:
            raise ValueError("substeps_per_unit must be positive and finite")


def _layout(basis: BasisDescriptor) -> tuple[tuple[int, ...], list]:
    """Where the march's parity blocks sit in a state of the doubled
    ``basis``: the shape its vector takes, and each block's index there
    (``_sector_bases``)."""
    if basis.kind == "boson_doubled":
        sectors = _sector_bases(basis.n_levels)[0]
        return (basis.n_levels, basis.n_levels), [np.ix_(idx, idx) for idx in sectors]
    return (16,), [(idx,) for idx in _FERMION_SECTORS]


@dataclass
class DoubledTrajectory:
    """Sampled doubled-space states with their bookkeeping.

    The states are kept as the march keeps them: ``blocks[b][k]`` is state
    k on parity block b of ``basis`` (a boson's even or odd block of C, a
    fermion sector's four amplitudes), normalised, and every state is zero
    off its blocks.  The readers stack the rows they read a batch at a time,
    and ``states`` assembles them as ``StateVector``s on first read.
    """

    t: np.ndarray
    basis: BasisDescriptor
    blocks: tuple[list[np.ndarray], ...]
    norm_deviation: np.ndarray
    tail_weight: np.ndarray
    exponentials: int  # matrices exponentiated by the march, over its blocks
    decompositions: int  # matrices it decomposed by eigh, at most one per exponential

    @functools.cached_property
    def states(self) -> list[StateVector]:
        """The output states, assembled from ``blocks`` on first read."""
        full = self._assembled(list(range(len(self.t))))
        return [StateVector(vector, self.basis) for vector in full.reshape(len(full), -1)]

    def _assembled(self, rows: list[int]) -> np.ndarray:
        """The states ``rows``, assembled from ``blocks`` and stacked: as
        coefficient matrices C on the doubled boson basis, as vectors on
        the fermion one."""
        shape, index = _layout(self.basis)
        full = np.zeros((len(rows),) + shape, dtype=complex)
        for idx, stack in zip(index, self.blocks):
            full[(slice(None),) + idx] = np.stack([stack[k] for k in rows])
        return full


def _sampled_coefficients(
    protocol: Protocol, times: np.ndarray, frame: tuple[float, float]
) -> tuple[np.ndarray, Exception | None]:
    """The real coefficients of H at each of ``times``, one row per time in
    the order of ``times.ravel()``: ``omega0``, then the real and imaginary
    part of each coupling channel.  An oscillator gives (w0, w+, 0) in the
    static ``frame`` (mass, omega).  The rows stop before the first time
    whose sample raises, and that exception comes with them (None when every
    time was sampled)."""
    sample = sampler(protocol)
    oscillator = protocol.kind == "oscillator"
    if oscillator:
        def row(t: float) -> tuple:
            return oscillator_boson_coefficients(*sample(t), *frame) + (0.0,)
    else:
        row = sample
    samples: list[tuple] = []
    error = None
    try:
        for t in times.ravel().tolist():
            samples.append(row(t))
    except Exception as exc:
        error = exc
    width = 3 if oscillator else 2 * len(protocol.channels) - 1
    if not samples:
        return np.empty((0, width)), error
    if oscillator:
        return np.array(samples), error
    # (w0, c1, c2, ...) as complex pairs; w0 is real, so its imaginary slot
    # takes w0 and the row from there on is (w0, c1.re, c1.im, ...)
    pairs = np.array(samples, dtype=complex).view(float)
    pairs[:, 1] = pairs[:, 0]
    return pairs[:, 1:], error


def _propagators(
    pieces: list[tuple[np.ndarray, float]],
    bases: Sequence[np.ndarray],
    masks: Sequence[np.ndarray],
) -> tuple[list[list[np.ndarray]], tuple[int, int]]:
    """Each piece's propagator on each block, the ordered product of its
    steps, from the piece's (exponent coefficients, step) pair; and the
    numbers of matrices exponentiated and decomposed.  The coefficients
    have shape (J, steps, coefficients), J exponents per step: the rows of
    ``_STEP_RULE.weights``, or J = 1 for a constant piece
    (``_step_propagators``).

    A generator is sum_j c_j B_j over a block's stack of operators B, less
    the terms whose coefficient vanishes throughout the piece; when the rest
    are real it is real symmetric and takes the real eigensolver (always for
    oscillators, and for real couplings).  ``masks`` mark, per block, the
    B_j that are not zero on it.  A varying piece with at most one live term
    B_m on a block is collapsed there: each of its exponents is a multiple
    of B_m, so they commute, and their ordered product is exp(-i theta B_m)
    with theta = step sum_{j,s} exponents[j, s, m], exact in exact
    arithmetic.  It is built as a constant piece is, one exponent of the
    summed coefficient at the piece's step.  A piece with no live term left
    on a block is the identity there, which no exponential builds.

    A block holds room for R = _SUB_BATCH // n^2 steps.  Consecutive pieces
    of one shape (J, steps) and the same live terms on a block, at most S
    steps each, with S the largest power of two up to R, are built as one
    stack of at most R steps: one generator contraction, one batched
    exponential with a step per piece, and one batched ordered product of
    each piece's steps; collapsed and constant pieces have one step each.
    In a stack of one-step pieces, those whose generators are equal (the
    constant pieces of a sudden or piecewise-constant drive) share one
    eigendecomposition, and each keeps its own phases at its own step.
    A longer piece is taken in aligned blocks of S steps, each block's
    generators, exponentials and ordered product in turn, then the product
    of the block products.  So a thread holds one stack or block whatever
    the pieces' lengths, and every bit is the piece's alone: eigh,
    tensordot and matmul work matrix by matrix, and ``_ordered_product``
    pairs the same factors, for a power-of-two S across blocks too.  Pure
    numpy, so it may run on any thread.
    """
    live = [np.any(exponents != 0.0, axis=(0, 1)) for exponents, _ in pieces]
    out: list[list[np.ndarray]] = [[] for _ in pieces]
    built = decomposed = 0
    for basis, mask in zip(bases, masks):
        # each piece's exponents of its live terms on this block, its step
        # and those terms
        work = []
        for (exponents, step), terms in zip(pieces, live):
            if exponents.shape[:2] != (1, 1) and np.count_nonzero(terms & mask) <= 1:
                terms = terms & mask
                exponents = exponents[..., terms].sum(axis=(0, 1), keepdims=True)
            else:
                exponents = exponents[..., terms]
            work.append((exponents, step, terms))
        kinds = [(exponents.shape, terms.tobytes()) for exponents, _, terms in work]
        room = max(1, _SUB_BATCH // basis[0].size)
        size = 1 << (room.bit_length() - 1)
        first = 0
        while first < len(work):
            steps = work[first][0].shape[1]
            last = first + 1
            if steps <= size:
                end = min(len(work), first + room // steps)
                while last < end and kinds[last] == kinds[first]:
                    last += 1
            stack = work[first:last]
            terms = basis[stack[0][2]]
            if not len(terms):
                identity = np.eye(len(basis[0]), dtype=complex)
                for k in range(first, last):
                    out[k].append(identity)
                first = last
                continue
            if not np.any(terms.imag):
                terms = terms.real
            coeffs = np.stack([exponents for exponents, _, _ in stack], axis=1)
            dt = np.array([step for _, step, _ in stack])[:, None]
            products = []
            for s in range(0, steps, size):
                h = np.tensordot(coeffs[:, :, s:s + size], terms, axes=1)
                shared = None
                if steps == 1:  # one step a piece: equal generators share one eigh
                    matrices = h.reshape((-1,) + h.shape[-2:])
                    shared = _distinct_generators(coeffs.reshape(len(matrices), -1), matrices)
                built += h[..., 0, 0].size
                decomposed += h[..., 0, 0].size if shared is None else len(shared[0])
                products.append(_ordered_product(_step_propagators(h, dt, shared)))
            for k, u in enumerate(_ordered_product(np.stack(products, axis=1)), first):
                out[k].append(u)
            first = last
    return out, (built, decomposed)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which leaves out CPUs
    outside its cpuset, where the platform reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads a march may use; None for every available CPU.  Each worker process
# of a parallel sweep sets its share when it starts (``_set_thread_share``).
_thread_share: int | None = None


def _set_thread_share(threads: int) -> None:
    global _thread_share
    _thread_share = threads


@functools.lru_cache(maxsize=1)
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Getter and setter of the thread count of numpy's bundled OpenBLAS, or
    None where numpy carries no such library.  numpy 2 wheels name its
    functions ``scipy_openblas_*``, numpy 1 wheels plain ``openblas_*``; both
    may carry the ``64_`` suffix of the 64-bit-integer build."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{name}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{name}_set_num_threads{suffix}", None)
                if get is None or put is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Holds numpy's OpenBLAS at one thread, where it can be found, and
    restores its thread count on exit.  Its threads would otherwise spin
    against the pool's, or against another process on a busy host, for
    products far too small to share out."""
    lookup = _openblas_threads()
    if lookup is None:
        yield
        return
    get_blas_threads, set_blas_threads = lookup
    before = get_blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(before)


@functools.lru_cache(maxsize=8)
def _sector_bases(
    n_levels: int | None,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The parity sectors of a march, each sector's stack of unit
    generators B_j: H (boson, ``n_levels``) or H_hat (fermion, None) at the
    j-th unit real coefficient, restricted to the sector, and each stack's
    mask of the B_j that are not zero there.  A boson sector is the even or
    the odd number states of either factor, and every B_j acts on both; a
    fermion sector is a set of indices of the 16-dimensional space, and
    holds the pairing w+ (sector 0) or w0 and the hopping w- (sector 1).
    Built once per level count; read-only, so marches share them."""
    if n_levels is None:
        sectors = _FERMION_SECTORS
        unit_generators = [
            build_fermion_hamiltonian(*w, doubled=True).h_hat.matrix
            for w in ((1, 0, 0), (0, 1, 0), (0, 1j, 0), (0, 0, 1), (0, 0, 1j))
        ]
    else:
        sectors = tuple(np.arange(p, n_levels, 2) for p in (0, 1))
        unit_generators = [
            build_boson_hamiltonian(*w, n_levels).matrix for w in ((1, 0), (0, 1), (0, 1j))
        ]
    bases = tuple(np.stack(unit_generators)[:, idx[:, None], idx] for idx in sectors)
    masks = tuple(np.any(basis != 0.0, axis=(1, 2)) for basis in bases)
    for array in (*sectors, *bases, *masks):
        array.setflags(write=False)
    return sectors, bases, masks


@functools.lru_cache(maxsize=8)
def _coefficient_limit(n_levels: int | None) -> float:
    """The largest magnitude a real coefficient of H may take in a march on
    ``_sector_bases(n_levels)``.  A generator sums the C unit generators,
    whose entries are at most A, each weighted by at most _CHUNK times the
    largest coefficient (a collapsed piece sums the exponents of up to
    _CHUNK / J steps, and a step's weights have magnitudes that sum to less
    than J), so below this limit every generator entry is finite."""
    bases = _sector_bases(n_levels)[1]
    largest = max(float(np.max(np.abs(basis))) for basis in bases)
    return float(np.finfo(float).max) / (_CHUNK * len(bases[0]) * largest)


def _check_coefficients(coeffs: np.ndarray, times: np.ndarray, limit: float) -> None:
    """Raise ``ValueError`` naming the earliest of ``times`` at which a
    coefficient of H (``coeffs``, one row per time) passes ``limit``."""
    over = np.any(np.abs(coeffs) > limit, axis=-1)
    if np.any(over):
        raise ValueError(
            f"H at t = {float(np.min(times[over])):.6g} has a coefficient above "
            f"{limit:.3g}, at which the oracle's generators would not be finite"
        )


def _march_steps(
    t_i: float, t_f: float, jump_times: Sequence[float], config: OracleConfig
) -> tuple[np.ndarray, list[float], list[int]]:
    """A march's output grid, its cuts (the grid and the declared jumps) and
    its step count on each cut interval, ceil(substeps_per_unit * width / J)
    and at least one.  Raises ``ValueError`` when the steps would number
    more than ``_MAX_MARCH_STEPS``, before any piece is built, and before
    the grid is when its output intervals alone pass the cap."""
    J = len(_STEP_RULE.weights)
    wanted: float = config.grid_points - 1  # each output interval takes a step
    if wanted <= _MAX_MARCH_STEPS:
        grid = np.linspace(t_i, t_f, config.grid_points)
        cuts = sorted(set(grid.tolist()) | set(jump_times))
        # rounded up only below the cap: a float count may be inf
        counts = [config.substeps_per_unit * (b - a) / J for a, b in zip(cuts[:-1], cuts[1:])]
        steps = [max(1, math.ceil(x)) if x <= _MAX_MARCH_STEPS else x for x in counts]
        wanted = sum(steps)
    if wanted > _MAX_MARCH_STEPS:
        raise ValueError(
            f"the march on [{t_i:.6g}, {t_f:.6g}] at substeps_per_unit = "
            f"{config.substeps_per_unit:.6g} would take {wanted:.7g} steps, more than "
            f"the cap of {_MAX_MARCH_STEPS:.7g}"
        )
    return grid, cuts, steps


def _check_march(protocol: Protocol, config: OracleConfig) -> None:
    """Raise ``ValueError`` where ``evolve_doubled_thermal`` would refuse the
    march of ``protocol`` at ``config``, before it runs: past the step cap,
    or with a coefficient of H at t_i or t_f past ``_coefficient_limit``.
    A config's profiles are monotone between their ends, so H's largest
    coefficients lie there; the march itself checks every sample."""
    _march_steps(protocol.t_i, protocol.t_f, protocol.jump_times, config)
    ends = np.array([protocol.t_i, protocol.t_f])
    n = config.n_levels if statistics_of(protocol) != "fermion" else None
    coeffs, error = _sampled_coefficients(protocol, ends, initial_frame(protocol))
    if error is not None:
        raise error
    _check_coefficients(coeffs, ends, _coefficient_limit(n))


def evolve_doubled_thermal(
    protocol: Protocol, beta: float, config: OracleConfig | None = None
) -> DoubledTrajectory:
    """Evolve the thermal vacuum under H_hat(t) = H(t) - H~(t).

    Starts from the series construction of |0(beta)> (route one of
    ``build_thermal_state_doubled``, so no evolution depends on the squeeze
    exponential): the Gibbs state at the initial frame's frequency.  That
    is the Gibbs state of H(t_i) only when every coupling vanishes at t_i,
    which ``protocols.check_initial_state`` requires of the mode solvers;
    the oracle evolves a coupled start as given.  It marches steps of
    ``_STEP_RULE``, ``config.substeps_per_unit`` exponentials per unit time
    (J per step), restarting cleanly at every output time and declared
    jump; its generators are H(t), built from the protocol's coefficients
    as they are, and its exponentials exp(-i H dt).
    A piece of the march (at most 512 exponentials of one cut interval)
    whose sampled coefficients are all the same is advanced by one
    exponential per block, exp(-i H span): in exact arithmetic the
    product the configured steps form from the same samples, without their
    round-off and at one exponential instead of J per step.  So is a piece
    whose H varies, on a block where its live terms leave a single unit
    generator B, exp(-i theta B) with theta the step times the sum of the
    piece's exponents (``_propagators``): a fermion pairing drive (w- = 0),
    a hopping drive, a boson frequency drive (w+ = 0); on a block where
    they leave none the piece is the identity.  ``exponentials`` counts
    the matrices exponentiated, and ``decompositions`` the matrices
    decomposed by eigh: equal generators of one stack share one.  Boson
    states are advanced on the even and the odd block of their coefficient
    matrix (C_b -> U_b C_b U_b^dag); fermion states on the two
    4-dimensional parity sectors that hold the thermal vacuum.  At output
    times the blocks are normed once, normalised when the norm is off 1 by
    more than 1e-10, and kept as the trajectory's ``blocks``; a boson
    state's truncation tail is measured on them: the weight on pairs with
    a level in the top tenth (``truncation_report``), one float per output
    time in ``tail_weight``.  The evolution aborts with a diagnostic if the
    tail passes ``TAIL_ABORT``, and with ``ValueError`` at a norm that is
    not finite and positive.  The full states are assembled only when
    ``states`` is read.

    The calling thread samples the protocol, in time order, and applies the
    propagators and records the states, also in order.  When the march
    forms more than one task of about 2^18 generator elements, a thread pool
    with one thread per available CPU builds the propagators ahead of it,
    at most one task more than it has threads.  Either way a task's
    propagators are built in one call (``_propagators``): runs of short
    pieces in stacks and a longer piece in blocks of steps, so what a thread
    holds beyond the task's propagators does not grow with the pieces'
    length.  numpy's OpenBLAS is held at one thread throughout,
    on the pool and on the calling thread alone.
    Every piece keeps the arithmetic of the one-thread march, so the states
    are the same to the bit.  The protocol is therefore sampled ahead of the
    output times: up to a task ahead on one thread, up to one more task than
    the pool has threads with it.  A task's pieces are sampled and checked
    in one pass; when a protocol call raises, the pieces sampled before it
    are applied first, so a truncation abort at an earlier output time is
    raised in its place.

    A march of more than ``_MAX_MARCH_STEPS`` steps is refused with
    ``ValueError`` before any piece is built, and a sample of H with a
    coefficient past ``_coefficient_limit`` raises ``ValueError`` naming its
    time, as a protocol call that raises does, before any exponential of a
    generator that would not be finite.
    """
    config = config or OracleConfig()
    grid, cuts, counts = _march_steps(protocol.t_i, protocol.t_f, protocol.jump_times, config)
    frame = initial_frame(protocol)

    # H (boson) and H_hat (fermion) are linear in the real coefficients, so
    # each block's generator is sum_j c_j B_j, with B_j the generator at the
    # j-th unit coefficient restricted to the block.
    boson = statistics_of(protocol) != "fermion"
    n = config.n_levels if boson else None
    _, bases, masks = _sector_bases(n)
    limit = _coefficient_limit(n)
    basis = boson_doubled(n) if boson else fermion_doubled()
    shape, index = _layout(basis)
    psi0 = _thermal_series(beta, frame[1], basis)
    blocks = [psi0.vector.reshape(shape)[idx] for idx in index]

    # each output state as its parity blocks, normalised; the march replaces
    # its blocks rather than writing to them, so they are kept as they are,
    # and never copied into one array, which would raise the process's peak
    # memory by their size
    kept: list[list[np.ndarray]] = [[] for _ in blocks]
    norm_dev: list[float] = []
    tails: list[float] = []

    def record(time: float) -> None:
        norm = math.sqrt(sum(np.vdot(block, block).real for block in blocks))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"the state at t = {time:.6g} has norm {norm}")
        rows = [block / norm for block in blocks] if abs(norm - 1.0) > 1e-10 else blocks
        tail = truncation_report(rows) if boson else 0.0
        if not tail <= TAIL_ABORT:  # a NaN tail aborts too
            raise TruncationError(
                f"truncation tail {tail:.3e} exceeds "
                f"{TAIL_ABORT:.0e} at t = {time:.6g}; increase n_levels "
                f"beyond {config.n_levels}"
            )
        for rows_kept, row in zip(kept, rows):
            rows_kept.append(row)
        norm_dev.append(abs(norm - 1.0))
        tails.append(tail)

    record(float(grid[0]))
    grid_set = {float(t) for t in grid[1:]}

    # A piece is one chunk of at most _CHUNK exponentials of one cut
    # interval: its node times, its step, its span, and the output time its
    # end reaches, if any.  Consecutive pieces form tasks of about
    # _TASK_ELEMENTS.
    J = len(_STEP_RULE.weights)
    per_step = J * sum(b[0].size for b in bases)
    tasks: list[list[tuple[np.ndarray, float, float, float | None]]] = [[]]
    size = 0
    for left, right, steps in zip(cuts[:-1], cuts[1:], counts):
        step = (right - left) / steps
        for first in range(0, steps, _CHUNK // J):
            if size >= _TASK_ELEMENTS:
                tasks.append([])
                size = 0
            k = np.arange(first, min(first + _CHUNK // J, steps))
            last = k[-1] == steps - 1
            span = (right if last else left + (k[-1] + 1) * step) - (left + k[0] * step)
            end = float(right) if last and float(right) in grid_set else None
            tasks[-1].append((left + (k + _STEP_RULE.nodes[:, None]) * step, step, span, end))
            size += per_step * len(k)

    def exponents(task) -> tuple[list[tuple[np.ndarray, float]], Exception | None]:
        """The task's pieces' (exponents, step), up to the first piece whose
        protocol sampling raises or whose coefficients pass ``limit``, and
        that exception.  The whole task is sampled and checked in one pass.
        The march applies the pieces before that piece, then raises, so that
        a truncation abort that comes first in time wins."""
        ends = np.cumsum([piece[0].size for piece in task])
        times = np.concatenate([piece[0].ravel() for piece in task])
        coeffs, error = _sampled_coefficients(protocol, times, frame)
        complete = int(np.searchsorted(ends, len(coeffs), side="right"))
        sampled = int(ends[complete - 1]) if complete else 0
        try:
            _check_coefficients(coeffs[:sampled], times[:sampled], limit)
        except ValueError as exc:  # the pieces are in time order
            over = np.any(np.abs(coeffs[:sampled]) > limit, axis=-1)
            complete, error = int(np.searchsorted(ends, np.argmax(over), side="right")), exc
        work = []
        for (piece_times, step, span, _), end in zip(task[:complete], ends):
            piece = coeffs[end - piece_times.size:end].reshape(piece_times.shape + (-1,))
            if np.all(piece == piece[0, 0]):  # constant H: one exponential spans the piece
                work.append((piece[:1, :1], span))
            else:
                work.append((np.tensordot(_STEP_RULE.weights, piece, axes=1), step))
        return work, error

    counts = [0, 0]  # matrices exponentiated and decomposed

    def apply(task, built: tuple[list[list[np.ndarray]], tuple[int, int]]) -> None:
        propagators, (exponentiated, decomposed) = built
        counts[0] += exponentiated
        counts[1] += decomposed
        for (*_, end), per_block in zip(task, propagators):
            for b, u in enumerate(per_block):
                blocks[b] = u @ blocks[b] @ u.conj().T if boson else u @ blocks[b]
            if end is not None:
                record(end)

    # One thread per available CPU and at most one per task, and one where
    # OpenBLAS cannot be held at one thread (its threads would contend with
    # the pool's).  On one thread a task's protocol samples are taken first,
    # then its propagators are built in one call and its pieces applied in
    # order.
    threads = min(len(tasks), _thread_share or _available_cpus())
    error = None
    with _one_blas_thread():
        if threads == 1 or _openblas_threads() is None:
            for task in tasks:
                work, error = exponents(task)
                apply(task[:len(work)], _propagators(work, bases, masks))
                if error is not None:
                    break
        else:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(threads)  # starts its threads at the first submit
            in_flight: collections.deque = collections.deque()
            try:
                for task in tasks:
                    work, error = exponents(task)
                    future = pool.submit(_propagators, work, bases, masks)
                    in_flight.append((task[:len(work)], future))
                    if error is not None:
                        break
                    if len(in_flight) > threads:
                        done, future = in_flight.popleft()
                        apply(done, future.result())
                for done, future in in_flight:
                    apply(done, future.result())
            finally:
                pool.shutdown(cancel_futures=True)
    if error is not None:
        raise error

    return DoubledTrajectory(
        t=grid,
        basis=basis,
        blocks=tuple(kept),
        norm_deviation=np.array(norm_dev),
        tail_weight=np.array(tails),
        exponentials=counts[0],
        decompositions=counts[1],
    )
