"""Brute-force matrix mechanics for validating every analytic result.

Everything the closed-form modules claim is re-derivable here the slow way:
ladder operators become dense matrices on a truncated (boson) or exact
(fermion) Fock space, Hamiltonians and thermal states become concrete arrays,
and time evolution is an ordered product of matrix exponentials.  The two
routes share no formulas, which is the point -- agreement is evidence, not
tautology.

Bosons live on ``n_levels`` retained number states (default 60); the price is
a truncation tail, which is measured and reported rather than hidden.  The
fermion spaces (4- and 16-dimensional) are exact, built as graded tensor
products so that every anticommutator holds to machine precision.

The doubled space carries a copy of the system with conjugated coefficients;
the physical generator is H_hat = H - H_tilde.  For bosons H_tilde acts on
the second tensor factor with the complex-conjugate matrix, so a state
reshaped to an (n x n) coefficient matrix C evolves by C -> U C U^dag per
step -- the full n^2-dimensional exponential is never materialised.

Time evolution uses the fourth-order commutator-free Magnus scheme (CFM4):
each step samples H at its two Gauss-Legendre nodes and applies two
exponentials of fixed combinations of the samples (Blanes & Moan, Appl.
Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys. 230,
5930 (2011)).  It is exact for constant H, so a stretch of constant H
takes one exponential, exp(-i H span / hbar).  Quadratic Hamiltonians
conserve parity, and the doubled evolution uses it: boson H couples |n>
only to |n +- 2>, so C stays block-diagonal in (even, odd) number states,
and the doubled fermion generator keeps the thermal vacuum in two
4-dimensional sectors of the 16-dimensional space.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import os
from dataclasses import dataclass
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

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
    "TruncationReport",
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
    "tilde_swap",
    "thermal_density",
    "doubled_density",
    "expectation",
    "expectation_single_factor",
    "build_thermal_state_doubled",
    "invariant_operator_matrix",
    "thermal_state_condition_residual",
    "truncation_report",
    "evolve_doubled_thermal",
    "DEFAULT_N_LEVELS",
    "TAIL_REFUSAL",
]

DEFAULT_N_LEVELS = 60
# Thermal-state builders refuse when the geometric tail beyond the retained
# levels exceeds this; evolution aborts when the measured tail passes
# OracleConfig.tail_abort.
TAIL_REFUSAL = 1e-8
# State vectors on the doubled space cost n^2 amplitudes, density matrices
# n^4 entries -- only the latter needs a tight cap.
_MAX_DOUBLED_LEVELS = 256
_MAX_DOUBLED_DENSITY_LEVELS = 64  # keeps doubled density matrices at <= 4096^2
# A piece of the doubled march spans at most this many exponentials of one
# cut interval; its propagator is one ordered product, applied at once.
_CHUNK = 512
# The doubled march hands propagator construction to threads in tasks of
# about this many generator matrix elements: fewer leave the threads idle on
# Python overhead.  A task's pieces are built one at a time, each in blocks
# of steps whose generators hold at most _SUB_BATCH elements (a power of two
# of steps, at least one), so a thread holds one block of one piece.
_TASK_ELEMENTS = 2**18
_SUB_BATCH = 2**16
# CFM4: Gauss-Legendre nodes of a step, as fractions of the step, and the
# weights of the two node Hamiltonians in the first (row 0) and the second
# exponential applied; each row sums to 1/2.
_CFM4_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CFM4_WEIGHTS = np.array([[3.0 + 2.0 * math.sqrt(3.0), 3.0 - 2.0 * math.sqrt(3.0)],
                          [3.0 - 2.0 * math.sqrt(3.0), 3.0 + 2.0 * math.sqrt(3.0)]]) / 12.0
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
    if n_levels < 2:
        raise ValueError(f"need at least 2 boson levels, got {n_levels}")
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


def _check_basis(basis: BasisDescriptor, other: BasisDescriptor, what: str) -> None:
    if basis != other:
        raise ValueError(f"basis mismatch in {what}: {basis} vs {other}")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator with its basis and a human-readable label."""

    matrix: np.ndarray
    basis: BasisDescriptor
    label: str = ""

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
        return OperatorMatrix(self.matrix.conj().T, self.basis, self.label + "^dag")

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


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
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {np.linalg.norm(v)} is not 1")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    def c_matrix(self) -> np.ndarray:
        """Coefficient matrix C[n, m] = <n, m~|psi> on a doubled boson basis."""
        if self.basis.kind != "boson_doubled":
            raise ValueError("c_matrix is defined on the doubled boson basis only")
        n = self.basis.n_levels
        return self.vector.reshape(n, n)


@dataclass(frozen=True)
class TruncationReport:
    """Where the truncation hurts: population of the top 10% of levels, and
    the ladder-commutator defect on the remaining block (zero away from the
    edge; the artificial -(N-1) entry sits in the excluded corner)."""

    tail_weight: float
    commutator_defect: float


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
    return OperatorMatrix(a, basis, "a"), OperatorMatrix(a.conj().T, basis, "a^dag")


def build_boson_hamiltonian(
    omega0: float, omega_plus: complex, n_levels: int, hbar: float = 1.0
) -> OperatorMatrix:
    """H = hbar [w0 a^dag a + (w+/2) a^dag^2 + (w+*/2) a^2] on the retained levels."""
    a_op, ad_op = build_boson_ladder(n_levels)
    a, ad = a_op.matrix, ad_op.matrix
    wp = complex(omega_plus)
    h = hbar * (omega0 * (ad @ a) + 0.5 * wp * (ad @ ad) + 0.5 * np.conj(wp) * (a @ a))
    return OperatorMatrix(h, a_op.basis, "H")


def position_operator(
    n_levels: int, m_ref: float, omega_ref: float, hbar: float = 1.0
) -> OperatorMatrix:
    """q = sqrt(hbar/(2 m_ref w_ref)) (a + a^dag) in the reference frame."""
    a_op, ad_op = build_boson_ladder(n_levels)
    scale = math.sqrt(hbar / (2.0 * m_ref * omega_ref))
    return OperatorMatrix(scale * (a_op.matrix + ad_op.matrix), a_op.basis, "q")


def momentum_operator(
    n_levels: int, m_ref: float, omega_ref: float, hbar: float = 1.0
) -> OperatorMatrix:
    """p = i sqrt(hbar m_ref w_ref / 2) (a^dag - a) in the reference frame."""
    a_op, ad_op = build_boson_ladder(n_levels)
    scale = math.sqrt(hbar * m_ref * omega_ref / 2.0)
    return OperatorMatrix(1j * scale * (ad_op.matrix - a_op.matrix), a_op.basis, "p")


def oscillator_boson_coefficients(
    mass: float, omega: float, m_ref: float, omega_ref: float
) -> tuple[float, float]:
    """(w0, w+) such that p^2/2m + m w^2 q^2/2 equals the quadratic form in
    the reference-frame ladder operators.  w+ comes out real."""
    kinetic = m_ref * omega_ref / (2.0 * mass)
    potential = mass * omega**2 / (2.0 * m_ref * omega_ref)
    return kinetic + potential, potential - kinetic


def build_oscillator_hamiltonian(
    mass: float,
    omega: float,
    n_levels: int,
    m_ref: float,
    omega_ref: float,
    hbar: float = 1.0,
) -> OperatorMatrix:
    """H = p^2/(2m) + m w^2 q^2 / 2, with q and p fixed in the reference frame."""
    q = position_operator(n_levels, m_ref, omega_ref, hbar).matrix
    p = momentum_operator(n_levels, m_ref, omega_ref, hbar).matrix
    h = (p @ p) / (2.0 * mass) + 0.5 * mass * omega**2 * (q @ q)
    return OperatorMatrix(h, boson_single(n_levels), "H_osc")


def frame_annihilation(
    mass: float,
    omega: float,
    n_levels: int,
    m_ref: float,
    omega_ref: float,
    hbar: float = 1.0,
) -> OperatorMatrix:
    """Annihilation operator of the static (mass, omega) frame, expressed on
    the reference-frame basis: a_frame = (m w q + i p)/sqrt(2 hbar m w)."""
    q = position_operator(n_levels, m_ref, omega_ref, hbar).matrix
    p = momentum_operator(n_levels, m_ref, omega_ref, hbar).matrix
    mat = (mass * omega * q + 1j * p) / math.sqrt(2.0 * hbar * mass * omega)
    return OperatorMatrix(mat, boson_single(n_levels), "a_frame")


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
        {name: OperatorMatrix(m, basis, name) for name, m in zip(names, mats)}
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
    hbar: float,
) -> np.ndarray:
    a = ops[a_name].matrix
    b = ops[b_name].matrix
    ad, bd = a.conj().T, b.conj().T
    wp, wm = complex(omega_plus), complex(omega_minus)
    return hbar * (
        omega0 * (ad @ a - bd @ b)
        + wp * (ad @ bd) - np.conj(wp) * (a @ b)
        + wm * (a @ bd) - np.conj(wm) * (ad @ b)
    )


def build_fermion_hamiltonian(
    omega0: float,
    omega_plus: complex,
    omega_minus: complex,
    hbar: float = 1.0,
    doubled: bool = False,
) -> OperatorMatrix | FermionDoubledHamiltonians:
    """H = hbar [w0 (a^dag a - b^dag b) + w+ a^dag b^dag - w+* a b + w- a b^dag - w-* a^dag b].

    With ``doubled`` the fictitious copy H~ is built by the tilde conjugation
    rule -- conjugated coefficients on the tilde operators -- and the triple
    (H, H~, H_hat = H - H~) is returned.
    """
    ops = build_fermion_space(doubled)
    h = _fermion_h(ops, "a", "b", omega0, omega_plus, omega_minus, hbar)
    if not doubled:
        return OperatorMatrix(h, fermion_single(), "H_F")
    basis = fermion_doubled()
    h_t = _fermion_h(
        ops, "a_tilde", "b_tilde",
        omega0, np.conj(complex(omega_plus)), np.conj(complex(omega_minus)), hbar,
    )
    return FermionDoubledHamiltonians(
        OperatorMatrix(h, basis, "H_F"),
        OperatorMatrix(h_t, basis, "H_F~"),
        OperatorMatrix(h - h_t, basis, "H_F_hat"),
    )


def tilde_swap(basis: BasisDescriptor) -> OperatorMatrix:
    """Unitary implementing the exchange of the system with its tilde copy.

    Together with complex conjugation this realises tilde conjugation, so
    S (H_hat)* S = -H_hat for any doubled generator built by the rule
    (an anti-unitary that flips the sign of the physical generator).
    Fermions pick up (-1)^((na+nb)(na~+nb~)) from reordering the modes.
    """
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        s = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                s[j * n + i, i * n + j] = 1.0
        return OperatorMatrix(s, basis, "S")
    if basis.kind == "fermion_doubled":
        s = np.zeros((16, 16))
        for idx in range(16):
            bits = [(idx >> k) & 1 for k in (3, 2, 1, 0)]  # occupations a, b, a~, b~
            swapped = (bits[2] << 3) | (bits[3] << 2) | (bits[0] << 1) | bits[1]
            sign = (-1.0) ** ((bits[0] + bits[1]) * (bits[2] + bits[3]))
            s[swapped, idx] = sign
        return OperatorMatrix(s, basis, "S")
    raise ValueError(f"tilde_swap needs a doubled basis, got {basis.kind}")


# ---------------------------------------------------------------------------
# thermal states
# ---------------------------------------------------------------------------

def _boltzmann_ratio(beta: float, omega: float, hbar: float, n_levels: int) -> float:
    """x = e^{-beta hbar w}, after refusing a box of ``n_levels`` whose
    geometric tail x^N (the Gibbs weight beyond the box) exceeds
    ``TAIL_REFUSAL``."""
    x = math.exp(-min(beta * hbar * omega, EXP_ARG_MAX))
    if x > 0.0 and x**n_levels > TAIL_REFUSAL:
        hint = "no finite box holds this state"
        if x < 1.0:
            required = max(2, math.floor(math.log(TAIL_REFUSAL) / math.log(x)))
            while x**required > TAIL_REFUSAL:  # x^N decides, not the rounded logs
                required += 1
            hint = f"use at least {required} levels"
        raise TruncationError(
            f"geometric tail x^N = {x**n_levels:.3e} exceeds {TAIL_REFUSAL:.0e} at "
            f"N = {n_levels}; {hint} for beta*hbar*omega = {beta * hbar * omega:.4g}"
        )
    return x


def thermal_density(
    beta: float, omega: float, hbar: float = 1.0, basis: BasisDescriptor | None = None
) -> DensityMatrix:
    """Gibbs state e^{-beta hbar w N}/Z on a single-system basis.

    The number operator is a^dag a for bosons and a^dag a - b^dag b for the
    fermion pair (the b mode carries negative energy); weights are shifted by
    the ground energy before exponentiation so large beta never overflows.
    A boson box whose geometric tail exceeds ``TAIL_REFUSAL`` is refused.
    """
    if basis is None:
        basis = boson_single(DEFAULT_N_LEVELS)
    if basis.kind == "boson_single":
        _boltzmann_ratio(beta, omega, hbar, basis.n_levels)
        energies = np.arange(basis.n_levels, dtype=float)
    elif basis.kind == "fermion_single":
        ops = build_fermion_space(doubled=False)
        a, b = ops["a"].matrix, ops["b"].matrix
        number = a.conj().T @ a - b.conj().T @ b
        energies = np.real(np.diag(number))
    else:
        raise ValueError(f"thermal_density needs a single-system basis, got {basis.kind}")
    x = beta * hbar * omega * (energies - energies.min())
    weights = np.exp(-np.minimum(x, EXP_ARG_MAX))
    weights[x > EXP_ARG_MAX] = 0.0
    weights /= weights.sum()
    return DensityMatrix(np.diag(weights).astype(complex), basis)


def doubled_density(rho: DensityMatrix) -> DensityMatrix:
    """rho_hat = rho (x) rho~ with rho~ the element-wise conjugate copy."""
    if rho.basis.kind == "boson_single":
        if rho.basis.n_levels > _MAX_DOUBLED_DENSITY_LEVELS:
            raise ValueError(
                f"doubled boson density matrices capped at "
                f"{_MAX_DOUBLED_DENSITY_LEVELS} levels, got {rho.basis.n_levels}"
            )
        basis = boson_doubled(rho.basis.n_levels)
    elif rho.basis.kind == "fermion_single":
        basis = fermion_doubled()
    else:
        raise ValueError(f"cannot double basis {rho.basis.kind}")
    return DensityMatrix(np.kron(rho.matrix, rho.matrix.conj()), basis)


def _thermal_series(
    beta: float, omega: float, hbar: float, basis: BasisDescriptor
) -> StateVector:
    """Route one of ``build_thermal_state_doubled``: |0(beta)> summed as its
    series."""
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        x = _boltzmann_ratio(beta, omega, hbar, n)
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
        th = thermal_theta(beta, omega, hbar, "fermion")
        tan = math.tan(th)
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        eye = np.eye(16, dtype=complex)
        pair_a = eye + tan * (a.conj().T @ at.conj().T)
        pair_b = eye + tan * (b.conj().T @ bt.conj().T)
        return StateVector(math.cos(th) ** 2 * (pair_a @ (pair_b @ vac)), basis)
    raise ValueError(f"build_thermal_state_doubled needs a doubled basis, got {basis.kind}")


def build_thermal_state_doubled(
    beta: float,
    omega: float,
    hbar: float = 1.0,
    basis: BasisDescriptor | None = None,
) -> tuple[StateVector, StateVector]:
    """Thermal vacuum |0(beta)> by two independent routes.

    Route one sums the series directly: amplitudes x^{n/2} on the pair states
    |n, n~> (bosons) or the expanded product (1 + tan(theta) a^dag a~^dag)
    (1 + tan(theta) b^dag b~^dag)|0> (fermions), normalised.  It is the
    definition of the thermal vacuum, and ``evolve_doubled_thermal`` starts
    from it.  Route two exponentiates the squeeze generator, the paper's
    construction: exp(theta (a^dag a~^dag - a~ a))|0> and its two-channel
    fermion analogue.  The generator G is real and antisymmetric, so iG is
    Hermitian and exp(G) is the march's own spectral exponential of iG at
    unit step and hbar.  They must agree to truncation tolerance (bosons) or
    round-off (fermions); returned as (series, squeezed).
    """
    if basis is None:
        basis = boson_doubled(DEFAULT_N_LEVELS)
    series = _thermal_series(beta, omega, hbar, basis)
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        x = _boltzmann_ratio(beta, omega, hbar, n)
        th = thermal_theta(beta, omega, hbar, "boson")
        # The squeeze exponential is evaluated on a padded pair ladder and
        # projected back: exponentiating the generator truncated hard at n
        # reflects amplitude off the boundary and would contaminate the top
        # levels at the x^(n/2) scale (amplitude, not population).
        m_pad = n if x == 0.0 else max(n, math.ceil(-74.0 / math.log(x)))
        gen = np.zeros((m_pad, m_pad))
        for m in range(m_pad - 1):
            gen[m + 1, m] = th * (m + 1)   # a^dag a~^dag raises the pair level
            gen[m, m + 1] = -th * (m + 1)  # a~ a lowers it
        pair = _expi_neg_hermitian(1j * gen, 1.0, 1.0)[:n, 0]
        pair /= np.linalg.norm(pair)
        levels = np.arange(n)
        c_squeezed = np.zeros((n, n), dtype=complex)
        c_squeezed[levels, levels] = pair
        return series, StateVector(c_squeezed.reshape(-1), basis)

    ops = build_fermion_space(doubled=True)
    a, b = ops["a"].matrix, ops["b"].matrix
    at, bt = ops["a_tilde"].matrix, ops["b_tilde"].matrix
    th = thermal_theta(beta, omega, hbar, "fermion")
    gen = th * (a.conj().T @ at.conj().T - at @ a + b.conj().T @ bt.conj().T - bt @ b)
    return series, StateVector(_expi_neg_hermitian(1j * gen, 1.0, 1.0)[:, 0], basis)  # on |0>


# ---------------------------------------------------------------------------
# expectations and evolution
# ---------------------------------------------------------------------------

def expectation(state: DensityMatrix | StateVector, op: OperatorMatrix) -> complex:
    """Tr[rho A] or <psi|A|psi> on a shared basis."""
    if isinstance(state, DensityMatrix):
        _check_basis(state.basis, op.basis, "expectation")
        return complex(np.trace(state.matrix @ op.matrix))
    _check_basis(state.basis, op.basis, "expectation")
    return complex(np.vdot(state.vector, op.matrix @ state.vector))


def expectation_single_factor(
    psi: StateVector, op: OperatorMatrix, tilde: bool = False
) -> complex:
    """<psi| A (x) I |psi> (or I (x) A with ``tilde``) on the doubled boson basis.

    Works on the (n x n) coefficient matrix directly -- no n^2-dimensional
    Kronecker product: <A (x) I> = tr(C^dag A C), <I (x) A> = tr(A C^T C*).
    """
    if psi.basis.kind != "boson_doubled":
        raise ValueError("expectation_single_factor needs the doubled boson basis")
    if op.basis.kind != "boson_single" or op.basis.n_levels != psi.basis.n_levels:
        raise ValueError("operator must live on the matching single boson basis")
    c = psi.c_matrix()
    if tilde:
        return complex(np.trace(op.matrix @ (c.T @ c.conj())))
    return complex(np.trace(c.conj().T @ (op.matrix @ c)))


def _expi_neg_hermitian(h: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """exp(-i H dt / hbar) for a Hermitian H, or a stack of them, via spectral
    decomposition.  A real symmetric H takes the real eigensolver, and its
    exponential Q diag(phases) Q^T is then assembled by a real product."""
    w, q = np.linalg.eigh(h)
    phases = np.exp(-1j * w * (dt / hbar))
    if np.isrealobj(q):
        # Q times the interleaved (real, imaginary) columns of diag(phases) Q^T
        right = np.multiply(phases[..., :, None], q.swapaxes(-1, -2), order="C")
        return (q @ right.view(float)).view(complex)
    return (q * phases[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _cfm4_steps(exponent_h: np.ndarray, step: float, hbar: float) -> np.ndarray:
    """Propagators of a stack of steps, each the product of its J
    exponentials in the order they apply.

    ``exponent_h[j]`` is the j-th exponent applied in each step; its shape is
    (J, ..., n, n) and the result's (..., n, n).  A CFM4 step has J = 2: the
    node Hamiltonians weighted by row j of ``_CFM4_WEIGHTS``.  A step of
    constant H has J = 1 and the exponent H itself, since the two CFM4
    exponentials then commute and multiply to exp(-i H step / hbar).
    """
    e = _expi_neg_hermitian(exponent_h, step, hbar)
    u = e[0]
    for later in e[1:]:
        u = later @ u
    return u


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[-1] @ ... @ u[1] @ u[0], by rounds of pairwise batched products."""
    while len(u) > 1:
        paired = u[1::2] @ u[:-1:2]
        u = np.concatenate([paired, u[-1:]]) if len(u) % 2 else paired
    return u[0]


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


def _boson_invariant_factor(
    coeffs: SimpleNamespace, basis: BasisDescriptor, tilde: bool
) -> np.ndarray:
    f_minus, f_plus = _named_coefficients(coeffs, ("f_minus", "f_plus"), basis)
    a_op, ad_op = build_boson_ladder(basis.n_levels)
    if tilde:  # a~(t) = f-* a~ + f+* a~^dag
        return np.conj(f_minus) * a_op.matrix + np.conj(f_plus) * ad_op.matrix
    return f_minus * a_op.matrix + f_plus * ad_op.matrix


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
    if basis.kind == "boson_single":
        return OperatorMatrix(_boson_invariant_factor(coeffs, basis, False), basis, "a(t)")
    if basis.kind == "boson_doubled":
        eye = np.eye(basis.n_levels, dtype=complex)
        factor = _boson_invariant_factor(coeffs, basis, tilde)
        mat = np.kron(eye, factor) if tilde else np.kron(factor, eye)
        return OperatorMatrix(mat, basis, "a~(t)" if tilde else "a(t)")

    if channel not in ("a", "b"):
        raise ValueError(f"channel must be 'a' or 'b', got {channel!r}")
    names = tuple(f"{c}_{channel}_{s}" for c in "fg" for s in ("minus", "plus"))
    f_minus, f_plus, g_minus, g_plus = _named_coefficients(coeffs, names, basis)
    ops = build_fermion_space(doubled=basis.kind == "fermion_doubled")
    if tilde:
        f_minus, f_plus = np.conj(f_minus), np.conj(f_plus)
        g_minus, g_plus = np.conj(g_minus), np.conj(g_plus)
        a, b = ops["a_tilde"].matrix, ops["b_tilde"].matrix
        label = f"{channel}~(t)"
    else:
        a, b = ops["a"].matrix, ops["b"].matrix
        label = f"{channel}(t)"
    mat = (
        f_minus * a + f_plus * a.conj().T + g_minus * b + g_plus * b.conj().T
    )
    return OperatorMatrix(mat, basis, label)


def thermal_state_condition_residual(
    psi: StateVector,
    coeffs: SimpleNamespace,
    theta: float,
) -> dict[str, float]:
    """Residual norms of the thermal-vacuum eigenvalue conditions.

    ``coeffs`` is any record with the coefficients ``psi``'s basis needs (see
    ``invariant_operator_matrix``).  Boson: || (a(t) - tanh(theta)
    a~^dag(t)) psi || and the tilde partner || (a~(t) - tanh(theta)
    a^dag(t)) psi ||.  Fermion: four residuals with the sign structure
    a psi = tan(theta) a~^dag psi, a~ psi = -tan(theta) a^dag psi, and the
    same for the b channel.  All vanish identically for the exact evolved
    thermal vacuum.
    """
    if psi.basis.kind == "boson_doubled":
        tan = math.tanh(theta)
        c = psi.c_matrix()
        a_t = _boson_invariant_factor(coeffs, psi.basis, tilde=False)
        at_t = _boson_invariant_factor(coeffs, psi.basis, tilde=True)
        at_t_dag = at_t.conj().T
        # (X (x) I) psi -> X C ; (I (x) Y) psi -> C Y^T
        r_a = a_t @ c - tan * (c @ at_t_dag.T)
        r_at = c @ at_t.T - tan * (a_t.conj().T @ c)
        return {
            "a": float(np.linalg.norm(r_a)),
            "a_tilde": float(np.linalg.norm(r_at)),
        }

    if psi.basis.kind != "fermion_doubled":
        raise ValueError(f"thermal-state residuals need a doubled basis, got {psi.basis.kind}")
    tan = math.tan(theta)
    v = psi.vector
    out: dict[str, float] = {}
    for channel in ("a", "b"):
        op = invariant_operator_matrix(coeffs, psi.basis, tilde=False, channel=channel)
        op_t = invariant_operator_matrix(coeffs, psi.basis, tilde=True, channel=channel)
        r = op.matrix @ v - tan * (op_t.dag.matrix @ v)
        r_t = op_t.matrix @ v + tan * (op.dag.matrix @ v)
        out[channel] = float(np.linalg.norm(r))
        out[channel + "_tilde"] = float(np.linalg.norm(r_t))
    return out


@functools.lru_cache(maxsize=8)
def _commutator_defect(n_levels: int) -> float:
    """max |[a, a^dag] - 1| on the lower 90% of the retained levels."""
    cutoff = int(math.floor(0.9 * n_levels))
    a_op, ad_op = build_boson_ladder(n_levels)
    a, ad = a_op.matrix, ad_op.matrix
    return float(np.max(np.abs((a @ ad - ad @ a - np.eye(n_levels))[:cutoff, :cutoff])))


def truncation_report(psi: StateVector) -> TruncationReport:
    """Tail population and edge-restricted commutator defect for a state."""
    kind = psi.basis.kind
    if kind in ("fermion_single", "fermion_doubled"):
        return TruncationReport(0.0, 0.0)
    n = psi.basis.n_levels
    cutoff = int(math.floor(0.9 * n))
    if kind == "boson_single":
        tail = float(np.sum(np.abs(psi.vector[cutoff:]) ** 2))
    else:
        c = psi.c_matrix()
        weight = np.abs(c) ** 2
        tail = float(weight[cutoff:, :].sum() + weight[:cutoff, cutoff:].sum())
    return TruncationReport(tail, _commutator_defect(n))


# ---------------------------------------------------------------------------
# doubled-space evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    """Resolution settings for brute-force evolution, and only those: hbar,
    like beta, is an argument of ``evolve_doubled_thermal``.

    ``substeps_per_unit`` counts matrix exponentials per unit time where H
    varies; a CFM4 step spends two.  A piece of the march over which every
    sampled coefficient is the same takes one exponential whatever its
    length (``evolve_doubled_thermal``).
    """

    n_levels: int = DEFAULT_N_LEVELS
    substeps_per_unit: float = 500.0
    grid_points: int = 201
    tail_abort: float = 1e-6

    def __post_init__(self) -> None:
        boson_doubled(self.n_levels)  # raises for an unsupported level count
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if not 0.0 < self.substeps_per_unit < math.inf:
            raise ValueError("substeps_per_unit must be positive and finite")
        if not self.tail_abort > 0:
            raise ValueError("tail_abort must be positive")


@dataclass
class DoubledTrajectory:
    """Sampled doubled-space states with their bookkeeping."""

    t: np.ndarray
    states: list[StateVector]
    basis: BasisDescriptor
    norm_deviation: np.ndarray
    tail_weight: np.ndarray
    beta: float
    hbar: float
    protocol: Protocol


def _coefficients(
    protocol: Protocol, times: np.ndarray, frame: tuple[float, float]
) -> np.ndarray:
    """The real coefficients of H at each of ``times``: ``omega0``, then the
    real and imaginary part of each coupling channel.  An oscillator gives
    (w0, w+, 0) in the static ``frame`` (mass, omega)."""
    sample = sampler(protocol)
    samples = [sample(t) for t in times.ravel().tolist()]
    if protocol.kind == "oscillator":
        w = [oscillator_boson_coefficients(mass, omega, *frame) + (0.0,) for mass, omega in samples]
    else:
        w = [(s[0], *(x for c in s[1:] for x in (c.real, c.imag))) for s in samples]
    return np.array(w).reshape(times.shape + (-1,))


def _propagators(
    pieces: list[tuple[np.ndarray, float]], bases: list[np.ndarray], hbar: float
) -> list[list[np.ndarray]]:
    """Each piece's propagator on each block: the ordered product of its
    steps, from the piece's (exponent coefficients, step) pair.  The
    coefficients have shape (J, steps, coefficients), J exponents per step
    (``_cfm4_steps``).

    A generator is sum_j c_j B_j over a block's stack of operators B, less
    the terms whose coefficient vanishes throughout the piece; when the rest
    are real it is real symmetric and takes the real eigensolver (always for
    oscillators, and for real couplings).  The steps are taken in aligned
    blocks of S, the largest power of two with S n^2 <= _SUB_BATCH: each
    block's generators, exponentials and ordered product in turn, then the
    product of the block products.  So a thread holds one block of steps
    whatever the piece's length, and every bit is the whole piece's: eigh,
    tensordot and matmul work matrix by matrix, and for a power-of-two S
    ``_ordered_product`` pairs the same factors.  Pure numpy, so it may run
    on any thread.
    """
    out = []
    for exponents, step in pieces:
        live = np.any(exponents != 0.0, axis=(0, 1))
        coeffs = exponents[..., live]
        per_block = []
        for basis in bases:
            terms = basis[live]
            if not np.any(terms.imag):
                terms = terms.real
            size = 1 << (max(1, _SUB_BATCH // terms[0].size).bit_length() - 1)
            products = []
            for s in range(0, coeffs.shape[1], size):
                h = np.tensordot(coeffs[:, s:s + size], terms, axes=1)
                products.append(_ordered_product(_cfm4_steps(h, step, hbar)))
            per_block.append(_ordered_product(np.stack(products)))
        out.append(per_block)
    return out


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


def evolve_doubled_thermal(
    protocol: Protocol, beta: float, config: OracleConfig | None = None, hbar: float = 1.0
) -> DoubledTrajectory:
    """Evolve the thermal vacuum under H_hat(t) = H(t) - H~(t).

    Starts from the series construction of |0(beta)> at the initial
    frequency (route one of ``build_thermal_state_doubled``, so no evolution
    depends on the squeeze exponential) and marches CFM4 steps,
    ``config.substeps_per_unit`` exponentials per unit time (two per step),
    restarting cleanly at every output time and declared jump.  A piece of
    the march (at most 512 exponentials of one cut interval) whose sampled
    coefficients are all the same is advanced by one exponential per block,
    exp(-i H span / hbar): in exact arithmetic the product the configured
    CFM4 steps form from the same samples, without their round-off and at
    one exponential instead of two per step.  Boson states are
    advanced on the even and the odd block of their coefficient matrix
    (C_b -> U_b C_b U_b^dag); fermion states on the two 4-dimensional parity
    sectors that hold the thermal vacuum.  The full state is assembled only
    at output times, where it is validated and its truncation tail
    measured: the evolution aborts with a diagnostic if the tail passes
    ``config.tail_abort``.

    The calling thread samples the protocol, in time order, and applies the
    propagators and records the states, also in order.  When the march
    forms more than one task of about 2^18 generator elements, a thread pool
    with one thread per available CPU builds the propagators ahead of it,
    at most one task more than it has threads.  A thread builds a piece in
    blocks of steps (``_propagators``), so what it holds does not grow with
    the piece's length.  numpy's OpenBLAS is held at one thread throughout,
    on the pool and on the calling thread alone.
    Every piece keeps the arithmetic of the one-thread march, so the states
    are the same to the bit.  The protocol is therefore sampled ahead of the
    output times: up to a task ahead on one thread, up to one more task than
    the pool has threads with it.  When a protocol call raises, the pieces
    sampled before it are applied first, so a truncation abort at an earlier
    output time is raised in its place.
    """
    config = config or OracleConfig()
    frame = initial_frame(protocol)

    grid = np.linspace(protocol.t_i, protocol.t_f, config.grid_points)
    cuts = sorted(set(grid.tolist()) | set(protocol.jump_times))

    # H (boson) and H_hat (fermion) are linear in the real coefficients, so
    # each block's generator is sum_j c_j B_j, with B_j the generator at the
    # j-th unit coefficient restricted to the block.
    boson = statistics_of(protocol) != "fermion"
    if boson:
        n = config.n_levels
        basis, shape = boson_doubled(n), (n, n)
        sectors = [np.arange(p, n, 2) for p in (0, 1)]  # even and odd number states
        index = [np.ix_(idx, idx) for idx in sectors]
        unit_generators = [
            build_boson_hamiltonian(*w, n).matrix for w in ((1, 0), (0, 1), (0, 1j))
        ]
    else:
        basis, shape = fermion_doubled(), (16,)
        sectors = index = _FERMION_SECTORS
        unit_generators = [
            build_fermion_hamiltonian(*w, doubled=True).h_hat.matrix
            for w in ((1, 0, 0), (0, 1, 0), (0, 1j, 0), (0, 0, 1), (0, 0, 1j))
        ]
    bases = [np.stack(unit_generators)[:, idx[:, None], idx] for idx in sectors]
    psi0 = _thermal_series(beta, frame[1], hbar, basis)
    blocks = [psi0.vector.reshape(shape)[idx] for idx in index]

    def assemble() -> np.ndarray:
        full = np.zeros(shape, dtype=complex)
        for idx, block in zip(index, blocks):
            full[idx] = block
        return full.reshape(-1)

    states: list[StateVector] = []
    norm_dev: list[float] = []
    tails: list[float] = []

    def record(time: float) -> None:
        vec = assemble()
        norm = float(np.linalg.norm(vec))
        psi = StateVector(vec / norm if abs(norm - 1.0) > 1e-10 else vec, basis)
        report = truncation_report(psi)
        if report.tail_weight > config.tail_abort:
            raise TruncationError(
                f"truncation tail {report.tail_weight:.3e} exceeds "
                f"{config.tail_abort:.0e} at t = {time:.6g}; increase n_levels "
                f"beyond {config.n_levels}"
            )
        states.append(psi)
        norm_dev.append(abs(norm - 1.0))
        tails.append(report.tail_weight)

    record(float(grid[0]))
    grid_set = {float(t) for t in grid[1:]}

    # A piece is one chunk of at most _CHUNK exponentials of one cut
    # interval: its node times, its step, its span, and the output time its
    # end reaches, if any.  Consecutive pieces form tasks of about
    # _TASK_ELEMENTS.
    per_step = 2 * sum(b[0].size for b in bases)
    tasks: list[list[tuple[np.ndarray, float, float, float | None]]] = [[]]
    size = 0
    for left, right in zip(cuts[:-1], cuts[1:]):
        steps = max(1, math.ceil(config.substeps_per_unit * (right - left) / 2.0))
        step = (right - left) / steps
        for first in range(0, steps, _CHUNK // 2):
            if size >= _TASK_ELEMENTS:
                tasks.append([])
                size = 0
            k = np.arange(first, min(first + _CHUNK // 2, steps))
            last = k[-1] == steps - 1
            span = (right if last else left + (k[-1] + 1) * step) - (left + k[0] * step)
            end = float(right) if last and float(right) in grid_set else None
            tasks[-1].append((left + (k + _CFM4_NODES[:, None]) * step, step, span, end))
            size += per_step * len(k)

    def exponents(task) -> tuple[list[tuple[np.ndarray, float]], Exception | None]:
        """The task's pieces' (exponents, step), up to the first piece whose
        protocol sampling raises, and that exception.  The march applies the
        pieces sampled before it raises it, so that a truncation abort that
        comes first in time wins."""
        work = []
        for times, step, span, _ in task:
            try:
                coeffs = _coefficients(protocol, times, frame)
            except Exception as exc:
                return work, exc
            if np.all(coeffs == coeffs[0, 0]):  # constant H: one exponential spans the piece
                work.append((hbar * coeffs[:1, :1], span))
            else:
                work.append((np.tensordot(_CFM4_WEIGHTS, hbar * coeffs, axes=1), step))
        return work, None

    def apply(task, propagators: list[list[np.ndarray]]) -> None:
        for (*_, end), per_block in zip(task, propagators):
            for b, u in enumerate(per_block):
                blocks[b] = u @ blocks[b] @ u.conj().T if boson else u @ blocks[b]
            if end is not None:
                record(end)

    # One thread per available CPU and at most one per task, and one where
    # OpenBLAS cannot be held at one thread (its threads would contend with
    # the pool's).  On one thread a task's protocol samples are taken first,
    # and its pieces are applied one at a time.
    threads = min(len(tasks), _thread_share or _available_cpus())
    error = None
    with _one_blas_thread():
        if threads == 1 or _openblas_threads() is None:
            for task in tasks:
                work, error = exponents(task)
                for piece, piece_work in zip(task, work):
                    apply([piece], _propagators([piece_work], bases, hbar))
                if error is not None:
                    break
        else:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(threads)  # starts its threads at the first submit
            in_flight: collections.deque = collections.deque()
            try:
                for task in tasks:
                    work, error = exponents(task)
                    in_flight.append((task[:len(work)], pool.submit(_propagators, work, bases, hbar)))
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
        states=states,
        basis=basis,
        norm_deviation=np.array(norm_dev),
        tail_weight=np.array(tails),
        beta=beta,
        hbar=hbar,
        protocol=protocol,
    )
