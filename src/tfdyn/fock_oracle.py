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
substep -- the full n^2-dimensional exponential is never materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import TruncationError
from .mode_solver import BosonModeVector, FermionModeState
from .protocols import (
    BosonProtocol,
    FermionProtocol,
    OscillatorProtocol,
    Protocol,
    evaluate,
    statistics_of,
)
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
    "evolve_unitary",
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
# Substeps whose propagators are built by one batched eigh; bounds the memory
# of the Hamiltonian stack.
_CHUNK = 512


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

def build_boson_ladder(n_levels: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Truncated annihilation/creation pair: a[n-1, n] = sqrt(n)."""
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


def build_fermion_space(doubled: bool = False) -> dict[str, OperatorMatrix]:
    """Annihilation operators on the exact fermion space.

    Mode order is a, b (single, dim 4) or a, b, a~, b~ (doubled, dim 16);
    daggers come from ``.dag``.
    """
    if doubled:
        basis = fermion_doubled()
        names = ("a", "b", "a_tilde", "b_tilde")
    else:
        basis = fermion_single()
        names = ("a", "b")
    mats = _jw_annihilators(len(names))
    return {name: OperatorMatrix(m, basis, name) for name, m in zip(names, mats)}


class FermionDoubledHamiltonians(NamedTuple):
    h: OperatorMatrix
    h_tilde: OperatorMatrix
    h_hat: OperatorMatrix  # h - h_tilde, the generator of doubled evolution


def _fermion_h(
    ops: dict[str, OperatorMatrix],
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

def thermal_density(
    beta: float, omega: float, hbar: float = 1.0, basis: BasisDescriptor | None = None
) -> DensityMatrix:
    """Gibbs state e^{-beta hbar w N}/Z on a single-system basis.

    The number operator is a^dag a for bosons and a^dag a - b^dag b for the
    fermion pair (the b mode carries negative energy); weights are shifted by
    the ground energy before exponentiation so large beta never overflows.
    """
    if basis is None:
        basis = boson_single(DEFAULT_N_LEVELS)
    if basis.kind == "boson_single":
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


def _required_levels(x: float) -> int:
    return max(2, math.ceil(math.log(TAIL_REFUSAL) / math.log(x)) + 1)


def build_thermal_state_doubled(
    beta: float,
    omega: float,
    hbar: float = 1.0,
    basis: BasisDescriptor | None = None,
) -> tuple[StateVector, StateVector]:
    """Thermal vacuum |0(beta)> by two independent routes.

    Route one sums the series directly: amplitudes x^{n/2} on the pair states
    |n, n~> (bosons) or the expanded product (1 + tan(theta) a^dag a~^dag)
    (1 + tan(theta) b^dag b~^dag)|0> (fermions), normalised.  Route two
    exponentiates the squeeze generator: exp(theta (a^dag a~^dag - a~ a))|0>
    and its two-channel fermion analogue.  They must agree to truncation
    tolerance (bosons) or round-off (fermions); returned as (series, squeezed).
    """
    if basis is None:
        basis = boson_doubled(DEFAULT_N_LEVELS)
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        x = math.exp(-min(beta * hbar * omega, EXP_ARG_MAX))
        if x > 0.0 and x**n > TAIL_REFUSAL:
            raise TruncationError(
                f"geometric tail x^N = {x**n:.3e} exceeds {TAIL_REFUSAL:.0e} at "
                f"N = {n}; use at least {_required_levels(x)} levels for "
                f"beta*hbar*omega = {beta * hbar * omega:.4g}"
            )
        levels = np.arange(n)
        amps = x ** (0.5 * levels)
        amps /= np.linalg.norm(amps)
        c_series = np.zeros((n, n), dtype=complex)
        c_series[levels, levels] = amps

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
        pair = expm(gen)[:n, 0]
        pair /= np.linalg.norm(pair)
        c_squeezed = np.zeros((n, n), dtype=complex)
        c_squeezed[levels, levels] = pair
        return (
            StateVector(c_series.reshape(-1), basis),
            StateVector(c_squeezed.reshape(-1), basis),
        )

    if basis.kind == "fermion_doubled":
        ops = build_fermion_space(doubled=True)
        a = ops["a"].matrix
        b = ops["b"].matrix
        at = ops["a_tilde"].matrix
        bt = ops["b_tilde"].matrix
        th = thermal_theta(beta, omega, hbar, "fermion")
        tan = math.tan(th)
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        eye = np.eye(16, dtype=complex)
        pair_a = eye + tan * (a.conj().T @ at.conj().T)
        pair_b = eye + tan * (b.conj().T @ bt.conj().T)
        series = math.cos(th) ** 2 * (pair_a @ (pair_b @ vac))

        gen = th * (
            a.conj().T @ at.conj().T - at @ a + b.conj().T @ bt.conj().T - bt @ b
        )
        squeezed = expm(gen) @ vac
        return StateVector(series, basis), StateVector(squeezed, basis)

    raise ValueError(f"build_thermal_state_doubled needs a doubled basis, got {basis.kind}")


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
    """exp(-i H dt / hbar) for Hermitian H via spectral decomposition."""
    w, q = np.linalg.eigh(h)
    phases = np.exp(-1j * w * (dt / hbar))
    return (q * phases) @ q.conj().T


def evolve_unitary(
    h_of_t: Callable[[float], OperatorMatrix | np.ndarray],
    t_i: float,
    t_f: float,
    substeps: int | None = None,
    hbar: float = 1.0,
) -> OperatorMatrix:
    """Ordered product of exp(-i H(t_k) dt / hbar) over midpoint-sampled substeps.

    Default resolution is 2000 substeps per unit time; for a constant H any
    count is exact.  Each factor is unitary to round-off, so U is as well.
    """
    span = t_f - t_i
    if span < 0:
        raise ValueError("t_f must not precede t_i")
    if substeps is None:
        substeps = max(1, math.ceil(2000 * span))
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    first = h_of_t(t_i + 0.5 * span / substeps)
    basis = first.basis if isinstance(first, OperatorMatrix) else None
    dim = (first.matrix if basis else np.asarray(first)).shape[0]

    u = np.eye(dim, dtype=complex)
    dt = span / substeps
    for k in range(substeps):
        h = h_of_t(t_i + (k + 0.5) * dt)
        mat = h.matrix if isinstance(h, OperatorMatrix) else np.asarray(h, dtype=complex)
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"non-finite Hamiltonian at t = {t_i + (k + 0.5) * dt}")
        u = _expi_neg_hermitian(mat, dt, hbar) @ u
    if basis is None:
        basis = BasisDescriptor("anonymous", dim)
    return OperatorMatrix(u, basis, "U")


# ---------------------------------------------------------------------------
# invariant operators and thermal-state conditions
# ---------------------------------------------------------------------------

def _boson_invariant_factor(coeffs: BosonModeVector, n_levels: int, tilde: bool) -> np.ndarray:
    a_op, ad_op = build_boson_ladder(n_levels)
    if tilde:  # a~(t) = f-* a~ + f+* a~^dag
        return np.conj(coeffs.f_minus) * a_op.matrix + np.conj(coeffs.f_plus) * ad_op.matrix
    return coeffs.f_minus * a_op.matrix + coeffs.f_plus * ad_op.matrix


def invariant_operator_matrix(
    coeffs: BosonModeVector | FermionModeState,
    basis: BasisDescriptor,
    tilde: bool = False,
    channel: str = "a",
) -> OperatorMatrix:
    """Invariant annihilation operator as a dense matrix.

    Boson: a(t) = f- a + f+ a^dag (the tilde copy carries conjugated
    coefficients).  Fermion: a(t) = fa- a + fa+ a^dag + ga- b + ga+ b^dag,
    channel "b" likewise.  On doubled bases the operator is embedded on its
    factor.  Note the doubled boson embedding materialises the Kronecker
    product; prefer the coefficient-matrix helpers at large n_levels.
    """
    if isinstance(coeffs, BosonModeVector):
        if basis.kind == "boson_single":
            if tilde:
                raise ValueError("tilde operators need the doubled basis")
            return OperatorMatrix(
                _boson_invariant_factor(coeffs, basis.n_levels, False), basis, "a(t)"
            )
        if basis.kind == "boson_doubled":
            n = basis.n_levels
            eye = np.eye(n, dtype=complex)
            factor = _boson_invariant_factor(coeffs, n, tilde)
            mat = np.kron(eye, factor) if tilde else np.kron(factor, eye)
            return OperatorMatrix(mat, basis, "a~(t)" if tilde else "a(t)")
        raise ValueError(f"boson coefficients cannot live on basis {basis.kind}")

    if basis.kind not in ("fermion_single", "fermion_doubled"):
        raise ValueError(f"fermion coefficients cannot live on basis {basis.kind}")
    if tilde and basis.kind != "fermion_doubled":
        raise ValueError("tilde operators need the doubled basis")
    if channel == "a":
        f_minus, f_plus = coeffs.f_a_minus, coeffs.f_a_plus
        g_minus, g_plus = coeffs.g_a_minus, coeffs.g_a_plus
    elif channel == "b":
        f_minus, f_plus = coeffs.f_b_minus, coeffs.f_b_plus
        g_minus, g_plus = coeffs.g_b_minus, coeffs.g_b_plus
    else:
        raise ValueError(f"channel must be 'a' or 'b', got {channel!r}")
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
    coeffs: BosonModeVector | FermionModeState,
    theta: float,
) -> dict[str, float]:
    """Residual norms of the thermal-vacuum eigenvalue conditions.

    Boson: || (a(t) - tanh(theta) a~^dag(t)) psi || and the tilde partner
    || (a~(t) - tanh(theta) a^dag(t)) psi ||.  Fermion: four residuals with
    the sign structure a psi = tan(theta) a~^dag psi,
    a~ psi = -tan(theta) a^dag psi, and the same for the b channel.  All
    vanish identically for the exact evolved thermal vacuum.
    """
    if isinstance(coeffs, BosonModeVector):
        if psi.basis.kind != "boson_doubled":
            raise ValueError("boson residuals need the doubled boson basis")
        tan = math.tanh(theta)
        n = psi.basis.n_levels
        c = psi.c_matrix()
        a_t = _boson_invariant_factor(coeffs, n, tilde=False)
        at_t = _boson_invariant_factor(coeffs, n, tilde=True)
        at_t_dag = at_t.conj().T
        # (X (x) I) psi -> X C ; (I (x) Y) psi -> C Y^T
        r_a = a_t @ c - tan * (c @ at_t_dag.T)
        r_at = c @ at_t.T - tan * (a_t.conj().T @ c)
        return {
            "a": float(np.linalg.norm(r_a)),
            "a_tilde": float(np.linalg.norm(r_at)),
        }

    if psi.basis.kind != "fermion_doubled":
        raise ValueError("fermion residuals need the doubled fermion basis")
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
    a_op, ad_op = build_boson_ladder(n)
    defect_block = (a_op.matrix @ ad_op.matrix - ad_op.matrix @ a_op.matrix - np.eye(n))[
        :cutoff, :cutoff
    ]
    return TruncationReport(tail, float(np.max(np.abs(defect_block))))


# ---------------------------------------------------------------------------
# doubled-space evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for brute-force evolution."""

    n_levels: int = DEFAULT_N_LEVELS
    substeps_per_unit: float = 2000.0
    grid_points: int = 201
    hbar: float = 1.0
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


def _boson_h_stack(
    protocol: Protocol, times: np.ndarray, n_levels: int, hbar: float
) -> np.ndarray:
    """Stack of single-system Hamiltonians H(t_k) for a boson or oscillator protocol."""
    a_op, ad_op = build_boson_ladder(n_levels)
    number = ad_op.matrix @ a_op.matrix
    raise_sq = ad_op.matrix @ ad_op.matrix
    lower_sq = a_op.matrix @ a_op.matrix
    if isinstance(protocol, BosonProtocol):
        samples = [evaluate(protocol, float(t)) for t in times]
        w0 = np.array([s.omega0 for s in samples])
        wp = np.array([complex(s.omega_plus) for s in samples])
    else:
        s0 = evaluate(protocol, protocol.t_i)
        samples = [evaluate(protocol, float(t)) for t in times]
        pairs = [
            oscillator_boson_coefficients(s.mass, s.omega, s0.mass, s0.omega)
            for s in samples
        ]
        w0 = np.array([p[0] for p in pairs])
        wp = np.array([complex(p[1]) for p in pairs])
    return hbar * (
        w0[:, None, None] * number
        + 0.5 * wp[:, None, None] * raise_sq
        + 0.5 * np.conj(wp)[:, None, None] * lower_sq
    )


def _fermion_hhat_stack(protocol: FermionProtocol, times: np.ndarray, hbar: float) -> np.ndarray:
    """Stack of doubled generators H_hat(t_k) assembled from fixed bilinears."""
    ops = build_fermion_space(doubled=True)
    blocks = {}
    for tag, x_name, y_name in (("", "a", "b"), ("t", "a_tilde", "b_tilde")):
        x, y = ops[x_name].matrix, ops[y_name].matrix
        blocks["num" + tag] = x.conj().T @ x - y.conj().T @ y
        blocks["pair" + tag] = x.conj().T @ y.conj().T
        blocks["mix" + tag] = x @ y.conj().T
    samples = [evaluate(protocol, float(t)) for t in times]
    w0 = np.array([s.omega0 for s in samples])[:, None, None]
    wp = np.array([complex(s.omega_plus) for s in samples])[:, None, None]
    wm = np.array([complex(s.omega_minus) for s in samples])[:, None, None]

    def quad(num, pair, mix, w_plus, w_minus):
        return (
            w0 * num
            + w_plus * pair - np.conj(w_plus) * pair.conj().swapaxes(-1, -2)
            + w_minus * mix - np.conj(w_minus) * mix.conj().swapaxes(-1, -2)
        )

    h = quad(blocks["num"], blocks["pair"], blocks["mix"], wp, wm)
    h_t = quad(blocks["numt"], blocks["pairt"], blocks["mixt"], np.conj(wp), np.conj(wm))
    return hbar * (h - h_t)


def _batched_propagators(h_stack: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    w, q = np.linalg.eigh(h_stack)
    phases = np.exp(-1j * w * (dt / hbar))
    return (q * phases[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))


def evolve_doubled_thermal(
    protocol: Protocol, beta: float, config: OracleConfig | None = None
) -> DoubledTrajectory:
    """Evolve the thermal vacuum under H_hat(t) = H(t) - H~(t).

    Starts from the squeezed construction of |0(beta)> at the initial
    frequency and marches midpoint-sampled substeps, restarting cleanly at
    declared jumps.  Boson states are advanced on their coefficient matrix
    (C -> U C U^dag); the 16-dimensional fermion space is evolved directly.
    Aborts with a diagnostic if the measured truncation tail passes
    ``config.tail_abort``.
    """
    config = config or OracleConfig()
    hbar = config.hbar
    stats = statistics_of(protocol)
    s0 = evaluate(protocol, protocol.t_i)

    grid = np.linspace(protocol.t_i, protocol.t_f, config.grid_points)
    cuts = sorted(set(grid.tolist()) | set(protocol.jump_times))

    if stats == "fermion":
        basis = fermion_doubled()
        _, psi0 = build_thermal_state_doubled(beta, s0.omega0, hbar, basis)
        state: np.ndarray = psi0.vector.copy()
    else:
        omega_i = s0.omega0 if isinstance(protocol, BosonProtocol) else s0.omega
        basis = boson_doubled(config.n_levels)
        _, psi0 = build_thermal_state_doubled(beta, omega_i, hbar, basis)
        state = psi0.c_matrix().copy()

    states: list[StateVector] = []
    norm_dev: list[float] = []
    tails: list[float] = []

    def record(time: float) -> None:
        vec = state.reshape(-1) if stats != "fermion" else state
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

    for left, right in zip(cuts[:-1], cuts[1:]):
        span = right - left
        n_sub = max(1, math.ceil(config.substeps_per_unit * span))
        done = 0
        while done < n_sub:
            take = min(_CHUNK, n_sub - done)
            dt = span / n_sub
            mids = left + (done + np.arange(take) + 0.5) * dt
            if stats == "fermion":
                h_stack = _fermion_hhat_stack(protocol, mids, hbar)
                for u in _batched_propagators(h_stack, dt, hbar):
                    state = u @ state
            else:
                h_stack = _boson_h_stack(protocol, mids, config.n_levels, hbar)
                for u in _batched_propagators(h_stack, dt, hbar):
                    state = u @ state @ u.conj().T
            done += take
        if float(right) in grid_set:
            record(float(right))

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
