"""Unit tests for the brute-force Fock-space oracle.

Everything here is checked against hand-countable matrix elements or exact
operator algebra on small spaces; the oracle must stand on its own feet
before it is allowed to referee the analytic modules.
"""

import ast
import cmath
import importlib
import inspect
import math
import pkgutil
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import tfdyn.fock_oracle
from tfdyn.protocols import initial_frame
from tfdyn import (
    BosonProtocol,
    Constant,
    FermionProtocol,
    OscillatorProtocol,
    Step,
    TruncationError,
    equilibrium_occupation,
    evaluate,
    make_tanh_ramp,
    theta,
)
from tfdyn.fock_oracle import (
    BasisDescriptor,
    DensityMatrix,
    OperatorMatrix,
    OracleConfig,
    StateVector,
    boson_doubled,
    boson_single,
    build_boson_hamiltonian,
    build_boson_ladder,
    build_fermion_hamiltonian,
    build_fermion_space,
    build_oscillator_hamiltonian,
    build_thermal_state_doubled,
    evolve_doubled_thermal,
    expectation,
    expectation_single_factor,
    fermion_doubled,
    fermion_single,
    frame_annihilation,
    invariant_operator_matrix,
    momentum_operator,
    oscillator_boson_coefficients,
    position_operator,
    thermal_density,
    thermal_state_condition_residual,
    truncation_report,
)

LN2 = math.log(2.0)
EPS = np.finfo(float).eps
SQRT3 = math.sqrt(3.0)
# Two-exponential commutator-free Magnus step at the Gauss-Legendre nodes.
CFM4_NODES = (0.5 - SQRT3 / 6.0, 0.5 + SQRT3 / 6.0)
CFM4_A1, CFM4_A2 = (3.0 - 2.0 * SQRT3) / 12.0, (3.0 + 2.0 * SQRT3) / 12.0


def dense_cfm4(h_of_t, cuts, substeps_per_unit):
    """Reference propagator: dense expm CFM4 steps, two exponentials per
    step, ceil(substeps_per_unit * span / 2) steps between consecutive cuts."""
    u = None
    for left, right in zip(cuts[:-1], cuts[1:]):
        steps = max(1, math.ceil(substeps_per_unit * (right - left) / 2.0))
        h = (right - left) / steps
        for k in range(steps):
            h1, h2 = (h_of_t(left + (k + c) * h) for c in CFM4_NODES)
            step = expm(-1j * h * (CFM4_A1 * h1 + CFM4_A2 * h2)) @ expm(
                -1j * h * (CFM4_A2 * h1 + CFM4_A1 * h2)
            )
            u = step if u is None else step @ u
    return u


def complex_coupling_ramp(t_f=1.0):
    """Boson protocol whose w+ switches on with a fixed complex phase."""
    ramp = make_tanh_ramp(0.0, 0.3, 0.5 * t_f, 0.1 * t_f)
    return BosonProtocol(
        Constant(1.0), lambda t: ramp(t) * np.exp(0.7j), t_i=0.0, t_f=t_f
    )


class TestBases:
    def test_dimensions(self):
        assert boson_single(5).dimension == 5
        assert boson_doubled(5).dimension == 25
        assert fermion_single().dimension == 4
        assert fermion_doubled().dimension == 16

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            boson_single(1)
        with pytest.raises(ValueError):
            boson_doubled(1)

    def test_doubled_levels_capped(self):
        with pytest.raises(ValueError, match="capped"):
            boson_doubled(257)


class TestContainers:
    def test_operator_shape_checked(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.eye(3), boson_single(4))

    def test_dag_and_hermiticity(self):
        a_op, ad_op = build_boson_ladder(4)
        assert np.allclose(a_op.dag.matrix, ad_op.matrix, atol=0)
        assert np.max(np.abs(a_op.matrix - a_op.dag.matrix)) > 1.0
        h = build_boson_hamiltonian(1.0, 0.3 + 0.4j, 6)
        assert np.max(np.abs(h.matrix - h.dag.matrix)) < 1e-15

    def test_density_matrix_validation(self):
        basis = boson_single(3)
        good = np.diag([0.5, 0.3, 0.2]).astype(complex)
        DensityMatrix(good, basis)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(good + 1e-6 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]]), basis)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2 * good, basis)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.1, -0.1, 0.0]).astype(complex), basis)

    def test_state_vector_norm_checked(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0, 0.0]), boson_single(3))

    def test_nan_state_vector_refused(self):
        """A NaN norm fails the check, where a comparison with > would pass it."""
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([math.nan, 0.0, 0.0]), boson_single(3))

    def test_state_vector_shape_checked(self):
        with pytest.raises(ValueError, match="shape does not match basis"):
            StateVector(np.array([1.0, 0.0]), boson_single(3))

    def test_c_matrix_boson_doubled_only(self):
        v = np.zeros(16, dtype=complex)
        v[0] = 1.0
        psi = StateVector(v, boson_doubled(4))
        assert psi.c_matrix().shape == (4, 4)
        with pytest.raises(ValueError):
            StateVector(v, fermion_doubled()).c_matrix()


class TestBosonOperators:
    def test_ladder_frozen_entries(self):
        a_op, ad_op = build_boson_ladder(3)
        expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2.0)], [0, 0, 0]])
        assert np.allclose(a_op.matrix, expected, atol=0)
        number = ad_op.matrix @ a_op.matrix
        assert np.allclose(number, np.diag([0.0, 1.0, 2.0]), atol=0)

    def test_commutator_exact_below_corner(self):
        n = 12
        a_op, ad_op = build_boson_ladder(n)
        comm = a_op.matrix @ ad_op.matrix - ad_op.matrix @ a_op.matrix
        assert np.allclose(comm[: n - 1, : n - 1], np.eye(n - 1), atol=1e-14)
        assert comm[n - 1, n - 1] == pytest.approx(-(n - 1))  # truncation artefact

    def test_hamiltonian_frozen_entries(self):
        h = build_boson_hamiltonian(1.0, 1.0, 3).matrix
        root2 = math.sqrt(2.0)
        expected = np.array([
            [0.0, 0.0, root2 / 2],
            [0.0, 1.0, 0.0],
            [root2 / 2, 0.0, 2.0],
        ])
        assert np.allclose(h, expected, atol=1e-15)

    def test_canonical_commutator(self):
        n = 10
        q = position_operator(n, 1.3, 0.7).matrix
        p = momentum_operator(n, 1.3, 0.7).matrix
        comm = q @ p - p @ q
        assert np.allclose(comm[: n - 1, : n - 1], 1j * np.eye(n - 1), atol=1e-14)

    def test_no_public_callable_takes_hbar(self):
        """tfdyn works in units with hbar = 1, so no public function or class
        of any of its modules takes an hbar, and an old hbar passed to q, a
        thermal builder or an evolution fails with ``TypeError``."""
        takes_hbar = set()
        for info in pkgutil.iter_modules(tfdyn.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            module = importlib.import_module(f"tfdyn.{info.name}")
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == module.__name__
                    # an exception class has no signature of its own
                    and not (inspect.isclass(fn) and issubclass(fn, BaseException))
                    and "hbar" in inspect.signature(fn).parameters
                ):
                    takes_hbar.add(f"{module.__name__}.{name}")
        assert takes_hbar == set()
        with pytest.raises(TypeError):
            position_operator(4, 1.0, 1.0, 2.0)
        with pytest.raises(TypeError):
            thermal_density(1.0, 1.0, 2.0, basis=boson_single(10))
        with pytest.raises(TypeError):
            evolve_doubled_thermal(
                BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0), 1.0, hbar=2.0
            )

    def test_oscillator_coefficients_in_own_frame(self):
        w0, wp = oscillator_boson_coefficients(1.5, 2.0, 1.5, 2.0)
        assert w0 == pytest.approx(2.0, rel=1e-15)
        assert wp == pytest.approx(0.0, abs=1e-15)

    def test_oscillator_coefficients_sudden_jump_frame(self):
        # Frame (m, w_i) looking at frequency w_f: w0 = (w_f^2 + w_i^2)/(2 w_i)
        # and w+ = (w_f^2 - w_i^2)/(2 w_i); for 1 -> 2 that is (2.5, 1.5).
        w0, wp = oscillator_boson_coefficients(1.0, 2.0, 1.0, 1.0)
        assert w0 == pytest.approx(2.5, rel=1e-15)
        assert wp == pytest.approx(1.5, rel=1e-15)

    def test_oscillator_hamiltonian_matches_ladder_form(self):
        """p^2/2m + m w^2 q^2/2 equals the (w0, w+) ladder Hamiltonian plus
        the zero-point shift w0 / 2, both in frequency units, except at the
        truncation corner."""
        n, m, w, m_ref, w_ref = 9, 1.7, 0.9, 1.2, 1.1
        h_osc = build_oscillator_hamiltonian(m, w, n, m_ref, w_ref).matrix
        w0, wp = oscillator_boson_coefficients(m, w, m_ref, w_ref)
        h_ladder = build_boson_hamiltonian(w0, wp, n).matrix + 0.5 * w0 * np.eye(n)
        diff = np.abs(h_osc - h_ladder)
        diff[n - 1, n - 1] = 0.0
        assert np.max(diff) < 1e-13

    def test_frame_annihilation_in_reference_frame_is_bare(self):
        a_f = frame_annihilation(1.2, 0.8, 7, 1.2, 0.8).matrix
        a_op, _ = build_boson_ladder(7)
        assert np.allclose(a_f, a_op.matrix, atol=1e-15)

    def test_frame_annihilation_canonical(self):
        n = 14
        a_f = frame_annihilation(2.0, 3.0, n, 1.0, 1.0).matrix
        comm = a_f @ a_f.conj().T - a_f.conj().T @ a_f
        assert np.allclose(comm[: n - 2, : n - 2], np.eye(n - 2), atol=1e-13)


class TestFermionOperators:
    def test_single_space_algebra(self):
        ops = build_fermion_space()
        a, b = ops["a"].matrix, ops["b"].matrix
        eye = np.eye(4)
        assert np.allclose(a @ a, 0.0, atol=0)
        assert np.allclose(a @ a.conj().T + a.conj().T @ a, eye, atol=0)
        assert np.allclose(b @ b.conj().T + b.conj().T @ b, eye, atol=0)
        # Mixed anticommutators vanish thanks to the parity strings.
        assert np.allclose(a @ b + b @ a, 0.0, atol=0)
        assert np.allclose(a @ b.conj().T + b.conj().T @ a, 0.0, atol=0)

    def test_doubled_space_algebra(self):
        ops = build_fermion_space(doubled=True)
        eye = np.eye(16)
        for name, op in ops.items():
            m = op.matrix
            assert np.allclose(m @ m, 0.0, atol=0), name
            assert np.allclose(m @ m.conj().T + m.conj().T @ m, eye, atol=0), name
        at = ops["a_tilde"].matrix
        a = ops["a"].matrix
        assert np.allclose(a @ at + at @ a, 0.0, atol=0)

    def test_diagonal_hamiltonian_spectrum(self):
        """w0 (a^dag a - b^dag b) has single-particle energies +-w0 and two
        zero modes (vacuum and the pair state)."""
        h = build_fermion_hamiltonian(1.0, 0.0, 0.0).matrix
        eigs = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eigs, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_hermitian_for_complex_couplings(self):
        h = build_fermion_hamiltonian(1.0, 0.3 - 0.2j, 0.1 + 0.4j)
        assert np.max(np.abs(h.matrix - h.dag.matrix)) < 1e-15

    def test_doubled_triple_consistency(self):
        triple = build_fermion_hamiltonian(1.0, 0.3 - 0.2j, 0.1 + 0.4j, doubled=True)
        assert np.allclose(
            triple.h_hat.matrix, triple.h.matrix - triple.h_tilde.matrix, atol=0
        )
        # The two factors commute: they act on different mode pairs.
        c = triple.h.matrix @ triple.h_tilde.matrix - triple.h_tilde.matrix @ triple.h.matrix
        assert np.max(np.abs(c)) < 1e-14


def tilde_swap(basis):
    """Unitary S exchanging a doubled basis's system with its tilde copy.

    Together with complex conjugation this realises tilde conjugation, so
    S (H_hat)* S = -H_hat for any doubled generator built by the rule (an
    anti-unitary that flips the sign of the physical generator).  Fermions
    pick up (-1)^((na+nb)(na~+nb~)) from reordering the modes.
    """
    if basis.kind == "boson_doubled":
        n = basis.n_levels
        s = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                s[j * n + i, i * n + j] = 1.0
        return s
    s = np.zeros((16, 16))
    for idx in range(16):
        bits = [(idx >> k) & 1 for k in (3, 2, 1, 0)]  # occupations a, b, a~, b~
        swapped = (bits[2] << 3) | (bits[3] << 2) | (bits[0] << 1) | bits[1]
        s[swapped, idx] = (-1.0) ** ((bits[0] + bits[1]) * (bits[2] + bits[3]))
    return s


class TestTildeConjugation:
    def test_swap_squares_to_identity(self):
        for basis in (boson_doubled(6), fermion_doubled()):
            s = tilde_swap(basis)
            assert np.allclose(s @ s, np.eye(basis.dimension), atol=0)

    def test_boson_generator_antisymmetry(self):
        """S (H_hat)* S = -H_hat for H_hat = H x 1 - 1 x H*."""
        n = 6
        h = build_boson_hamiltonian(1.0, 0.3 - 0.2j, n).matrix
        h_hat = np.kron(h, np.eye(n)) - np.kron(np.eye(n), h.conj())
        s = tilde_swap(boson_doubled(n))
        assert np.max(np.abs(s @ h_hat.conj() @ s + h_hat)) < 1e-14

    def test_fermion_generator_antisymmetry(self):
        triple = build_fermion_hamiltonian(1.3, 0.4 + 0.1j, -0.2 + 0.3j, doubled=True)
        s = tilde_swap(fermion_doubled())
        h_hat = triple.h_hat.matrix
        assert np.max(np.abs(s @ h_hat.conj() @ s + h_hat)) < 1e-14


class TestThermalStates:
    def test_boson_gibbs_occupation(self):
        rho = thermal_density(1.0, 1.0, basis=boson_single(60))
        a_op, ad_op = build_boson_ladder(60)
        number = OperatorMatrix(ad_op.matrix @ a_op.matrix, rho.basis)
        got = expectation(rho, number).real
        assert got == pytest.approx(equilibrium_occupation(1.0, 1.0), rel=1e-12)

    def test_fermion_gibbs_occupation(self):
        rho = thermal_density(LN2, 1.0, basis=fermion_single())
        ops = build_fermion_space()
        a = ops["a"].matrix
        number = OperatorMatrix(a.conj().T @ a, rho.basis)
        got = expectation(rho, number).real
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_hot_truncated_box_refused(self):
        """At beta*omega = 0.05 a 10-level box would keep 7.9 % of the
        population in its top level and report Tr rho a^dag a = 4.09, not
        19.5: the single-system builder refuses it like the doubled one."""
        with pytest.raises(TruncationError, match="use at least 369 levels"):
            thermal_density(0.05, 1.0, basis=boson_single(10))

    @pytest.mark.parametrize(
        "basis", [boson_doubled(4), fermion_doubled()], ids=["boson", "fermion"]
    )
    def test_gibbs_state_needs_a_single_basis(self, basis):
        with pytest.raises(ValueError, match=f"single-system basis, got {basis.kind}"):
            thermal_density(1.0, 1.0, basis=basis)

    @pytest.mark.parametrize(
        "basis", [boson_single(4), fermion_single()], ids=["boson", "fermion"]
    )
    def test_thermal_vacuum_needs_a_doubled_basis(self, basis):
        with pytest.raises(ValueError, match=f"needs a doubled basis, got {basis.kind}"):
            build_thermal_state_doubled(1.0, 1.0, basis=basis)

    @pytest.mark.parametrize(
        "beta_omega, required", [(LN2, 27), (0.05, 369), (0.5, 37), (1.0, 19), (3.0, 7)]
    )
    def test_truncation_hint_is_the_smallest_accepted_box(self, beta_omega, required):
        with pytest.raises(TruncationError, match=f"use at least {required} levels"):
            thermal_density(beta_omega, 1.0, basis=boson_single(2))
        thermal_density(beta_omega, 1.0, basis=boson_single(required))
        with pytest.raises(TruncationError, match=f"use at least {required} levels"):
            thermal_density(beta_omega, 1.0, basis=boson_single(required - 1))

    @pytest.mark.parametrize(
        "basis", [boson_single(10), fermion_single()], ids=["boson", "fermion"]
    )
    def test_nan_beta_refused(self, basis):
        """A NaN beta is a ValueError, not a failed eigensolve of NaN weights."""
        with pytest.raises(ValueError, match="NaN"):
            thermal_density(math.nan, 1.0, basis=basis)

    @pytest.mark.parametrize(
        "basis", [boson_single(10), fermion_single()], ids=["boson", "fermion"]
    )
    def test_infinite_beta_is_the_ground_state(self, basis):
        """beta = inf gives the ground level all the weight, as beta = 1e308
        does, with no NaN weight and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = thermal_density(math.inf, 1.0, basis=basis)
            large = thermal_density(1e308, 1.0, basis=basis)
        weights = np.diag(rho.matrix)
        assert np.count_nonzero(weights) == 1 and np.max(weights) == 1.0
        assert np.array_equal(rho.matrix, large.matrix)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_box_refused_without_hint_when_no_box_suffices(self, beta):
        with pytest.raises(TruncationError, match="no finite box holds this state"):
            thermal_density(beta, 1.0, basis=boson_single(10))

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_fermion_gibbs_state_refuses_a_non_positive_temperature_exponent(self, beta):
        """The exact pair has no box to refuse beta*omega <= 0, which
        would give the uniform state or weight the excited levels above the
        ground one: it is refused as the fermion thermal vacuum refuses it."""
        with pytest.raises(ValueError, match="must be positive"):
            thermal_density(beta, 1.0, basis=fermion_single())

    def test_thermal_vacuum_routes_agree_boson(self):
        series, squeezed = build_thermal_state_doubled(1.0, 1.0, basis=boson_doubled(60))
        assert np.linalg.norm(series.vector - squeezed.vector) < 1e-11

    def test_thermal_vacuum_routes_agree_fermion(self):
        series, squeezed = build_thermal_state_doubled(LN2, 1.0, basis=fermion_doubled())
        assert np.linalg.norm(series.vector - squeezed.vector) < 1e-14

    def test_thermal_vacuum_pair_amplitudes(self):
        """|0(beta)> carries amplitude x^{n/2} on |n, n~> and nothing off the
        pair diagonal (two-mode squeezed structure)."""
        beta = 1.0
        series, _ = build_thermal_state_doubled(beta, 1.0, basis=boson_doubled(30))
        c = series.c_matrix()
        x = math.exp(-beta)
        levels = np.arange(30)
        expected = x ** (0.5 * levels)
        expected /= np.linalg.norm(expected)
        assert np.allclose(np.diag(c), expected, atol=1e-15)
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) == 0.0

    def test_thermal_vacuum_reproduces_occupation(self):
        beta = 1.0
        _, psi = build_thermal_state_doubled(beta, 1.0, basis=boson_doubled(60))
        a_op, ad_op = build_boson_ladder(60)
        number = OperatorMatrix(ad_op.matrix @ a_op.matrix, boson_single(60))
        got = expectation_single_factor(psi, number).real
        assert got == pytest.approx(equilibrium_occupation(beta, 1.0), rel=1e-12)

    def test_fermion_thermal_vacuum_occupation(self):
        _, psi = build_thermal_state_doubled(LN2, 1.0, basis=fermion_doubled())
        ops = build_fermion_space(doubled=True)
        a = ops["a"].matrix
        n_a = OperatorMatrix(a.conj().T @ a, fermion_doubled())
        got = expectation(psi, n_a).real
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_hot_state_refused(self):
        with pytest.raises(TruncationError, match="levels"):
            build_thermal_state_doubled(0.05, 1.0, basis=boson_doubled(60))


class TestExpectations:
    def test_single_factor_matches_explicit_kron(self):
        n = 10
        _, psi = build_thermal_state_doubled(2.0, 1.2, basis=boson_doubled(n))
        a_op, ad_op = build_boson_ladder(n)
        number = OperatorMatrix(ad_op.matrix @ a_op.matrix, boson_single(n))
        embedded = OperatorMatrix(np.kron(number.matrix, np.eye(n)), boson_doubled(n))
        lhs = expectation_single_factor(psi, number)
        rhs = expectation(psi, embedded)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_single_factor_tilde_matches_explicit_kron(self):
        n = 10
        _, psi = build_thermal_state_doubled(2.0, 1.2, basis=boson_doubled(n))
        a_op, ad_op = build_boson_ladder(n)
        number = OperatorMatrix(ad_op.matrix @ a_op.matrix, boson_single(n))
        embedded = OperatorMatrix(np.kron(np.eye(n), number.matrix.conj()), boson_doubled(n))
        lhs = expectation_single_factor(psi, number, tilde=True)
        rhs = expectation(psi, embedded)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_tilde_occupation_mirrors_system(self):
        """The fictitious copy of a thermal vacuum is equally occupied."""
        n = 40
        _, psi = build_thermal_state_doubled(1.0, 1.0, basis=boson_doubled(n))
        a_op, ad_op = build_boson_ladder(n)
        number = OperatorMatrix(ad_op.matrix @ a_op.matrix, boson_single(n))
        assert expectation_single_factor(psi, number).real == pytest.approx(
            expectation_single_factor(psi, number, tilde=True).real, rel=1e-12
        )

    def test_basis_mismatch_rejected(self):
        rho = thermal_density(4.0, 1.0, basis=boson_single(5))
        a_op, _ = build_boson_ladder(6)
        with pytest.raises(ValueError, match="basis"):
            expectation(rho, a_op)

    def test_single_factor_refuses_other_bases(self):
        """The state must be on the doubled boson basis, and the operator on
        the single boson basis of the same level count."""
        _, fermion_psi = build_thermal_state_doubled(1.0, 1.0, basis=fermion_doubled())
        _, psi = build_thermal_state_doubled(20.0, 1.0, basis=boson_doubled(6))
        a4, _ = build_boson_ladder(4)
        a6, _ = build_boson_ladder(6)
        with pytest.raises(ValueError, match="needs the doubled boson basis"):
            expectation_single_factor(fermion_psi, a6)
        with pytest.raises(ValueError, match="matching single boson basis"):
            expectation_single_factor(psi, a4)


class TestSingleProductTrace:
    """expectation_single_factor reads each trace from one n x n product;
    the two-product traces it replaced are the reference."""

    @staticmethod
    def _two_products(psi, op, tilde):
        c = psi.c_matrix()
        if tilde:
            return complex(np.trace(op.matrix @ (c.T @ c.conj())))
        return complex(np.trace(c.conj().T @ (op.matrix @ c)))

    @staticmethod
    def _operators(n):
        a, ad = (m.matrix for m in build_boson_ladder(n))
        q = position_operator(n, 1.0, 1.0).matrix
        mats = (q @ q, np.linalg.matrix_power(q, 4), ad @ a, a, a @ a + 0.3j * ad)
        return [OperatorMatrix(m, boson_single(n)) for m in mats]

    @pytest.mark.parametrize("tilde", [False, True], ids=["system", "tilde"])
    def test_series_start_keeps_the_two_product_bits(self, tilde):
        """On the diagonal start every level term is one product, so the
        value is the two-product trace's to the bit (c07a reads it)."""
        for n, beta_omega in ((20, 2.0), (41, 1.0), (60, 1.3)):
            series, _ = build_thermal_state_doubled(beta_omega, 1.0, basis=boson_doubled(n))
            for op in self._operators(n):
                got = np.complex128(expectation_single_factor(series, op, tilde))
                want = np.complex128(self._two_products(series, op, tilde))
                assert got.tobytes() == want.tobytes(), (n, op.matrix[1, 0])

    @pytest.mark.parametrize("tilde", [False, True], ids=["system", "tilde"])
    def test_random_states_agree_to_round_off(self, tilde):
        """Within 4 eps of the sum of the magnitudes of the trace's terms."""
        rng = np.random.default_rng(5)
        for n in (7, 30, 60):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            psi = StateVector((c / np.linalg.norm(c)).reshape(-1), boson_doubled(n))
            mag = np.abs(psi.c_matrix())
            for op in self._operators(n):
                a = np.abs(op.matrix)
                scale = np.sum(mag * (mag @ a.T if tilde else a @ mag))
                got = expectation_single_factor(psi, op, tilde)
                assert abs(got - self._two_products(psi, op, tilde)) <= 4.0 * EPS * scale


def _chirped_ramp(t):
    return 0.3 * math.tanh(t / 0.2) * cmath.exp(2.0j * t)


def _fermion_pulse_with_hopping():
    """A fermion pulse with both couplings on, w- chirped and complex."""
    return FermionProtocol(
        Constant(1.0), make_tanh_ramp(0.0, 0.3, 0.5, 0.1),
        lambda t: 0.2 * math.tanh(t / 0.2) * cmath.exp(0.9j * t), t_i=0.0, t_f=1.0,
    )


PARITY_RUNS = {
    "real_boson_ramp": (
        BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.3, 0.5, 0.1), t_i=0.0, t_f=1.0),
        1.0, OracleConfig(n_levels=30, substeps_per_unit=100.0, grid_points=11),
    ),
    "chirped_boson_ramp": (
        BosonProtocol(Constant(1.0), _chirped_ramp, t_i=0.0, t_f=1.0),
        0.8, OracleConfig(n_levels=31, substeps_per_unit=100.0, grid_points=11),
    ),
    "oscillator_jump": (
        OscillatorProtocol(
            Constant(1.0), Step(1.0, 1.5, 0.37), t_i=0.0, t_f=1.0, jump_times=(0.37,)
        ),
        1.0, OracleConfig(n_levels=30, substeps_per_unit=100.0, grid_points=11),
    ),
    "fermion_hopping_pulse": (
        _fermion_pulse_with_hopping(), LN2, OracleConfig(substeps_per_unit=100.0, grid_points=11),
    ),
}


class TestParityBlocks:
    """The invariant the blocked readers rely on: the march keeps every
    recorded state exactly zero off its parity blocks."""

    @pytest.mark.parametrize("case", sorted(PARITY_RUNS))
    def test_recorded_states_are_zero_off_their_parity_blocks(self, case):
        traj = evolve_doubled_thermal(*PARITY_RUNS[case])
        for psi in traj.states:
            if psi.basis.kind == "boson_doubled":
                c = psi.c_matrix()
                assert not c[0::2, 1::2].any() and not c[1::2, 0::2].any(), case
                assert c[0::2, 0::2].any() and c[1::2, 1::2].any(), case
            else:
                outside = np.ones(16, dtype=bool)
                outside[np.concatenate(tfdyn.fock_oracle._FERMION_SECTORS)] = False
                assert not psi.vector[outside].any(), case
        assert np.ptp([psi.vector[1:].real.max() for psi in traj.states]) > 0.0  # the state moved


class TestBatchedReaders:
    """A stack of states (and of operators) gives every pair the bits it
    gets alone, whatever the row batches and the mix of states."""

    @staticmethod
    def _boson_states(n):
        """An evolved chirped ramp at n levels, its series start, and two
        random dense states, one mixed into the middle of the stack."""
        protocol = BosonProtocol(Constant(1.0), _chirped_ramp, t_i=0.0, t_f=1.0)
        traj = evolve_doubled_thermal(
            protocol, 3.0, OracleConfig(n_levels=n, substeps_per_unit=50.0, grid_points=9)
        )
        rng = np.random.default_rng(11)
        dense = []
        for _ in range(2):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            dense.append(StateVector((c / np.linalg.norm(c)).reshape(-1), boson_doubled(n)))
        states = list(traj.states)
        return states[:4] + dense[:1] + states[4:] + dense[1:]

    @staticmethod
    def _boson_operators(n):
        a, ad = (m.matrix for m in build_boson_ladder(n))
        q = position_operator(n, 1.0, 1.0).matrix
        af = frame_annihilation(1.0, 1.4, n, 1.0, 1.0).matrix
        mats = (af.conj().T @ af, q @ q, np.linalg.matrix_power(q, 4), a, a @ a + 0.3j * ad)
        return [OperatorMatrix(m, boson_single(n)) for m in mats]

    @pytest.mark.parametrize("n", [9, 30])
    @pytest.mark.parametrize("tilde", [False, True], ids=["system", "tilde"])
    @pytest.mark.parametrize("room", [1, 7, None], ids=["room1", "room7", "default"])
    def test_single_factor_stack_keeps_each_states_bits(self, n, tilde, room, monkeypatch):
        states, ops = self._boson_states(n), self._boson_operators(n)
        alone = np.array(
            [[complex(expectation_single_factor(st, op, tilde)) for st in states] for op in ops]
        )
        if room is not None:  # room rows per batch
            budget = room * (len(ops) + 3) * 2 * ((n + 1) // 2) ** 2
            monkeypatch.setattr(tfdyn.fock_oracle, "_SUB_BATCH", budget)
        stacked = expectation_single_factor(states, ops, tilde)
        assert stacked.shape == (len(ops), len(states))
        assert stacked.tobytes() == alone.tobytes()
        assert expectation_single_factor(states, ops[1], tilde).tobytes() == alone[1].tobytes()
        assert expectation_single_factor(states[2], ops, tilde).tobytes() == alone[:, 2].tobytes()

    def test_expectation_stack_keeps_the_vdot_bits(self):
        states = list(evolve_doubled_thermal(*PARITY_RUNS["fermion_hopping_pulse"]).states)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        states.insert(3, StateVector(v / np.linalg.norm(v), fermion_doubled()))
        space = build_fermion_space(doubled=True)
        h = build_fermion_hamiltonian(1.2, 0.3 - 0.1j, 0.2j, doubled=True).h_hat
        ops = [
            OperatorMatrix(space[c].dag.matrix @ space[c].matrix, fermion_doubled()) for c in "ab"
        ]
        ops.append(h)
        want = np.array(
            [[complex(np.vdot(st.vector, op.matrix @ st.vector)) for st in states] for op in ops]
        )
        assert expectation(states, ops).tobytes() == want.tobytes()
        assert np.complex128(expectation(states[3], ops[2])).tobytes() == want[2, 3].tobytes()

    @pytest.mark.parametrize(
        "case", ["real_boson_ramp", "chirped_boson_ramp", "fermion_hopping_pulse"]
    )
    def test_residual_stack_reads_each_rows_coefficients(self, case):
        """A stack with one coefficient per state (a mode trajectory's
        columns) gives each row the bits of that row alone."""
        protocol, beta, cfg = PARITY_RUNS[case]
        states = evolve_doubled_thermal(protocol, beta, cfg).states
        rng = np.random.default_rng(6)
        names = (("f_minus", "f_plus") if protocol.kind == "boson" else
                 [f"{c}_{ch}_{s}" for ch in "ab" for c in "fg" for s in ("minus", "plus")])
        columns = {name: rng.standard_normal(len(states)) + 1j * rng.standard_normal(len(states))
                   for name in names}
        th = 0.6
        stacked = thermal_state_condition_residual(states, SimpleNamespace(**columns), th)
        for k, psi in enumerate(states):
            alone = thermal_state_condition_residual(
                psi, SimpleNamespace(**{name: col[k].item() for name, col in columns.items()}), th
            )
            assert {key: float(values[k]) for key, values in stacked.items()} == alone, (case, k)

    def test_residual_column_of_the_wrong_length_refused(self):
        protocol, beta, cfg = PARITY_RUNS["real_boson_ramp"]
        states = evolve_doubled_thermal(protocol, beta, cfg).states
        with pytest.raises(ValueError, match="f_plus"):
            thermal_state_condition_residual(
                states, SimpleNamespace(f_minus=1.0, f_plus=np.zeros(len(states) - 1)), 0.5
            )

    @pytest.mark.parametrize("n", [7, 12])
    def test_boson_residuals_match_the_kronecker_route(self, n):
        """On random dense states, against the residuals of
        invariant_operator_matrix's embedded Kronecker products."""
        rng = np.random.default_rng(8)
        basis = boson_doubled(n)
        for _ in range(3):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            psi = StateVector((c / np.linalg.norm(c)).reshape(-1), basis)
            f_minus, f_plus = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            coeffs = SimpleNamespace(f_minus=f_minus, f_plus=f_plus)
            th = rng.uniform(0.1, 1.0)
            tan = math.tanh(th)
            op = invariant_operator_matrix(coeffs, basis)
            op_t = invariant_operator_matrix(coeffs, basis, tilde=True)
            v = psi.vector
            want = {
                "a": np.linalg.norm(op.matrix @ v - tan * (op_t.dag.matrix @ v)),
                "a_tilde": np.linalg.norm(op_t.matrix @ v - tan * (op.dag.matrix @ v)),
            }
            got = thermal_state_condition_residual(psi, coeffs, th)
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) < 1e-13, key

    def test_an_empty_stack_is_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            expectation_single_factor([], self._boson_operators(4)[0])

    def test_a_stack_of_mixed_bases_is_refused(self):
        """Each reader refuses a stack, of states or of operators, whose
        items do not share one basis."""
        psi, number, embedded = {}, {}, {}
        for n in (4, 6):
            vacuum = np.zeros(n * n, dtype=complex)
            vacuum[0] = 1.0
            psi[n] = StateVector(vacuum, boson_doubled(n))
            number[n] = OperatorMatrix(np.diag(np.arange(n)), boson_single(n))
            embedded[n] = OperatorMatrix(np.kron(number[n].matrix, np.eye(n)), boson_doubled(n))
        coeffs = SimpleNamespace(f_minus=1.0, f_plus=0.0)
        reads = [
            lambda: expectation([psi[4], psi[6]], embedded[4]),
            lambda: expectation(psi[4], [embedded[4], embedded[6]]),
            lambda: expectation_single_factor([psi[4], psi[6]], number[4]),
            lambda: expectation_single_factor(psi[4], [number[4], number[6]]),
            lambda: thermal_state_condition_residual([psi[4], psi[6]], coeffs, 0.5),
        ]
        for read in reads:
            with pytest.raises(ValueError, match="stack must share one basis"):
                read()


class TestSpectralExponential:
    """_expi_neg_hermitian, the one propagator the oracle builds, against
    scipy's expm."""

    @staticmethod
    def _hermitian(rng, n, real=False):
        g = rng.standard_normal((n, n))
        if not real:
            g = g + 1j * rng.standard_normal((n, n))
        return g + g.conj().T

    def test_complex_hermitian(self):
        h = self._hermitian(np.random.default_rng(1), 12)
        got = tfdyn.fock_oracle._expi_neg_hermitian(h, 0.7)
        assert np.max(np.abs(got - expm(-0.7j * h))) < 1e-12

    def test_real_symmetric_takes_the_real_product(self):
        """The real eigensolver's branch assembles Q diag(phases) Q^T by one
        real product over interleaved (real, imaginary) columns."""
        h = build_boson_hamiltonian(1.0, 0.4, 12).matrix.real
        got = tfdyn.fock_oracle._expi_neg_hermitian(h, 2.0)
        assert got.dtype == complex
        assert np.max(np.abs(got - expm(-2.0j * h))) < 1e-12

    @pytest.mark.parametrize("real", [False, True])
    def test_stack_matches_matrix_by_matrix(self, real):
        rng = np.random.default_rng(2)
        h = np.stack([[self._hermitian(rng, 6, real) for _ in range(3)] for _ in range(2)])
        got = tfdyn.fock_oracle._expi_neg_hermitian(h, 0.3)
        assert got.shape == (2, 3, 6, 6)
        for j, k in np.ndindex(2, 3):
            assert np.max(np.abs(got[j, k] - expm(-0.3j * h[j, k]))) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("basis", [boson_doubled(60), boson_doubled(50), fermion_doubled()],
                             ids=["boson60", "boson50", "fermion"])
    def test_squeeze_generators_match_scipy(self, basis, beta, monkeypatch):
        """The squeeze generators G that c08a and c08b exponentiate, at the
        suite's beta and level counts: exp(G) is the spectral exponential of
        the Hermitian iG at unit step."""
        expi = tfdyn.fock_oracle._expi_neg_hermitian
        seen = []

        def recording(h, dt):
            seen.append((h, dt))
            return expi(h, dt)

        monkeypatch.setattr(tfdyn.fock_oracle, "_expi_neg_hermitian", recording)
        build_thermal_state_doubled(beta, 1.0, basis=basis)
        ((h, dt),) = seen
        assert dt == 1.0
        gen = -1j * h
        assert not gen.imag.any()
        assert np.array_equal(gen.real, -gen.real.T)
        want = expm(gen.real)
        got = expi(h, dt)
        assert np.linalg.norm(got - want, 1) <= 5e-13 * np.linalg.norm(want, 1)


# The static fermion invariant operators a(t) = a, b(t) = b.
STATIC_FERMION = SimpleNamespace(
    t=0.0, f_a_minus=1, f_a_plus=0, g_a_minus=0, g_a_plus=0,
    f_b_minus=0, f_b_plus=0, g_b_minus=1, g_b_plus=0,
)


class TestInvariantOperatorsAndResiduals:
    def test_boson_embedding_shapes(self):
        coeffs = SimpleNamespace(t=0.0, f_minus=1.0 + 0j, f_plus=0.0j)
        single = invariant_operator_matrix(coeffs, boson_single(5))
        assert single.matrix.shape == (5, 5)
        doubled = invariant_operator_matrix(coeffs, boson_doubled(5), tilde=True)
        assert doubled.matrix.shape == (25, 25)
        with pytest.raises(ValueError, match="tilde"):
            invariant_operator_matrix(coeffs, boson_single(5), tilde=True)

    def test_initial_invariant_is_bare_operator(self):
        coeffs = SimpleNamespace(t=0.0, f_minus=1.0 + 0j, f_plus=0.0j)
        op = invariant_operator_matrix(coeffs, boson_single(6))
        a_op, _ = build_boson_ladder(6)
        assert np.allclose(op.matrix, a_op.matrix, atol=0)

    def test_static_thermal_state_satisfies_conditions_boson(self):
        beta = 1.0
        _, psi = build_thermal_state_doubled(beta, 1.0, basis=boson_doubled(60))
        coeffs = SimpleNamespace(t=0.0, f_minus=1.0 + 0j, f_plus=0.0j)
        th = theta(beta, 1.0, statistics="boson")
        residual = thermal_state_condition_residual(psi, coeffs, th)
        assert residual["a"] < 1e-9
        assert residual["a_tilde"] < 1e-9

    def test_static_thermal_state_satisfies_conditions_fermion(self):
        _, psi = build_thermal_state_doubled(LN2, 1.0, basis=fermion_doubled())
        coeffs = STATIC_FERMION
        th = theta(LN2, 1.0, statistics="fermion")
        residual = thermal_state_condition_residual(psi, coeffs, th)
        for key, value in residual.items():
            assert value < 1e-14, key

    def test_wrong_basis_rejected(self):
        coeffs = SimpleNamespace(t=0.0, f_minus=1.0 + 0j, f_plus=0.0j)
        v = np.zeros(16, dtype=complex)
        v[0] = 1.0
        psi = StateVector(v, fermion_doubled())
        with pytest.raises(ValueError):
            thermal_state_condition_residual(psi, coeffs, 0.5)

    def test_residuals_need_a_doubled_basis(self):
        coeffs = SimpleNamespace(f_minus=1.0, f_plus=0.0)
        psi = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), boson_single(4))
        with pytest.raises(ValueError, match="need a doubled basis, got boson_single"):
            thermal_state_condition_residual(psi, coeffs, 0.5)

    @pytest.mark.parametrize("sample, basis, missing", [
        (SimpleNamespace(t=0.0, f_minus=1.0, f_plus=0.0), fermion_single(), "f_a_minus"),
        (STATIC_FERMION, boson_single(4), "f_minus"),
        (SimpleNamespace(t=0.0, v=0.5, v_dot=-0.5j, mass=1.0), boson_single(4), "f_minus"),
    ])
    def test_sample_lacking_a_coefficient_refused_by_name(self, sample, basis, missing):
        with pytest.raises(ValueError, match=missing):
            invariant_operator_matrix(sample, basis)

    def test_sample_lacking_a_coefficient_refused_in_residual(self):
        _, psi = build_thermal_state_doubled(LN2, 1.0, basis=fermion_doubled())
        with pytest.raises(ValueError, match="f_a_minus"):
            thermal_state_condition_residual(psi, SimpleNamespace(t=0.0, f_minus=1.0), 0.5)
        _, psi = build_thermal_state_doubled(1.0, 1.0, basis=boson_doubled(30))
        with pytest.raises(ValueError, match="f_minus"):
            thermal_state_condition_residual(psi, STATIC_FERMION, 0.5)

    @staticmethod
    def _residual_by_operators(psi, coeffs, th):
        """The fermion residuals through the invariant-operator wrappers."""
        tan = math.tan(th)
        v = psi.vector
        out = {}
        for channel in ("a", "b"):
            op = invariant_operator_matrix(coeffs, psi.basis, tilde=False, channel=channel)
            op_t = invariant_operator_matrix(coeffs, psi.basis, tilde=True, channel=channel)
            out[channel] = float(np.linalg.norm(op.matrix @ v - tan * (op_t.dag.matrix @ v)))
            out[channel + "_tilde"] = float(np.linalg.norm(op_t.matrix @ v + tan * (op.dag.matrix @ v)))
        return out

    def test_fermion_residual_matches_the_operator_route(self):
        """The residual forms its four matrices directly, with the bits of
        the invariant-operator wrappers' route."""
        rng = np.random.default_rng(3)
        names = [f"{c}_{ch}_{s}" for ch in "ab" for c in "fg" for s in ("minus", "plus")]
        _, thermal = build_thermal_state_doubled(LN2, 1.0, basis=fermion_doubled())
        states = [thermal]
        for _ in range(3):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            states.append(StateVector(v / np.linalg.norm(v), fermion_doubled()))
        samples = [STATIC_FERMION] + [
            SimpleNamespace(t=0.0, **dict(zip(names, rng.standard_normal(8) + 1j * rng.standard_normal(8))))
            for _ in range(3)
        ]
        th = theta(LN2, 1.0, statistics="fermion")
        for psi in states:
            for coeffs in samples:
                got = thermal_state_condition_residual(psi, coeffs, th)
                assert got == self._residual_by_operators(psi, coeffs, th)

    def test_unknown_channel_refused(self):
        with pytest.raises(ValueError, match="got 'c'"):
            invariant_operator_matrix(STATIC_FERMION, fermion_single(), channel="c")


class TestTruncationTail:
    def test_vacuum_has_no_tail(self):
        v = np.zeros(20, dtype=complex)
        v[0] = 1.0
        assert truncation_report(StateVector(v, boson_single(20))) == 0.0

    def test_top_level_population_counts(self):
        v = np.zeros(20, dtype=complex)
        v[19] = 1.0
        assert truncation_report(StateVector(v, boson_single(20))) == 1.0

    def test_doubled_tail_counts_each_pair_once(self):
        """At N = 10 the tail is every pair with a level at or past 9: a
        row past the cutoff, a column past it in a lower row, and the
        corner once.  Weight just below the cutoff in both copies does not
        count."""
        c = np.zeros((10, 10), dtype=complex)
        c[9, 2] = 0.5  # weight 1/4, row past the cutoff
        c[3, 9] = 0.25j  # weight 1/16, column past the cutoff
        c[9, 9] = 0.125  # weight 1/64, the corner
        c[8, 8] = math.sqrt(0.5)
        c[0, 0] = math.sqrt(1.0 - 0.5 - 0.25 - 0.0625 - 0.015625)
        tail = truncation_report(StateVector(c.reshape(-1), boson_doubled(10)))
        assert tail == 0.25 + 0.0625 + 0.015625

    def test_fermion_states_never_truncate(self):
        v = np.zeros(16, dtype=complex)
        v[15] = 1.0
        assert truncation_report(StateVector(v, fermion_doubled())) == 0.0


class TestDoubledEvolution:
    def test_fermion_constant_protocol_matches_expm(self):
        """The two CFM4 exponentials of a constant generator commute and
        multiply to the exact exponential, so the doubled trajectory must
        match expm to round-off."""
        p = FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=2.0)
        beta = LN2
        cfg = OracleConfig(substeps_per_unit=50.0, grid_points=5)
        traj = evolve_doubled_thermal(p, beta, cfg)
        triple = build_fermion_hamiltonian(1.0, 0.0, 0.0, doubled=True)
        _, psi0 = build_thermal_state_doubled(beta, 1.0, basis=fermion_doubled())
        for k, t in enumerate(traj.t):
            exact = expm(-1j * triple.h_hat.matrix * t) @ psi0.vector
            assert np.max(np.abs(traj.states[k].vector - exact)) < 1e-12

    def test_boson_constant_protocol_occupation_static(self):
        """A thermal vacuum is stationary under its own Hamiltonian."""
        p = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0)
        cfg = OracleConfig(n_levels=40, substeps_per_unit=200.0, grid_points=5)
        traj = evolve_doubled_thermal(p, 1.0, cfg)
        a_op, ad_op = build_boson_ladder(40)
        number = OperatorMatrix(ad_op.matrix @ a_op.matrix, boson_single(40))
        n_eq = equilibrium_occupation(1.0, 1.0)
        for psi in traj.states:
            got = expectation_single_factor(psi, number).real
            assert got == pytest.approx(n_eq, rel=1e-10)
        assert np.max(traj.norm_deviation) < 1e-12
        assert np.max(traj.tail_weight) < 1e-12

    def test_hot_initial_state_raises_truncation_error(self):
        p = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0)
        with pytest.raises(TruncationError):
            evolve_doubled_thermal(p, 0.05, OracleConfig(n_levels=60))

    def test_nan_beta_refused_before_the_march(self):
        """A NaN beta used to start a march of NaN states, whose NaN tails
        passed the tail abort."""
        p = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0)
        with pytest.raises(ValueError, match="NaN"):
            evolve_doubled_thermal(p, math.nan, OracleConfig(n_levels=20, grid_points=3))

    def test_nan_tail_aborts(self, monkeypatch):
        p = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0)
        monkeypatch.setattr(tfdyn.fock_oracle, "truncation_report", lambda psi: math.nan)
        with pytest.raises(TruncationError, match="nan"):
            evolve_doubled_thermal(p, 1.0, OracleConfig(n_levels=20, grid_points=3))

    def test_oscillator_protocol_accepted(self):
        p = OscillatorProtocol(Constant(1.0), Constant(1.0), t_i=0.0, t_f=0.5)
        cfg = OracleConfig(n_levels=30, substeps_per_unit=100.0, grid_points=3)
        traj = evolve_doubled_thermal(p, 1.0, cfg)
        assert len(traj.states) == 3
        assert traj.states[0].basis.kind == "boson_doubled"

    def test_one_grid_point_refused(self):
        with pytest.raises(ValueError, match="grid_points must be at least 2"):
            OracleConfig(grid_points=1)


class TestChirpedPairing:
    """A thermal fermion pair under a chirped, complex pairing pulse w+ =
    Omega sech(t/T) e^{i kappa t}: the suite's protocols are real, so this
    is the oracle's exact check through the complex branch of its
    exponential.  w0 drops out, because [a^dag a - b^dag b, a^dag b^dag] = 0,
    and the Rosen-Zener result (Rosen & Zener, Phys. Rev. 40, 502 (1932))
    gives <a^dag a> = n_eq + (1 - 2 n_eq) sin^2(pi Omega T) sech^2(pi kappa T/2),
    with n_eq at w0(t_i).  At kappa = 0 the march collapses every piece to
    one exponential per sector, and the same gate holds it."""

    @pytest.mark.parametrize("amplitude, width, chirp, omega0, beta, half_window", [
        (0.3, 0.5, 0.8, Constant(1.0), 1.0, 15.0), (0.6, 1.0, 0.5, Constant(0.7), 0.5, 30.0),
        # w+ real: each parity sector varies along one unit generator (w+ on
        # one, w0 on the other), so every piece is one exponential per sector
        (0.3, 0.5, 0.0, Constant(1.0), 1.0, 15.0),
        # w0 ramps too, which leaves sector 1 a single varying term
        (0.4, 0.8, 0.0, make_tanh_ramp(0.8, 1.3, 0.0, 2.0), 1.0, 20.0),
    ], ids=["chirped", "chirped_wide", "real_sech", "real_sech_omega0_ramp"])
    def test_occupation_matches_rosen_zener(
        self, amplitude, width, chirp, omega0, beta, half_window
    ):
        def pulse(t):
            return amplitude / math.cosh(t / width) * cmath.exp(1j * chirp * t)

        p = FermionProtocol(omega0, pulse, Constant(0.0), t_i=-half_window, t_f=half_window)
        traj = evolve_doubled_thermal(p, beta, OracleConfig(substeps_per_unit=250, grid_points=2))
        a = build_fermion_space(doubled=True)["a"].matrix
        got = expectation(traj.states[-1], OperatorMatrix(a.conj().T @ a, fermion_doubled())).real
        n_eq = 1.0 / (math.exp(beta * omega0(-half_window)) + 1.0)
        flip = (math.sin(math.pi * amplitude * width) / math.cosh(0.5 * math.pi * chirp * width)) ** 2
        assert abs(got - (n_eq + (1.0 - 2.0 * n_eq) * flip)) < 1e-10


class TestPropagationKernel:
    """The parity-block CFM4 kernel against dense references."""

    def test_fourth_order_convergence(self):
        """Halving the step cuts the final-state error by ~16 (at least 12)."""
        p = complex_coupling_ramp()

        def final(spu):
            cfg = OracleConfig(n_levels=30, substeps_per_unit=spu, grid_points=2)
            return evolve_doubled_thermal(p, 1.0, cfg).states[-1].vector

        ref = final(2560.0)
        coarse = np.linalg.norm(final(40.0) - ref)
        fine = np.linalg.norm(final(80.0) - ref)
        assert coarse / fine >= 12.0

    def _boson_dense(self, protocol, h_of_t, n, spu):
        cfg = OracleConfig(n_levels=n, substeps_per_unit=spu, grid_points=2)
        traj = evolve_doubled_thermal(protocol, 1.0, cfg)
        cuts = sorted({protocol.t_i, protocol.t_f, *protocol.jump_times})
        u = dense_cfm4(h_of_t, cuts, spu)
        c0 = traj.states[0].c_matrix()
        return traj.states[-1].c_matrix(), u @ c0 @ u.conj().T

    def test_oscillator_step_blocks_match_dense(self):
        p = OscillatorProtocol(
            Constant(1.0), Step(1.0, 1.5, 0.37), t_i=0.0, t_f=1.0, jump_times=(0.37,)
        )
        n = 30

        def h_of_t(t):
            s = evaluate(p, t)
            w0, wp = oscillator_boson_coefficients(s.mass, s.omega, 1.0, 1.0)
            return build_boson_hamiltonian(w0, wp, n).matrix

        got, want = self._boson_dense(p, h_of_t, n, 40.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_complex_coupling_blocks_match_dense(self):
        p = complex_coupling_ramp()
        n = 30

        def h_of_t(t):
            s = evaluate(p, t)
            return build_boson_hamiltonian(s.omega0, s.omega_plus, n).matrix

        got, want = self._boson_dense(p, h_of_t, n, 40.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_fermion_sectors_match_dense(self):
        """Both couplings complex: the sector generators equal H_hat."""
        up = make_tanh_ramp(0.0, 0.4, 0.5, 0.1)
        p = FermionProtocol(
            Constant(1.0),
            lambda t: up(t) * np.exp(0.3j),
            lambda t: up(t - 0.2) * np.exp(-1.1j),
            t_i=0.0, t_f=1.0,
        )
        traj = evolve_doubled_thermal(p, LN2, OracleConfig(substeps_per_unit=40.0, grid_points=2))

        def h_of_t(t):
            s = evaluate(p, t)
            triple = build_fermion_hamiltonian(
                s.omega0, s.omega_plus, s.omega_minus, doubled=True
            )
            return triple.h_hat.matrix

        want = dense_cfm4(h_of_t, [0.0, 1.0], 40.0) @ traj.states[0].vector
        assert np.max(np.abs(traj.states[-1].vector - want)) < 1e-12

    def test_states_stay_in_parity_sectors(self):
        """H couples no parity sectors, and the evolved state has exactly
        zero weight outside those of the thermal vacuum."""
        n = 20
        odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
        h = build_boson_hamiltonian(1.0, 0.3 + 0.2j, n).matrix
        assert np.all(h[odd] == 0.0)
        cfg = OracleConfig(n_levels=n, substeps_per_unit=40.0, grid_points=3)
        for psi in evolve_doubled_thermal(complex_coupling_ramp(), 2.0, cfg).states:
            assert np.all(psi.c_matrix()[odd] == 0.0)

        vacuum_sectors = [0, 3, 12, 15, 5, 6, 9, 10]
        outside = np.setdiff1d(np.arange(16), vacuum_sectors)
        h_hat = build_fermion_hamiltonian(1.0, 0.3 + 0.2j, 0.1 - 0.4j, doubled=True).h_hat
        assert np.all(h_hat.matrix[np.ix_(outside, vacuum_sectors)] == 0.0)
        p = FermionProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 1.0, 0.2), Constant(0.0),
            t_i=0.0, t_f=2.0,
        )
        traj = evolve_doubled_thermal(p, LN2, OracleConfig(substeps_per_unit=40.0, grid_points=3))
        for psi in traj.states:
            assert np.all(psi.vector[outside] == 0.0)


class TestConstantPieces:
    """A piece whose sampled coefficients are all the same takes one
    exponential per block, exp(-i h span), where a varying piece
    takes two per CFM4 step."""

    @staticmethod
    def _counting(monkeypatch):
        """Records how many exponentials each call of the spectral kernel builds."""
        built = []
        expi = tfdyn.fock_oracle._expi_neg_hermitian

        def counting(h, dt):
            built.append(math.prod(h.shape[:-2]))
            return expi(h, dt)

        monkeypatch.setattr(tfdyn.fock_oracle, "_expi_neg_hermitian", counting)
        return built

    def test_step_protocol_builds_one_step_per_cut_and_matches_expm(self, monkeypatch):
        n = 30
        p = OscillatorProtocol(
            Constant(1.0), Step(1.0, 1.5, 0.37), t_i=0.0, t_f=1.2, jump_times=(0.37,)
        )
        built = self._counting(monkeypatch)
        traj = evolve_doubled_thermal(
            p, 2.0, OracleConfig(n_levels=n, substeps_per_unit=200.0, grid_points=13)
        )
        cuts = sorted({*traj.t.tolist(), 0.37})
        # one exponential per cut interval on each of the two parity blocks
        assert sum(built) == 2 * (len(cuts) - 1)

        def h(omega):
            return build_boson_hamiltonian(*oscillator_boson_coefficients(1.0, omega, 1.0, 1.0), n).matrix

        outputs = {t: k for k, t in enumerate(traj.t.tolist())}
        c = traj.states[0].c_matrix()
        for left, right in zip(cuts[:-1], cuts[1:]):
            u = expm(-1j * h(1.0 if right <= 0.37 else 1.5) * (right - left))
            c = u @ c @ u.conj().T
            if right in outputs:
                assert np.max(np.abs(traj.states[outputs[right]].c_matrix() - c)) < 1e-13

    def test_varying_pieces_build_the_configured_count(self, monkeypatch):
        built = self._counting(monkeypatch)
        evolve_doubled_thermal(
            complex_coupling_ramp(), 1.0, OracleConfig(n_levels=20, substeps_per_unit=40.0, grid_points=3)
        )
        # 20 exponentials on each of two cut intervals of 0.5, on each of two blocks
        assert sum(built) == 20 * 2 * 2

    def test_constant_piece_longer_than_a_chunk(self, monkeypatch):
        """A constant cut interval of 1500 exponentials spans three pieces,
        each one exponential per sector."""
        built = self._counting(monkeypatch)
        p = FermionProtocol(Constant(1.0), Constant(0.3 + 0.1j), Constant(0.0), t_i=0.0, t_f=2.0)
        traj = evolve_doubled_thermal(p, LN2, OracleConfig(substeps_per_unit=750.0, grid_points=2))
        assert sum(built) == 3 * 2
        h_hat = build_fermion_hamiltonian(1.0, 0.3 + 0.1j, 0.0, doubled=True).h_hat.matrix
        want = expm(-2j * h_hat) @ traj.states[0].vector
        assert np.max(np.abs(traj.states[-1].vector - want)) < 1e-13


def test_step_rule_invariants():
    """What the march assumes of its step rule, whatever the scheme: one
    weight per node in each of the J rows; weights that sum to 1, so the
    rule's steps of a constant h multiply to the one exp(-i h span)
    that a constant piece takes; nodes inside the step, so the cuts at output
    times and declared jumps hold as they are; and a symmetric step, the
    same rule run backwards (rows and nodes reversed, c_k -> 1 - c_k)."""
    rule = tfdyn.fock_oracle._STEP_RULE
    nodes, weights = rule.nodes, rule.weights
    assert weights.ndim == 2 and weights.shape[1] == len(nodes)
    assert math.fsum(weights.ravel()) == pytest.approx(1.0, rel=0.0, abs=4 * EPS)
    assert np.all((0.0 <= nodes) & (nodes <= 1.0))
    np.testing.assert_allclose(weights[::-1, ::-1], weights, rtol=0.0, atol=4 * EPS)
    np.testing.assert_allclose(1.0 - nodes[::-1], nodes, rtol=0.0, atol=4 * EPS)


class TestThermalStart:
    """Every evolution starts from the series, so none builds the thermal
    vacuum by ``build_thermal_state_doubled`` and its squeeze exponential,
    and none reads the analytic squeeze angle that c03 and c08 compare with."""

    @pytest.mark.parametrize("protocol, beta, cfg", [
        (OscillatorProtocol(Constant(1.0), make_tanh_ramp(1.3, 2.0, 0.5, 0.1), t_i=0.0, t_f=0.2),
         1.0, OracleConfig(n_levels=40, substeps_per_unit=50.0, grid_points=2)),
        (complex_coupling_ramp(0.2), 0.7, OracleConfig(n_levels=40, substeps_per_unit=50.0, grid_points=2)),
        (FermionProtocol(Constant(1.5), Constant(0.2), Constant(0.1j), t_i=0.0, t_f=0.2),
         LN2, OracleConfig(substeps_per_unit=50.0, grid_points=2)),
    ], ids=["oscillator", "boson", "fermion"])
    def test_first_state_is_the_series_bit_for_bit(self, protocol, beta, cfg, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an evolution built both thermal-vacuum routes or read theta")

        series, _ = build_thermal_state_doubled(beta, initial_frame(protocol)[1], basis=(
            boson_doubled(cfg.n_levels) if protocol.kind != "fermion" else fermion_doubled()
        ))
        monkeypatch.setattr(tfdyn.fock_oracle, "build_thermal_state_doubled", refuse)
        monkeypatch.setattr(tfdyn.fock_oracle, "thermal_theta", refuse)
        traj = evolve_doubled_thermal(protocol, beta, cfg)
        assert np.array_equal(traj.states[0].vector, series.vector)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_fermion_series_refuses_a_non_positive_temperature_exponent(self, beta):
        p = FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=0.1)
        with pytest.raises(ValueError, match="must be positive"):
            evolve_doubled_thermal(p, beta, OracleConfig(grid_points=2))


def test_one_thread_marches_hold_blas_at_one_thread(monkeypatch):
    """The inline doubled march runs its products with numpy's OpenBLAS at
    one thread, and restores its count afterwards."""
    oracle = tfdyn.fock_oracle
    if oracle._openblas_threads() is None:
        pytest.skip("numpy carries no OpenBLAS of its own")
    get_blas, set_blas = oracle._openblas_threads()
    seen = []
    build = oracle._propagators

    def recording(*args):
        seen.append(get_blas())
        return build(*args)

    monkeypatch.setattr(oracle, "_propagators", recording)
    monkeypatch.setattr(oracle, "_thread_share", 1)
    blas_before = get_blas()
    set_blas(2)
    try:
        evolve_doubled_thermal(
            complex_coupling_ramp(), 1.0, OracleConfig(n_levels=20, substeps_per_unit=40.0, grid_points=3)
        )
        assert get_blas() == 2
    finally:
        set_blas(blas_before)
    assert seen and set(seen) == {1}


def _pulse(t):
    return 0.3 * math.exp(-(((t - 0.6) / 0.15) ** 2))


POOLED_CASES = {
    "oscillator_tanh_ramp": (
        OscillatorProtocol(Constant(1.0), make_tanh_ramp(1.0, 1.5, 0.6, 0.2), t_i=0.0, t_f=1.2),
        2.0, OracleConfig(n_levels=30, substeps_per_unit=200.0, grid_points=13),
    ),
    "boson_coupling_pulse": (
        BosonProtocol(Constant(1.0), _pulse, t_i=0.0, t_f=1.2),
        1.0, OracleConfig(n_levels=24, substeps_per_unit=200.0, grid_points=13),
    ),
    "boson_complex_coupling": (
        complex_coupling_ramp(1.2), 1.0, OracleConfig(n_levels=24, substeps_per_unit=200.0, grid_points=13),
    ),
    "oscillator_mass_jump": (
        OscillatorProtocol(Step(1.0, 1.5, 0.37), Constant(1.0), t_i=0.0, t_f=1.2, jump_times=(0.37,)),
        1.0, OracleConfig(n_levels=30, substeps_per_unit=200.0, grid_points=13),
    ),
    "fermion_pulse_two_jumps": (
        FermionProtocol(
            Constant(1.0), lambda t: (0.4 if 0.35 <= t < 0.75 else 0.0) + 1j * _pulse(t),
            Constant(0.0), t_i=0.0, t_f=1.2, jump_times=(0.35, 0.75),
        ),
        LN2, OracleConfig(substeps_per_unit=400.0, grid_points=13),
    ),
    "cuts_longer_than_a_chunk": (
        complex_coupling_ramp(1.2), 1.0, OracleConfig(n_levels=30, substeps_per_unit=1500.0, grid_points=2),
    ),
}


def _coupling_until(t_max):
    """The tanh coupling ramp 0 -> 0.8 of the truncation tests, undefined past
    ``t_max``."""
    ramp = make_tanh_ramp(0.0, 0.8, 1.0, 0.3)

    def coupling(t):
        if t > t_max:
            raise ValueError(f"coupling undefined past t = {t_max}")
        return ramp(t)
    return coupling


@pytest.fixture
def pooled(monkeypatch):
    """Forces the pooled march onto small boxes: three threads, whatever this
    host's CPU count, tasks of a few pieces and blocks of a few steps.
    Returns the idents of the threads that built propagators."""
    oracle = tfdyn.fock_oracle
    if oracle._openblas_threads() is None:
        pytest.skip("numpy carries no OpenBLAS of its own, so the march runs on one thread")
    builders = []
    build = oracle._propagators

    def recording(*args):
        builders.append(threading.get_ident())
        return build(*args)

    monkeypatch.setattr(oracle, "_available_cpus", lambda: 3)
    monkeypatch.setattr(oracle, "_TASK_ELEMENTS", 2**12)
    monkeypatch.setattr(oracle, "_SUB_BATCH", 2**9)
    monkeypatch.setattr(oracle, "_propagators", recording)
    return builders


class TestPooledMarch:
    """Propagators built on a thread pool leave every state bit as it is on
    one thread, keep protocol calls on the calling thread and leave no
    thread or BLAS setting behind."""

    @pytest.mark.parametrize("case", sorted(POOLED_CASES))
    def test_states_bitwise_match_one_thread(self, case, pooled, monkeypatch):
        protocol, beta, cfg = POOLED_CASES[case]
        with monkeypatch.context() as one_thread:
            one_thread.setattr(tfdyn.fock_oracle, "_thread_share", 1)
            one_thread.setattr(tfdyn.fock_oracle, "_SUB_BATCH", 2**40)
            serial = evolve_doubled_thermal(protocol, beta, cfg)
        pooled.clear()
        got = evolve_doubled_thermal(protocol, beta, cfg)
        assert set(pooled) - {threading.get_ident()}, "the march never left the calling thread"
        for a, b in zip(got.states, serial.states, strict=True):
            assert np.array_equal(a.vector, b.vector)
        assert np.array_equal(got.tail_weight, serial.tail_weight)
        assert np.array_equal(got.norm_deviation, serial.norm_deviation)

    def test_protocol_called_on_the_calling_thread_only(self, pooled):
        callers = set()

        def coupling(t):
            callers.add(threading.get_ident())
            return _pulse(t)

        p = BosonProtocol(Constant(1.0), coupling, t_i=0.0, t_f=1.2)
        evolve_doubled_thermal(p, 1.0, OracleConfig(n_levels=24, substeps_per_unit=200.0, grid_points=13))
        assert set(pooled) - {threading.get_ident()}
        assert callers == {threading.get_ident()}

    def test_truncation_abort_leaves_no_thread_and_restores_blas(self, pooled, monkeypatch):
        """The tail passes TAIL_ABORT at t = 1.4 of 3: the pooled march raises
        the one-thread march's message, with its pool and BLAS pin undone."""
        p = BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.8, 1.0, 0.3), t_i=0.0, t_f=3.0)
        cfg = OracleConfig(n_levels=16, substeps_per_unit=200.0, grid_points=31)
        with monkeypatch.context() as one_thread:
            one_thread.setattr(tfdyn.fock_oracle, "_thread_share", 1)
            with pytest.raises(TruncationError) as serial:
                evolve_doubled_thermal(p, 2.0, cfg)
        assert "at t = 1.4;" in str(serial.value)

        get_blas, set_blas = tfdyn.fock_oracle._openblas_threads()
        blas_before = get_blas()
        set_blas(2)
        try:
            threads_before = threading.active_count()
            with pytest.raises(TruncationError) as pooled_error:
                evolve_doubled_thermal(p, 2.0, cfg)
            assert get_blas() == 2
            assert threading.active_count() == threads_before
        finally:
            set_blas(blas_before)
        assert set(pooled) - {threading.get_ident()}
        assert str(pooled_error.value) == str(serial.value)

    def test_truncation_abort_wins_over_a_later_protocol_error(self, pooled, monkeypatch):
        """The tail passes TAIL_ABORT at t = 1.4; the coupling raises past
        t = 1.6, within the stretch sampled ahead of the abort by the pool,
        and by one thread when the whole march is one task.  Both raise the
        truncation error; a protocol error before the abort still comes out."""
        cfg = OracleConfig(n_levels=16, substeps_per_unit=200.0, grid_points=31)
        p = BosonProtocol(Constant(1.0), _coupling_until(1.6), t_i=0.0, t_f=3.0)
        threads_before = threading.active_count()
        with pytest.raises(TruncationError, match="at t = 1.4;"):
            evolve_doubled_thermal(p, 2.0, cfg)
        assert set(pooled) - {threading.get_ident()}
        assert threading.active_count() == threads_before
        with monkeypatch.context() as one_task:
            one_task.setattr(tfdyn.fock_oracle, "_thread_share", 1)
            one_task.setattr(tfdyn.fock_oracle, "_TASK_ELEMENTS", 2**40)
            with pytest.raises(TruncationError, match="at t = 1.4;"):
                evolve_doubled_thermal(p, 2.0, cfg)
        early = BosonProtocol(Constant(1.0), _coupling_until(0.5), t_i=0.0, t_f=3.0)
        with pytest.raises(ValueError, match="past t = 0.5"):
            evolve_doubled_thermal(early, 2.0, cfg)
        assert threading.active_count() == threads_before

    def test_protocol_error_on_one_thread_leaves_no_thread_and_restores_blas(
        self, pooled, monkeypatch
    ):
        """On one thread, a coupling that raises past t = 0.5, before any
        truncation, stops the inline march after the tasks sampled before it."""
        monkeypatch.setattr(tfdyn.fock_oracle, "_thread_share", 1)
        early = BosonProtocol(Constant(1.0), _coupling_until(0.5), t_i=0.0, t_f=3.0)
        cfg = OracleConfig(n_levels=16, substeps_per_unit=200.0, grid_points=31)
        get_blas, set_blas = tfdyn.fock_oracle._openblas_threads()
        blas_before = get_blas()
        set_blas(2)
        try:
            threads_before = threading.active_count()
            with pytest.raises(ValueError, match="coupling undefined past t = 0.5"):
                evolve_doubled_thermal(early, 2.0, cfg)
            assert get_blas() == 2
            assert threading.active_count() == threads_before
        finally:
            set_blas(blas_before)
        assert set(pooled) == {threading.get_ident()}

    def test_one_task_runs_inline(self, pooled):
        """An evolution that forms a single task never starts a thread."""
        p = BosonProtocol(Constant(1.0), _pulse, t_i=0.0, t_f=0.1)
        evolve_doubled_thermal(p, 1.0, OracleConfig(n_levels=20, substeps_per_unit=100.0, grid_points=3))
        assert set(pooled) == {threading.get_ident()}


# The bench's kinds of oracle quench at its sizes (N = 60, 21 output points,
# the default 500 exponentials per unit), with the exponentials each march
# builds.  The pairing ramp varies along one unit generator per fermion
# sector and the frequency ramp along N on both boson blocks, so each piece
# takes one exponential per block; the coupling and oscillator ramps take
# J = 2 per step, 2 steps per interval.
COUNTED_CASES = {
    "fermion_pairing_ramp": (
        FermionProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.3, 1.0, 0.1), Constant(0.0), t_i=0.0, t_f=2.0,
        ),
        OracleConfig(grid_points=21), 20 * 2,
    ),
    "boson_frequency_ramp": (
        BosonProtocol(make_tanh_ramp(1.0, 1.5, 0.06, 0.012), Constant(0.0), t_i=0.0, t_f=0.12),
        OracleConfig(grid_points=21), 20 * 2,
    ),
    "boson_coupling_ramp": (
        BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.3, 0.06, 0.006), t_i=0.0, t_f=0.12),
        OracleConfig(grid_points=21), 20 * 2 * 2 * 2,
    ),
    "oscillator_ramp": (
        OscillatorProtocol(Constant(1.0), make_tanh_ramp(1.0, 1.5, 0.075, 0.015), t_i=0.0, t_f=0.15),
        OracleConfig(grid_points=21), 20 * 2 * 2 * 2,
    ),
}


@pytest.mark.parametrize("case", sorted(COUNTED_CASES))
def test_trajectory_counts_the_exponentials_it_built(case, pooled, monkeypatch):
    """``exponentials`` is the number of matrices the spectral kernel was
    handed, counted by wrapping it, on the pool and on one thread."""
    oracle = tfdyn.fock_oracle
    protocol, cfg, count = COUNTED_CASES[case]
    built = TestConstantPieces._counting(monkeypatch)
    traj = evolve_doubled_thermal(protocol, 1.0, cfg)
    assert set(pooled) - {threading.get_ident()}, "the march never left the calling thread"
    assert traj.exponentials == sum(built) == count
    monkeypatch.setattr(oracle, "_thread_share", oracle._thread_share)
    oracle._set_thread_share(1)
    built.clear()
    pooled.clear()
    traj = evolve_doubled_thermal(protocol, 1.0, cfg)
    assert set(pooled) == {threading.get_ident()}
    assert traj.exponentials == sum(built) == count


class TestMarchBounds:
    """A march past the step cap is refused before anything is built, and
    a coefficient of H too large for finite generators before any
    exponential of one.  No test runs a march past the cap."""

    @staticmethod
    def _traced_peak(call):
        """The peak memory traced while ``call`` runs, beyond what was held
        before it."""
        import tracemalloc

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("substeps, grid_points, wanted", [
        (1e308, 11, "5e\\+307 steps"),
        (2.0 * tfdyn.fock_oracle._MAX_MARCH_STEPS + 2.0, 2, "1000001 steps"),
        (1.0, tfdyn.fock_oracle._MAX_MARCH_STEPS + 2, "1000001 steps"),
    ], ids=["substeps_1e308", "one_step_past_the_cap", "grid_past_the_cap"])
    def test_a_march_past_the_cap_is_refused_before_any_allocation(
        self, substeps, grid_points, wanted, monkeypatch
    ):
        """On a one-unit window: at 1e308 exponentials per unit, one step
        past the cap, and with more output intervals than the cap (each
        takes a step), which is refused before its grid is made.  Nothing
        is sampled and at most 64 kB is traced."""
        calls = []
        p = BosonProtocol(lambda t: calls.append(t) or 1.0, Constant(0.0), t_i=0.0, t_f=1.0)
        cfg = OracleConfig(n_levels=20, substeps_per_unit=substeps, grid_points=grid_points)
        monkeypatch.setattr(tfdyn.fock_oracle, "_thread_share", 1)

        def refused():
            with pytest.raises(ValueError, match=f"would take {wanted}, more than the cap of 1000000$"):
                evolve_doubled_thermal(p, 1.0, cfg)

        assert self._traced_peak(refused) < 64e3
        assert calls == []

    def test_the_cap_admits_a_march_at_it(self):
        """Steps are counted per cut interval from its width, and a march of
        exactly the cap's steps passes the count."""
        cap = tfdyn.fock_oracle._MAX_MARCH_STEPS
        cfg = OracleConfig(substeps_per_unit=2.0 * cap, grid_points=2)
        grid, cuts, steps = tfdyn.fock_oracle._march_steps(0.0, 1.0, (), cfg)
        assert grid.tolist() == cuts == [0.0, 1.0] and steps == [cap]
        cfg = OracleConfig(substeps_per_unit=4.0, grid_points=3)
        assert tfdyn.fock_oracle._march_steps(0.0, 1.0, (0.2,), cfg)[2] == [1, 1, 1]

    def test_a_generator_that_would_overflow_is_refused_before_its_exponential(self, monkeypatch):
        """An oscillator whose mass drops from 1e306 to 2 at t = 0.5: in the
        frame of the initial mass the kinetic coefficient after the jump is
        2.5e305, past the limit, and the march stops at the first sample
        there, with no exponential of it built.  Before the jump H is N, one
        exponential per block on each of the 5 intervals."""
        built = TestConstantPieces._counting(monkeypatch)
        monkeypatch.setattr(tfdyn.fock_oracle, "_thread_share", 1)
        p = OscillatorProtocol(Step(1e306, 2.0, 0.5), Constant(1.0), t_i=0.0, t_f=1.0, jump_times=(0.5,))
        limit = tfdyn.fock_oracle._coefficient_limit(20)
        with pytest.raises(ValueError, match="H at t = 0.50") as info:
            evolve_doubled_thermal(p, 1.0, OracleConfig(n_levels=20, grid_points=11))
        assert f"above {limit:.3g}, at which the oracle's generators would not be finite" in str(info.value)
        assert sum(built) == 5 * 2

    def test_the_coefficient_limit_keeps_every_generator_finite(self):
        """At the limit, a collapsed piece's summed exponent of a chunk of
        steps times the largest unit generator entry, over every term, is
        finite; at N = 256 and for a fermion."""
        for n in (256, None):
            limit = tfdyn.fock_oracle._coefficient_limit(n)
            bases = tfdyn.fock_oracle._sector_bases(n)[1]
            for basis in bases:
                terms = np.full(len(basis), tfdyn.fock_oracle._CHUNK * limit)
                assert np.all(np.isfinite(np.tensordot(terms, np.abs(basis), axes=1)))


@pytest.mark.parametrize("case", sorted(POOLED_CASES))
def test_numpy_without_openblas_marches_on_the_calling_thread(case, monkeypatch):
    """Where numpy carries no OpenBLAS of its own, the march cannot hold
    BLAS at one thread, so it builds every task's propagators on the calling
    thread, whatever the CPU count, with the bits of a one-thread march."""
    oracle = tfdyn.fock_oracle
    protocol, beta, cfg = POOLED_CASES[case]
    with monkeypatch.context() as one_thread:
        one_thread.setattr(oracle, "_thread_share", 1)
        serial = evolve_doubled_thermal(protocol, beta, cfg)
    builders = []
    build = oracle._propagators

    def recording(*args):
        builders.append(threading.get_ident())
        return build(*args)

    monkeypatch.setattr(oracle, "_available_cpus", lambda: 3)
    monkeypatch.setattr(oracle, "_TASK_ELEMENTS", 2**12)
    monkeypatch.setattr(oracle, "_openblas_threads", lambda: None)
    monkeypatch.setattr(oracle, "_propagators", recording)
    got = evolve_doubled_thermal(protocol, beta, cfg)
    assert len(builders) > 1, "the march formed one task, which never needs a pool"
    assert set(builders) == {threading.get_ident()}
    for a, b in zip(got.states, serial.states, strict=True):
        assert np.array_equal(a.vector, b.vector)
    assert np.array_equal(got.tail_weight, serial.tail_weight)
    assert np.array_equal(got.norm_deviation, serial.norm_deviation)


def test_openblas_lookup_finds_none_beside_a_numpy_without_it(monkeypatch, tmp_path):
    """A numpy whose directory has no bundled OpenBLAS beside it yields no
    thread-count getter and setter."""
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert tfdyn.fock_oracle._openblas_threads.__wrapped__() is None


def _collapses(exponents, mask):
    """Whether the kernel builds a piece on a block from its summed
    exponents, as one exponential or the identity: a varying piece whose
    live terms leave at most one unit generator on the block."""
    live = np.any(exponents != 0.0, axis=(0, 1)) & mask
    return exponents.shape[:2] != (1, 1) and np.count_nonzero(live) <= 1


def _frozen_generator_stacks(coeffs, bases):
    """The whole-piece generator stacks, one block at a time, as the kernel
    formed them before it streamed steps."""
    live = np.any(coeffs != 0.0, axis=tuple(range(coeffs.ndim - 1)))
    for basis in bases:
        terms = basis[live]
        if not np.any(terms.imag):
            terms = terms.real
        yield np.tensordot(coeffs[..., live], terms, axes=1)


def _frozen_propagators(pieces, bases):
    """The whole-piece kernel: a piece's generator stack and every one of its
    CFM4 propagators are formed before their ordered product."""
    out = []
    for exponents, step in pieces:
        per_block = []
        for h in _frozen_generator_stacks(exponents, bases):
            u = np.empty(h.shape[1:], dtype=complex)
            size = max(1, 2**16 // h[0, 0].size)
            for s in range(0, len(u), size):
                u[s:s + size] = tfdyn.fock_oracle._step_propagators(h[:, s:s + size], step)
            per_block.append(tfdyn.fock_oracle._ordered_product(u))
        out.append(per_block)
    return out


KERNEL_CASES = {
    **POOLED_CASES,
    # one 125-step piece of 25 x 25 blocks, longer than a block at every room
    # below; the verify march has such blocks at N = 50, its N = 100 box
    # 50 x 50 ones
    "c07c_like_box": (
        OscillatorProtocol(Constant(1.0), make_tanh_ramp(1.0, 2.0, 1.25, 0.3), t_i=0.0, t_f=2.5),
        1.0, OracleConfig(n_levels=50, substeps_per_unit=100.0, grid_points=2),
    ),
    # many short pieces, which the kernel stacks: the bench's boson coupling
    # ramp (N = 60, 20 output intervals of 2 CFM4 steps) and a fermion ramp
    # (20 intervals of 25 or 26 steps)
    "short_boson_pieces": (
        BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.3, 0.06, 0.006), t_i=0.0, t_f=0.12),
        1.0, OracleConfig(n_levels=60, grid_points=21),
    ),
    "short_fermion_pieces": (
        FermionProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.3, 1.0, 0.1), Constant(0.0), t_i=0.0, t_f=2.0,
        ),
        1.0, OracleConfig(grid_points=21),
    ),
    # w+ = 0: both parity blocks vary along the number operator alone
    "boson_frequency_ramp": (
        BosonProtocol(make_tanh_ramp(1.0, 1.5, 0.6, 0.2), Constant(0.0), t_i=0.0, t_f=1.2),
        1.0, OracleConfig(n_levels=24, substeps_per_unit=200.0, grid_points=13),
    ),
}


class TestStreamedKernel:
    """Runs of short pieces are built as stacks and each longer piece in
    aligned power-of-two blocks of steps, which leaves every bit of their
    propagators as the whole-piece kernel gave them, piece by piece, and
    bounds what a thread holds by one stack or block.  On a block where a
    piece collapses (``_collapses``), the whole-piece kernel is the kernel
    itself on that piece alone, one exponential of its summed exponents;
    elsewhere it is ``_frozen_propagators``' CFM4 product."""

    @staticmethod
    def _kernel_calls(protocol, beta, cfg, monkeypatch):
        """The arguments of every kernel call of a one-thread march."""
        calls = []
        build = tfdyn.fock_oracle._propagators
        with monkeypatch.context() as m:
            m.setattr(tfdyn.fock_oracle, "_thread_share", 1)
            m.setattr(tfdyn.fock_oracle, "_propagators", lambda *args: calls.append(args) or build(*args))
            evolve_doubled_thermal(protocol, beta, cfg)
        return calls

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_propagators_bitwise_match_the_whole_piece_kernel(self, case, monkeypatch):
        """With room for 1, 3 and 26 steps, which the kernel rounds down to
        blocks of 1, 2 and 16 (blocks of 3 or 26 would pair the factors
        otherwise) and fills with stacks of up to 1, 3 and 26 steps of short
        pieces, and with room for every piece of a call in one stack.  Equal
        bytes also pin that a block's generator stack is the same rows of the
        piece's, and that a stack gives each of its pieces the bytes it has
        alone.  With room for a whole call, the short-piece cases build one
        stack per block: the boson ramp's 20 pieces of 2 steps form one run,
        and the fermion ramp's 20 pieces, of 25 or 26 steps by the round-off
        of their 0.1 wide intervals, each collapse to one exponent of one
        shape on each sector."""
        propagators = tfdyn.fock_oracle._propagators
        calls = self._kernel_calls(*KERNEL_CASES[case], monkeypatch)
        (per_matrix,) = {basis[0].size for _, bases, _ in calls for basis in bases}
        if case == "c07c_like_box":
            assert [exponents.shape[1] for pieces, _, _ in calls for exponents, _ in pieces] == [125]
        for room in (1, 3, 26, None):
            sub_batch = 2**40 if room is None else room * per_matrix
            monkeypatch.setattr(tfdyn.fock_oracle, "_SUB_BATCH", sub_batch)
            for pieces, bases, masks in calls:
                got, _ = propagators(pieces, bases, masks)
                frozen = _frozen_propagators(pieces, bases)
                for piece, got_piece, frozen_piece in zip(pieces, got, frozen, strict=True):
                    alone, _ = propagators([piece], bases, masks)
                    for b, mask in enumerate(masks):
                        want = alone[0][b] if _collapses(piece[0], mask) else frozen_piece[b]
                        assert got_piece[b].tobytes() == want.tobytes(), (case, room)
        if case.startswith("short_"):  # the last room above holds the whole call
            ((pieces, bases, masks),) = calls
            stacks = TestConstantPieces._counting(monkeypatch)
            propagators(pieces, bases, masks)
            assert len(pieces) == 20 and len(stacks) == len(bases)

    @pytest.mark.parametrize("case", ["short_fermion_pieces", "boson_frequency_ramp"])
    def test_collapsed_pieces_match_the_cfm4_product(self, case, monkeypatch):
        """Every piece of the bench-like fermion pairing ramp and of a boson
        frequency ramp collapses on every block, and its one exponential
        agrees with the whole-piece kernel's product of its CFM4 steps to
        1e-13; the count is one per piece and block."""
        calls = self._kernel_calls(*KERNEL_CASES[case], monkeypatch)
        for pieces, bases, masks in calls:
            got, built = tfdyn.fock_oracle._propagators(pieces, bases, masks)
            assert built == len(pieces) * len(bases)
            for piece, got_piece, want_piece in zip(
                pieces, got, _frozen_propagators(pieces, bases), strict=True
            ):
                assert piece[0].shape[:2] != (1, 1)
                for mask, a, b in zip(masks, got_piece, want_piece, strict=True):
                    assert _collapses(piece[0], mask)
                    assert np.max(np.abs(a - b)) < 1e-13

    def test_power_of_two_blocks_pair_as_the_whole_product(self):
        """The ordered product of the block products of aligned blocks of
        2^k factors is the whole stack's product to the bit, at every length;
        blocks of 3 bracket the factors otherwise."""
        product = tfdyn.fock_oracle._ordered_product
        rng = np.random.default_rng(11)
        u = rng.standard_normal((130, 4, 4)) + 1j * rng.standard_normal((130, 4, 4))

        def blockwise(length, block):
            parts = [product(u[s:min(s + block, length)]) for s in range(0, length, block)]
            return product(np.stack(parts))

        for length in range(1, 131):
            whole = product(u[:length]).tobytes()
            for block in (1, 2, 4, 8, 16, 32, 64):
                assert blockwise(length, block).tobytes() == whole, (length, block)
        assert any(blockwise(n, 3).tobytes() != product(u[:n]).tobytes() for n in range(1, 131))

    @staticmethod
    def _traced_beyond_states(protocol, cfg, monkeypatch):
        """The peak memory a one-thread evolution traces beyond the states
        it returns."""
        import tracemalloc

        monkeypatch.setattr(tfdyn.fock_oracle, "_thread_share", 1)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            traj = evolve_doubled_thermal(protocol, 1.0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        return peak - before - sum(psi.vector.nbytes for psi in traj.states)

    def test_working_set_is_one_block(self, monkeypatch):
        """A one-thread N = 100 evolution of one 128-step piece, 32 blocks of
        4 steps of 50 x 50: the memory it traces beyond the states it returns
        stays under 8 MB.  It traced 4.8 MB; blocks of 16 steps (a budget
        of 2^16 elements) traced 5.5 MB, and the whole-piece kernel 16.8 MB."""
        p = OscillatorProtocol(Constant(1.0), make_tanh_ramp(1.0, 1.5, 0.64, 0.2), t_i=0.0, t_f=1.28)
        cfg = OracleConfig(n_levels=100, substeps_per_unit=200.0, grid_points=2)
        assert self._traced_beyond_states(p, cfg, monkeypatch) < 8e6

    def test_working_set_is_one_stack(self, monkeypatch):
        """A one-thread N = 100 march of 40 pieces of 2 steps, built in
        tasks of 14 pieces and stacks of 3 (6 steps of 50 x 50): the memory
        it traces beyond the states it returns stays under 4 MB.  It traced
        2.1 MB; a whole task in one stack traced 6.0 MB."""
        p = BosonProtocol(Constant(1.0), make_tanh_ramp(0.0, 0.3, 0.12, 0.012), t_i=0.0, t_f=0.24)
        cfg = OracleConfig(n_levels=100, grid_points=41)
        assert self._traced_beyond_states(p, cfg, monkeypatch) < 4e6


def test_available_cpus_reads_the_affinity_mask(monkeypatch):
    """CPUs outside the process's affinity mask are not counted; without a
    mask to read, the count is the machine's."""
    monkeypatch.setattr(tfdyn.fock_oracle.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(tfdyn.fock_oracle.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert tfdyn.fock_oracle._available_cpus() == 2
    monkeypatch.delattr(tfdyn.fock_oracle.os, "sched_getaffinity")
    assert tfdyn.fock_oracle._available_cpus() == 8


@pytest.mark.parametrize(
    "prefix, suffix", [("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")]
)
def test_openblas_found_by_either_wheel_naming(monkeypatch, prefix, suffix):
    """numpy 2 wheels name OpenBLAS's thread functions scipy_openblas_*,
    numpy 1 wheels plain openblas_*; the lookup takes either."""
    import ctypes
    import glob

    def get():
        return 4

    def put(n):
        pass

    lib = SimpleNamespace(**{f"{prefix}_get_num_threads{suffix}": get, f"{prefix}_set_num_threads{suffix}": put})
    monkeypatch.setattr(glob, "glob", lambda pattern: ["libopenblas.so"])
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    lookup = tfdyn.fock_oracle._openblas_threads
    lookup.cache_clear()
    try:
        assert lookup() == (get, put)
    finally:
        lookup.cache_clear()


def test_oracle_shares_no_solver_code():
    """fock_oracle and its reader kernels import nothing from mode_solver or
    its stepper: the oracle reads mode samples by name, and that independence
    is what makes their agreement evidence."""
    solver_modules = ("mode_solver", "_dop853")
    sources = [Path(m.__file__).read_text() for m in (tfdyn.fock_oracle, tfdyn._readers)]
    imported = []
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(solver_modules):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                "the module itself" for alias in node.names if alias.name.endswith(solver_modules)
            ]
    assert imported == []


def _evaluate_coefficients(protocol, times, frame):
    """The oracle's coefficient rows as they were built from ``evaluate``
    records, one per node: the reference for the sampler-based builder."""
    samples = [evaluate(protocol, float(t)) for t in times.ravel()]
    if protocol.kind == "oscillator":
        w = [oscillator_boson_coefficients(s.mass, s.omega, *frame) + (0.0,) for s in samples]
    else:
        couplings = protocol.channels[1:]
        w = [
            (s.omega0, *(x for c in couplings for x in (getattr(s, c).real, getattr(s, c).imag)))
            for s in samples
        ]
    return np.array(w).reshape(times.shape + (-1,))


@pytest.mark.parametrize(
    "protocol",
    [
        BosonProtocol(
            make_tanh_ramp(1.0, 1.7, 0.6, 0.2), complex_coupling_ramp().omega_plus,
            t_i=0.0, t_f=1.0,
        ),
        OscillatorProtocol(
            make_tanh_ramp(1.0, 1.5, 0.4, 0.1), Step(1.0, 2.0, 0.5),
            t_i=0.0, t_f=1.0, jump_times=(0.5,),
        ),
        FermionProtocol(
            Constant(1.2), complex_coupling_ramp().omega_plus,
            lambda t: 0.1j * t if t > 0.3 else 0.0, t_i=0.0, t_f=1.0,
        ),
        BosonProtocol(
            Constant(1.0),
            lambda t: make_tanh_ramp(0.0, 0.3, 0.5, 0.1)(t) * cmath.exp(1j * (3.0 * t + 5.0 * t * t)),
            t_i=0.0, t_f=1.0,
        ),
        FermionProtocol(
            make_tanh_ramp(1.0, 1.4, 0.5, 0.2), lambda t: 0.2 * cmath.exp(2j * t),
            lambda t: 0.15 * cmath.exp(-3j * t * t), t_i=0.0, t_f=1.0,
        ),
    ],
    ids=["boson", "oscillator", "fermion", "chirped_boson", "fermion_both_couplings"],
)
def test_sampler_coefficients_match_evaluate_reference(protocol):
    """_coefficients reads protocols.sampler and flattens the samples with
    one complex array; its rows are the bits the evaluate-based builder gave
    by flattening each sample's tuple, at CFM4 nodes of a run of steps."""
    steps = np.arange(25)
    times = protocol.t_i + (steps + np.array(CFM4_NODES)[:, None]) * 0.04
    frame = (1.3, 0.8) if protocol.kind == "oscillator" else initial_frame(protocol)
    got = tfdyn.fock_oracle._coefficients(protocol, times, frame)
    want = _evaluate_coefficients(protocol, times, frame)
    assert got.shape == want.shape == times.shape + (1 + 2 * (len(protocol.channels) - 1),)
    assert got.tobytes() == want.tobytes()

