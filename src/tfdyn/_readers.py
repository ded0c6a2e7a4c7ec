"""Numeric kernels of the oracle's batched observable readers.

``fock_oracle.expectation``, ``expectation_single_factor`` and
``thermal_state_condition_residual`` check their states and operators, then
hand plain arrays, or functions that stack a batch of rows, to these
functions, which read a whole stack of states in
row batches whose temporaries hold about ``budget`` elements together.  Boson
traces work on the (even, odd) parity sub-blocks of the coefficient
matrices, taken from the states or from the blocks an evolution kept, and
multiply only the sub-blocks that are not exactly zero.  Every
state of a stack gets the bits it gets alone.  Pure numpy.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

PARITIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def row_batches(count: int, per_row: int, budget: int) -> Iterator[list[int]]:
    """Rows 0 .. count - 1 in consecutive batches of at most ``budget``
    elements at ``per_row`` elements a row (one row at least)."""
    room = max(1, budget // per_row)
    for first in range(0, count, room):
        yield list(range(first, min(first + room, count)))


def shaped(values: np.ndarray, one_op: bool, one_state: bool):
    """A (K, R) array of values per operator and state, less the axis of a
    single operator or state: a complex for one of each."""
    if one_op:
        values = values[0]
    if one_state:
        values = values[..., 0]
    return complex(values) if one_op and one_state else values


def per_state(value, count: int, name: str) -> np.ndarray:
    """A coefficient as one value per state: a scalar holds for every state."""
    column = np.asarray(value)
    if column.ndim == 0:
        return np.broadcast_to(column, (count,))
    if column.shape != (count,):
        raise ValueError(
            f"coefficient {name} has shape {column.shape}, not one value per state ({count})"
        )
    return column


def combination(coefficients: list, operators: list[np.ndarray], tilde: bool) -> np.ndarray:
    """sum_j c_j M_j, summed left to right, in C order whatever the layout of
    the terms (a product reads its operands' layout); the tilde copy
    carries conjugated coefficients."""
    if tilde:
        coefficients = [np.conj(c) for c in coefficients]
    out = coefficients[0] * operators[0]
    for c, m in zip(coefficients[1:], operators[1:]):
        out = out + c * m
    return np.ascontiguousarray(out)


def norms(r: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each array of a stack, with its bits: the dot of
    the raveled real parts with themselves plus that of the imaginary parts."""
    flat = r.reshape(len(r), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def vdots(vectors: list[np.ndarray], mats: list[np.ndarray], budget: int) -> np.ndarray:
    """np.vdot(v, A @ v) for each matrix A and vector v, as a (K, R) array:
    one matrix-vector and one dot product per pair, a row batch at once."""
    values = np.empty((len(mats), len(vectors)), dtype=complex)
    for rows in row_batches(len(vectors), vectors[0].size, budget):
        v = np.stack([vectors[r] for r in rows])[..., None]
        for k, a in enumerate(mats):
            values[k, rows] = (v.conj().swapaxes(-1, -2) @ (a @ v))[:, 0, 0]
    return values


def present(stacks: dict) -> dict:
    """Stacks of parity blocks keyed (r, p), less those that are exactly
    zero for every row.  A row whose block is zero where another row's is
    not gets exact zeros from the products of that block, which leave every
    value of its own as it is."""
    return {key: stack for key, stack in stacks.items() if stack.any()}


def parity_stacks(mats: list[np.ndarray], rows: list[int]) -> dict:
    """The (row parity, column parity) sub-blocks of ``mats[k]`` for k in
    ``rows``, stride-2 views stacked and keyed (r, p), less those that are
    exactly zero for every row (``present``)."""
    return present({(r, p): np.stack([mats[k][r::2, p::2] for k in rows]) for r, p in PARITIES})


def row_stacks(blocks: dict, rows: list[int]) -> dict:
    """The parity blocks of the states ``rows``, stacked as
    ``parity_stacks`` gives them, from per-state sequences of blocks keyed
    (r, p)."""
    return present({key: np.stack([states[k] for k in rows]) for key, states in blocks.items()})


def _block_product(x: dict, y: dict) -> dict:
    """x @ y on parity blocks: block (r, p) sums x[r, s] @ y[s, p] over the
    s for which both blocks are present, s = 0 first."""
    out: dict = {}
    for (r, s), xb in x.items():
        for (s_y, p), yb in y.items():
            if s_y == s:
                prod = xb @ yb
                out[r, p] = out[r, p] + prod if (r, p) in out else prod
    return out


def _level_traces(x: dict, y: dict, shape: tuple[int, ...], n: int) -> np.ndarray:
    """sum_k sum_i x[..., i, k] y[..., i, k] with x and y as parity blocks:
    level k's term is the dot of column k of x and of y, and the terms are
    summed in level order, as ``np.trace`` sums its diagonal."""
    levels = np.zeros(shape + (n,), dtype=complex)
    for p in (0, 1):
        terms = [
            np.einsum("...ij,...ij->...j", x[r, p], y[r, p])
            for r in (0, 1) if (r, p) in x and (r, p) in y
        ]
        if terms:
            levels[..., p::2] = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    return levels.sum(axis=-1)


def single_factor_traces(
    c_rows: Callable[[list[int]], dict], count: int, n: int,
    mats: list[np.ndarray], tilde: bool, budget: int,
) -> np.ndarray:
    """tr(C^dag A C), or with ``tilde`` tr(A C^T C*), for each operator A
    and each of ``count`` n x n coefficient matrices C, as a (K, R) array.
    ``c_rows(rows)`` gives the C of the states ``rows`` as their parity
    blocks (``parity_stacks`` or ``row_stacks``).  Each trace reads one
    product, A C or G = C^T C*, on parity blocks: the k-th level term is the
    dot of column k of C* and of A C, or of column k of A^T and of G."""
    if tilde:
        mats = [m.T for m in mats]
    a = parity_stacks(mats, list(range(len(mats))))
    a = {key: block[:, None] for key, block in a.items()}  # operators by rows
    values = np.empty((len(mats), count), dtype=complex)
    half = (n + 1) // 2
    # a row's temporaries: its four C blocks, their conjugates and two
    # (n/2) x (n/2) products per operator, as evolved states have
    for rows in row_batches(count, (len(mats) + 3) * 2 * half * half, budget):
        c = c_rows(rows)
        c_conj = {key: block.conj() for key, block in c.items()}
        if tilde:  # sum_i A[j, i] G[i, j]: x = A^T, y = G = C^T C*
            c_t = {(p, r): block.swapaxes(-1, -2) for (r, p), block in c.items()}
            x, y = a, _block_product(c_t, c_conj)
        else:  # x = C*, y = A C
            x, y = c_conj, _block_product(a, c)
        values[:, rows] = _level_traces(x, y, (len(mats), len(rows)), n)
    return values


def boson_residuals(
    c_rows: Callable[[list[int]], np.ndarray], count: int, ladder: list[np.ndarray],
    columns: list[np.ndarray], tan: float, budget: int,
) -> dict[str, np.ndarray]:
    """|| (a(t) - tan a~^dag(t)) psi || and || (a~(t) - tan a^dag(t)) psi ||
    for each of ``count`` coefficient matrices C, with a(t) = f- a + f+
    a^dag from the coefficient columns (f-, f+) and ``ladder`` = (a,
    a^dag).  ``c_rows(rows)`` stacks the C, or the state vectors, of the
    states ``rows``."""
    n = ladder[0].shape[0]
    out = {"a": np.empty(count), "a_tilde": np.empty(count)}
    for rows in row_batches(count, 8 * n * n, budget):  # about eight n x n a row
        c = c_rows(rows).reshape(len(rows), n, n)
        coefficients = [column[rows][:, None, None] for column in columns]
        a_t = combination(coefficients, ladder, False)
        at_t = combination(coefficients, ladder, True)
        # (X (x) I) psi -> X C ; (I (x) Y) psi -> C Y^T
        out["a"][rows] = norms(a_t @ c - tan * (c @ at_t.conj()))
        out["a_tilde"][rows] = norms(
            c @ at_t.swapaxes(-1, -2) - tan * (a_t.conj().swapaxes(-1, -2) @ c)
        )
    return out


def fermion_residuals(
    vectors: np.ndarray, operators: dict, columns: dict, tan: float, budget: int
) -> dict[str, np.ndarray]:
    """The four residuals a psi - tan a~^dag psi and a~ psi + tan a^dag psi
    of each channel for each state vector, with each row's invariant
    operators built from its coefficient columns: ``operators[channel]``
    is the pair (the operators the coefficients multiply, their tilde
    copies) and ``columns[channel]`` the coefficients."""
    out = {key: np.empty(len(vectors)) for ch in operators for key in (ch, ch + "_tilde")}
    # a row's temporaries: about four operators
    for rows in row_batches(len(vectors), 4 * vectors.shape[1] ** 2, budget):
        v = vectors[rows][..., None]
        for channel, (ops, ops_t) in operators.items():
            coefficients = [column[rows][:, None, None] for column in columns[channel]]
            op = combination(coefficients, ops, False)
            op_t = combination(coefficients, ops_t, True)
            op_dag, op_t_dag = (m.conj().swapaxes(-1, -2) for m in (op, op_t))
            out[channel][rows] = norms(op @ v - tan * (op_t_dag @ v))
            out[channel + "_tilde"][rows] = norms(op_t @ v + tan * (op_dag @ v))
    return out
