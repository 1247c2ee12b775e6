"""Truncated hybrid-register state and operator algebra.

A register is an ordered list of subsystems, each a Fock-truncated
bosonic mode or a qubit. Basis ordering is big-endian: subsystem 0 is
the slowest-varying index, so |n0 n1 n2> sits at n0*d1*d2 + n1*d2 + n2.
Every module that touches composite indices relies on this convention.

Qubit basis: index 0 is the ground state, index 1 the excited state;
pauli_plus = |1><0| raises, sigma_z = diag(-1, +1).

Every ladder, number and Pauli factor is a level map: it sends each
level of its subsystem to at most one level with one amplitude. That map
is the one primitive: moments (summed over a state's support) and the
matrices on a reachable sector are built from it, so no dense
single-subsystem matrix or Kronecker product is ever formed.

Quadratures are x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2), so
the vacuum variance is 1/2. Covariance matrices are ordered as
(x_1 .. x_m, p_1 .. p_m) and built from normally ordered moments, which
stay exact at the Fock cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutMismatchError
from .rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    PAULI_MINUS,
    PAULI_PLUS,
    PAULI_Z,
    BOSON_KINDS,
    LadderMonomial,
)

BOSON = "boson"
QUBIT = "qubit"

DENSE_LIMIT = 4096  # largest static sector diagonalized densely

_NORM_TOL = 1e-9
_HERM_TOL = 1e-12
_EIG_TOL = 1e-9


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered subsystem list; each entry is (kind, dimension)."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "subsystems",
            tuple((str(k), int(d)) for k, d in self.subsystems))
        for kind, dim in self.subsystems:
            if kind not in (BOSON, QUBIT):
                raise ValueError(f"unknown subsystem kind {kind!r}")
            if kind == QUBIT and dim != 2:
                raise ValueError("qubits have dimension 2")
            if dim < 2:
                raise ValueError("subsystem dimensions must be >= 2")

    @classmethod
    def bosons(cls, n: int, cutoff: int) -> "RegisterLayout":
        """n modes, each truncated at Fock level ``cutoff``."""
        return cls(((BOSON, cutoff + 1),) * n)

    @classmethod
    def qubits(cls, n: int) -> "RegisterLayout":
        return cls(((QUBIT, 2),) * n)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @cached_property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    def kind(self, index: int) -> str:
        return self.subsystems[index][0]

    def boson_indices(self) -> list[int]:
        return [i for i, (k, _) in enumerate(self.subsystems) if k == BOSON]

    def qubit_indices(self) -> list[int]:
        return [i for i, (k, _) in enumerate(self.subsystems) if k == QUBIT]

    def check_index(self, index: int):
        if not 0 <= index < len(self.subsystems):
            raise LayoutMismatchError(
                f"subsystem {index} outside register of size "
                f"{len(self.subsystems)}")


@lru_cache(maxsize=1024)
def _level_map(layout: RegisterLayout, index: int,
               kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The factor ``kind`` on subsystem ``index`` as a level map: it
    sends |l> to amp[l] |target[l]>, and amp[l] is 0 where level l is
    killed. A qubit's pauli_plus, pauli_minus and sigma_z act on its two
    levels as a^dag, a and 2n - 1 do. Maps are cached read-only; errors
    are not cached, so a bad index or kind raises on every call."""
    layout.check_index(index)
    skind, dim = layout.subsystems[index]
    if kind in BOSON_KINDS and skind != BOSON:
        raise LayoutMismatchError(
            f"ladder factor {kind!r} on non-bosonic subsystem {index}")
    if kind in (PAULI_PLUS, PAULI_MINUS, PAULI_Z) and skind != QUBIT:
        raise LayoutMismatchError(
            f"Pauli factor {kind!r} on non-qubit subsystem {index}")
    levels = np.arange(dim)
    if kind in (CREATE, PAULI_PLUS):
        level_map = (levels + 1) % dim, np.append(np.sqrt(levels[1:]), 0.0)
    elif kind in (ANNIHILATE, PAULI_MINUS):
        level_map = (levels - 1) % dim, np.sqrt(levels)
    elif kind == NUMBER:
        level_map = levels, levels.astype(float)
    elif kind == PAULI_Z:
        level_map = levels, 2.0 * levels - 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    for array in level_map:
        array.flags.writeable = False
    return level_map


class QuantumState:
    """Pure state vector or density operator over a register.

    ``validate=False`` skips the normalization/positivity checks; it is
    meant for deliberately unnormalized constructions such as truncated
    perturbative expansions.
    """

    def __init__(self, layout: RegisterLayout, data: np.ndarray,
                 validate: bool = True):
        self.layout = layout
        data = np.asarray(data, dtype=complex)
        n = layout.total_dim
        if data.ndim == 1:
            if data.shape != (n,):
                raise LayoutMismatchError(
                    f"vector length {data.shape} does not match register "
                    f"dimension {n}")
        elif data.ndim == 2:
            if data.shape != (n, n):
                raise LayoutMismatchError(
                    f"density shape {data.shape} does not match register "
                    f"dimension {n}")
        else:
            raise ValueError("state data must be a vector or a square matrix")
        self.data = data
        if validate:
            self._validate()

    def _validate(self):
        if self.is_pure:
            norm = np.linalg.norm(self.data)
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"pure state norm {norm} is not 1")
        else:
            if not np.allclose(self.data, self.data.conj().T,
                               atol=_HERM_TOL):
                raise ValueError("density operator is not Hermitian")
            tr = np.trace(self.data).real
            if abs(tr - 1.0) > _NORM_TOL:
                raise ValueError(f"density trace {tr} is not 1")
            if np.linalg.eigvalsh(self.data).min() < -_EIG_TOL:
                raise ValueError("density operator has negative eigenvalues")

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def norm(self) -> float:
        if self.is_pure:
            return float(np.linalg.norm(self.data))
        return float(np.trace(self.data).real)

    def to_density(self) -> "QuantumState":
        if self.is_pure:
            rho = np.outer(self.data, self.data.conj())
            return QuantumState(self.layout, rho, validate=False)
        return self

    def purity(self) -> float:
        """tr(rho^2), or (psi^dag psi)^2 without forming rho if pure."""
        if self.is_pure:
            return float(np.vdot(self.data, self.data).real) ** 2
        return float(_purities(self.data))


def _purities(rhos: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each density in a stack of shape (..., d, d)."""
    return np.trace(rhos @ rhos, axis1=-2, axis2=-1).real


def _on_basis(factors, layout: RegisterLayout, basis: np.ndarray,
              coefficient: complex = 1.0
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """coefficient times the factor product on each basis state s (flat
    indices): the flat index it lands on, its amplitude, and the
    positions in ``basis`` it came from.

    Each factor's level map moves a basis state to one basis state, so
    the monomial does too; states the truncation (or a zero coefficient)
    sends to zero are dropped.
    """
    levels = list(np.unravel_index(basis, layout.dims))
    amp = np.full(len(basis), complex(coefficient))
    for index, kind in reversed(tuple(factors)):
        target, factor_amp = _level_map(layout, index, kind)
        amp = amp * factor_amp[levels[index]]
        levels[index] = target[levels[index]]
    cols = amp.nonzero()[0]
    return (np.ravel_multi_index([lv[cols] for lv in levels], layout.dims),
            amp[cols], cols)


def _expect_columns(factors, layout: RegisterLayout, basis: np.ndarray,
                    columns: np.ndarray,
                    coefficient: complex = 1.0) -> np.ndarray:
    """``expect_monomial`` of each state given as a column of amplitudes
    on the basis states (sorted flat indices): ``_expect_rows`` on the
    columns' row table."""
    return _expect_rows(factors, layout, basis, _column_rows(columns),
                        coefficient)


def _column_rows(columns: np.ndarray) -> np.ndarray:
    """The columns as C-contiguous rows, each with one zero amplitude past
    its end, which a monomial's target outside the basis reads: the
    table ``_expect_rows`` takes, built once per trajectory."""
    states = np.zeros((columns.shape[1], len(columns) + 1), dtype=complex)
    states[:, :-1] = columns.T
    return states


def _expect_rows(factors, layout: RegisterLayout, basis: np.ndarray,
                 states: np.ndarray,
                 coefficient: complex = 1.0) -> np.ndarray:
    """``expect_monomial`` of each state of a ``_column_rows`` table,
    from one ``_on_basis`` call: an array over the states. A state sums
    in its order over its nonzero amplitudes only; summing its zeros too
    would move the bits. Every state sums in one stacked product on the
    C-contiguous rows, which has vdot's bits on such rows (on strided
    ones it does not); a state with a zero among the amplitudes the
    monomial reads sums again by its own vdot over its nonzero ones. The
    coefficient multiplies each state's sum as a Python complex, whose
    product keeps the bits an array product would not."""
    flat, amp, cols = _on_basis(factors, layout, basis)
    rows = basis.searchsorted(flat)
    # a target outside the basis reads the zero amplitude past its end
    rows[basis.searchsorted(flat, "right") == rows] = len(basis)
    target, source = states.take(rows, axis=1), states.take(cols, axis=1)
    sums = (target.conj()[:, None, :] @ (amp * source)[:, :, None])[:, 0, 0]
    for k in np.flatnonzero(~source.all(axis=1)):
        keep = source[k] != 0.0
        sums[k] = np.vdot(target[k, keep], amp[keep] * source[k, keep])
    return np.array([coefficient * value for value in sums.tolist()],
                    dtype=complex)


def _reduce_columns(layout: RegisterLayout, basis: np.ndarray,
                    columns: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced densities over the subsystems ``keep`` (a sorted list) of
    the pure states given as columns on the basis states (sorted flat
    indices), stacked (column, kept, kept): each column is a kept x traced
    matrix M over the traced digits the basis holds, and rho = M M^dag."""
    dims = layout.dims
    order = keep + [i for i in range(len(dims)) if i not in keep]
    digits = np.array(np.unravel_index(basis, dims))
    moved = np.ravel_multi_index(digits[order], np.take(dims, order))
    keep_dim = int(np.prod([dims[i] for i in keep]))
    kept, traced = np.divmod(moved, layout.total_dim // keep_dim)
    held, traced_at = np.unique(traced, return_inverse=True)
    # one M at a time: a stack of them would hold every column's zeros
    m = np.zeros((keep_dim, len(held)), dtype=complex)
    rhos = np.empty((columns.shape[1], keep_dim, keep_dim), dtype=complex)
    for k in range(columns.shape[1]):
        m[kept, traced_at] = columns[:, k]
        rhos[k] = m @ m.conj().T
    return rhos


def _basis_matrix(terms: Iterable[LadderMonomial], layout: RegisterLayout,
                  basis: np.ndarray, sparse: bool = False):
    """Matrix of the summed terms between the basis states (sorted flat
    indices), dense or CSR: H on a sector. Amplitudes landing outside the
    basis are dropped, which is exact on a sector H maps into itself.
    ``scipy.sparse`` is imported here, on the CSR branch only, so dense
    builds never load it."""
    m = len(basis)

    def entries():
        # one landing state per column, so no index pair repeats in a term
        for term in terms:
            flat, amp, cols = _on_basis(term.factors, layout, basis,
                                        term.coefficient)
            rows = np.searchsorted(basis, flat).clip(max=m - 1)
            inside = basis[rows] == flat
            yield rows[inside], cols[inside], amp[inside]

    if sparse:
        import scipy.sparse as sp
        # one build sums every term's entries; where they cancel, no
        # explicit zero is kept
        none = np.zeros(0, dtype=np.intp)
        rows, cols, amp = map(np.concatenate, zip(
            (none, none, np.zeros(0, dtype=complex)), *entries()))
        total = sp.csr_matrix((amp, (rows, cols)), shape=(m, m))
        total.eliminate_zeros()
        return total
    total = np.zeros((m, m), dtype=complex)
    for rows, cols, amp in entries():
        total[rows, cols] += amp
    return total


def expect_monomial(state: QuantumState, factors,
                    coefficient: complex = 1.0) -> complex:
    """<product of factors> on the state (no normalization applied).

    The monomial moves each basis state s to one state t(s) with one
    amplitude a(s) (``_on_basis``), so the moment is a sum over the
    state's support: conj(psi[t(s)]) a(s) psi[s] over the nonzero
    amplitudes of a pure state (``_expect_columns`` on one column),
    Tr(O rho) = a(s) rho[s, t(s)] over every basis state for a density.
    """
    data, layout = state.data, state.layout
    if state.is_pure:
        support = np.flatnonzero(data)
        return _expect_columns(factors, layout, support,
                               data[support][:, None], coefficient)[0]
    flat, amp, cols = _on_basis(factors, layout, np.arange(layout.total_dim))
    return coefficient * complex(np.sum(amp * data[cols, flat]))


def covariance_matrix(state: QuantumState,
                      modes: Sequence[int] | None = None) -> np.ndarray:
    """Symmetrized quadrature covariance matrix over the listed bosonic
    modes, ordered (x_1..x_m, p_1..p_m):

        C[A, B] = <AB + BA>/2 - <A><B>

    It is built from the normally ordered moments m_i = <a_i>,
    A_ij = <a_i a_j> and N_ij = <a_i^dag a_j>, with a_i a_j^dag =
    a_j^dag a_i + delta_ij:

        C_xx = Re A + Re N + I/2 - 2 Re m Re m^T
        C_pp = -Re A + Re N + I/2 - 2 Im m Im m^T
        C_xp = Im A + Im N - 2 Re m Im m^T

    Each moment is an overlap of states lowered from the state, such as
    <a_i psi|a_j psi>, and lowering never crosses the cutoff, so they,
    and C, are exact for any state of the truncated register, where
    a a^dag is 0 on the top level instead of c + 1. Vacuum gives
    diag(1/2, ..., 1/2) in this convention.
    """
    layout = state.layout
    if modes is None:
        modes = layout.boson_indices()
    modes = list(modes)
    for i in modes:
        layout.check_index(i)
        if layout.kind(i) != BOSON:
            raise LayoutMismatchError(
                f"covariance requested on non-bosonic subsystem {i}")
    return _covariance(partial(expect_monomial, state), modes)


def _covariance(expect, modes: Sequence[int]) -> np.ndarray:
    """``covariance_matrix`` from the moments ``expect(factors)``: of one
    state, or arrays over a grid of states, which give a stack of shape
    (grid, 2m, 2m)."""
    m = len(modes)
    mean = np.stack([expect(((i, ANNIHILATE),)) for i in modes], axis=-1)
    pair = np.empty(mean.shape + (m,), complex)
    number = np.empty_like(pair)
    for r, s in zip(*np.triu_indices(m)):
        i, j = modes[r], modes[s]
        pair[..., r, s] = pair[..., s, r] = expect(
            ((i, ANNIHILATE), (j, ANNIHILATE)))
        number[..., r, s] = expect(((i, CREATE), (j, ANNIHILATE)))
        number[..., s, r] = number[..., r, s].conjugate()
    half = 0.5 * np.eye(m)
    x, p = mean.real[..., :, None], mean.imag[..., :, None]
    xt, pt = np.swapaxes(x, -1, -2), np.swapaxes(p, -1, -2)
    cov = np.empty(mean.shape[:-1] + (2 * m, 2 * m))
    cov[..., :m, :m] = pair.real + number.real + half - 2.0 * (x * xt)
    cov[..., :m, m:] = pair.imag + number.imag - 2.0 * (x * pt)
    cov[..., m:, :m] = np.swapaxes(cov[..., :m, m:], -1, -2)
    cov[..., m:, m:] = -pair.real + number.real + half - 2.0 * (p * pt)
    return cov


def fock_state(layout: RegisterLayout,
               occupations: Sequence[int]) -> QuantumState:
    """Product basis state |n_0 n_1 ...>; qubit entries are 0 or 1."""
    dims = layout.dims
    if len(occupations) != len(dims):
        raise LayoutMismatchError("one occupation per subsystem required")
    index = 0
    for occ, dim in zip(occupations, dims):
        if not 0 <= occ < dim:
            raise ValueError(
                f"occupation {occ} exceeds subsystem cutoff {dim - 1}")
        index = index * dim + occ
    vec = np.zeros(layout.total_dim, dtype=complex)
    vec[index] = 1.0
    return QuantumState(layout, vec)


def _entropies(rhos: np.ndarray) -> np.ndarray:
    """-sum(e ln e) over the eigenvalues e > 1e-15 of each density in a
    stack of shape (..., d, d); a dropped e adds a zero, which leaves
    each sum as it is."""
    eigs = np.linalg.eigvalsh(rhos)
    logs = np.log(eigs, out=np.zeros_like(eigs), where=eigs > 1e-15)
    return -np.sum(eigs * logs, axis=-1)
