"""Truncated hybrid-register state and operator algebra.

A register is an ordered list of subsystems, each a Fock-truncated
bosonic mode or a qubit. Basis ordering is big-endian: subsystem 0 is
the slowest-varying index, so |n0 n1 n2> sits at n0*d1*d2 + n1*d2 + n2.
Every module that touches composite indices relies on this convention.

Qubit basis: index 0 is the ground state, index 1 the excited state;
pauli_plus = |1><0| raises, sigma_z = diag(-1, +1).

Every ladder, number and Pauli factor is a level map: it sends each
level of its subsystem to at most one level with one amplitude. That map
is the one primitive: moments (summed over a state's support),
full-register operators and the matrices on a reachable sector are all
built from it, so no dense single-subsystem matrix or Kronecker product
is ever formed.

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

DENSE_LIMIT = 4096  # largest total dimension held as a dense operator

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
        return float(np.trace(self.data @ self.data).real)


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
                    columns: np.ndarray, coefficient: complex = 1.0) -> list:
    """``expect_monomial`` of each state given as a column of amplitudes
    on the basis states (sorted flat indices), from one ``_on_basis``
    call. A column sums in its order over its nonzero amplitudes only;
    summing its zeros too would move the bits."""
    flat, amp, cols = _on_basis(factors, layout, basis)
    rows = basis.searchsorted(flat)
    outside = basis.searchsorted(flat, "right") == rows
    values = []
    for k in range(columns.shape[1]):
        col = columns[:, k]
        target, source, weight = col.take(rows, mode="clip"), col[cols], amp
        target[outside] = 0.0  # a target outside the basis has amplitude 0
        if np.count_nonzero(source) < len(source):
            keep = source != 0.0
            target, source, weight = target[keep], source[keep], amp[keep]
        values.append(coefficient * complex(np.vdot(target, weight * source)))
    return values


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
    indices), dense or CSR: H on a sector, or a full-register operator.
    Amplitudes landing outside the basis are dropped, which is exact on
    a sector H maps into itself. ``scipy.sparse`` is imported here, on
    the CSR branch only, so dense builds never load it."""
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


def terms_to_matrix(terms: Iterable[LadderMonomial], layout: RegisterLayout,
                    sparse: bool | None = None):
    """Sum of monomial matrices over the full register; dense below
    DENSE_LIMIT, CSR above, unless ``sparse`` says otherwise."""
    if sparse is None:
        sparse = layout.total_dim > DENSE_LIMIT
    return _basis_matrix(terms, layout, np.arange(layout.total_dim), sparse)


def partial_trace(state: QuantumState, keep: Iterable[int]) -> QuantumState:
    """Reduced density operator over the kept subsystems (in ascending
    register order)."""
    keep = sorted(set(keep))
    if not keep:
        raise LayoutMismatchError("keep set must be nonempty")
    for i in keep:
        state.layout.check_index(i)
    dims = state.layout.dims
    n_sub = len(dims)
    traced = [i for i in range(n_sub) if i not in keep]
    keep_dim = int(np.prod([dims[i] for i in keep]))
    traced_dim = int(np.prod([dims[i] for i in traced])) if traced else 1
    new_layout = RegisterLayout(
        tuple(state.layout.subsystems[i] for i in keep))
    if state.is_pure:
        support = np.flatnonzero(state.data)
        rho = _reduce_columns(state.layout, support,
                              state.data[support][:, None], keep)[0]
    else:
        tensor = state.data.reshape(dims + dims)
        perm = keep + traced + [n_sub + i for i in keep] + \
            [n_sub + i for i in traced]
        block = tensor.transpose(perm).reshape(
            keep_dim, traced_dim, keep_dim, traced_dim)
        rho = np.einsum("atbt->ab", block)
    return QuantumState(new_layout, rho, validate=False)


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
    """``covariance_matrix`` from one state's moments ``expect(factors)``."""
    m = len(modes)
    mean = np.array([expect(((i, ANNIHILATE),)) for i in modes])
    pair, number = np.empty((m, m), complex), np.empty((m, m), complex)
    for r, s in zip(*np.triu_indices(m)):
        i, j = modes[r], modes[s]
        pair[r, s] = pair[s, r] = expect(((i, ANNIHILATE), (j, ANNIHILATE)))
        number[r, s] = expect(((i, CREATE), (j, ANNIHILATE)))
        number[s, r] = number[r, s].conjugate()
    half = 0.5 * np.eye(m)
    x, p = mean.real, mean.imag
    c_xp = pair.imag + number.imag - 2.0 * np.outer(x, p)
    return np.block([
        [pair.real + number.real + half - 2.0 * np.outer(x, x), c_xp],
        [c_xp.T, -pair.real + number.real + half - 2.0 * np.outer(p, p)]])


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


def _require_three_qubits(layout: RegisterLayout):
    if layout.subsystems != ((QUBIT, 2),) * 3:
        raise LayoutMismatchError("this state needs a register of 3 qubits")


def ghz_state(layout: RegisterLayout) -> QuantumState:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    _require_three_qubits(layout)
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
    return QuantumState(layout, vec)


def w_state(layout: RegisterLayout) -> QuantumState:
    """(|001> + |010> + |100>)/sqrt(3) on three qubits."""
    _require_three_qubits(layout)
    vec = np.zeros(8, dtype=complex)
    vec[1] = vec[2] = vec[4] = 1.0 / np.sqrt(3.0)
    return QuantumState(layout, vec)


def von_neumann_entropy(state: QuantumState) -> float:
    """Entropy in nats of the state (0 for any pure state)."""
    if state.is_pure:
        return 0.0
    eigs = np.linalg.eigvalsh(state.data)
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log(eigs)))
