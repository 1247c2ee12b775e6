"""Oracles and fixtures for the tests: the references that the
program's own paths are checked against, which no program path runs,
and the states the tests build.

Full-register references: ``terms_to_matrix`` builds the matrix of a
term list on the whole register, and ``evolve_static_expm`` propagates
a static Hamiltonian by its dense eigendecomposition there, the oracle
of the sector paths. ``partial_trace`` and ``von_neumann_entropy`` are
the one-state references of the stacked reduced-state cores.

Scalar references that the program's array bits are checked against:
``exact_josephson_energy`` (the two-junction energy before the
small-asymmetry expansion), ``combine_like_terms`` and
``interaction_frequency`` (one term's rotation frequency).

Fixtures: the three-qubit GHZ and W states, the three-mode
``triple_superposition`` and ``random_separable_mixture``.

The covariance-witness simplex: ``_vlf_polish`` is the batched
Nelder-Mead search that ``optimize_vlf`` ran before its exact
semidefinite optimum, and ``_nelder_mead`` follows scipy's
``minimize(method="Nelder-Mead")`` step for step. A restart search
from seeded random starts is a lower bound that the exact optimum must
never fall below.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from triphoton.circuit import PHI0
from triphoton.dynamics import HamiltonianSpec
from triphoton.errors import LayoutMismatchError
from triphoton.hilbert import (
    DENSE_LIMIT,
    QUBIT,
    QuantumState,
    RegisterLayout,
    _basis_matrix,
    _entropies,
    _reduce_columns,
    fock_state,
)
from triphoton.rwa import _FREQ_SIGN, LadderMonomial
from triphoton.witnesses import _blocks, _forms, _vlf_s


def terms_to_matrix(terms: Iterable[LadderMonomial], layout: RegisterLayout,
                    sparse: bool | None = None):
    """Sum of monomial matrices over the full register; dense below
    DENSE_LIMIT, CSR above, unless ``sparse`` says otherwise."""
    if sparse is None:
        sparse = layout.total_dim > DENSE_LIMIT
    return _basis_matrix(terms, layout, np.arange(layout.total_dim), sparse)


def evolve_static_expm(h_static: Sequence[LadderMonomial] | HamiltonianSpec,
                       psi0: QuantumState,
                       t: float) -> QuantumState:
    """psi(t) = exp(-i H t) psi0 by dense eigendecomposition.

    Static Hamiltonians only; this is the full-register oracle the
    sector paths are checked against.
    """
    if isinstance(h_static, HamiltonianSpec):
        if h_static.driven_terms:
            raise ValueError("expm path takes static Hamiltonians only")
        terms = h_static.static_terms
    else:
        terms = list(h_static)
    layout = psi0.layout
    if layout.total_dim > DENSE_LIMIT:
        raise ValueError(
            f"dimension {layout.total_dim} too large for the dense path")
    if not psi0.is_pure:
        raise ValueError("expm path propagates pure states")
    mat = terms_to_matrix(terms, layout, sparse=False)
    if not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise ValueError("static Hamiltonian is not Hermitian")
    w, v = np.linalg.eigh(mat)
    psi = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0.data))
    return QuantumState(layout, psi, validate=False)


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


def von_neumann_entropy(state: QuantumState) -> float:
    """Entropy in nats of the state (0 for any pure state)."""
    return 0.0 if state.is_pure else float(_entropies(state.data))


def exact_josephson_energy(ej1: float, ej2: float, loop_flux: float) -> float:
    """Full two-junction effective Josephson energy for a loop flux
    (in phi0 units), without any small-asymmetry expansion."""
    return math.sqrt(
        ej1**2 + ej2**2 + 2.0 * ej1 * ej2 * math.cos(loop_flux / PHI0)
    )


def combine_like_terms(terms: Iterable[LadderMonomial]
                       ) -> list[LadderMonomial]:
    """Merge monomials with identical operator content and drive branch,
    summing coefficients. Entries whose coefficients cancel to zero are
    discarded."""
    acc: dict[tuple, LadderMonomial] = {}
    for term in terms:
        key = term.operator_key()
        if key in acc:
            prev = acc[key]
            acc[key] = LadderMonomial(prev.factors,
                                      prev.coefficient + term.coefficient,
                                      prev.drive_sign)
        else:
            acc[key] = term
    return [t for t in acc.values() if t.coefficient != 0]


def interaction_frequency(term: LadderMonomial,
                          frequencies: Sequence[float],
                          drive: float = 0.0) -> float:
    """Rotation frequency of the monomial in the interaction picture."""
    total = term.drive_sign * drive
    for idx, kind in term.factors:
        if idx >= len(frequencies):
            raise IndexError(
                f"factor on subsystem {idx} but only "
                f"{len(frequencies)} frequencies given")
        total += _FREQ_SIGN[kind] * frequencies[idx]
    return total


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


def triple_superposition(layout: RegisterLayout, eps: float,
                         modes=None) -> QuantumState:
    """Normalized (|000> + eps |111>)/sqrt(1 + eps^2) on three modes."""
    modes = modes if modes is not None else layout.boson_indices()
    occ_zero = [0] * layout.n_subsystems
    occ_one = list(occ_zero)
    for m in modes:
        occ_one[m] = 1
    vec = fock_state(layout, occ_zero).data + \
        eps * fock_state(layout, occ_one).data
    vec = vec / np.linalg.norm(vec)
    return QuantumState(layout, vec)


def random_separable_mixture(layout: RegisterLayout,
                             rng: np.random.Generator,
                             max_components: int = 4) -> QuantumState:
    """Random convex mixture of random product pure states.

    Per-subsystem amplitudes are drawn on every level, the top Fock
    level of each bosonic mode included: the moment witnesses evaluate
    exact moments there, so no level needs to be held back.
    """
    n_components = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(n_components))
    dim = layout.total_dim
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for _, d in layout.subsystems:
            local = rng.normal(size=d) + 1j * rng.normal(size=d)
            local /= np.linalg.norm(local)
            vec = np.kron(vec, local)
        rho += w * np.outer(vec, vec.conj())
    return QuantumState(layout, rho)


_MAX_ITER = 300  # simplex iterations of the polish


def _vlf_penalized(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The search objective at each point of x, shape (m, 6), with blocks
    [C_x, C_p] as in ``_vlf_s``: -S at the point clipped to the box
    [-2, 2]^6, plus 100 times the squared distance to the box."""
    xc = x.clip(-2.0, 2.0)
    d = x - xc
    return 100.0 * np.add.reduce(d * d, axis=1) - _vlf_s(blocks, xc)


def _vlf_objective(cov: np.ndarray):
    """The search objective on one covariance, for points (m, 6)."""
    return partial(_vlf_penalized, blocks=_blocks(cov))


def _vlf_polish(cov: np.ndarray, x0: np.ndarray):
    """Polish of ``optimize_vlf`` on each 6x6 covariance of a stack
    (..., 6, 6) from its rows of x0, shape (..., m, 6), in one batched
    simplex: the best S, its weights (g, h) and the objective
    evaluations, shapes (...), (..., 6) and (...). Each end point is
    clipped to the box and scored there, and counts only above 16 eps
    (sum |g_l h_l| + |g|^T |C_x| |g| + |h|^T |C_p| |h|), the rounding
    error of S; else the origin's exact 0 stands. Of the end points that
    count, the first with the largest S wins."""
    shape, m = cov.shape[:-2], x0.shape[-2]
    # every start's own blocks; the simplex keeps the live rows' entries
    blocks = _blocks(cov.reshape(-1, 6, 6)).repeat(m, axis=0)
    x, _, nfev, _ = _nelder_mead(_vlf_penalized, x0.reshape(-1, 6),
                                 _MAX_ITER, xatol=1e-10, fatol=1e-10,
                                 args=(blocks,))
    x = x.clip(-2.0, 2.0)
    a = np.abs(x)
    qa = _forms(np.abs(blocks), a)
    gh = (a[:, None, :3] @ a[:, 3:, None])[:, 0, 0]
    rounding = 16 * np.finfo(float).eps * (gh + qa[:, 0] + qa[:, 1])
    values = _vlf_s(blocks, x).reshape(-1, m)
    counts = values > rounding.reshape(-1, m)  # rounding >= 0
    first = np.where(counts, values, -np.inf).argmax(axis=1)
    each = np.arange(len(values))
    found = counts.any(axis=1)
    best = np.where(found, values[each, first], 0.0)
    best_x = np.where(found[:, None], x.reshape(-1, m, 6)[each, first], 0.0)
    return (best.reshape(shape)[()], best_x.reshape(shape + (6,)),
            nfev.reshape(-1, m).sum(axis=1).reshape(shape)[()])


# Trial points of a Nelder-Mead step, a xbar - b worst: reflection,
# expansion, outside and inside contraction, with scipy's rho = 1,
# chi = 2, psi = 1/2. The inside point (1 - psi) xbar + psi worst is
# written with b = -psi, which gives the same bits.
_TRIAL_A = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_TRIAL_B = np.array([1.0, 2.0, 0.5, -0.5])[:, None]
_SHRINK = 0.5


def _step_tables():
    """scipy's choice after a step, per code of its six comparisons (bit
    b set when comparison b of ``_nelder_mead`` holds): the trial point
    kept (0 reflection, 1 expansion, 2 outside, 3 inside contraction),
    whether the simplex shrinks, and whether a second trial point was
    evaluated."""
    pick, shrink, evals = [], [], []
    for code in range(64):
        (beats_best, beats_second, beats_worst, expansion_better,
         outside_worse, inside_better) = (code >> b & 1 for b in range(6))
        contract = not (beats_best or beats_second)
        outside = contract and beats_worst
        inside = contract and not beats_worst
        pick.append(1 if beats_best and expansion_better else
                    2 if outside else 3 if inside else 0)
        shrink.append(outside and outside_worse
                      or inside and not inside_better)
        evals.append(int(beats_best or contract))
    return np.array(pick), np.array(shrink, dtype=bool), np.array(evals)


_STEP_PICK, _STEP_SHRINK, _STEP_EVALS = _step_tables()


def _nelder_mead(f, x0: np.ndarray, max_iter: int, xatol: float,
                 fatol: float, args=()):
    """Minimize f from every row of x0, shape (m, n), at once.

    Each row follows scipy's non-adaptive ``_minimize_neldermead`` with
    ``maxiter=max_iter`` step for step: the same initial simplex, trial
    point, shrink and sort arithmetic, so it ends on the same bits, and
    counts the same evaluations, as its own
    ``minimize(method="Nelder-Mead")`` call. ``f(x, *args)`` maps points
    x, shape (k, n), to values (k,) and must treat points independently;
    each of ``args`` has one entry per row of x0, and f gets each point's
    row entry (gathered when the live rows change, not per call). Each
    step evaluates all four trial points of every live row in one call
    (a row counts only those scipy would have evaluated). A row stops,
    and stays frozen, once its vertices are within ``xatol`` and its
    values within ``fatol`` of the best vertex, or after ``max_iter``
    iterations (counted from 1, as scipy does).

    Returns per row the best vertex, its value, the evaluations of f and
    the iterations (scipy's x, fun, nfev, nit).
    """
    m, n = x0.shape
    # per row the n + 1 vertices, sorted by value, then the four trial
    # points of a step; column n holds each point's value
    pts = np.empty((m, n + 5, n + 1))
    pts[:, :n + 1, :n] = x0[:, None]
    k = np.arange(n)
    pts[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    pts[:, :n + 1, n] = f(pts[:, :n + 1, :n].reshape(-1, n),
                          *(a.repeat(n + 1, axis=0) for a in args)
                          ).reshape(m, n + 1)
    rows = each = np.arange(m)
    # scipy sorts the initial simplex twice; with tied values the second
    # argsort need not be the identity, so it is repeated. Rows are
    # sorted by argsort and take, as scipy does.
    for _ in range(2):
        order = pts[:, :n + 1, n].argsort(axis=1)
        pts[:, :n + 1] = pts[each[:, None], order]
    trial_args = tuple(a.repeat(4, axis=0) for a in args)
    x_out, f_out = np.empty((m, n)), np.empty(m)
    nfev_out, nit_out = np.empty(m, dtype=int), np.empty(m, dtype=int)
    # evaluations beyond the n + 1 initial ones and the one reflection of
    # every iteration: expansions, contractions and shrinks
    extra = np.zeros(m, dtype=int)
    kept_row, step_evals = n + 1 + _STEP_PICK, _STEP_EVALS + n * _STEP_SHRINK
    # comparison b of a step is v[pairs[b]] < v[pairs[6 + b]] over the
    # values v of a row's points [vertex 0 .. n, reflection, expansion,
    # outside, inside point]: the reflection against f_0, f_n-1 and f_n,
    # the expansion against the reflection, the reflection against the
    # outside point (scipy's fxc <= fxr, negated) and the inside point
    # against f_n
    r, e, c, cc = n + 1, n + 2, n + 3, n + 4
    pairs = np.array([r, r, r, e, r, cc, 0, n - 1, n, r, c, n])

    def freeze(stop, iterations):
        r = rows[stop]
        x_out[r], f_out[r] = pts[stop, 0, :n], pts[stop, :n + 1, n].min(axis=1)
        nfev_out[r] = n + iterations + extra[stop]
        nit_out[r] = iterations

    iterations = 1
    while iterations < max_iter:
        # values are sorted, so max |f_0 - f_i| is f_n - f_0 exactly
        done = pts[:, n, n] - pts[:, 0, n] <= fatol
        if np.count_nonzero(done):
            done &= np.abs(pts[:, 1:n + 1, :n] - pts[:, :1, :n]).max(
                axis=(1, 2)) <= xatol
            if np.count_nonzero(done):
                freeze(done, iterations)
                live = ~done
                pts, extra, rows = pts[live], extra[live], rows[live]
                args = tuple(a[live] for a in args)
                trial_args = tuple(a.repeat(4, axis=0) for a in args)
                each = np.arange(rows.size)
                if not rows.size:
                    break
        xbar = np.add.reduce(pts[:, :n, :n], 1) / n
        trial = _TRIAL_A * xbar[:, None] - _TRIAL_B * pts[:, n:n + 1, :n]
        pts[:, n + 1:, :n] = trial
        pts[:, n + 1:, n] = f(trial.reshape(-1, n), *trial_args).reshape(-1, 4)
        v = pts[:, pairs, n]
        code = np.packbits(v[:, :6] < v[:, 6:], axis=1, bitorder="little")
        code = code[:, 0]
        extra += step_evals[code]
        shrink = _STEP_SHRINK[code]
        any_shrink = np.count_nonzero(shrink)
        if any_shrink:
            base = pts[shrink, :1, :n]
            moved = base + _SHRINK * (pts[shrink, 1:n + 1, :n] - base)
            f_moved = f(moved.reshape(-1, n),
                        *(a[shrink].repeat(n, axis=0) for a in args))
        pts[:, n] = pts[each, kept_row[code]]
        if any_shrink:
            pts[shrink, 1:n + 1, :n] = moved
            pts[shrink, 1:n + 1, n] = f_moved.reshape(-1, n)
        iterations += 1
        order = pts[:, :n + 1, n].argsort(axis=1)
        pts[:, :n + 1] = pts[each[:, None], order]
    freeze(np.ones(rows.size, dtype=bool), iterations)
    return x_out, f_out, nfev_out, nit_out
