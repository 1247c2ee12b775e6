"""Time evolution under static and driven ladder-operator Hamiltonians.

Driven terms carry named real envelopes evaluated exactly at each step;
no pre-rotation into an interaction picture happens here.

Every run evolves on its sector: the basis states the Hamiltonian's
static and driven monomials can reach from psi0 span a subspace H(t)
maps into itself at every t, so nothing outside it is ever populated.
The trajectory stays there. The closure, the matrices on the sector and
the moments read off it come from the monomials' action on basis states
in ``hilbert``, the same action that builds full-register operators. A
static run whose sector fits in ``DENSE_LIMIT`` is exact: one
eigendecomposition of H there propagates the state to every grid point
with no tolerance and no norm drift.
Driven runs, and static runs with larger sectors, use one integrator at
one setting: the 8th-order Dormand-Prince pair (DOP853) at
``RTOL`` = 1e-10, ``ATOL`` = 1e-11. It is handed the linear generator
itself, not a right-hand-side callable: -i H_static and -i H_g, one
block per envelope group, stacked into one sector matrix, plus the group
envelopes. Each stage then costs one matrix-vector product and one
envelope-weighted add per group, and each attempted step evaluates
every envelope once, on the array of its stage times. Multiplying by
-i only swaps real and imaginary parts with one sign, so the states
have the bits of a per-group product summed and then multiplied by -i.
An envelope maps an array of times to its real values there, and a
scalar time as a 0-d array, with the same bits entry by entry.
``evolve_static_expm``, a dense eigendecomposition of the full-register
Hamiltonian, is the independent oracle for static runs.

The integrator is ``_dop853``, a numpy port of scipy's DOP853 that
still takes scipy's steps and returns its bits: ``solve_ivp`` on the
per-group right-hand side is its oracle in the tests. scipy is imported
only where it is called, never at module load: ``scipy.sparse`` inside
``hilbert._basis_matrix`` and the stacking of the generator when a
sector above ``SPARSE_EVOLVE_LIMIT`` states is integrated. Every other
run, driven ones included, needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ._dop853 import dop853
from .hilbert import (
    DENSE_LIMIT,
    QuantumState,
    RegisterLayout,
    _basis_matrix,
    _expect_columns,
    _on_basis,
    terms_to_matrix,
)
from .rwa import LadderMonomial, hermitian_closure_holds


@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def __call__(self, t):
        return self.value * np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Cosine:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, t):
        return self.amplitude * np.cos(
            self.frequency * np.asarray(t, dtype=float) + self.phase)


@dataclass(frozen=True)
class TwoTone:
    amp1: float
    freq1: float
    amp2: float
    freq2: float
    phase1: float = 0.0
    phase2: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amp1 * np.cos(self.freq1 * t + self.phase1) \
            + self.amp2 * np.cos(self.freq2 * t + self.phase2)


@dataclass(frozen=True)
class Motional:
    """Coupling sampled by a probe crossing the mode function:
    cos(k (x0 + v t))."""

    v: float
    k: float
    x0: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.cos(self.k * (self.x0 + self.v * t))


Envelope = Constant | Cosine | TwoTone | Motional


@dataclass
class HamiltonianSpec:
    """Static terms plus (term, envelope) driven pairs.

    The static list and each equal-envelope group must be closed under
    Hermitian conjugation so H(t) stays Hermitian for every t (envelope
    values are real).
    """

    static_terms: list[LadderMonomial] = field(default_factory=list)
    driven_terms: list[tuple[LadderMonomial, Envelope]] = field(
        default_factory=list)

    def validate(self):
        if self.static_terms and not hermitian_closure_holds(self.static_terms):
            raise ValueError("static term list is not Hermitian")
        groups: dict[Envelope, list[LadderMonomial]] = {}
        for term, env in self.driven_terms:
            groups.setdefault(env, []).append(term)
        for env, terms in groups.items():
            if not hermitian_closure_holds(terms):
                raise ValueError(f"driven group {env} is not Hermitian")
        return self


def split_drive_branches(terms: Sequence[LadderMonomial],
                         drive_frequency: float) -> HamiltonianSpec:
    """Convert a +/- drive-branch term list (as produced by the cavity
    expansion) into envelope form: undriven entries become static terms,
    each +1/-1 branch pair becomes one cos(w_d t) driven term."""
    static = [t for t in terms if t.drive_sign == 0]
    plus = [t for t in terms if t.drive_sign == +1]
    minus_keys = {t.operator_key()[0] for t in terms if t.drive_sign == -1}
    if {t.operator_key()[0] for t in plus} != minus_keys:
        raise ValueError("unpaired drive branches in term list")
    env = Cosine(1.0, drive_frequency)
    driven = [(LadderMonomial(t.factors, t.coefficient, 0), env)
              for t in plus]
    return HamiltonianSpec(static, driven)


@dataclass
class Trajectory:
    """Time grid, states and recorded observable series. The states stay
    on the sector: column k of ``columns`` holds the amplitudes at time k
    on its sorted flat indices ``basis`` in the register ``layout``.

    ``diagnostics`` says how the states were obtained: ``path``
    (``"sector-eigh"`` or ``"dop853"``), ``register_dim``, the size of
    the sector both paths evolve on (``evolved_dim``) and the
    integrator's right-hand-side evaluations (``rhs_evals``, 0 on the
    eigendecomposition path).
    """

    times: np.ndarray
    layout: RegisterLayout
    basis: np.ndarray
    columns: np.ndarray
    observables: dict[str, np.ndarray]
    diagnostics: dict = field(default_factory=dict)

    def state(self, k: int) -> QuantumState:
        """Column k embedded into the register, for snapshots and tests."""
        data = np.zeros(self.layout.total_dim, dtype=complex)
        data[self.basis] = self.columns[:, k]
        return QuantumState(self.layout, data, validate=False)

    @property
    def states(self) -> list[QuantumState]:
        """Every state, embedded anew; only perfbench/tracing.py reads it."""
        return [self.state(k) for k in range(len(self.times))]


SPARSE_EVOLVE_LIMIT = 512  # above this many states, integration goes sparse
# the one integrator setting; it holds every scenario's norm-drift budget
# over many drive periods
RTOL, ATOL = 1e-10, 1e-11
CONVERGENCE_THRESHOLD = 1e-6  # a converged sweep's final changes stay below


def _reachable(terms: Sequence[LadderMonomial],
               psi0: QuantumState) -> np.ndarray:
    """Sorted flat indices of the support of psi0 closed under every
    monomial: a set of basis states H(t) maps into itself at every t."""
    # a register-sized mask keeps each pass proportional to its frontier;
    # frontier[:0] keeps the concatenation defined for an empty term list
    seen = np.zeros(psi0.layout.total_dim, dtype=bool)
    frontier = np.flatnonzero(psi0.data)
    while frontier.size:
        seen[frontier] = True
        reached = np.concatenate([frontier[:0], *(
            _on_basis(t.factors, psi0.layout, frontier, t.coefficient)[0]
            for t in terms)])
        frontier = np.unique(reached[~seen[reached]])
    return np.flatnonzero(seen)


def evolve(h: HamiltonianSpec,
           psi0: QuantumState,
           t_grid: Sequence[float],
           observables: Mapping[str, object] | None = None) -> Trajectory:
    """Propagate i d psi/dt = H(t) psi, sampling states at the grid
    points.

    Every run evolves on its sector: the support of psi0 closed under
    every static and driven monomial, which H(t) maps into itself. H
    and each envelope group are built there, the states stay there as
    columns, and each observable is read off all columns at once. A
    static spec whose sector fits in ``DENSE_LIMIT`` is propagated
    exactly by one eigendecomposition; any other spec is integrated on
    the sector with the adaptive 8th-order Dormand-Prince pair (DOP853),
    dense up to ``SPARSE_EVOLVE_LIMIT`` states and CSR above. It is
    handed the generator: one stacked matrix, -i H_static over -i H_g
    per envelope group, and the group envelopes, so each stage is one
    product plus one envelope-weighted block per group. The integrator
    runs at one setting, ``RTOL`` and ``ATOL``; a reference run at
    another calls ``dop853`` directly.

    A one-point grid returns psi0's sector amplitudes on either path,
    with no right-hand-side evaluation.

    The norm is never renormalized; its drift is recorded as the
    ``norm`` observable. It is a unitarity check, not an error measure:
    the integrator's error can lie along the state and keep the norm
    (on ``configs/dce.ini`` the drift is 2.4e-9, while the final state
    lies 1.76e-8 from an rtol = 1e-13 run). A failed
    integration raises ``IntegrationError`` naming the grid interval
    where it stalled.
    """
    if not psi0.is_pure:
        raise ValueError("evolve propagates pure states")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    h.validate()
    observables = observables or {}
    layout = psi0.layout
    groups: dict[Envelope, list[LadderMonomial]] = {}
    for term, env in h.driven_terms:
        groups.setdefault(env, []).append(term)
    basis = _reachable([*h.static_terms, *(t for t, _ in h.driven_terms)],
                       psi0)
    exact = not groups and len(basis) <= DENSE_LIMIT
    # eigh takes a dense matrix, so only the integrator goes sparse
    sparse = not exact and len(basis) > SPARSE_EVOLVE_LIMIT
    matrix = partial(_basis_matrix, layout=layout, basis=basis, sparse=sparse)
    h_static = matrix(h.static_terms)
    psi = psi0.data[basis]
    if exact:
        w, v = np.linalg.eigh(h_static)
        phases = np.exp(-1j * np.outer(t_grid - t_grid[0], w))
        columns = v @ (phases * (v.conj().T @ psi)).T
        # V V^dag psi0 is psi0 only to roundoff, and a roundoff amplitude
        # would read as a detection on the vacuum
        columns[:, 0] = psi
        rhs_evals = 0
    else:
        # -i H_static stacked over -i H_g, one block per envelope group:
        # one product per call yields every block, and -i only swaps the
        # real and imaginary parts (one sign), so the factor is exact
        blocks = [-1j * h_static, *(-1j * matrix(terms)
                                    for terms in groups.values())]
        if sparse:
            import scipy.sparse as sp
            stacked = sp.vstack(blocks, format="csr")
        else:
            stacked = np.concatenate(blocks)
        columns, rhs_evals = dop853(stacked, list(groups), t_grid, psi,
                                    RTOL, ATOL)
    recorded = {}
    for name, op in observables.items():
        terms = [op] if isinstance(op, LadderMonomial) else op
        recorded[name] = np.sum([
            _expect_columns(t.factors, layout, basis, columns, t.coefficient)
            for t in terms], axis=0)
    recorded["norm"] = np.array([np.linalg.norm(col) for col in columns.T])
    return Trajectory(t_grid, layout, basis, columns, recorded, diagnostics={
        "path": "sector-eigh" if exact else "dop853",
        "register_dim": layout.total_dim, "evolved_dim": len(basis),
        "rhs_evals": rhs_evals})


def evolve_static_expm(h_static: Sequence[LadderMonomial] | HamiltonianSpec,
                       psi0: QuantumState,
                       t: float) -> QuantumState:
    """psi(t) = exp(-i H t) psi0 by dense eigendecomposition.

    Static Hamiltonians only; this is the oracle the adaptive integrator
    is checked against.
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


@dataclass
class ConvergenceReport:
    """Per-observable max absolute change between successive cutoffs."""

    cutoffs: list[int]
    deltas: dict[str, list[float]]

    @property
    def final_change(self) -> dict[str, float]:
        return {name: d[-1] for name, d in self.deltas.items()}

    @property
    def converged(self) -> bool:
        return all(d[-1] < CONVERGENCE_THRESHOLD
                   for d in self.deltas.values())


def cutoff_sweep(run: Callable[[int], Mapping[str, np.ndarray]],
                 cutoffs: Sequence[int]) -> ConvergenceReport:
    """Run a scenario at each cutoff and report observable drift.

    ``run(cutoff)`` must return named observable arrays on a common time
    grid. The cutoffs must be strictly increasing: a repeated cutoff
    would report a zero change and fake convergence. The report flags
    non-convergence when the change between the two largest cutoffs is
    still at least ``CONVERGENCE_THRESHOLD`` (1e-6) for some observable.
    """
    cutoffs = list(cutoffs)
    if len(cutoffs) < 2:
        raise ValueError("need at least two cutoffs")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    results = [run(cutoff) for cutoff in cutoffs]
    names = list(results[0].keys())
    deltas: dict[str, list[float]] = {n: [] for n in names}
    for prev, curr in zip(results, results[1:]):
        for n in names:
            deltas[n].append(float(np.max(np.abs(
                np.asarray(curr[n]) - np.asarray(prev[n])))))
    return ConvergenceReport(cutoffs=cutoffs, deltas=deltas)
