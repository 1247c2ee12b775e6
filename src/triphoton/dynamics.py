"""Time evolution under static and driven ladder-operator Hamiltonians.

Driven terms carry real envelopes, sums of tones, evaluated exactly at
each node; no pre-rotation into an interaction picture happens here.
This module propagates only: comparing runs across cutoffs is the
scenarios' convergence gate.

Every run evolves on its sector: the basis states the Hamiltonian's
static and driven monomials can reach from psi0 span a subspace H(t)
maps into itself at every t, so nothing outside it is ever populated.
The trajectory stays there. The closure composes the factors' level maps
in ``hilbert``, and the matrices on the sector and the moments read off
it come from the monomials' action on basis states there; no
full-register operator is ever built. A static run whose sector fits
in ``DENSE_LIMIT`` is exact: one eigendecomposition of H there
propagates the state to every grid point with no tolerance and no norm
drift. Realness is decided once, on the dense sector matrices: when no
entry of any of them is imaginary, they are held real, and both dense
paths, this one and the dense Magnus route below, work in real
arithmetic.

Every other run takes the fourth-order commutator-free Magnus propagator
CF4 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011)) at a fixed number of
substeps per grid interval. A substep of length h from t applies
exp(-i h A2) exp(-i h A1), with A1 and A2 each H_static / 2 plus every
envelope group's matrix weighted by its envelope at the Gauss nodes
t + (1/2 -+ sqrt(3)/6) h: weights (1/4 + sqrt(3)/6, 1/4 - sqrt(3)/6) in
A1, the exponential applied first, and the reverse in A2. Each
exponential is of a Hermitian matrix, so the propagator is unitary by
construction. The substep count is derived from the input alone: each
grid interval gets the fewest even number of substeps with
h ||H|| <= ``THETA``, ||H|| the largest column sum of |H_static| plus
each group's |H_g| times its envelope's supremum. A companion run at
half the substeps gives ``error_estimate``, the largest distance between
the two runs' states over the grid divided by 15 (the Richardson factor
2^4 - 1 of a fourth-order method): an asymptotic estimate of the
error of the reported states, not a bound. A static generator, which
CF4 propagates exactly, runs no companion and reports 0.

The exponentials come by one of two routes, both Taylor series cut
where the bound on the first term left out falls below a quarter of
the machine epsilon (``SERIES_CUT``). A run with exactly one envelope
group on at most ``SPARSE_EVOLVE_LIMIT`` states, as every shipped
driven config is, takes them densely: every exponential is exp(-iX)
with X = a H_static + b H_g and a fixed by the substep length, its
Taylor polynomial, regrouped by powers of b, is one table per substep
length, built once per run, and a chunk's exponentials are one real
product of its powers of b with that table. The table keeps only the
powers of b the run can need: the run's own bound on |b| ||H_g||, from
its longest substep and its envelope's supremum, puts every higher
power below ``SERIES_CUT``. Each chunk's unitaries are then multiplied
together in a batched pairwise tree, so a grid interval costs one
matrix-vector product. Every other run keeps its matrices in
CSR form, and each exponential acts on the state by its Taylor series.
scipy is imported only there, for ``scipy.sparse``, as it is in
``hilbert._basis_matrix``; every other run, the driven ``dce-rabi``
included, needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from math import factorial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import IntegrationError
from .hilbert import (
    DENSE_LIMIT,
    QuantumState,
    RegisterLayout,
    _basis_matrix,
    _column_rows,
    _expect_rows,
    _level_map,
)
from .rwa import LadderMonomial, hermitian_closure_holds


@dataclass(frozen=True)
class Envelope:
    """A real drive envelope, the sum of its (a, w, phi) tones
    a cos(w t + phi) taken left to right. ``supremum``, the sum of |a|,
    bounds every value it takes and sets the step count."""

    tones: tuple[tuple[float, float, float], ...]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        (a, w, phi), *rest = self.tones
        value = a * np.cos(w * t + phi)
        for a, w, phi in rest:
            value = value + a * np.cos(w * t + phi)
        return value

    @property
    def supremum(self) -> float:
        return sum(abs(a) for a, _, _ in self.tones)


def Constant(value: float = 1.0) -> Envelope:
    return Envelope(((value, 0.0, 0.0),))


def Cosine(amplitude: float, frequency: float, phase: float = 0.0) -> Envelope:
    return Envelope(((amplitude, frequency, phase),))


def TwoTone(amp1: float, freq1: float, amp2: float, freq2: float,
            phase1: float = 0.0, phase2: float = 0.0) -> Envelope:
    return Envelope(((amp1, freq1, phase1), (amp2, freq2, phase2)))


def Motional(v: float, k: float, x0: float = 0.0) -> Envelope:
    """Coupling sampled by a probe crossing the mode function:
    cos(k (x0 + v t)), as the tone cos(k v t + k x0)."""
    return Envelope(((1.0, k * v, k * x0),))


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

    def validate(self) -> dict[Envelope, list[LadderMonomial]]:
        """The driven terms grouped by envelope, in first-seen order,
        once every group and the static list are Hermitian."""
        if self.static_terms and not hermitian_closure_holds(self.static_terms):
            raise ValueError("static term list is not Hermitian")
        groups: dict[Envelope, list[LadderMonomial]] = {}
        for term, env in self.driven_terms:
            groups.setdefault(env, []).append(term)
        for env, terms in groups.items():
            if not hermitian_closure_holds(terms):
                raise ValueError(f"driven group {env} is not Hermitian")
        return groups


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
    Every moment read off them, the recorded observables' and each
    analysis's, goes through ``expect``.

    ``diagnostics`` says how the states were obtained: ``path``
    (``"sector-eigh"``; ``"magnus-dense"`` for one envelope group on at
    most ``SPARSE_EVOLVE_LIMIT`` states; ``"magnus-taylor"`` for every
    other Magnus run), ``register_dim`` and the size of the sector every
    path evolves on (``evolved_dim``). The Magnus paths add the count of
    matrix exponentials of the run and its companion (``exponentials``)
    and their ``error_estimate``; the exact eigendecomposition path
    keeps the ``rhs_evals`` = 0 it has always reported, so static
    summaries keep their bytes.
    """

    times: np.ndarray
    layout: RegisterLayout
    basis: np.ndarray
    columns: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    _moments: Callable | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def expect(self, factors, coefficient: complex = 1.0) -> np.ndarray:
        """coefficient times the monomial's moment at every grid point:
        each distinct (factors, coefficient) is applied once, to every
        column, through the one row table the trajectory builds, and
        every later call gets the same array, which no reader writes."""
        if self._moments is None:
            self._moments = cache(partial(
                _expect_rows, layout=self.layout, basis=self.basis,
                states=_column_rows(self.columns)))
        return self._moments(tuple(factors), coefficient=coefficient)

    def state(self, k: int) -> QuantumState:
        """Column k embedded into the register, for snapshots and tests."""
        data = np.zeros(self.layout.total_dim, dtype=complex)
        data[self.basis] = self.columns[:, k]
        return QuantumState(self.layout, data, validate=False)

    @property
    def states(self) -> list[QuantumState]:
        """Every state, embedded anew; only perfbench/tracing.py reads it."""
        return [self.state(k) for k in range(len(self.times))]


# above this many states, as with two or more envelope groups,
# exponentials act by Taylor series on CSR matrices. A whole evolve of a
# cos-driven displacement over 11 grid points on [0, 20], per
# exponential (one group, median of 5, one BLAS thread, 2 vCPU), takes
# 4-6 us on the polynomial route at 16 states against 71-92 us on CSR,
# 10-15 us against 73-118 us at 32, 40 us against 77-91 us at 56 and
# 51-80 us against 80-100 us at 64. The dense route stays ahead up to 64
# states, but no workload runs a sector of 17 to 64 states, so no
# measurement of a run picks a higher limit
SPARSE_EVOLVE_LIMIT = 16
# complex entries in one batch's stack of dense exponentials, which the
# route holds with its tree's levels. Fresh processes timing
# scenarios._evolve_dce on configs/dce.ini (9 states, 64 and 32
# exponentials per interval; median of 60 calls, 6 processes per budget,
# one BLAS thread, 2 vCPU) read 26.9-27.3 ms at 2^12 (one interval per
# batch), 21.9-22.4 at 2^13, 21.8-22.6 at 2^14, 20.6-20.9 at 1.5 2^14
# and 21.8-29.6 at 2^15, the fastest three processes each. 2^14 raised
# the benchmark's dce-rabi peak_rss_mb by 0.6 MB, 1.5 2^14 by 1.1 MB
_STACK_BUDGET = 2**14
# the largest h ||H|| of a Magnus substep: halved from 0.72, where the
# error_estimate of configs/dce.ini is 9.4e-8, until it fell below 2.5e-8
# (half the 5e-8 state gate on that run) there and on the driven specs
# whose error the tests check against a reference. The step rule does not
# guarantee that target: n + cos 3t (0.3i a^dag - 0.3i a) at cutoff 3 on
# [0, 2] reaches a true error of 1.8e-7, which its error_estimate covers
THETA = 0.36
# both series routes stop once the bound on the first term left out falls
# below this, so the whole remainder stays below half the machine epsilon
SERIES_CUT = np.finfo(float).eps / 4


def _reachable(terms: Sequence[LadderMonomial],
               psi0: QuantumState) -> np.ndarray:
    """Sorted flat indices of the support of psi0 closed under every
    monomial: a set of basis states H(t) maps into itself at every t."""
    # monomials that share a factor tuple reach the same states, and a
    # zero coefficient reaches none. A tuple acts on each subsystem by its
    # factors' level maps composed, kept as a target table and an alive
    # mask over (tuple, subsystem, level), so every tuple acts on a
    # pass's frontier in a few array calls. A state survives where every
    # subsystem's level does, by the mask and not by an amplitude
    # product. A register-sized mask keeps each pass proportional to its
    # frontier
    layout = psi0.layout
    dims = np.array(layout.dims)
    tuples = list(dict.fromkeys(
        t.factors for t in terms if t.coefficient != 0))
    levels = np.arange(dims.max())
    target = np.tile(levels, (len(tuples), len(dims), 1))
    alive = np.tile(levels < dims[:, None], (len(tuples), 1, 1))
    for row, factors in enumerate(tuples):
        for index, kind in reversed(factors):
            to, amp = _level_map(layout, index, kind)
            at = target[row, index, :len(to)]
            alive[row, index, :len(to)] &= amp[at] != 0
            target[row, index, :len(to)] = to[at]
    # each subsystem's share of the flat index (big-endian strides)
    target *= (layout.total_dim // np.cumprod(dims))[:, None]
    subsystems = np.arange(len(dims))[:, None]
    seen = np.zeros(layout.total_dim, dtype=bool)
    # a complex comparison first: flatnonzero of a complex register
    # takes 2.6x as long
    frontier = np.flatnonzero(psi0.data != 0)
    while frontier.size:
        seen[frontier] = True
        digits = np.array(np.unravel_index(frontier, layout.dims))
        live = alive[:, subsystems, digits].all(axis=1)
        reached = target[:, subsystems, digits].sum(axis=1)[live]
        frontier = np.unique(reached[~seen[reached]])
    return np.flatnonzero(seen)


def _stall(times: np.ndarray, k: int, reason: str) -> IntegrationError:
    return IntegrationError(
        f"integration stalled between t = {times[k]:.6g} and "
        f"t = {times[k + 1]:.6g}: {reason}", time=float(times[k]))


def _half_steps(parts, envelopes, times: np.ndarray) -> np.ndarray:
    """Per grid interval, half the substeps the Magnus run takes there:
    the fewest with h ||H|| <= 2 ``THETA``. ||H|| is the largest column
    sum of |H_static| plus each |H_g| times its envelope's supremum."""
    scales = [1.0, *(env.supremum for env in envelopes)]
    bound = np.max(sum(s * np.asarray(abs(p).sum(axis=0)).ravel()
                       for s, p in zip(scales, parts)))
    spans = np.diff(times) * bound
    if not np.isfinite(spans).all():
        k = int(np.argmin(np.isfinite(spans)))
        raise _stall(times, k, f"step size {THETA / bound:.3g} from the "
                               f"generator bound {bound:.3g}")
    return np.maximum(1, np.ceil(spans / (2 * THETA))).astype(int)


def _cf4_weights(envelopes, times: np.ndarray, ks: np.ndarray,
                 starts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The weights of H_static and of each group matrix in the two
    exponentials of the substeps from ``starts`` with lengths ``h`` in
    grid intervals ``ks``, one entry each per substep: shape
    (substeps, 2, 1 + groups), the exponential applied first at index 0.
    Each envelope is evaluated once, on every Gauss node at once."""
    root = np.sqrt(3.0) / 6.0
    nodes = starts[:, None] + h[:, None] * (0.5 + np.array([-root, root]))
    values = np.empty(nodes.shape + (1 + len(envelopes),))
    values[..., 0] = 1.0
    for g, env in enumerate(envelopes, start=1):
        values[..., g] = env(nodes)
    bad = ~np.isfinite(values)
    if bad.any():
        step, node, group = np.argwhere(bad)[0]
        raise _stall(times, ks[step], f"envelope value "
                     f"{values[step, node, group]:.3g} at t = "
                     f"{nodes[step, node]:.6g}")
    mix = np.array([[0.25 + root, 0.25 - root], [0.25 - root, 0.25 + root]])
    return mix @ values


def _chain(u: np.ndarray) -> np.ndarray:
    """u[:, L-1] @ ... @ u[:, 0] for a stack (n, L, d, d), by pairwise
    products: one batched matmul per level of the tree."""
    while u.shape[1] > 1:
        even = u.shape[1] // 2 * 2
        paired = u[:, 1:even:2] @ u[:, 0:even:2]
        u = paired if even == u.shape[1] else np.concatenate(
            [paired, u[:, even:]], axis=1)
    return u[:, 0]


def _taylor_route(parts, psi: np.ndarray, weights: np.ndarray,
                  h: np.ndarray):
    """Each exponential applied to the state by its Taylor series, on one
    CSR matrix on the union of the parts' patterns, whose entries are
    rewritten per exponential; yields the state after each piece. The
    series stops at ``_series_degree`` of x, a column-sum bound of
    h ||A||, at most 0.42 on a substep of either run."""
    import scipy.sparse as sp
    d = len(psi)
    coo = [p.tocoo() for p in parts]
    keys = [c.row.astype(np.int64) * d + c.col for c in coo]
    union = np.unique(np.concatenate(keys))
    data = np.zeros((len(parts), len(union)), dtype=complex)
    for row, c, key in zip(data, coo, keys):
        np.add.at(row, np.searchsorted(union, key), c.data)
    gen = sp.csr_matrix((data[0].copy(), union % d,
                         np.searchsorted(union, np.arange(d + 1) * d)),
                        shape=(d, d))
    colsums = np.array([np.bincount(union % d, np.abs(row), d)
                        for row in data])
    for piece, step in zip(weights, h[:, 0]):
        for coefficients in piece.reshape(-1, len(parts)):
            np.dot(coefficients, data, out=gen.data)
            x, term = step * np.max(np.abs(coefficients) @ colsums), psi
            for j in range(1, _series_degree(x) + 1):
                term = gen @ term * (-1j * step / j)
                psi = psi + term
        yield psi


def _series_degree(x: float, scale: float = 1.0) -> int:
    """The fewest n with scale x^(n+1)/(n+1)! <= ``SERIES_CUT``: where a
    series whose j-th term is bounded by scale x^j/j! stops."""
    n, tail = 0, scale * x
    while tail > SERIES_CUT:
        n += 1
        tail *= x / (n + 1)
    return n


def _drive_polynomial(parts: np.ndarray, degree: int):
    """exp(-iX), X = a H_static + b H_g, for a run with one envelope
    group, as a function of (a, b): a is h times the static weight, so
    it is fixed by the substep length, and only b varies. The Taylor
    polynomial sum_{n<=N} (-iX)^n / n! is regrouped by powers of b as
    sum_j b^j D_j(a), D_j(a) = sum_{n>=j} (-i)^n / n! a^(n-j) Q_n^(j),
    where Q_n^(j), the sum of the words of n letters with j of them H_g,
    follows from Q_n^(j) = H_static Q_{n-1}^(j) + H_g Q_{n-1}^(j-1). N
    is the fewest with x^(N+1)/(N+1)! <= ``SERIES_CUT`` at the largest
    column sum of |X| a substep of either run reaches, x = 2 ``THETA``
    sqrt(3)/3: the companion's h ||H|| times the largest sum of |CF4
    weights| in one exponential. Only D_j with j <= ``degree`` (at most
    N) are kept: the caller picks it by ``_series_degree`` from the run's
    own bounds, ||D_j(a)|| <= e^(|a| ||H_static||) ||H_g||^j / j! in
    column-sum norms. The Q are built here, once, and each a's D table
    on its first use.

    The returned function takes one a per piece (n,) and the pieces' b
    (n, m), and gives their exponentials (n, m, d, d): one product of the
    powers of b with the pieces' D tables."""
    top = _series_degree(2 * THETA * np.sqrt(3) / 3)
    rows = min(degree, top) + 1
    h_static, h_group = parts
    d = len(h_static)
    # Q_n^(j) at [j, n] for j < rows (0 for j > n), so D_j(a) is row j
    # of the coefficients times stack j
    words = np.zeros((rows, top + 1, d, d), dtype=parts.dtype)
    words[0, 0] = np.eye(d)
    for n in range(1, top + 1):
        words[:, n] = h_static @ words[:, n - 1]
        words[1:, n] += h_group @ words[:-1, n - 1]
    words = words.reshape(rows, top + 1, d * d)
    # D_j(a)'s coefficient of Q_n^(j) at [j, n]: (-i)^n / n! times
    # a^shift, shift = n - j, for n >= j, and 0 below
    order = np.arange(top + 1)
    series = np.triu(np.tile(np.array([1, -1j, -1, 1j])[order % 4] / [
        factorial(n) for n in order], (rows, 1)))
    shift = np.triu(order - order[:rows, None])
    # a linspace grid has a handful of substep lengths, but a grid whose
    # intervals all differ would keep a table per interval: past 1 MB of
    # tables the cache starts again
    tables, held = {}, max(1, 2**20 // (16 * rows * d * d))

    def exponentials(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        powers = np.empty(b.shape + (rows,))
        powers[..., 0] = 1.0
        powers[..., 1:] = b[..., None]
        powers = np.cumprod(powers, axis=-1)
        chosen = []
        for key in a.tolist():
            if key not in tables:
                if len(tables) == held:
                    tables.clear()
                # row j holds D_j(a)'s d^2 complex entries as 2 d^2
                # floats, so the real powers of b multiply both parts in
                # one real product
                coefficients = series * (key ** order)[shift]
                table = coefficients.real[:, None] @ words + 1j * (
                    coefficients.imag[:, None] @ words)
                tables[key] = table.reshape(rows, -1).view(float)
            chosen.append(tables[key])
        u = (powers @ np.stack(chosen)).view(complex)
        return u.reshape(*b.shape, d, d)

    return exponentials


def _real_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real m and a complex x, as one real product on x's
    real and imaginary parts side by side."""
    x = np.ascontiguousarray(x)
    pairs = m @ x.view(float).reshape(len(x), -1)
    return pairs.view(complex).reshape(x.shape)


def _polynomial_route(exponentials, psi: np.ndarray, weights: np.ndarray,
                      h: np.ndarray):
    """Each piece's exponentials from ``exponentials``, a
    ``_drive_polynomial`` of the run's parts, at a = h times the static
    weight, which every exponential of a piece shares, and each
    exponential's b = h times the group weight; multiplied into one
    unitary per piece by ``_chain``, it yields the state after each
    piece."""
    u = exponentials(h[:, 0] * weights[:, 0, 0, 0],
                     (h[..., None] * weights[..., 1]).reshape(len(h), -1))
    for product in _chain(u):
        psi = product @ psi
        yield psi


def _magnus(route, envelopes, times: np.ndarray, psi: np.ndarray,
            steps: np.ndarray, most: int) -> np.ndarray:
    """States at the grid times, as columns, from CF4 with ``steps[k]``
    substeps in grid interval k. Every substep's weights come from one
    call; the substeps go in pieces of at most ``most``, and consecutive
    pieces of one length form a batch of at most ``most`` substeps,
    which ``route(psi, weights, h)`` turns into the state after each
    piece."""
    columns = np.empty((len(psi), len(times)), dtype=complex)
    columns[:, 0] = psi
    # each substep's grid interval, length and start, in run order
    ks = np.repeat(np.arange(len(steps)), steps)
    h = (times[ks + 1] - times[ks]) / steps[ks]
    index = np.arange(len(ks)) - np.repeat(np.cumsum(steps) - steps, steps)
    weights = _cf4_weights(envelopes, times, ks, times[ks] + h * index, h)
    pieces = [(k, first, min(most, m - first)) for k, m in enumerate(steps)
              for first in range(0, m, most)]
    i = done = 0
    while i < len(pieces):
        count = pieces[i][2]
        j = i + 1
        while (j < len(pieces) and pieces[j][2] == count
               and (j - i + 1) * count <= most):
            j += 1
        end = done + (j - i) * count
        batch = weights[done:end].reshape(j - i, count, *weights.shape[1:])
        for (k, first, _), psi in zip(pieces[i:j], route(
                psi, batch, h[done:end:count, None])):
            if first + count == steps[k]:
                columns[:, k + 1] = psi
        i, done = j, end
    return columns


def evolve(h: HamiltonianSpec,
           psi0: QuantumState,
           t_grid: Sequence[float],
           observables: Mapping[str, object] | None = None) -> Trajectory:
    """Propagate i d psi/dt = H(t) psi, sampling states at the grid
    points.

    Every run evolves on its sector: the support of psi0 closed under
    every static and driven monomial, which H(t) maps into itself. H
    and each envelope group are built there, the states stay there as
    columns, and each observable term is read off all columns at once
    by ``Trajectory.expect``, which the analyses read again. A
    static spec whose sector fits in ``DENSE_LIMIT`` is propagated
    exactly by one eigendecomposition (path ``"sector-eigh"``). Any other
    spec runs the CF4 Magnus propagator at the fewest even number of
    substeps per grid interval with h ||H|| <= ``THETA``. A run with
    exactly one envelope group on at most ``SPARSE_EVOLVE_LIMIT`` states
    takes its exponentials densely, from the run's Taylor polynomial in
    the group's weight (``"magnus-dense"``); every other run keeps CSR
    matrices, and each exponential acts on the state by its Taylor
    series (``"magnus-taylor"``). Its diagnostics
    count the ``exponentials`` of both runs and give ``error_estimate``,
    the largest distance over the grid between the run and its companion
    at half the substeps, divided by 15: an asymptotic estimate of the
    state error, not a bound (on ``configs/dce.ini`` it reads 5.6e-9
    against a true 5.5e-9 from an rtol = 1e-13 reference). A static
    spec, which CF4 propagates exactly, runs no companion and reports 0.

    A one-point grid returns psi0's sector amplitudes on every path,
    with no exponential.

    The norm is never renormalized; its drift is recorded as the
    ``norm`` observable. It is a unitarity check, not an error measure:
    every CF4 substep is unitary, so the propagator's error keeps the
    norm (on ``configs/dce.ini`` the drift is 3.5e-13). A non-finite
    envelope value at a node, or a non-finite generator bound, raises
    ``IntegrationError`` naming the grid interval where it arose.
    """
    if not psi0.is_pure:
        raise ValueError("evolve propagates pure states")
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0)
            or not np.isfinite(t_grid).all()):
        raise ValueError("t_grid must be finite and strictly increasing")
    groups = h.validate()
    observables = observables or {}
    layout = psi0.layout
    basis = _reachable([*h.static_terms, *(t for t, _ in h.driven_terms)],
                       psi0)
    exact = not groups and len(basis) <= DENSE_LIMIT
    # only the Taylor route takes CSR matrices
    sparse = not exact and (len(groups) > 1
                            or len(basis) > SPARSE_EVOLVE_LIMIT)
    matrix = partial(_basis_matrix, layout=layout, basis=basis, sparse=sparse)
    parts = [matrix(terms) for terms in [h.static_terms, *groups.values()]]
    # dense matrices with no imaginary entry, as real couplings give, are
    # held real, so both dense paths work in real arithmetic
    if not sparse and not any(p.imag.any() for p in parts):
        parts = [p.real for p in parts]
    psi = psi0.data[basis]
    if exact:
        w, v = np.linalg.eigh(parts[0])
        phases = np.exp(-1j * np.outer(t_grid - t_grid[0], w))
        if np.isrealobj(v):
            columns = _real_product(v, (phases * _real_product(v.T, psi)).T)
        else:
            columns = v @ (phases * (v.conj().T @ psi)).T
        # V V^dag psi0 is psi0 only to roundoff, and a roundoff amplitude
        # would read as a detection on the vacuum
        columns[:, 0] = psi
        diagnostics = {"path": "sector-eigh", "rhs_evals": 0}
    else:
        envelopes = list(groups)
        half = _half_steps(parts, envelopes, t_grid)
        if sparse:
            # whole grid intervals: the Taylor route stacks no matrices
            path, route = "magnus-taylor", partial(_taylor_route, parts)
            most = int(2 * half.max(initial=1))
        else:
            parts = np.array(parts)
            # bounds on |a| ||H_static|| and |b| ||H_g|| over both runs:
            # the companion's longest substep times 1/2, the static
            # weight, and times sqrt(3)/3, the largest sum of |CF4
            # weights|, and the envelope's supremum
            step = np.max(np.diff(t_grid) / half, initial=0.0)
            norms = np.abs(parts).sum(axis=1).max(axis=1)
            degree = _series_degree(
                step * np.sqrt(3) / 3 * envelopes[0].supremum * norms[1],
                np.exp(step / 2 * norms[0]))
            path = "magnus-dense"
            route = partial(_polynomial_route,
                            _drive_polynomial(parts, degree))
            most = max(1, _STACK_BUDGET // len(basis) ** 2)
        # CF4 is exact for a static generator, which needs no companion
        counts = (2 * half, half) if groups else (2 * half,)
        runs = [_magnus(route, envelopes, t_grid, psi, m, most)
                for m in counts]
        columns = runs[0]
        distance = np.linalg.norm(runs[0] - runs[-1], axis=0)
        diagnostics = {"path": path,
                       "exponentials": 2 * int(sum(m.sum() for m in counts)),
                       "error_estimate": float(distance.max()) / 15}
    traj = Trajectory(t_grid, layout, basis, columns, diagnostics={
        **diagnostics, "register_dim": layout.total_dim,
        "evolved_dim": len(basis)})
    for name, op in observables.items():
        terms = [op] if isinstance(op, LadderMonomial) else op
        traj.observables[name] = np.sum(
            [traj.expect(t.factors, t.coefficient) for t in terms], axis=0)
    # np.linalg.norm's sum of squares, Re.Re + Im.Im, for every column in
    # one stacked product on C-contiguous rows, which keeps its bits
    states = np.ascontiguousarray(columns.T)
    squares = [(part[:, None, :] @ part[:, :, None])[:, 0, 0]
               for part in (states.real, states.imag)]
    traj.observables["norm"] = np.sqrt(squares[0] + squares[1])
    return traj
