"""Rotating-wave reduction of ladder-operator Hamiltonians.

A Hamiltonian is held as a list of monomials: products of creation,
annihilation and Pauli factors with a complex coefficient. A monomial
driven by a cos(w_d t) flux pump appears twice, once per exponential
branch, tagged by ``drive_sign``. In the interaction picture each
monomial rotates at

    drive_sign * w_d + sum_j s_j * w(subsystem_j)

with s = +1 for create / pauli_plus, -1 for annihilate / pauli_minus and
0 for number / pauli_z. Terms whose rotation frequency vanishes survive
the reduction; the rest are counter-rotating and are returned with their
detuning.

One classification core, ``_classify_rows``, applies that rule to rows
of (subsystem, sign) factors held as arrays. ``classify_terms`` feeds it
the rows of any monomial list. The pumped-cavity expansion is also held
as arrays (``_cavity_expansion``: per tensor group, the kept index
tuples and their coefficients), so the ``rwa`` listing classifies its
4,404 reference rows without one ``LadderMonomial`` per term, while
``driven_cavity_terms`` builds the monomials from the same arrays.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .circuit import CouplingTable
from .errors import DegenerateFrequencyError

CREATE = "create"
ANNIHILATE = "annihilate"
NUMBER = "number"
PAULI_PLUS = "pauli_plus"
PAULI_MINUS = "pauli_minus"
PAULI_Z = "pauli_z"

KINDS = (CREATE, ANNIHILATE, NUMBER, PAULI_PLUS, PAULI_MINUS, PAULI_Z)
BOSON_KINDS = (CREATE, ANNIHILATE, NUMBER)

_FREQ_SIGN = {
    CREATE: +1,
    PAULI_PLUS: +1,
    ANNIHILATE: -1,
    PAULI_MINUS: -1,
    NUMBER: 0,
    PAULI_Z: 0,
}

_CONJUGATE_KIND = {
    CREATE: ANNIHILATE,
    ANNIHILATE: CREATE,
    PAULI_PLUS: PAULI_MINUS,
    PAULI_MINUS: PAULI_PLUS,
    NUMBER: NUMBER,
    PAULI_Z: PAULI_Z,
}


def _by_subsystem(factors) -> tuple:
    """Factors sorted by subsystem; the stable sort keeps the relative
    order of same-subsystem factors."""
    return tuple(sorted(factors, key=itemgetter(0)))


@dataclass(frozen=True)
class LadderMonomial:
    """One product term of a Hamiltonian.

    ``factors`` is an ordered tuple of (subsystem index, kind); order
    matters for repeated subsystems. ``drive_sign`` is +1/-1 for the two
    exponential branches of a cos(w_d t) drive factor, 0 if undriven.
    """

    factors: tuple[tuple[int, str], ...]
    coefficient: complex
    drive_sign: int = 0

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple((int(i), str(k)) for i, k in self.factors))
        for idx, kind in self.factors:
            if kind not in KINDS:
                raise ValueError(f"unknown factor kind {kind!r}")
            if idx < 0:
                raise ValueError("subsystem indices must be non-negative")
        if self.drive_sign not in (-1, 0, 1):
            raise ValueError("drive_sign must be -1, 0 or +1")
        if not cmath.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    def conjugate(self) -> "LadderMonomial":
        """Hermitian conjugate: reversed factors, swapped kinds,
        conjugated coefficient, flipped drive branch."""
        return LadderMonomial(
            factors=tuple((i, _CONJUGATE_KIND[k])
                          for i, k in reversed(self.factors)),
            coefficient=complex(self.coefficient).conjugate(),
            drive_sign=-self.drive_sign,
        )

    def operator_key(self) -> tuple:
        """Canonical identity of the operator content.

        Factors on distinct subsystems commute, so they are sorted by
        subsystem; the relative order of same-subsystem factors is kept.
        """
        return _by_subsystem(self.factors), self.drive_sign


@dataclass
class TermClassification:
    """Partition of a term list into the resonant set and the
    counter-rotating set (with per-term detunings)."""

    resonant: list[LadderMonomial]
    counter_rotating: list[tuple[LadderMonomial, float]]
    tolerance: float = 0.0


def _boson_subsystems(terms: Iterable[LadderMonomial]) -> set[int]:
    out: set[int] = set()
    for term in terms:
        for idx, kind in term.factors:
            if kind in BOSON_KINDS:
                out.add(idx)
    return out


def ensure_anharmonic(frequencies: Sequence[float],
                      indices: Iterable[int] | None = None) -> None:
    """Reject frequency sets where one mode is an integer multiple of
    another; the zero-exponent bookkeeping silently misclassifies terms
    in that case. A frequency ratio within 1e-9 of an integer counts as
    one.

    Only the listed indices are checked (default: all). Deliberate
    resonances with non-bosonic subsystems, e.g. a qubit tuned to a mode,
    are the caller's business and are not rejected here.
    """
    idx = sorted(set(indices)) if indices is not None else \
        list(range(len(frequencies)))
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            lo, hi = sorted((abs(frequencies[idx[a]]),
                             abs(frequencies[idx[b]])))
            if lo == 0.0:
                raise DegenerateFrequencyError(
                    f"subsystem {idx[a]} or {idx[b]} has zero frequency")
            ratio = hi / lo
            if abs(ratio - round(ratio)) < 1e-9:
                raise DegenerateFrequencyError(
                    f"frequencies of subsystems {idx[a]} and {idx[b]} are "
                    f"integer multiples (ratio {ratio:.9g}); the "
                    "resonant/counter-rotating split is ill-defined")


def default_tolerance(frequencies: Sequence[float]) -> float:
    """The resonance tolerance: 1e-6 x the smallest nonzero frequency."""
    nonzero = [abs(w) for w in frequencies if w != 0.0]
    return 1e-6 * min(nonzero) if nonzero else 0.0


def _classify_rows(subsystems: np.ndarray, signs: np.ndarray,
                   drive_signs: np.ndarray, frequencies: Sequence[float],
                   drive: float) -> tuple[np.ndarray, np.ndarray]:
    """The classification rule on rows of factors: rotation frequency
    and resonance (|w| <= ``default_tolerance(frequencies)``) per row.

    Row r holds the factors (subsystems[r, j], signs[r, j]), sign +1 for
    create / pauli_plus, -1 for annihilate / pauli_minus, 0 for number /
    pauli_z; subsystem -1 pads a row shorter than the others. Its
    frequency is drive_signs[r] * drive plus sign * w(subsystem) added
    left to right, the float operations of the scalar sum over the
    term's factors in their order, so each value has its bits. A pad
    adds -0.0, which leaves every sum as it is (+0.0 would turn a -0.0
    into +0.0).
    """
    w = np.asarray(frequencies, dtype=float)
    if subsystems.size and subsystems.max() >= len(w):
        raise IndexError(
            f"factor on subsystem {int(subsystems.max())} but only "
            f"{len(w)} frequencies given")
    total = drive_signs * float(drive)
    for idx, sign in zip(subsystems.T, signs.T):
        total = total + np.where(idx >= 0, sign * w[idx], -0.0)
    return total, np.abs(total) <= default_tolerance(frequencies)


def classify_terms(terms: Sequence[LadderMonomial],
                   frequencies: Sequence[float],
                   drive: float = 0.0) -> TermClassification:
    """Split terms into resonant (|rotation frequency| <= tolerance) and
    counter-rotating sets, at the roundoff-scale tolerance
    ``default_tolerance(frequencies)`` that the result records. Both
    sets keep the input order. The terms' factors go to
    ``_classify_rows`` as rows, so each detuning has the bits of the
    scalar sum drive_sign * drive + sum_j s_j w(subsystem_j), added left
    to right.

    Frequencies of subsystems appearing with bosonic ladder factors must
    be mutually anharmonic (no integer ratios), else
    ``DegenerateFrequencyError``.
    """
    tolerance = default_tolerance(frequencies)
    if terms:
        ensure_anharmonic(frequencies, _boson_subsystems(terms))
    width = max((len(term.factors) for term in terms), default=0)
    pad = ((-1, NUMBER),) * width
    rows = np.array([v for term in terms
                     for idx, kind in (term.factors + pad)[:width]
                     for v in (idx, _FREQ_SIGN[kind])], dtype=np.intp)
    rows = rows.reshape(len(terms), width, 2)
    w, resonant = _classify_rows(
        rows[..., 0], rows[..., 1],
        np.array([term.drive_sign for term in terms], dtype=np.intp),
        frequencies, drive)
    flags = resonant.tolist()
    return TermClassification(
        [term for term, hit in zip(terms, flags) if hit],
        [(term, detuning) for term, detuning, hit
         in zip(terms, w.tolist(), flags) if not hit],
        tolerance)


def is_kerr_quartic(term: LadderMonomial) -> bool:
    """Undriven four-factor bosonic monomial that conserves every mode's
    photon number (the cross/self-Kerr survivors of the quartic
    nonlinearity)."""
    if term.drive_sign != 0 or len(term.factors) != 4:
        return False
    balance: dict[int, int] = {}
    for idx, kind in term.factors:
        if kind not in BOSON_KINDS:
            return False
        balance[idx] = balance.get(idx, 0) + _FREQ_SIGN[kind]
    return all(v == 0 for v in balance.values())


def _vacuum_expectation(factors: tuple[tuple[int, str], ...]) -> float:
    """<vac| product |vac> for bosonic ladder factors."""
    occ: dict[int, int] = {}
    amp = 1.0
    for idx, kind in reversed(factors):
        n = occ.get(idx, 0)
        if kind == CREATE:
            amp *= np.sqrt(n + 1.0)
            occ[idx] = n + 1
        elif kind == ANNIHILATE:
            if n == 0:
                return 0.0
            amp *= np.sqrt(float(n))
            occ[idx] = n - 1
        elif kind == NUMBER:
            if n == 0:
                return 0.0
            amp *= n
        else:
            raise ValueError("vacuum expectation defined for boson factors")
    if any(v != 0 for v in occ.values()):
        return 0.0
    return amp


def rwa_reduce(terms: Sequence[LadderMonomial],
               frequencies: Sequence[float],
               drive: float = 0.0,
               kerr: str = "drop") -> list[LadderMonomial]:
    """Keep only the resonant terms, as ``classify_terms`` finds them
    (same tolerance and anharmonicity guard); driven survivors keep one
    exponential branch of their cos(w_d t) factor, i.e. half the
    coefficient, and become static.

    ``kerr`` controls the number-conserving quartic survivors:
      - "drop": remove them (the bare down-conversion Hamiltonian),
      - "keep": retain them as operators,
      - "constant_shift": replace them by one identity term carrying
        their summed vacuum expectation value.
    """
    if kerr not in ("drop", "keep", "constant_shift"):
        raise ValueError(f"unknown kerr mode {kerr!r}")
    cls = classify_terms(terms, frequencies, drive)
    out: list[LadderMonomial] = []
    shift = 0.0 + 0.0j
    for term in cls.resonant:
        if is_kerr_quartic(term):
            if kerr == "drop":
                continue
            if kerr == "constant_shift":
                shift += term.coefficient * _vacuum_expectation(term.factors)
                continue
        if term.drive_sign != 0:
            out.append(LadderMonomial(term.factors, term.coefficient * 0.5, 0))
        else:
            out.append(term)
    if kerr == "constant_shift" and shift != 0:
        out.append(LadderMonomial((), shift, 0))
    return out


def free_mode_terms(frequencies: Sequence[float]) -> list[LadderMonomial]:
    """w_n a_n^dagger a_n for each mode."""
    return [LadderMonomial(((i, CREATE), (i, ANNIHILATE)), complex(w))
            for i, w in enumerate(frequencies)]


@dataclass(frozen=True)
class _CavityGroup:
    """One tensor group of the pumped-cavity expansion. Its rows are
    every kept index tuple, then every sign tuple of ``product((+1, -1),
    repeat=rank)`` (+1 create, -1 annihilate), then every drive branch."""

    indices: np.ndarray  # (kept, rank) mode-index tuples, product order
    coefficients: np.ndarray  # (kept,) prefactor * tensor[idx], nonzero
    branches: tuple[int, ...]  # (+1, -1) under cos(w_d t), (0,) static

    @property
    def signs(self) -> np.ndarray:
        rank = self.indices.shape[1]
        return np.array(list(product((+1, -1), repeat=rank)), dtype=np.intp)

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(subsystems, signs, drive_signs) of every row, in order."""
        signs, n_branches = self.signs, len(self.branches)
        per_tuple = len(signs) * n_branches
        return (np.repeat(self.indices, per_tuple, axis=0),
                np.tile(np.repeat(signs, n_branches, axis=0),
                        (len(self.indices), 1)),
                np.tile(np.array(self.branches, dtype=np.intp),
                        len(self.indices) * len(signs)))


def _cavity_expansion(table: CouplingTable, pump_amplitude: float,
                      n_modes: int) -> list[_CavityGroup]:
    """The groups of ``driven_cavity_terms`` in its order, each with the
    index tuples whose coefficient ``prefactor * tensor[idx]`` (the same
    float64 product) is nonzero; a group whose prefactor is zero, or
    that keeps no tuple, is left out. A non-finite coefficient raises
    ``ValueError``."""
    lam = pump_amplitude
    out = []
    for rank, tensor, prefactor, driven in (
            (1, table.m1_tilde, +lam, True),
            (2, table.m2_tilde, +lam, True),
            (3, table.m3_tilde, -lam, True),
            (4, table.n4_tilde, -1.0, False),
            (4, table.m4_tilde, +lam, True)):
        if prefactor == 0.0:
            continue
        indices = np.indices((n_modes,) * rank).reshape(rank, -1)
        coefficients = prefactor * tensor[tuple(indices)]
        kept = coefficients != 0.0
        if not np.isfinite(coefficients[kept]).all():
            raise ValueError("coefficient must be finite")
        if kept.any():
            out.append(_CavityGroup(indices.T[kept], coefficients[kept],
                                    (+1, -1) if driven else (0,)))
    return out


def _classify_cavity(table: CouplingTable, pump_amplitude: float,
                     frequencies: Sequence[float], drive: float
                     ) -> list[tuple[_CavityGroup, np.ndarray, np.ndarray]]:
    """``classify_terms`` on the pumped-cavity expansion of
    ``len(frequencies)`` modes, with its anharmonicity guard, without
    building the terms: (group, rotation frequencies, resonant mask) per
    group of ``_cavity_expansion``, over the group's rows in order."""
    groups = _cavity_expansion(table, pump_amplitude, len(frequencies))
    ensure_anharmonic(frequencies, {
        int(i) for group in groups for i in np.unique(group.indices)})
    return [(group, *_classify_rows(*group.rows(), frequencies, drive))
            for group in groups]


def driven_cavity_terms(table: CouplingTable,
                        pump_amplitude: float,
                        n_modes: int = 3) -> list[LadderMonomial]:
    """Interaction part of the pumped-cavity Hamiltonian, expanded over
    ordered mode-index tuples and all create/annihilate sign choices.

    Emits, with lam the pump amplitude and cos(w_d t) drives split into
    their two exponential branches:

        + lam cos m1~_n    (a+ + a)_n
        + lam cos m2~_nm   (a+ + a)_n (a+ + a)_m
        - lam cos m3~_nmo  (...)^3
        -          n4~_nmop (...)^4      (static)
        + lam cos m4~_nmop (...)^4

    in the row order of ``_cavity_expansion``, whose arrays these
    monomials are built from: index tuple, then sign tuple, then drive
    branch (+1 before -1). Index tuples with a zero coefficient, and the
    driven groups when lam is zero, give no terms.

    The free-mode part w_n a_n^dag a_n is not included; it defines the
    interaction picture (see ``free_mode_terms``).
    """
    kinds = {+1: CREATE, -1: ANNIHILATE}
    terms: list[LadderMonomial] = []
    for group in _cavity_expansion(table, pump_amplitude, n_modes):
        signs = group.signs.tolist()
        for idx, coeff in zip(group.indices.tolist(),
                              group.coefficients.tolist()):
            for stuple in signs:
                factors = tuple((i, kinds[s]) for i, s in zip(idx, stuple))
                terms.extend(LadderMonomial(factors, coeff, branch)
                             for branch in group.branches)
    return terms


def hermitian_closure_holds(terms: Sequence[LadderMonomial]) -> bool:
    """True when the term list is its own Hermitian conjugate as a sum,
    each coefficient to 1e-12 relative (absolute below magnitude 1).

    Terms are summed by ``operator_key`` and exact zeros dropped, and a
    key's conjugate, the operator key of the conjugated monomial, comes
    from the key itself: each subsystem's factors reversed with their
    kinds swapped, and the drive branch flipped. A sum that overflows
    raises ``ValueError``, as a monomial with that coefficient would."""
    merged: dict[tuple, complex] = {}
    for t in terms:
        key = t.operator_key()
        merged[key] = merged[key] + t.coefficient if key in merged \
            else t.coefficient
    if not all(map(cmath.isfinite, merged.values())):
        raise ValueError("coefficient must be finite")
    merged = {key: c for key, c in merged.items() if c != 0}
    for (factors, drive_sign), c in merged.items():
        other = merged.get((_by_subsystem(
            (i, _CONJUGATE_KIND[k]) for i, k in reversed(factors)),
            -drive_sign))
        if other is None or abs(complex(other).conjugate() - c) > 1e-12 * max(
                1.0, abs(c)):
            return False
    return True
