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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product
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

    def scaled(self, factor: complex) -> "LadderMonomial":
        return LadderMonomial(self.factors, self.coefficient * factor,
                              self.drive_sign)

    def operator_key(self) -> tuple:
        """Canonical identity of the operator content.

        Factors on distinct subsystems commute, so they are sorted by
        subsystem; the relative order of same-subsystem factors is kept.
        """
        order = sorted(range(len(self.factors)),
                       key=lambda j: (self.factors[j][0], j))
        return tuple(self.factors[j] for j in order), self.drive_sign

    def to_dict(self) -> dict:
        return {
            "factors": [[i, k] for i, k in self.factors],
            "coeff": [float(np.real(self.coefficient)),
                      float(np.imag(self.coefficient))],
            "drive_sign": self.drive_sign,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LadderMonomial":
        return cls(
            factors=tuple((int(i), str(k)) for i, k in data["factors"]),
            coefficient=complex(data["coeff"][0], data["coeff"][1]),
            drive_sign=int(data["drive_sign"]),
        )


@dataclass
class TermClassification:
    """Partition of a term list into the resonant set and the
    counter-rotating set (with per-term detunings)."""

    resonant: list[LadderMonomial]
    counter_rotating: list[tuple[LadderMonomial, float]]
    tolerance: float = 0.0


def combine_like_terms(terms: Iterable[LadderMonomial],
                       drop_tol: float = 0.0) -> list[LadderMonomial]:
    """Merge monomials with identical operator content and drive branch,
    summing coefficients. Entries with |coefficient| <= drop_tol are
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
    return [t for t in acc.values() if abs(t.coefficient) > drop_tol]


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


def _boson_subsystems(terms: Iterable[LadderMonomial]) -> set[int]:
    out: set[int] = set()
    for term in terms:
        for idx, kind in term.factors:
            if kind in BOSON_KINDS:
                out.add(idx)
    return out


def ensure_anharmonic(frequencies: Sequence[float],
                      indices: Iterable[int] | None = None,
                      rel_tol: float = 1e-9) -> None:
    """Reject frequency sets where one mode is an integer multiple of
    another; the zero-exponent bookkeeping silently misclassifies terms
    in that case.

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
            if abs(ratio - round(ratio)) < rel_tol:
                raise DegenerateFrequencyError(
                    f"frequencies of subsystems {idx[a]} and {idx[b]} are "
                    f"integer multiples (ratio {ratio:.9g}); the "
                    "resonant/counter-rotating split is ill-defined")


def default_tolerance(frequencies: Sequence[float]) -> float:
    nonzero = [abs(w) for w in frequencies if w != 0.0]
    return 1e-6 * min(nonzero) if nonzero else 0.0


def classify_terms(terms: Sequence[LadderMonomial],
                   frequencies: Sequence[float],
                   drive: float = 0.0,
                   tolerance: float | None = None,
                   check_degeneracy: bool = True) -> TermClassification:
    """Split terms into resonant (|rotation frequency| <= tolerance) and
    counter-rotating sets.

    Frequencies of subsystems appearing with bosonic ladder factors must
    be mutually anharmonic (no integer ratios); pass
    ``check_degeneracy=False`` to skip that guard.
    """
    if tolerance is None:
        tolerance = default_tolerance(frequencies)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if check_degeneracy and terms:
        ensure_anharmonic(frequencies, _boson_subsystems(terms))
    resonant: list[LadderMonomial] = []
    counter: list[tuple[LadderMonomial, float]] = []
    for term in terms:
        w = interaction_frequency(term, frequencies, drive)
        if abs(w) <= tolerance:
            resonant.append(term)
        else:
            counter.append((term, w))
    return TermClassification(resonant, counter, tolerance)


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
               tolerance: float | None = None,
               kerr: str = "drop",
               check_degeneracy: bool = True) -> list[LadderMonomial]:
    """Keep only the resonant terms; driven survivors keep one
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
    cls = classify_terms(terms, frequencies, drive, tolerance,
                         check_degeneracy)
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


def free_mode_terms(frequencies: Sequence[float],
                    indices: Sequence[int] | None = None
                    ) -> list[LadderMonomial]:
    """w_n a_n^dagger a_n for each mode."""
    idx = list(indices) if indices is not None else range(len(frequencies))
    return [LadderMonomial(((i, CREATE), (i, ANNIHILATE)),
                           complex(frequencies[i])) for i in idx]


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

    The free-mode part w_n a_n^dag a_n is not included; it defines the
    interaction picture (see ``free_mode_terms``).
    """
    lam = pump_amplitude
    terms: list[LadderMonomial] = []
    groups = [
        (1, table.m1_tilde, +lam, True),
        (2, table.m2_tilde, +lam, True),
        (3, table.m3_tilde, -lam, True),
        (4, table.n4_tilde, -1.0, False),
        (4, table.m4_tilde, +lam, True),
    ]
    signs = {+1: CREATE, -1: ANNIHILATE}
    for rank, tensor, prefactor, driven in groups:
        if prefactor == 0.0:
            continue
        for idx in product(range(n_modes), repeat=rank):
            coeff = prefactor * tensor[idx]
            if coeff == 0.0:
                continue
            for stuple in product((+1, -1), repeat=rank):
                factors = tuple((i, signs[s]) for i, s in zip(idx, stuple))
                if driven:
                    terms.append(LadderMonomial(factors, coeff, +1))
                    terms.append(LadderMonomial(factors, coeff, -1))
                else:
                    terms.append(LadderMonomial(factors, coeff, 0))
    return terms


def hermitian_closure_holds(terms: Sequence[LadderMonomial],
                            tol: float = 1e-12) -> bool:
    """True when the term list is its own Hermitian conjugate as a sum."""
    merged = combine_like_terms(terms)
    conjugated = combine_like_terms(t.conjugate() for t in merged)
    lookup = {t.operator_key(): t.coefficient for t in conjugated}
    if len(lookup) != len(merged):
        return False
    for t in merged:
        other = lookup.get(t.operator_key())
        if other is None or abs(other - t.coefficient) > tol * max(
                1.0, abs(t.coefficient)):
            return False
    return True
