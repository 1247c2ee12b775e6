"""Term classification and rotating-wave reduction tests.

The classification oracle used here enumerates sign tuples and sums
frequencies directly, independent of the production code path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.circuit import (
    CavityParams,
    SquidParams,
    coupling_table,
    effective_junction,
    mode_spectrum,
)
from triphoton.errors import DegenerateFrequencyError
from triphoton.rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    PAULI_MINUS,
    PAULI_PLUS,
    PAULI_Z,
    LadderMonomial,
    _classify_rows,
    classify_terms,
    driven_cavity_terms,
    free_mode_terms,
    hermitian_closure_holds,
    is_kerr_quartic,
    rwa_reduce,
)

from oracles import combine_like_terms, interaction_frequency

# anharmonic triple for direct tests
FREQS = [0.73, 1.91, 4.39]


def mono(factors, coeff=1.0, drive=0):
    return LadderMonomial(tuple(factors), coeff, drive)


def triple_create(coeff=1.0, drive=-1):
    return mono([(0, CREATE), (1, CREATE), (2, CREATE)], coeff, drive)


def triple_annihilate(coeff=1.0, drive=+1):
    return mono([(0, ANNIHILATE), (1, ANNIHILATE), (2, ANNIHILATE)], coeff, drive)


class TestInteractionFrequency:
    def test_triple_creation_on_sum_drive(self):
        drive = sum(FREQS)
        assert interaction_frequency(triple_create(), FREQS, drive) == \
            pytest.approx(0.0, abs=1e-15)

    def test_number_operator_is_static(self):
        term = mono([(0, CREATE), (0, ANNIHILATE)])
        assert interaction_frequency(term, FREQS) == 0.0

    def test_beam_splitter_detuning(self):
        term = mono([(0, CREATE), (1, ANNIHILATE)])
        assert interaction_frequency(term, FREQS) == \
            pytest.approx(FREQS[0] - FREQS[1], rel=1e-15)

    def test_missing_frequency_rejected(self):
        with pytest.raises(IndexError):
            interaction_frequency(mono([(5, CREATE)]), FREQS)


def reference_terms(lam=0.05):
    sq = SquidParams(ej1=1.1, ej2=0.9, c1=1e-13, c2=1e-13,
                     flux_bias=0.4, pump_amplitude=lam)
    eff = effective_junction(sq)
    spec = mode_spectrum(CavityParams(1.0, 1.0, 1.0), eff.e_bar, 3)
    table = coupling_table(spec, eff)
    return driven_cavity_terms(table, lam), spec, table


class TestClassifyTerms:
    def test_empty_input(self):
        cls = classify_terms([], FREQS, drive=1.0)
        assert cls.resonant == [] and cls.counter_rotating == []

    def test_full_cavity_hamiltonian_resonant_set(self):
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        drive = sum(w)
        cls = classify_terms(terms, w, drive)
        for term in cls.resonant:
            kinds = sorted(k for _, k in term.factors)
            if term.drive_sign != 0:
                # only the triple creation / annihilation survives the drive
                idxs = sorted(i for i, _ in term.factors)
                assert idxs == [0, 1, 2]
                assert kinds == [CREATE] * 3 or kinds == [ANNIHILATE] * 3
            else:
                assert is_kerr_quartic(term)
        # both drive branches of the triple are present
        driven = [t for t in cls.resonant if t.drive_sign != 0]
        assert len(driven) == 12  # 3! orderings x 2 conjugates

    def test_pair_drive_selects_two_mode_squeezing(self):
        # oracle: enumerate all sign tuples for every term and keep the
        # zero-exponent ones
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        drive = w[0] + w[1]
        cls = classify_terms(terms, w, drive)
        oracle_resonant = [
            t for t in terms
            if abs(t.drive_sign * drive
                   + sum({CREATE: 1, ANNIHILATE: -1}[k] * w[i]
                         for i, k in t.factors)) <= cls.tolerance
        ]
        assert len(cls.resonant) == len(oracle_resonant)
        keys = {t.operator_key() for t in cls.resonant}
        assert mono([(0, CREATE), (1, CREATE)], drive=-1).operator_key() in keys
        assert mono([(0, ANNIHILATE), (1, ANNIHILATE)], drive=+1).operator_key() in keys
        # no triple creation/annihilation under the pair drive
        triple_up = sorted([(0, CREATE), (1, CREATE), (2, CREATE)])
        triple_down = sorted([(0, ANNIHILATE), (1, ANNIHILATE), (2, ANNIHILATE)])
        for t in cls.resonant:
            pattern = sorted(t.factors)
            assert pattern != triple_up and pattern != triple_down

    def test_partition_is_complete(self):
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        cls = classify_terms(terms, w, sum(w))
        assert len(cls.resonant) + len(cls.counter_rotating) == len(terms)
        for term, detuning in cls.counter_rotating:
            assert abs(detuning) > cls.tolerance

    def test_idempotent_on_resonant_set(self):
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        cls = classify_terms(terms, w, sum(w))
        again = classify_terms(cls.resonant, w, sum(w))
        assert again.resonant == cls.resonant
        assert again.counter_rotating == []

    def test_resonant_pattern_invariant_under_rescaling(self):
        terms, spec, _ = reference_terms()
        w = np.asarray(spec.frequencies)
        base = classify_terms(terms, list(w), float(w.sum()))
        base_keys = sorted(t.operator_key() for t in base.resonant)
        for scale in [0.1, 3.7, 250.0]:
            scaled = classify_terms(terms, list(scale * w),
                                    float(scale * w.sum()))
            assert sorted(t.operator_key() for t in scaled.resonant) == base_keys

    def test_degenerate_boson_frequencies_rejected(self):
        term = mono([(0, CREATE), (1, ANNIHILATE)])
        with pytest.raises(DegenerateFrequencyError):
            classify_terms([term], [1.0, 2.0])
        with pytest.raises(DegenerateFrequencyError):
            classify_terms([term], [1.0, 1.0])

    def test_qubit_resonance_not_rejected(self):
        # a qubit tuned to its mode is deliberate, not a degeneracy
        term = mono([(1, PAULI_PLUS), (0, ANNIHILATE)])
        cls = classify_terms([term], [1.3, 1.3])
        assert cls.resonant == [term]


# lengths 0-4, Pauli and number factors, every drive branch
MIXED = [
    mono([], 0.5),
    mono([], 0.5, drive=+1),
    mono([(0, CREATE)], 1.0, drive=-1),
    mono([(1, PAULI_PLUS), (0, ANNIHILATE)], 0.1),
    mono([(2, PAULI_Z), (1, NUMBER)], 0.3, drive=+1),
    triple_create(),
    triple_annihilate(),
    mono([(0, ANNIHILATE), (1, PAULI_MINUS), (2, CREATE), (0, NUMBER)],
         2.0, drive=-1),
    mono([(2, ANNIHILATE), (2, ANNIHILATE)], 1.0),
]
# the three-mode resonance from both sides, an off-resonant and no drive
DRIVES = [sum(FREQS), -sum(FREQS), 1.13, 0.0]
_SIGN = {CREATE: 1, PAULI_PLUS: 1, ANNIHILATE: -1, PAULI_MINUS: -1,
         NUMBER: 0, PAULI_Z: 0}


class TestClassificationCore:
    """``classify_terms`` and its array core against the scalar
    ``interaction_frequency``, term by term."""

    @pytest.mark.parametrize("drive", DRIVES)
    def test_classify_terms_matches_interaction_frequency(self, drive):
        cls = classify_terms(MIXED, FREQS, drive)
        freqs = [interaction_frequency(t, FREQS, drive) for t in MIXED]
        hit = [abs(w) <= cls.tolerance for w in freqs]
        assert cls.resonant == [t for t, h in zip(MIXED, hit) if h]
        assert cls.counter_rotating == [
            (t, w) for t, w, h in zip(MIXED, freqs, hit) if not h]
        assert 0 < len(cls.resonant) < len(MIXED)

    @pytest.mark.parametrize("drive", DRIVES)
    def test_padded_rows_keep_every_bit(self, drive):
        # rows shorter than the widest are padded; the pad must leave
        # each sum as it is, the sign of a zero included (0 * -drive is
        # -0.0 for a term with no factors)
        width = max(len(t.factors) for t in MIXED)
        pad = [[(-1, 0)] * (width - len(t.factors)) for t in MIXED]
        rows = np.array([[(i, _SIGN[k]) for i, k in t.factors] + extra
                         for t, extra in zip(MIXED, pad)])
        w, resonant = _classify_rows(
            rows[..., 0], rows[..., 1],
            np.array([t.drive_sign for t in MIXED]), FREQS, drive)
        expected = np.array([interaction_frequency(t, FREQS, drive)
                             for t in MIXED])
        assert w.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert resonant.tolist() == [
            t in classify_terms(MIXED, FREQS, drive).resonant for t in MIXED]

    def test_missing_frequency_rejected(self):
        with pytest.raises(IndexError):
            classify_terms([mono([(5, PAULI_PLUS)])], FREQS)


class TestRwaReduce:
    def test_three_mode_downconversion_hamiltonian(self):
        lam = 0.05
        terms, spec, table = reference_terms(lam)
        w = list(spec.frequencies)
        reduced = combine_like_terms(rwa_reduce(terms, w, sum(w), kerr="drop"))
        assert len(reduced) == 2
        expected = -(6 * lam / 2) * table.m3_tilde[0, 1, 2]
        by_key = {t.operator_key(): t for t in reduced}
        up = by_key[triple_create(drive=0).operator_key()]
        down = by_key[triple_annihilate(drive=0).operator_key()]
        assert up.coefficient == pytest.approx(expected, rel=1e-12)
        assert down.coefficient == pytest.approx(expected, rel=1e-12)
        assert up.drive_sign == 0 and down.drive_sign == 0

    def test_kerr_keep_retains_quartics(self):
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        kept = rwa_reduce(terms, w, sum(w), kerr="keep")
        assert any(is_kerr_quartic(t) for t in kept)

    def test_kerr_constant_shift(self):
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        shifted = rwa_reduce(terms, w, sum(w), kerr="constant_shift")
        identities = [t for t in shifted if t.factors == ()]
        assert len(identities) == 1
        # vacuum expectation of every a a^dag ordering is positive and
        # the quartic prefactor is negative
        assert identities[0].coefficient.real < 0
        assert abs(identities[0].coefficient.imag) < 1e-15

    def test_rabi_split(self):
        g = 0.1
        rabi = [
            mono([(1, PAULI_PLUS), (0, CREATE)], g),
            mono([(1, PAULI_PLUS), (0, ANNIHILATE)], g),
            mono([(1, PAULI_MINUS), (0, CREATE)], g),
            mono([(1, PAULI_MINUS), (0, ANNIHILATE)], g),
        ]
        omega = 1.7
        reduced = rwa_reduce(rabi, [omega, omega], drive=0.0)
        keys = {t.operator_key() for t in reduced}
        assert keys == {
            mono([(1, PAULI_PLUS), (0, ANNIHILATE)]).operator_key(),
            mono([(1, PAULI_MINUS), (0, CREATE)]).operator_key(),
        }
        cls = classify_terms(rabi, [omega, omega])
        counter_keys = {t.operator_key() for t, _ in cls.counter_rotating}
        assert counter_keys == {
            mono([(1, PAULI_PLUS), (0, CREATE)]).operator_key(),
            mono([(1, PAULI_MINUS), (0, ANNIHILATE)]).operator_key(),
        }

    def test_all_detuned_yields_empty(self):
        terms = [mono([(0, CREATE)], 1.0, drive=+1),
                 mono([(0, ANNIHILATE)], 1.0, drive=-1)]
        assert rwa_reduce(terms, FREQS, drive=0.31) == []

    def test_driven_coefficient_halved(self):
        drive = sum(FREQS)
        reduced = rwa_reduce([triple_create(coeff=2.0)], FREQS, drive)
        assert reduced[0].coefficient == pytest.approx(1.0)
        assert reduced[0].drive_sign == 0


class TestHermiticity:
    def test_cavity_expansion_is_closed(self):
        terms, _, _ = reference_terms()
        assert hermitian_closure_holds(terms)

    def test_classification_preserves_closure(self):
        terms, spec, _ = reference_terms()
        w = list(spec.frequencies)
        cls = classify_terms(terms, w, sum(w))
        assert hermitian_closure_holds(cls.resonant)
        assert hermitian_closure_holds([t for t, _ in cls.counter_rotating])
        for kerr in ("drop", "keep", "constant_shift"):
            assert hermitian_closure_holds(rwa_reduce(terms, w, sum(w),
                                                      kerr=kerr))


_kind = st.sampled_from([CREATE, ANNIHILATE, PAULI_PLUS, PAULI_MINUS])
_factor = st.tuples(st.integers(min_value=0, max_value=2), _kind)
_coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False)
_term = st.builds(
    lambda f, c, d: LadderMonomial(tuple(f), c, d),
    st.lists(_factor, min_size=1, max_size=4),
    _coeff,
    st.sampled_from([-1, 0, 1]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_term, min_size=1, max_size=8))
def test_closure_preserved_on_random_lists(terms):
    closed = terms + [t.conjugate() for t in terms]
    assert hermitian_closure_holds(closed)
    cls = classify_terms(closed, [0.73, 1.91, 4.39], drive=1.13)
    assert hermitian_closure_holds(cls.resonant)
    assert hermitian_closure_holds([t for t, _ in cls.counter_rotating])


@settings(max_examples=60, deadline=None)
@given(_term)
def test_conjugation_is_involutive(term):
    twice = term.conjugate().conjugate()
    assert twice.factors == term.factors
    assert twice.drive_sign == term.drive_sign
    assert twice.coefficient == term.coefficient


def _closure_by_monomials(terms):
    """The Hermiticity rule as first written: merge like terms, conjugate
    the merged monomials, merge again and compare by operator key."""
    merged = combine_like_terms(terms)
    conjugated = combine_like_terms(t.conjugate() for t in merged)
    lookup = {t.operator_key(): t.coefficient for t in conjugated}
    if len(lookup) != len(merged):
        return False
    for t in merged:
        other = lookup.get(t.operator_key())
        if other is None or abs(other - t.coefficient) > 1e-12 * max(
                1.0, abs(t.coefficient)):
            return False
    return True


# every kind on two subsystems, so same-subsystem factor orders recur
_any_factor = st.tuples(st.integers(min_value=0, max_value=1),
                        st.sampled_from([CREATE, ANNIHILATE, NUMBER,
                                         PAULI_PLUS, PAULI_MINUS, PAULI_Z]))
_any_term = st.builds(
    lambda f, c, d: LadderMonomial(tuple(f), c, d),
    st.lists(_any_factor, min_size=1, max_size=4),
    st.one_of(_coeff, st.sampled_from([1.0, -2.0, 0.5j, 3.0 + 4.0j])),
    st.sampled_from([-1, 0, 1]),
)
# offsets of a conjugate partner's coefficient, in units of
# max(1, |coefficient|): on both sides of the 1e-12 relative edge
_offset = st.sampled_from([0.0, 0.0, 5e-13, 1e-12, 1.5e-12, 1e-6])


def _subsystem_order(term, sign=1.0):
    """term written with its factors sorted by subsystem, same-subsystem
    order kept: the same operator."""
    return LadderMonomial(tuple(sorted(term.factors, key=lambda f: f[0])),
                          sign * term.coefficient, term.drive_sign)


@st.composite
def _near_closed_lists(draw):
    terms = []
    for t in draw(st.lists(_any_term, max_size=5)):
        group = [draw(st.sampled_from([t, _subsystem_order(t)]))]
        if draw(st.integers(0, 3)):
            # three times in four a conjugate partner, possibly off by an
            # offset
            c = t.conjugate()
            shift = draw(_offset) * max(1.0, abs(t.coefficient)) * draw(
                st.sampled_from([1, -1, 1j]))
            group.append(LadderMonomial(c.factors, c.coefficient + shift,
                                        c.drive_sign))
        if not draw(st.integers(0, 3)):
            # exact cancelling copies of the group's first terms
            group += [_subsystem_order(g, -1.0)
                      for g in group[:draw(st.integers(1, len(group)))]]
        if not draw(st.integers(0, 3)):
            # same-subsystem factors reversed: another operator, maybe
            # with its partner
            r = LadderMonomial(tuple(reversed(t.factors)), t.coefficient,
                               t.drive_sign)
            group += [r, r.conjugate()][:draw(st.integers(1, 2))]
        terms += group
    return draw(st.permutations(terms))


@settings(max_examples=300, deadline=None)
@given(_near_closed_lists())
def test_closure_matches_the_merged_monomial_rule(terms):
    assert hermitian_closure_holds(terms) == _closure_by_monomials(terms)


@pytest.mark.parametrize("offset, holds", [
    (0.0, True), (0.9e-12, True), (1.1e-12, False)])
@pytest.mark.parametrize("coefficient", [0.5j, 3.0 - 4.0j])
def test_closure_relative_edge(coefficient, offset, holds):
    up = mono([(0, CREATE), (1, PAULI_MINUS)], coefficient, drive=+1)
    down = up.conjugate()
    scale = max(1.0, abs(coefficient))
    terms = [up, LadderMonomial(down.factors,
                                down.coefficient + offset * scale,
                                down.drive_sign)]
    assert hermitian_closure_holds(terms) is holds
    assert _closure_by_monomials(terms) is holds


def test_closure_overflow_raises_like_the_merged_monomial():
    terms = [mono([(0, NUMBER)], 1e308), mono([(0, NUMBER)], 1e308)]
    for rule in (hermitian_closure_holds, _closure_by_monomials):
        with pytest.raises(ValueError, match="finite"):
            rule(terms)


def test_combine_merges_orderings():
    terms = [
        mono([(0, CREATE), (1, CREATE)], 1.0),
        mono([(1, CREATE), (0, CREATE)], 2.0),
        mono([(0, CREATE), (1, CREATE)], 3.0, drive=+1),
    ]
    merged = combine_like_terms(terms)
    assert len(merged) == 2
    static = [t for t in merged if t.drive_sign == 0][0]
    assert static.coefficient == pytest.approx(3.0)


def test_same_subsystem_order_not_merged():
    aad = mono([(0, ANNIHILATE), (0, CREATE)], 1.0)
    ada = mono([(0, CREATE), (0, ANNIHILATE)], 1.0)
    assert len(combine_like_terms([aad, ada])) == 2


def test_free_mode_terms():
    terms = free_mode_terms(FREQS)
    assert len(terms) == 3
    for i, t in enumerate(terms):
        assert t.factors == ((i, CREATE), (i, ANNIHILATE))
        assert t.coefficient == FREQS[i]
        assert interaction_frequency(t, FREQS) == 0.0
