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
    PAULI_MINUS,
    PAULI_PLUS,
    LadderMonomial,
    classify_terms,
    combine_like_terms,
    driven_cavity_terms,
    free_mode_terms,
    hermitian_closure_holds,
    interaction_frequency,
    is_kerr_quartic,
    rwa_reduce,
)

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


@settings(max_examples=40, deadline=None)
@given(_term)
def test_json_round_trip(term):
    again = LadderMonomial.from_dict(term.to_dict())
    assert again.factors == term.factors
    assert again.drive_sign == term.drive_sign
    assert again.coefficient == pytest.approx(term.coefficient)


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
