"""Register, state and operator algebra tests.

Direct-computation oracles (explicit Kronecker products, scipy expm)
live inside the tests and never call the code paths they check.
"""

import os
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from triphoton.config import build_scenario_config, load_config
from triphoton.dynamics import HamiltonianSpec, evolve
from triphoton.errors import LayoutMismatchError
from triphoton.hilbert import (
    QuantumState,
    RegisterLayout,
    _expect_columns,
    _level_map,
    _on_basis,
    _reduce_columns,
    covariance_matrix,
    expect_monomial,
    fock_state,
)
from triphoton.rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    PAULI_MINUS,
    PAULI_PLUS,
    PAULI_Z,
    LadderMonomial,
)
from triphoton.scenarios import _STEPS

from oracles import (
    ghz_state,
    partial_trace,
    terms_to_matrix,
    von_neumann_entropy,
    w_state,
)


def mono(factors, coeff=1.0, drive=0):
    return LadderMonomial(tuple(factors), coeff, drive)


THREE_QUBITS = RegisterLayout.qubits(3)
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SM = np.array([[0, 1], [0, 0]], dtype=complex)  # direct sigma_minus


class TestLayout:
    def test_dims_and_strides(self):
        lay = RegisterLayout((("boson", 3), ("qubit", 2), ("boson", 4)))
        assert lay.dims == (3, 2, 4)
        assert lay.total_dim == 24
        assert lay.boson_indices() == [0, 2]
        assert lay.qubit_indices() == [1]

    def test_big_endian_indexing(self):
        lay = RegisterLayout((("boson", 3), ("boson", 2)))
        psi = fock_state(lay, (2, 1))
        assert psi.data[2 * 2 + 1] == 1.0

    def test_invalid_layouts(self):
        with pytest.raises(ValueError):
            RegisterLayout((("qubit", 3),))
        with pytest.raises(ValueError):
            RegisterLayout((("spin", 2),))
        with pytest.raises(ValueError):
            RegisterLayout((("boson", 1),))


class TestLevelMap:
    def test_cached_maps_are_read_only(self):
        lay = RegisterLayout.bosons(2, 3)
        target, amp = _level_map(lay, 1, CREATE)
        assert _level_map(lay, 1, CREATE)[1] is amp
        np.testing.assert_array_equal(target, [1, 2, 3, 0])
        np.testing.assert_array_equal(amp, [1, np.sqrt(2), np.sqrt(3), 0])
        with pytest.raises(ValueError):
            amp[0] = 2.0

    def test_errors_raise_on_every_call(self):
        lay = RegisterLayout((("boson", 3), ("qubit", 2)))
        for _ in range(2):
            with pytest.raises(LayoutMismatchError):
                _level_map(lay, 2, NUMBER)
            with pytest.raises(LayoutMismatchError):
                _level_map(lay, 1, CREATE)
            with pytest.raises(LayoutMismatchError):
                _level_map(lay, 0, PAULI_Z)
            with pytest.raises(ValueError):
                _level_map(lay, 0, "squeeze")


class TestBuildOperator:
    """Single-monomial matrices from terms_to_matrix."""

    def test_annihilator_entries_cutoff_two(self):
        lay = RegisterLayout.bosons(1, 2)
        a = terms_to_matrix([mono([(0, ANNIHILATE)])], lay)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2.0)
        assert np.array_equal(a, expected)

    def test_commutator_below_cutoff(self):
        lay = RegisterLayout.bosons(1, 5)
        a = terms_to_matrix([mono([(0, ANNIHILATE)])], lay)
        ad = terms_to_matrix([mono([(0, CREATE)])], lay)
        comm = a @ ad - ad @ a
        # identity except on the top Fock level
        assert np.allclose(comm[:5, :5], np.eye(5))
        assert comm[5, 5] == pytest.approx(-5.0)  # truncation artifact

    def test_qubit_completeness(self):
        lay = RegisterLayout.qubits(1)
        pm = terms_to_matrix([mono([(0, PAULI_PLUS), (0, PAULI_MINUS)])], lay)
        mp = terms_to_matrix([mono([(0, PAULI_MINUS), (0, PAULI_PLUS)])], lay)
        assert np.array_equal(pm + mp, np.eye(2))

    def test_dagger_equals_conjugate_build(self):
        lay = RegisterLayout((("boson", 4), ("qubit", 2)))
        term = mono([(0, CREATE), (0, ANNIHILATE), (1, PAULI_PLUS)],
                    coeff=0.3 - 0.7j)
        left = terms_to_matrix([term], lay).conj().T
        right = terms_to_matrix([term.conjugate()], lay)
        assert np.array_equal(left, right)

    def test_kind_subsystem_mismatch(self):
        lay = RegisterLayout((("boson", 3), ("qubit", 2)))
        with pytest.raises(LayoutMismatchError):
            terms_to_matrix([mono([(1, CREATE)])], lay)
        with pytest.raises(LayoutMismatchError):
            terms_to_matrix([mono([(0, PAULI_PLUS)])], lay)

    def test_number_kind(self):
        lay = RegisterLayout.bosons(1, 3)
        n = terms_to_matrix([mono([(0, NUMBER)])], lay)
        assert np.array_equal(n, np.diag([0, 1, 2, 3]).astype(complex))

    def test_terms_to_matrix_includes_identity(self):
        lay = RegisterLayout.bosons(1, 2)
        terms = [mono([(0, NUMBER)], 2.0), mono((), 1.5)]
        total = terms_to_matrix(terms, lay)
        assert np.allclose(total, np.diag([1.5, 3.5, 5.5]))


# hand-built single-subsystem matrices of the reference operator
SINGLE = {
    CREATE: lambda d: np.diag(np.sqrt(np.arange(1, d)), -1),
    ANNIHILATE: lambda d: np.diag(np.sqrt(np.arange(1, d)), +1),
    NUMBER: lambda d: np.diag(np.arange(d)).astype(float),
    PAULI_PLUS: lambda d: np.array([[0.0, 0.0], [1.0, 0.0]]),
    PAULI_MINUS: lambda d: np.array([[0.0, 1.0], [0.0, 0.0]]),
    PAULI_Z: lambda d: np.diag([-1.0, 1.0]),
}


def reference_matrix(terms, layout):
    """Sum of coefficient times the Kronecker product of per-subsystem
    factor products, from explicit dense matrices."""
    dims = layout.dims
    total = np.zeros((layout.total_dim,) * 2, dtype=complex)
    for term in terms:
        blocks = [np.eye(d) for d in dims]
        for index, kind in term.factors:
            blocks[index] = blocks[index] @ SINGLE[kind](dims[index])
        total += term.coefficient * reduce(np.kron, blocks)
    return total


class TestOperatorOracle:
    """Level-map operators against the hand-built Kronecker reference on
    a boson(4)/qubit/boson(3) register."""

    LAYOUT = RegisterLayout((("boson", 4), ("qubit", 2), ("boson", 3)))
    BOSON_WORDS = ((), (ANNIHILATE,), (CREATE,), (NUMBER,),
                   (ANNIHILATE, CREATE), (CREATE, CREATE, ANNIHILATE,
                                          ANNIHILATE), (CREATE, NUMBER))
    QUBIT_WORDS = ((), (PAULI_PLUS,), (PAULI_MINUS,), (PAULI_Z,),
                   (PAULI_PLUS, PAULI_MINUS), (PAULI_MINUS, PAULI_Z))

    def random_terms(self, rng, count):
        terms = [mono((), 0.8 - 0.35j)]
        for _ in range(count):
            factors = []
            for index, words in ((0, self.BOSON_WORDS), (1, self.QUBIT_WORDS),
                                 (2, self.BOSON_WORDS)):
                word = words[rng.integers(len(words))]
                factors.append([(index, kind) for kind in word])
            # subsystems in random order, each word kept in order
            order = rng.permutation(3)
            flat = [f for i in order for f in factors[i]]
            coeff = complex(rng.normal(), rng.normal()) * 1.7
            terms.append(mono(flat, coeff))
        return terms

    @pytest.mark.parametrize("seed", range(4))
    def test_terms_to_matrix_dense_and_sparse(self, seed):
        terms = self.random_terms(np.random.default_rng(seed), 12)
        expected = reference_matrix(terms, self.LAYOUT)
        scale = np.abs(expected).max()
        dense = terms_to_matrix(terms, self.LAYOUT, sparse=False)
        sparse = terms_to_matrix(terms, self.LAYOUT, sparse=True)
        assert isinstance(dense, np.ndarray) and sp.issparse(sparse)
        assert np.abs(dense - expected).max() <= 1e-15 * scale
        assert np.abs(sparse.toarray() - expected).max() <= 1e-15 * scale
        for term in terms:
            expected = reference_matrix([term], self.LAYOUT)
            got = terms_to_matrix([term], self.LAYOUT)
            assert np.abs(got - expected).max() <= \
                1e-15 * np.abs(expected).max()
        # a term and its negative leave no stored entry in the CSR pattern
        cancelled = [terms[0], mono(terms[0].factors, -terms[0].coefficient)]
        assert terms_to_matrix(cancelled, self.LAYOUT, sparse=True).nnz == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_expect_monomial_pure_and_mixed(self, seed):
        rng = np.random.default_rng(100 + seed)
        lay = self.LAYOUT
        n = lay.total_dim
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        pure = QuantumState(lay, vec / np.linalg.norm(vec))
        k = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        rho = k @ k.conj().T
        mixed = QuantumState(lay, rho / np.trace(rho).real)
        for term in self.random_terms(rng, 12):
            mat = reference_matrix([term], lay)
            want_pure = np.vdot(pure.data, mat @ pure.data)
            want_mixed = np.trace(mat @ mixed.data)
            for state, want in ((pure, want_pure), (mixed, want_mixed)):
                got = expect_monomial(state, term.factors, term.coefficient)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_moments_keep_the_vdot_bits(self, seed):
        # Columns on all 60 states of a wider register: the first four
        # with every amplitude nonzero, so each monomial reads full
        # columns and takes the stacked product, the last three with
        # zeros, which take their own vdot. With a non-unit complex
        # coefficient each column has the bits of expect_monomial, of
        # the coefficient times vdot on contiguous operands, and of the
        # column on its own
        rng = np.random.default_rng(300 + seed)
        lay = RegisterLayout((("boson", 6), ("qubit", 2), ("boson", 5)))
        basis = np.arange(lay.total_dim)
        columns = rng.normal(size=(60, 7)) + 1j * rng.normal(size=(60, 7))
        columns[:, 4:][rng.random((60, 3)) < 0.3] = 0.0
        columns[1:, 6] = 0.0
        terms = [mono(t.factors, t.coefficient * (0.7 - 0.4j))
                 for t in self.random_terms(rng, 12)]
        for term in terms:
            got = _expect_columns(term.factors, lay, basis, columns,
                                  term.coefficient)
            for k, value in enumerate(got):
                state = QuantumState(lay, columns[:, k], validate=False)
                assert value == expect_monomial(state, term.factors,
                                                term.coefficient)
                support = np.flatnonzero(columns[:, k])
                flat, amp, cols = _on_basis(term.factors, lay, support)
                data = columns[:, k]
                scatter = np.vdot(data[flat], amp * data[support[cols]])
                assert value == term.coefficient * complex(scatter)
                assert value == _expect_columns(
                    term.factors, lay, basis, columns[:, k:k + 1],
                    term.coefficient)[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_expect_columns_match_expect_monomial(self, seed):
        # Columns on a 12-state basis, with exact zeros inside it (column
        # 0 holds one amplitude) and monomials that land outside it: each
        # column's moment has the bits of expect_monomial on the state it
        # embeds, and of the register scatter summed over that state's
        # support, and matches the Kronecker reference.
        rng = np.random.default_rng(200 + seed)
        lay = self.LAYOUT
        basis = np.sort(rng.choice(lay.total_dim, 12, replace=False))
        columns = rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6))
        columns[rng.random(columns.shape) < 0.3] = 0.0
        columns[1:, 0] = 0.0
        terms = self.random_terms(rng, 12)
        terms.append(mono([(0, CREATE), (1, PAULI_PLUS)], 0.3 - 1.1j))
        lands_outside = 0
        for term in terms:
            got = _expect_columns(term.factors, lay, basis, columns,
                                  term.coefficient)
            assert len(got) == columns.shape[1]
            mat = reference_matrix([term], lay)
            for k, value in enumerate(got):
                data = np.zeros(lay.total_dim, dtype=complex)
                data[basis] = columns[:, k]
                state = QuantumState(lay, data, validate=False)
                assert value == expect_monomial(state, term.factors,
                                                term.coefficient)
                support = np.flatnonzero(data)
                flat, amp, cols = _on_basis(term.factors, lay, support)
                scatter = np.vdot(data[flat], amp * data[support[cols]])
                assert value == term.coefficient * complex(scatter)
                want = np.vdot(data, mat @ data)
                assert abs(value - want) <= 1e-13 * max(1.0, abs(want))
            flat = _on_basis(term.factors, lay, basis)[0]
            lands_outside += not np.isin(flat, basis).all()
        assert lands_outside > 0


class TestLargeCutoff:
    def test_kerr_term_memory_at_cutoff_4095(self):
        # Every factor is a level map, so nothing scales with d^2: the
        # sparse build, the moment and the one-state sector evolution of
        # a single-mode Kerr term stay far below one dense d x d matrix
        # (256 MiB of complex entries at d = 4096).
        lay = RegisterLayout.bosons(1, 4095)
        kerr = mono([(0, CREATE), (0, CREATE), (0, ANNIHILATE),
                     (0, ANNIHILATE)], 0.5)
        psi0 = fock_state(lay, (5,))
        tracemalloc.start()
        try:
            h = terms_to_matrix([kerr], lay, sparse=True)
            moment = expect_monomial(psi0, kerr.factors)
            traj = evolve(HamiltonianSpec([kerr]), psi0, [0.0, 1.0],
                          observables={"kerr": kerr})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert moment == pytest.approx(20.0, rel=1e-15)
        assert h[5, 5] == pytest.approx(10.0, rel=1e-15)
        assert h.nnz == lay.total_dim - 2  # |0> and |1> are killed
        assert traj.diagnostics["evolved_dim"] == 1
        assert traj.observables["kerr"] == pytest.approx([10.0, 10.0],
                                                         rel=1e-15)

    def test_pure_state_purity_forms_no_density(self):
        # the outer product of a 2,197-state register alone is 74 MiB
        psi = fock_state(RegisterLayout.bosons(3, 12), (1, 2, 3))
        tracemalloc.start()
        try:
            purity = psi.purity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert purity == 1.0

    def test_pure_purity_matches_density_branch(self):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=12) + 1j * rng.normal(size=12)
        # unnormalized, so the square of the norm is exercised
        state = QuantumState(RegisterLayout((("boson", 3), ("boson", 4))),
                             vec, validate=False)
        assert state.purity() == pytest.approx(
            state.to_density().purity(), rel=1e-14)


class TestExpectation:
    def test_vacuum_antinormal_pair(self):
        lay = RegisterLayout.bosons(1, 4)
        vac = fock_state(lay, (0,))
        assert expect_monomial(vac, ((0, ANNIHILATE), (0, CREATE))) == \
            pytest.approx(1.0)

    def test_unnormalized_perturbative_state(self):
        g0t = 0.07
        lay = RegisterLayout.bosons(3, 3)
        psi = fock_state(lay, (0, 0, 0)).data + \
            g0t * fock_state(lay, (1, 1, 1)).data
        state = QuantumState(lay, psi, validate=False)
        val = expect_monomial(
            state, ((0, ANNIHILATE), (1, ANNIHILATE), (2, ANNIHILATE)))
        assert val == pytest.approx(g0t, rel=1e-14)

    def test_ghz_triple_lowering_modulus(self):
        # oracle: explicit 8-dimensional matrix-vector computation
        ghz_vec = np.zeros(8, dtype=complex)
        ghz_vec[0] = ghz_vec[7] = 1 / np.sqrt(2)
        op = np.kron(np.kron(SM, SM), SM)
        oracle = abs(ghz_vec.conj() @ op @ ghz_vec)
        state = ghz_state(THREE_QUBITS)
        val = expect_monomial(
            state, ((0, PAULI_MINUS), (1, PAULI_MINUS), (2, PAULI_MINUS)))
        assert oracle == pytest.approx(0.5, abs=1e-15)
        assert abs(val) == pytest.approx(oracle, abs=1e-14)

    def test_hermitian_operator_real_expectation(self):
        rng = np.random.default_rng(11)
        lay = RegisterLayout.bosons(2, 3)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        state = QuantumState(lay, vec)
        terms = [mono([(0, CREATE), (1, ANNIHILATE)], 0.4 + 0.2j)]
        terms.append(terms[0].conjugate())
        total = sum(expect_monomial(state, t.factors, t.coefficient)
                    for t in terms)
        assert abs(total.imag) < 1e-12

    @pytest.mark.parametrize("factors", [((-1, NUMBER),), ((2, NUMBER),),
                                         ((1, CREATE),)])
    def test_bad_factor_raises_layout_mismatch(self, factors):
        # an index outside the register, or a ladder factor on a qubit
        lay = RegisterLayout((("boson", 3), ("qubit", 2)))
        for state in (fock_state(lay, (0, 0)),
                      fock_state(lay, (0, 0)).to_density()):
            with pytest.raises(LayoutMismatchError):
                expect_monomial(state, factors)

    def test_density_expectation_matches_pure(self):
        lay = RegisterLayout.bosons(2, 3)
        rng = np.random.default_rng(5)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        state = QuantumState(lay, vec)
        rho = state.to_density()
        factors = ((0, CREATE), (1, ANNIHILATE))
        assert expect_monomial(rho, factors) == pytest.approx(
            expect_monomial(state, factors), abs=1e-13)


class TestPartialTrace:
    def test_product_state(self):
        lay = RegisterLayout.qubits(2)
        psi = fock_state(lay, (0, 1))
        reduced = partial_trace(psi, {0})
        assert np.allclose(reduced.data, [[1, 0], [0, 0]])

    def test_ghz_pair_marginal(self):
        reduced = partial_trace(ghz_state(THREE_QUBITS), {0, 1})
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(reduced.data, expected, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        lay = RegisterLayout.qubits(2)
        bell = QuantumState(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell, {0})
        assert reduced.purity() == pytest.approx(0.5, abs=1e-12)
        assert np.trace(reduced.data).real == pytest.approx(1.0, abs=1e-12)

    def test_keep_all_returns_density(self):
        lay = RegisterLayout.bosons(2, 2)
        rng = np.random.default_rng(3)
        vec = rng.normal(size=9) + 1j * rng.normal(size=9)
        vec /= np.linalg.norm(vec)
        state = QuantumState(lay, vec)
        rho = partial_trace(state, {0, 1})
        assert np.allclose(rho.data, state.to_density().data, atol=1e-14)

    def test_consistent_under_reordering(self):
        # tracing to {0} from (A, B, C) equals tracing the permuted
        # register (A, C, B) to {0}
        dims = (("boson", 2), ("boson", 3), ("qubit", 2))
        lay = RegisterLayout(dims)
        rng = np.random.default_rng(17)
        vec = rng.normal(size=12) + 1j * rng.normal(size=12)
        vec /= np.linalg.norm(vec)
        state = QuantumState(lay, vec)
        swapped = RegisterLayout((dims[0], dims[2], dims[1]))
        perm_vec = state.data.reshape(2, 3, 2).transpose(0, 2, 1).reshape(-1)
        state_swapped = QuantumState(swapped, perm_vec)
        r1 = partial_trace(state, {0})
        r2 = partial_trace(state_swapped, {0})
        assert np.allclose(r1.data, r2.data, atol=1e-13)

    def test_density_input(self):
        reduced = partial_trace(ghz_state(THREE_QUBITS).to_density(), {2})
        assert np.allclose(reduced.data, np.eye(2) / 2, atol=1e-14)

    def test_empty_keep_rejected(self):
        with pytest.raises(LayoutMismatchError):
            partial_trace(ghz_state(THREE_QUBITS), set())


# the subsystems each shipped analysis keeps: the three qubits of
# hybrid-swap, the qubit of dce-rabi
SHIPPED_KEEP = {"hybrid.ini": [3, 4, 5], "dce.ini": [1]}


@pytest.fixture(scope="module", params=sorted(SHIPPED_KEEP))
def shipped(request):
    """A shipped config's evolved trajectory and its analysis's keep."""
    config = build_scenario_config(
        load_config(os.path.join(CONFIGS, request.param)))
    evolve_step, _ = _STEPS[config.name]
    return evolve_step(config)[0], SHIPPED_KEEP[request.param]


class TestReduceColumns:
    """Reduced densities read off sector columns, against the density
    branch of ``partial_trace``: an einsum over the embedded state's
    density matrix, which shares no code with ``_reduce_columns``."""

    BQB = RegisterLayout((("boson", 3), ("qubit", 2), ("boson", 4)))

    @staticmethod
    def oracle(layout, basis, column, keep):
        data = np.zeros(layout.total_dim, dtype=complex)
        data[basis] = column
        density = QuantumState(layout, data, validate=False).to_density()
        return partial_trace(density, keep).data

    def check(self, layout, basis, columns, keep):
        rhos = _reduce_columns(layout, basis, columns, keep)
        kept = int(np.prod([layout.dims[i] for i in keep]))
        assert rhos.shape == (columns.shape[1], kept, kept)
        for rho, column in zip(rhos, columns.T):
            oracle = self.oracle(layout, basis, column, keep)
            assert np.abs(rho - oracle).max() <= 1e-15

    @staticmethod
    def random_columns(rng, rows, n_columns):
        columns = rng.normal(size=(rows, n_columns)) \
            + 1j * rng.normal(size=(rows, n_columns))
        columns[rng.random(size=columns.shape) < 0.2] = 0.0
        return columns / np.linalg.norm(columns, axis=0)

    def test_shipped_grids_match_the_density_oracle(self, shipped):
        traj, keep = shipped
        self.check(traj.layout, traj.basis, traj.columns, keep)

    def test_shipped_grids_keep_the_embedded_bits(self, shipped):
        # bit for bit the pure branch of the embedded state, and the
        # register-sized reshape product the analyses once formed
        traj, keep = shipped
        dims = traj.layout.dims
        order = keep + [i for i in range(len(dims)) if i not in keep]
        rhos = _reduce_columns(traj.layout, traj.basis, traj.columns, keep)
        for k, rho in enumerate(rhos):
            state = traj.state(k)
            np.testing.assert_array_equal(rho, partial_trace(state, keep).data)
            m = state.data.reshape(dims).transpose(order) \
                .reshape(len(rho), -1)
            np.testing.assert_array_equal(rho, m @ m.conj().T)

    def test_keep_all(self):
        rng = np.random.default_rng(5)
        basis = np.arange(self.BQB.total_dim)
        self.check(self.BQB, basis, self.random_columns(rng, 24, 3),
                   [0, 1, 2])

    def test_non_contiguous_keep(self):
        rng = np.random.default_rng(6)
        basis = np.sort(rng.choice(self.BQB.total_dim, 15, replace=False))
        self.check(self.BQB, basis, self.random_columns(rng, 15, 4), [0, 2])

    def test_support_missing_traced_digits(self):
        # keep mode 0: the basis holds the qubit's ground level and levels
        # 1 and 3 of mode 2 only, 2 of the 8 traced digit pairs
        rng = np.random.default_rng(7)
        basis = np.array([n0 * 8 + n2 for n0 in range(3) for n2 in (1, 3)])
        columns = self.random_columns(rng, len(basis), 3)
        self.check(self.BQB, basis, columns, [0])
        data = np.zeros(self.BQB.total_dim, dtype=complex)
        data[basis] = columns[:, 0]
        reduced = partial_trace(QuantumState(self.BQB, data), {0}).data
        assert np.abs(reduced - self.oracle(self.BQB, basis, columns[:, 0],
                                            [0])).max() <= 1e-15


class TestCovariance:
    def test_vacuum(self):
        lay = RegisterLayout.bosons(3, 3)
        cov = covariance_matrix(fock_state(lay, (0, 0, 0)))
        assert np.allclose(cov, np.eye(6) / 2, atol=1e-14)

    def test_triple_superposition_has_no_cross_covariances(self):
        lay = RegisterLayout.bosons(3, 3)
        for eps in [0.05, 0.3, 0.9]:
            vec = fock_state(lay, (0, 0, 0)).data + \
                eps * fock_state(lay, (1, 1, 1)).data
            vec /= np.linalg.norm(vec)
            cov = covariance_matrix(QuantumState(lay, vec))
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert abs(cov[i, j]) < 1e-14          # x_i x_j
                        assert abs(cov[3 + i, 3 + j]) < 1e-14  # p_i p_j

    def test_two_mode_squeezing_moments(self):
        # oracle: dense expm evolution under ig(a+b+ - ab) at cutoff 10,
        # compared with the analytic squeezing covariances
        gt = 0.1
        lay = RegisterLayout.bosons(2, 10)
        up = terms_to_matrix([mono([(0, CREATE), (1, CREATE)], 1j)], lay)
        h = up + up.conj().T
        psi = sla.expm(-1j * h * gt) @ fock_state(lay, (0, 0)).data
        cov = covariance_matrix(QuantumState(lay, psi))
        ch, sh = np.cosh(2 * gt), np.sinh(2 * gt)
        assert cov[0, 0] == pytest.approx(ch / 2, abs=1e-8)
        assert cov[1, 1] == pytest.approx(ch / 2, abs=1e-8)
        assert cov[0, 1] == pytest.approx(sh / 2, abs=1e-8)
        assert cov[2, 2] == pytest.approx(ch / 2, abs=1e-8)
        assert cov[2, 3] == pytest.approx(-sh / 2, abs=1e-8)
        assert abs(cov[0, 2]) < 1e-10  # no x-p self correlation

    def test_qubit_index_rejected(self):
        lay = RegisterLayout((("boson", 3), ("qubit", 2)))
        state = fock_state(lay, (0, 0))
        with pytest.raises(LayoutMismatchError):
            covariance_matrix(state, [0, 1])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_uncertainty_relation(self, seed):
        # C + (i/2) Omega must be positive semidefinite, for pure states
        # and for mixtures
        rng = np.random.default_rng(seed)
        lay = RegisterLayout.bosons(2, 4)
        vec = rng.normal(size=25) + 1j * rng.normal(size=25)
        vec /= np.linalg.norm(vec)
        k = rng.normal(size=(25, 3)) + 1j * rng.normal(size=(25, 3))
        rho = k @ k.conj().T
        m = 2
        omega = np.block([[np.zeros((m, m)), np.eye(m)],
                          [-np.eye(m), np.zeros((m, m))]])
        for state in (QuantumState(lay, vec),
                      QuantumState(lay, rho / np.trace(rho).real)):
            cov = covariance_matrix(state)
            eigs = np.linalg.eigvalsh(cov + 0.5j * omega)
            assert eigs.min() > -1e-9

    def test_density_covariance_matches_pure(self):
        lay = RegisterLayout.bosons(2, 3)
        rng = np.random.default_rng(23)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        state = QuantumState(lay, vec)
        assert np.allclose(covariance_matrix(state),
                           covariance_matrix(state.to_density()),
                           atol=1e-12)


class TestCovarianceOracle:
    """Covariance against explicit quadrature matrices built with
    terms_to_matrix: C[A, B] = <AB + BA>/2 - <A><B>.

    The state is embedded into a register one Fock level larger, where
    its support stays below the top level: the products of truncated
    quadratures are exact there for second moments, as they are not on
    the state's own register once it reaches the cutoff."""

    @staticmethod
    def quadratures(layout):
        r = 1.0 / np.sqrt(2.0)
        xs, ps = [], []
        for i in layout.boson_indices():
            xs.append(terms_to_matrix([mono([(i, ANNIHILATE)], r),
                                       mono([(i, CREATE)], r)], layout,
                                      sparse=False))
            ps.append(terms_to_matrix([mono([(i, CREATE)], 1j * r),
                                       mono([(i, ANNIHILATE)], -1j * r)],
                                      layout, sparse=False))
        return xs + ps

    @staticmethod
    def embed(state):
        """The density of the state on a register one level larger."""
        lay = state.layout
        big = RegisterLayout.bosons(lay.n_subsystems, lay.dims[0])
        index = np.ravel_multi_index(
            np.unravel_index(np.arange(lay.total_dim), lay.dims), big.dims)
        rho = np.zeros((big.total_dim,) * 2, dtype=complex)
        rho[np.ix_(index, index)] = state.to_density().data
        return big, rho

    def means(self, state):
        big, rho = self.embed(state)
        return [np.trace(m @ rho).real for m in self.quadratures(big)]

    def oracle(self, state):
        big, rho = self.embed(state)
        ops = self.quadratures(big)

        def mean(mat):
            return np.trace(mat @ rho).real

        n = len(ops)
        cov = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                sym = 0.5 * (ops[a] @ ops[b] + ops[b] @ ops[a])
                cov[a, b] = mean(sym) - mean(ops[a]) * mean(ops[b])
        return cov

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pure_and_mixed_states(self, seed):
        rng = np.random.default_rng(seed)
        lay = RegisterLayout.bosons(2, 4)
        n = lay.total_dim
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        pure = QuantumState(lay, vec / np.linalg.norm(vec))
        k = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        rho = k @ k.conj().T
        mixed = QuantumState(lay, rho / np.trace(rho).real)
        for state in (pure, mixed):
            expected = self.oracle(state)
            # nonzero first moments, so the mean subtraction is exercised
            assert np.abs(self.means(state)).max() > 1e-2
            assert np.abs(covariance_matrix(state) - expected).max() < 1e-13


class TestNamedStates:
    def test_ghz_amplitudes(self):
        state = ghz_state(THREE_QUBITS)
        assert np.linalg.norm(state.data) == pytest.approx(1.0, abs=1e-15)
        assert state.data[0] == pytest.approx(1 / np.sqrt(2))
        assert state.data[7] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(state.data) == 2

    def test_w_amplitudes(self):
        state = w_state(THREE_QUBITS)
        for idx in (1, 2, 4):
            assert state.data[idx] == pytest.approx(1 / np.sqrt(3))
        assert np.count_nonzero(state.data) == 3

    def test_fock_triple_target(self):
        lay = RegisterLayout.bosons(3, 3)
        psi = fock_state(lay, (1, 1, 1))
        assert psi.data[1 * 16 + 1 * 4 + 1] == 1.0

    def test_occupation_beyond_cutoff(self):
        lay = RegisterLayout.bosons(1, 2)
        with pytest.raises(ValueError):
            fock_state(lay, (3,))

    def test_ghz_needs_three_qubits(self):
        with pytest.raises(LayoutMismatchError):
            ghz_state(RegisterLayout.qubits(2))
        with pytest.raises(LayoutMismatchError):
            ghz_state(RegisterLayout.bosons(3, 1))


class TestStateValidation:
    def test_norm_enforced(self):
        lay = RegisterLayout.qubits(1)
        with pytest.raises(ValueError):
            QuantumState(lay, np.array([1.0, 1.0]))

    def test_density_checks(self):
        lay = RegisterLayout.qubits(1)
        with pytest.raises(ValueError):
            QuantumState(lay, np.array([[0.5, 0.3], [0.2, 0.5]]))  # not herm
        with pytest.raises(ValueError):
            QuantumState(lay, np.array([[0.9, 0.0], [0.0, 0.3]]))  # trace
        with pytest.raises(ValueError):
            QuantumState(lay, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative

    def test_validate_false_skips(self):
        lay = RegisterLayout.qubits(1)
        state = QuantumState(lay, np.array([2.0, 0.0]), validate=False)
        assert state.norm == pytest.approx(2.0)


class TestTruncationConsistency:
    def test_moments_stable_under_cutoff_growth(self):
        # support bounded at Fock level 2, cutoffs 4 and 6
        rng = np.random.default_rng(41)
        amps = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        amps /= np.linalg.norm(amps)

        def embed(cutoff):
            lay = RegisterLayout.bosons(3, cutoff)
            vec = np.zeros(lay.total_dim, dtype=complex)
            d = cutoff + 1
            for (i, j, k), val in np.ndenumerate(amps):
                vec[(i * d + j) * d + k] = val
            return QuantumState(lay, vec)

        small, large = embed(4), embed(6)
        for state in (small, large):
            top = 0.0
            d = state.layout.dims[0]
            occ = state.data.reshape(d, d, d)
            for lvl in (d - 2, d - 1):
                top += np.abs(occ[lvl]).sum() + np.abs(occ[:, lvl]).sum() \
                    + np.abs(occ[:, :, lvl]).sum()
            assert top < 1e-8
        cov_small = covariance_matrix(small)
        cov_large = covariance_matrix(large)
        assert np.abs(cov_small - cov_large).max() < 1e-7
        triple = ((0, ANNIHILATE), (1, ANNIHILATE), (2, ANNIHILATE))
        assert abs(expect_monomial(small, triple)
                   - expect_monomial(large, triple)) < 1e-7


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(ghz_state(THREE_QUBITS)) == 0.0

    def test_maximally_mixed_qubit(self):
        reduced = partial_trace(ghz_state(THREE_QUBITS), {0})
        assert von_neumann_entropy(reduced) == pytest.approx(np.log(2),
                                                             abs=1e-12)
