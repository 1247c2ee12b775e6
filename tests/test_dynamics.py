"""Evolution tests against closed-form, eigendecomposition and
reference-integrator oracles."""

import dataclasses
import os
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from triphoton import dynamics, scenarios
from triphoton.config import build_scenario_config, load_config
from triphoton.dynamics import (
    SPARSE_EVOLVE_LIMIT,
    THETA,
    Constant,
    Cosine,
    HamiltonianSpec,
    Motional,
    TwoTone,
    _cf4_weights,
    _drive_polynomial,
    _half_steps,
    _polynomial_route,
    _reachable,
    _series_degree,
    _taylor_route,
    cutoff_sweep,
    evolve,
    split_drive_branches,
)
from triphoton.errors import IntegrationError
from triphoton.hilbert import (
    QuantumState,
    RegisterLayout,
    _basis_matrix,
    _level_map,
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
from triphoton.scenarios import hybrid_interaction, pair_interaction
from triphoton.witnesses import mode_moment_witnesses, optimize_vlf

from oracles import evolve_static_expm, terms_to_matrix

from test_hilbert import reference_matrix

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def mono(factors, coeff=1.0, drive=0):
    return LadderMonomial(tuple(factors), coeff, drive)


def triple_spdc_terms(g0=1.0):
    """-g0 (a1+ a2+ a3+ + a1 a2 a3), the reduced down-conversion form."""
    up = mono([(0, CREATE), (1, CREATE), (2, CREATE)], -g0)
    return [up, up.conjugate()]


def spec_of(terms):
    return HamiltonianSpec(static_terms=list(terms))


def driven_displacement(omega=1.0, amp=0.2, wd=3.0):
    """Cos-driven displacement of one mode."""
    drive_up = mono([(0, CREATE)], amp)
    return HamiltonianSpec(
        [mono([(0, CREATE), (0, ANNIHILATE)], omega)],
        [(drive_up, Cosine(1.0, wd)), (drive_up.conjugate(), Cosine(1.0, wd))])


@dataclass(frozen=True)
class NotANumber:
    """An envelope that is NaN everywhere, its supremum too."""

    supremum = float("nan")

    def __call__(self, t):
        return float("nan")


def hybrid_layout(cutoff):
    return RegisterLayout((("boson", cutoff + 1),) * 3 + (("qubit", 2),) * 3)


@st.composite
def closure_cases(draw):
    """A register of up to three subsystems (bosons of 2 to 5 levels,
    qubits), up to five monomials of up to four factors each, repeated
    sites included, with coefficients that may be 0, and the support of
    psi0: up to three basis states."""
    subsystems = draw(st.lists(st.one_of(
        st.tuples(st.just("boson"), st.integers(2, 5)),
        st.just(("qubit", 2))), min_size=1, max_size=3))
    layout = RegisterLayout(tuple(subsystems))
    kinds = {"boson": (CREATE, ANNIHILATE, NUMBER),
             "qubit": (PAULI_PLUS, PAULI_MINUS, PAULI_Z)}
    factor = st.integers(0, len(subsystems) - 1).flatmap(
        lambda i: st.tuples(st.just(i),
                            st.sampled_from(kinds[subsystems[i][0]])))
    term = st.builds(mono, st.lists(factor, max_size=4),
                     st.sampled_from([0.0, 1.0, -0.5, 0.3 - 1.1j]))
    terms = draw(st.lists(term, max_size=5))
    support = draw(st.sets(st.integers(0, layout.total_dim - 1),
                           min_size=1, max_size=3))
    return layout, terms, sorted(support)


class TestEigenstatePhase:
    def test_number_eigenstate(self):
        omega = 2.31
        lay = RegisterLayout.bosons(1, 5)
        h = spec_of([mono([(0, CREATE), (0, ANNIHILATE)], omega)])
        psi0 = fock_state(lay, (1,))
        grid = np.linspace(0.0, 3.0, 16)
        traj = evolve(h, psi0, grid,
                      observables={"n": mono([(0, NUMBER)])})
        for i, t in enumerate(grid):
            expected = np.exp(-1j * omega * t) * psi0.data
            assert np.abs(traj.state(i).data - expected).max() < 1e-8
        assert np.abs(traj.observables["n"] - 1.0).max() < 2e-8


class TestTripleDownconversion:
    def test_short_time_population(self):
        lay = RegisterLayout.bosons(3, 4)
        h = spec_of(triple_spdc_terms())
        psi0 = fock_state(lay, (0, 0, 0))
        grid = np.array([0.0, 0.02, 0.05, 0.1])
        traj = evolve(h, psi0, grid)
        idx_111 = np.flatnonzero(fock_state(lay, (1, 1, 1)).data.real)[0]
        for i, gt in enumerate(grid[1:], start=1):
            pop = abs(traj.state(i).data[idx_111]) ** 2
            assert pop == pytest.approx(gt**2, abs=3 * gt**4)

    def test_agreement_with_expm_oracle(self):
        lay = RegisterLayout.bosons(3, 8)
        terms = triple_spdc_terms()
        psi0 = fock_state(lay, (0, 0, 0))
        grid = np.linspace(0.0, 0.3, 7)
        traj = evolve(spec_of(terms), psi0, grid)
        assert traj.diagnostics["evolved_dim"] == 9
        for i, t in enumerate(grid):
            oracle = evolve_static_expm(terms, psi0, t)
            assert np.linalg.norm(traj.state(i).data - oracle.data) < 1e-10
        assert np.abs(traj.observables["norm"] - 1.0).max() <= 1e-14


class TestSectorPath:
    """Static runs propagate exactly on the basis states H reaches from
    psi0; checked against the full-register eigendecomposition."""

    CASES = {
        "22spdc": (RegisterLayout.bosons(3, 8), pair_interaction(1.0), 45),
        "hybrid-4": (hybrid_layout(4), hybrid_interaction(1.0, 10.0), 34),
    }

    @staticmethod
    def assert_matches_oracle(terms, psi0, grid, traj):
        for i, t in enumerate(grid):
            oracle = evolve_static_expm(terms, psi0, t)
            assert np.abs(traj.state(i).data - oracle.data).max() <= 1e-10
        assert np.abs(traj.observables["norm"] - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_vacuum_runs_match_oracle(self, name):
        lay, terms, sector = self.CASES[name]
        psi0 = fock_state(lay, (0,) * lay.n_subsystems)
        grid = np.array([0.0, 0.1, 0.3])
        traj = evolve(spec_of(terms), psi0, grid)
        assert traj.diagnostics == {"path": "sector-eigh",
                                    "register_dim": lay.total_dim,
                                    "evolved_dim": sector, "rhs_evals": 0}
        self.assert_matches_oracle(terms, psi0, grid, traj)

    def test_hybrid_cutoff_12_sector(self):
        lay = hybrid_layout(12)
        traj = evolve(spec_of(hybrid_interaction(1.0, 10.0)),
                      fock_state(lay, (0,) * 6), [0.0, 0.1])
        assert traj.diagnostics["register_dim"] == 17_576
        assert traj.diagnostics["evolved_dim"] == 98

    def test_spread_initial_state(self):
        lay = RegisterLayout.bosons(3, 4)
        rng = np.random.default_rng(11)
        vec = np.zeros(lay.total_dim, dtype=complex)
        support = rng.choice(lay.total_dim, size=40, replace=False)
        vec[support] = rng.normal(size=40) + 1j * rng.normal(size=40)
        psi0 = QuantumState(lay, vec / np.linalg.norm(vec))
        terms = triple_spdc_terms() + [mono([(1, NUMBER)], 0.7)]
        grid = np.linspace(0.0, 0.5, 6)
        traj = evolve(spec_of(terms), psi0, grid)
        assert 40 < traj.diagnostics["evolved_dim"] < lay.total_dim
        self.assert_matches_oracle(terms, psi0, grid, traj)

    def test_whole_register_reachable(self):
        lay = RegisterLayout.bosons(2, 3)
        terms = [mono([(0, CREATE)], 0.8), mono([(0, ANNIHILATE)], 0.8),
                 mono([(1, CREATE)], 0.5j), mono([(1, ANNIHILATE)], -0.5j),
                 mono([(0, CREATE), (1, ANNIHILATE)], 0.3),
                 mono([(1, CREATE), (0, ANNIHILATE)], 0.3)]
        psi0 = fock_state(lay, (0, 0))
        grid = np.linspace(0.0, 2.0, 5)
        traj = evolve(spec_of(terms), psi0, grid)
        assert traj.diagnostics["evolved_dim"] == lay.total_dim
        self.assert_matches_oracle(terms, psi0, grid, traj)

    def test_first_state_is_psi0_exactly(self):
        lay, terms, _ = self.CASES["22spdc"]
        psi0 = fock_state(lay, (0, 0, 0))
        traj = evolve(spec_of(terms), psi0, [0.0, 0.3])
        assert np.array_equal(traj.state(0).data, psi0.data)
        vacuum = traj.state(0)
        assert mode_moment_witnesses(vacuum)["genuine_max"].value == 0.0
        assert optimize_vlf(vacuum).value == 0.0

    def test_norm_series_keeps_the_bits_of_linalg_norm(self):
        # the norm of every column comes from one stacked product; on each
        # path it has the bits of np.linalg.norm on that column
        for spec, psi0, path in (
                (spec_of(hybrid_interaction(1.0, 10.0)),
                 fock_state(hybrid_layout(4), (0,) * 6), "sector-eigh"),
                (driven_displacement(),
                 fock_state(RegisterLayout.bosons(1, 10), (0,)),
                 "magnus-dense"),
                (driven_displacement(),
                 fock_state(RegisterLayout.bosons(1, 40), (0,)),
                 "magnus-taylor")):
            traj = evolve(spec, psi0, np.linspace(0.0, 1.0, 9))
            assert traj.diagnostics["path"] == path
            norms = [np.linalg.norm(column) for column in traj.columns.T]
            np.testing.assert_array_equal(traj.observables["norm"], norms)

    def test_oversized_sector_integrates(self):
        # displacements reach all 10,000 states of four 10-level modes,
        # more than a dense eigendecomposition takes; an untouched qubit
        # doubles the register but not the sector
        terms = [mono([(i, kind)], 1.0) for i in range(4)
                 for kind in (CREATE, ANNIHILATE)]
        modes = RegisterLayout.bosons(4, 9)
        alone = evolve(spec_of(terms), fock_state(modes, (0,) * 4),
                       [0.0, 0.1])
        lay = RegisterLayout(modes.subsystems + (("qubit", 2),))
        traj = evolve(spec_of(terms), fock_state(lay, (0,) * 5), [0.0, 0.1])
        assert traj.diagnostics["register_dim"] == 20_000
        assert traj.diagnostics["path"] == "magnus-taylor"
        assert traj.diagnostics["evolved_dim"] == 10_000
        assert traj.diagnostics["exponentials"] > 0
        assert traj.diagnostics["error_estimate"] == 0.0
        for with_qubit, without in zip(map(traj.state, range(2)),
                                       map(alone.state, range(2))):
            assert np.array_equal(with_qubit.data[0::2], without.data)
            assert not with_qubit.data[1::2].any()
        # the modes evolve independently: the state is the product of
        # four one-mode runs on the exact small-sector path
        one = RegisterLayout.bosons(1, 9)
        single = evolve(spec_of(terms[:2]), fock_state(one, (0,)),
                        [0.0, 0.1])
        assert single.diagnostics["path"] == "sector-eigh"
        product = single.state(1).data
        for _ in range(3):
            product = np.kron(product, single.state(1).data)
        assert np.abs(alone.state(1).data - product).max() <= 1e-13

    def test_chain_closure_builds_each_level_map_once(self):
        # a displacement walks one level per pass: 4,096 passes, and each
        # factor's level map is looked up once for the whole closure
        terms = [mono([(0, CREATE)], 1.0), mono([(0, ANNIHILATE)], 1.0)]
        psi0 = fock_state(RegisterLayout.bosons(1, 4095), (0,))
        _level_map.cache_clear()
        basis = _reachable(terms, psi0)
        info = _level_map.cache_info()
        np.testing.assert_array_equal(basis, np.arange(4096))
        assert info.misses == 2
        assert info.hits + info.misses == 2

    @settings(max_examples=150, deadline=None)
    @given(closure_cases())
    @example((RegisterLayout((("boson", 3), ("qubit", 2))), [
        # a a^dag kills the top level, a^dag n both ends, sigma_z
        # neither, and a^dag with coefficient 0 reaches nothing
        mono([(0, ANNIHILATE), (0, CREATE)], 0.5),
        mono([(0, CREATE)], 0.0), mono([(0, CREATE), (0, NUMBER)], 1.0),
        mono([(1, PAULI_Z), (1, PAULI_PLUS), (0, ANNIHILATE)], -0.3j)],
        [1, 4]))
    def test_closure_matches_kronecker_reachability(self, case):
        # breadth-first search over the nonzero pattern of each term's
        # Kronecker matrix, which shares no code with the level maps
        layout, terms, support = case
        edges = np.zeros((layout.total_dim,) * 2, dtype=bool)
        for term in terms:
            edges |= reference_matrix([term], layout) != 0
        seen = np.zeros(layout.total_dim, dtype=bool)
        seen[support] = True
        while True:
            grown = seen | edges[:, seen].any(axis=1)
            if (grown == seen).all():
                break
            seen = grown
        data = np.zeros(layout.total_dim, dtype=complex)
        data[support] = 1.0 / np.sqrt(len(support))
        basis = _reachable(terms, QuantumState(layout, data))
        np.testing.assert_array_equal(basis, np.flatnonzero(seen))

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_zero_coefficient_reaches_nothing(self, zero_first):
        # a^dag on mode 0 comes with coefficient 0 and with 0.5, a^dag on
        # mode 1 with 0 only: mode 0 climbs, mode 1 stays empty
        lay = RegisterLayout.bosons(2, 3)
        create = [mono([(0, CREATE)], 0.0), mono([(0, CREATE)], 0.5)]
        terms = [*(create if zero_first else create[::-1]),
                 mono([(0, ANNIHILATE)], 0.5), mono([(1, CREATE)], 0.0)]
        basis = _reachable(terms, fock_state(lay, (0, 0)))
        np.testing.assert_array_equal(basis, np.ravel_multi_index(
            (np.arange(4), np.zeros(4, dtype=int)), lay.dims))

    def test_driven_spec_integrates(self):
        traj = evolve(driven_displacement(),
                      fock_state(RegisterLayout.bosons(1, 10), (0,)),
                      [0.0, 1.0])
        assert traj.diagnostics["path"] == "magnus-dense"
        assert traj.diagnostics["evolved_dim"] == 11


class TestJaynesCummings:
    def test_vacuum_rabi_swap_period(self):
        # resonant exchange coupling; |g,1> <-> |e,0> swaps with period
        # pi/g (closed-form oscillation P_e = sin^2(g t))
        g = 0.37
        omega = 1.9
        lay = RegisterLayout((("boson", 4), ("qubit", 2)))
        terms = [
            mono([(0, CREATE), (0, ANNIHILATE)], omega),
            mono([(1, PAULI_PLUS), (1, PAULI_MINUS)], omega),
            mono([(1, PAULI_PLUS), (0, ANNIHILATE)], g),
            mono([(1, PAULI_MINUS), (0, CREATE)], g),
        ]
        psi0 = fock_state(lay, (1, 0))  # one photon, qubit ground
        grid = np.linspace(0.0, np.pi / g, 41)
        traj = evolve(spec_of(terms), psi0, grid, observables={
            "pe": mono([(1, PAULI_PLUS), (1, PAULI_MINUS)]),
            "n": mono([(0, NUMBER)]),
        })
        pe = traj.observables["pe"].real
        assert np.abs(pe - np.sin(g * grid) ** 2).max() < 1e-7
        # after a full period the excitation is back on the field
        assert pe[-1] == pytest.approx(0.0, abs=1e-7)
        assert traj.observables["n"][-1].real == pytest.approx(1.0, abs=1e-7)


class TestExpmPath:
    def test_time_zero_is_identity(self):
        lay = RegisterLayout.bosons(2, 3)
        rng = np.random.default_rng(2)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        psi0 = QuantumState(lay, vec)
        out = evolve_static_expm([mono([(0, NUMBER)], 1.3)], psi0, 0.0)
        assert np.allclose(out.data, psi0.data, atol=1e-14)

    def test_unitarity(self):
        lay = RegisterLayout.bosons(3, 5)
        out = evolve_static_expm(triple_spdc_terms(), fock_state(lay, (0, 0, 0)),
                                 7.3)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_rejects_driven_spec(self):
        spec = HamiltonianSpec(
            static_terms=[],
            driven_terms=[(mono([(0, NUMBER)]), Cosine(1.0, 2.0))])
        lay = RegisterLayout.bosons(1, 2)
        with pytest.raises(ValueError):
            evolve_static_expm(spec, fock_state(lay, (0,)), 1.0)

    def test_rejects_oversized_register(self):
        lay = RegisterLayout.bosons(1, 8191)  # 8192 > dense limit
        psi0 = fock_state(lay, (0,))
        with pytest.raises(ValueError, match="too large"):
            evolve_static_expm([mono([(0, NUMBER)], 1.0)], psi0, 1.0)


class TestHygiene:
    def test_norm_drift_and_energy_conservation(self):
        lay = RegisterLayout.bosons(3, 8)
        terms = triple_spdc_terms()
        psi0 = fock_state(lay, (0, 0, 0))
        grid = np.linspace(0.0, 0.3, 31)
        traj = evolve(spec_of(terms), psi0, grid, observables={"h": terms})
        assert np.abs(traj.observables["norm"] - 1.0).max() < 1e-8
        energy = traj.observables["h"].real
        scale = np.abs(energy).max()
        assert np.abs(energy - energy[0]).max() < 1e-8 * max(1.0, scale)

    def test_time_reversal(self):
        lay = RegisterLayout.bosons(3, 6)
        terms = triple_spdc_terms()
        psi0 = fock_state(lay, (0, 0, 0))
        grid = np.linspace(0.0, 0.25, 6)
        forward = evolve(spec_of(terms), psi0, grid)
        reversed_terms = [LadderMonomial(t.factors, -t.coefficient)
                          for t in terms]
        back = evolve(spec_of(reversed_terms), forward.state(-1), grid)
        overlap = abs(np.vdot(psi0.data, back.state(-1).data))
        assert 1.0 - overlap < 1e-6


class TestDrivenEvolution:
    def test_driven_matches_tight_reference(self):
        # checked against scipy's DOP853 at much tighter tolerance on the
        # same matrices
        lay = RegisterLayout.bosons(1, 10)
        h = driven_displacement()
        psi0 = fock_state(lay, (0,))
        grid = np.linspace(0.0, 15.0, 11)
        n_op = mono([(0, NUMBER)])
        a = evolve(h, psi0, grid, observables={"n": n_op})
        h_static = terms_to_matrix(h.static_terms, lay, sparse=False)
        h_driven = [(env, terms_to_matrix([term], lay, sparse=False))
                    for term, env in h.driven_terms]

        def rhs(t, y):
            return -1j * (h_static @ y + sum(float(env(t)) * (mat @ y)
                                             for env, mat in h_driven))

        ref = solve_ivp(rhs, (grid[0], grid[-1]), psi0.data,
                        method="DOP853", t_eval=grid, rtol=1e-12, atol=1e-13)
        assert ref.success
        n_mat = terms_to_matrix([n_op], lay, sparse=False)
        n_ref = [np.vdot(col, n_mat @ col).real for col in ref.y.T]
        assert np.abs(a.observables["n"] - n_ref).max() < 1e-6

    def test_nan_drive_stalls_at_once(self):
        # a NaN supremum gives a NaN generator bound and so no step size;
        # the run stops on it before the first substep
        lay = RegisterLayout.bosons(1, 1)
        h = HamiltonianSpec([], [(mono([(0, NUMBER)]), NotANumber())])
        with pytest.raises(IntegrationError,
                           match="stalled between t = 0 and t = 0.5: "
                                 "step size nan") as exc:
            evolve(h, fock_state(lay, (1,)), [0.0, 0.5, 2.0])
        assert exc.value.time == 0.0

    def test_non_finite_node_value_names_grid_interval(self):
        # an envelope whose values turn non-finite where its supremum says
        # they cannot stops the run at the first interval holding such a
        # node: the drive on n is finite up to t = 1
        @dataclass(frozen=True)
        class Overflow:
            supremum = 1.0

            def __call__(self, t):
                t = np.asarray(t, dtype=float)
                return np.where(t < 1.0, 0.5, np.inf)

        lay = RegisterLayout.bosons(1, 1)
        h = HamiltonianSpec([], [(mono([(0, NUMBER)]), Overflow())])
        with pytest.raises(IntegrationError,
                           match="stalled between t = 0.5 and t = 2: "
                                 "envelope value inf") as exc:
            evolve(h, fock_state(lay, (1,)), [0.0, 0.5, 2.0])
        assert exc.value.time == 0.5

    @pytest.mark.parametrize("spec, path", [
        (spec_of(triple_spdc_terms()), "sector-eigh"),
        (driven_displacement(), "magnus-dense")])
    def test_one_point_grid_returns_psi0(self, spec, path):
        psi0 = fock_state(RegisterLayout.bosons(3, 3), (0, 0, 0))
        traj = evolve(spec, psi0, [0.5])
        assert traj.diagnostics["path"] == path
        counter = "rhs_evals" if path == "sector-eigh" else "exponentials"
        assert traj.diagnostics[counter] == 0
        assert traj.columns.shape == (len(traj.basis), 1)
        np.testing.assert_array_equal(traj.state(0).data, psi0.data)
        assert traj.observables["norm"].tolist() == [1.0]

    def test_hermiticity_validation(self):
        h = HamiltonianSpec(static_terms=[mono([(0, CREATE)], 1.0)])
        lay = RegisterLayout.bosons(1, 3)
        with pytest.raises(ValueError):
            evolve(h, fock_state(lay, (0,)), [0.0, 1.0])

    def test_grid_validation(self):
        lay = RegisterLayout.bosons(1, 3)
        h = spec_of([mono([(0, NUMBER)], 1.0)])
        with pytest.raises(ValueError):
            evolve(h, fock_state(lay, (0,)), [0.0, 0.0, 1.0])


def run_shipped_dce(monkeypatch):
    """The shipped dce.ini run's trajectory and the arguments it passed
    to ``evolve``."""
    captured = {}

    def spy(h, psi0, grid, **kwargs):
        captured.update(h=h, psi0=psi0, grid=grid, **kwargs)
        return evolve(h, psi0, grid, **kwargs)

    monkeypatch.setattr(scenarios, "evolve", spy)
    traj = scenarios.run_scenario(build_scenario_config(
        load_config(os.path.join(CONFIGS, "dce.ini")))).trajectory
    return traj, captured


def sector_reference(h, psi0, grid, basis):
    """The states of scipy's DOP853 at rtol = 1e-13, atol = 1e-14 on the
    per-group right-hand side over the sector ``basis``, as columns."""
    matrix = partial(_basis_matrix, layout=psi0.layout, basis=basis,
                     sparse=True)
    groups = {}
    for term, env in h.driven_terms:
        groups.setdefault(env, []).append(term)
    h_static = matrix(h.static_terms)
    h_driven = [(env, matrix(terms)) for env, terms in groups.items()]

    def rhs(t, y):
        hy = h_static @ y
        for env, mat in h_driven:
            hy = hy + float(env(t)) * (mat @ y)
        return -1j * hy

    ref = solve_ivp(rhs, (grid[0], grid[-1]), psi0.data[basis],
                    method="DOP853", t_eval=grid, rtol=1e-13, atol=1e-14)
    assert ref.success
    return ref.y


def assert_estimate_covers(traj, reference):
    """error_estimate is finite, below the 2.5e-8 target ``THETA`` was
    chosen for, and at least half the largest distance from the
    reference over the grid."""
    error = np.linalg.norm(traj.columns - reference, axis=0).max()
    estimate = traj.diagnostics["error_estimate"]
    assert np.isfinite(estimate)
    assert error / 2 <= estimate < 2.5e-8


class TestDrivenOracle:
    """The shipped dce-rabi run against the full-register integrator at
    rtol = 1e-13: same states and photon number, parity kept exactly;
    and its error estimate against its distance from that reference."""

    def test_dce_matches_full_register_reference(self, monkeypatch):
        traj, captured = run_shipped_dce(monkeypatch)
        h, psi0, grid = captured["h"], captured["psi0"], captured["grid"]
        lay = psi0.layout
        h_static = terms_to_matrix(h.static_terms, lay, sparse=False)
        h_driven = [(env, terms_to_matrix([term], lay, sparse=False))
                    for term, env in h.driven_terms]

        def rhs(t, y):
            return -1j * (h_static @ y + sum(float(env(t)) * (mat @ y)
                                             for env, mat in h_driven))

        ref = solve_ivp(rhs, (grid[0], grid[-1]), psi0.data,
                        method="DOP853", t_eval=grid, rtol=1e-13, atol=1e-14)
        assert ref.success
        states = np.array([traj.state(k).data for k in range(len(grid))])
        assert np.abs(states - ref.y.T).max() <= 5e-8
        n_mat = terms_to_matrix([captured["observables"]["n"]], lay,
                                sparse=False)
        n_ref = [np.vdot(col, n_mat @ col).real for col in ref.y.T]
        assert np.abs(traj.observables["n"] - n_ref).max() <= 1e-9
        # (-1)^(n + qubit level) is conserved, and vacuum is even
        levels = np.unravel_index(np.arange(lay.total_dim), lay.dims)
        odd = (levels[0] + levels[1]) % 2 == 1
        assert not states[:, odd].any()
        assert traj.diagnostics["register_dim"] == 18
        assert traj.diagnostics["evolved_dim"] == 9

    def test_dce_error_estimate_covers_the_error(self, monkeypatch):
        # 192 grid intervals of 32 substeps, and 16 in the companion run,
        # two exponentials per substep
        traj, captured = run_shipped_dce(monkeypatch)
        assert traj.diagnostics["path"] == "magnus-dense"
        assert traj.diagnostics["exponentials"] == 18_432
        assert_estimate_covers(traj, sector_reference(
            captured["h"], captured["psi0"], captured["grid"], traj.basis))

    def test_displacement_error_estimate_covers_the_error(self):
        psi0 = fock_state(RegisterLayout.bosons(1, 10), (0,))
        grid = np.linspace(0.0, 15.0, 11)
        traj = evolve(driven_displacement(), psi0, grid)
        assert_estimate_covers(traj, sector_reference(
            driven_displacement(), psi0, grid, traj.basis))


class TestMagnusRoutes:
    """The Taylor route against the reference integrator on a spec with
    two envelope groups and on one with a complex group, and against the
    dense route on a one-group sector, where both form the same product
    of exponentials."""

    @staticmethod
    def spec(kick_amplitude=0.3):
        # static number terms plus two distinct envelope groups: a
        # displacement of mode 0 and a two-mode squeezer, together
        # reaching every state of the register
        kick = mono([(0, CREATE)], kick_amplitude)
        squeeze = mono([(0, CREATE), (1, CREATE)], 0.2)
        cosine, motional = Cosine(1.0, 3.0), Motional(v=1.0, k=2.0)
        return HamiltonianSpec(
            [mono([(0, NUMBER)], 1.0), mono([(1, NUMBER)], 1.3)],
            [(kick, cosine), (kick.conjugate(), cosine),
             (squeeze, motional), (squeeze.conjugate(), motional)])

    @pytest.mark.parametrize("cutoff, path", [(3, "magnus-taylor"),
                                              (24, "magnus-taylor")])
    def test_matches_reference(self, cutoff, path):
        h = self.spec()
        psi0 = fock_state(RegisterLayout.bosons(2, cutoff), (0, 0))
        grid = np.linspace(0.0, 2.0, 5)
        traj = evolve(h, psi0, grid)
        assert traj.diagnostics["path"] == path
        assert traj.diagnostics["evolved_dim"] == (cutoff + 1) ** 2
        assert_estimate_covers(traj, sector_reference(h, psi0, grid,
                                                      traj.basis))
        assert np.abs(traj.observables["norm"] - 1.0).max() < 1e-12

    def test_taylor_route_matches_dense_route(self, monkeypatch):
        h = kicked_mode(0.3j)
        psi0 = fock_state(RegisterLayout.bosons(1, 15), (0,))
        grid = np.linspace(0.0, 2.0, 5)
        by_dense = evolve(h, psi0, grid)
        assert len(by_dense.basis) == SPARSE_EVOLVE_LIMIT
        monkeypatch.setattr(dynamics, "SPARSE_EVOLVE_LIMIT", 0)
        by_taylor = evolve(h, psi0, grid)
        assert by_dense.diagnostics["path"] == "magnus-dense"
        assert by_taylor.diagnostics["path"] == "magnus-taylor"
        assert (by_dense.diagnostics["exponentials"]
                == by_taylor.diagnostics["exponentials"])
        assert np.abs(by_dense.columns - by_taylor.columns).max() <= 1e-13

    def test_complex_group_matches_reference(self):
        # the kick group holds i 0.3 a^dag and -i 0.3 a: Hermitian with
        # imaginary entries, so the route runs in complex arithmetic
        h = self.spec(0.3j)
        assert [t.coefficient for t, _ in h.driven_terms[:2]] == [0.3j,
                                                                  -0.3j]
        psi0 = fock_state(RegisterLayout.bosons(2, 3), (0, 0))
        grid = np.linspace(0.0, 2.0, 5)
        traj = evolve(h, psi0, grid)
        assert traj.diagnostics["path"] == "magnus-taylor"
        assert traj.diagnostics["evolved_dim"] == 16
        assert_estimate_covers(traj, sector_reference(h, psi0, grid,
                                                      traj.basis))


def kicked_mode(coefficient):
    """n plus cos(3t) (c a^dag + c* a) on mode 0: one envelope group,
    complex Hermitian for an imaginary c."""
    kick = mono([(0, CREATE)], coefficient)
    env = Cosine(1.0, 3.0)
    return HamiltonianSpec([mono([(0, NUMBER)], 1.0)],
                           [(kick, env), (kick.conjugate(), env)])


class TestRealArithmetic:
    """Dense sector matrices with no imaginary entry are held real: the
    exact path diagonalizes H with the real symmetric solver and the
    dense Magnus route builds its polynomial from the real parts. Any
    imaginary entry keeps complex arithmetic. The real exact path meets
    the full-register oracle in ``TestSectorPath`` on ``hybrid-4``; at
    cutoff 6 the oracle's 2,744-state complex eigendecomposition would
    dominate the suite, so the columns there are checked against the
    complex eigendecomposition of the same sector matrix."""

    CASES = {
        "hybrid-4": (spec_of(hybrid_interaction(1.0, 10.0)),
                     hybrid_layout(4), "sector-eigh", float),
        "22spdc": (spec_of(pair_interaction(1.0)), RegisterLayout.bosons(3, 4),
                   "sector-eigh", complex),
        # complex coefficients whose imaginary parts cancel entry by entry
        "cancelling": (spec_of([mono([(0, NUMBER)], 1.0 + 0.5j),
                                mono([(0, NUMBER)], -0.5j),
                                mono([(0, CREATE)], 0.2),
                                mono([(0, ANNIHILATE)], 0.2)]),
                       RegisterLayout.bosons(1, 5), "sector-eigh", float),
        "real-kick": (kicked_mode(0.3), RegisterLayout.bosons(1, 9),
                      "magnus-dense", float),
        "imaginary-kick": (kicked_mode(0.3j), RegisterLayout.bosons(1, 9),
                           "magnus-dense", complex),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matrices_are_real_exactly_without_imaginary_entries(
            self, monkeypatch, name):
        spec, layout, path, dtype = self.CASES[name]
        seen = []
        eigh, polynomial = np.linalg.eigh, dynamics._drive_polynomial

        def eigh_spy(a):
            seen.append(a.dtype)
            return eigh(a)

        def polynomial_spy(parts, degree):
            seen.append(parts.dtype)
            return polynomial(parts, degree)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        monkeypatch.setattr(dynamics, "_drive_polynomial", polynomial_spy)
        traj = evolve(spec, fock_state(layout, (0,) * layout.n_subsystems),
                      np.linspace(0.0, 1.0, 5))
        assert traj.diagnostics["path"] == path
        assert seen == [np.dtype(dtype)]
        assert traj.columns.dtype == complex

    def test_real_eigh_matches_the_complex_eigendecomposition(self):
        layout, terms = hybrid_layout(6), hybrid_interaction(1.0, 10.0)
        psi0 = fock_state(layout, (0,) * 6)
        grid = np.linspace(0.0, 0.5, 11)
        traj = evolve(spec_of(terms), psi0, grid)
        assert traj.diagnostics["path"] == "sector-eigh"
        h = _basis_matrix(terms, layout, traj.basis)
        assert h.dtype == complex and not h.imag.any()
        w, v = np.linalg.eigh(h)
        psi = psi0.data[traj.basis]
        columns = v @ (np.exp(-1j * np.outer(grid, w)) * (v.conj().T @ psi)).T
        assert np.abs(traj.columns - columns).max() <= 1e-13


class TestDrivePolynomial:
    """The one-group route: its exponentials against eigendecompositions,
    its states against the Taylor route's on the same substeps, the
    shipped scenario's run on it, and the Taylor route taking two
    groups."""

    @pytest.mark.parametrize("d", [2, 9, 16])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exponentials_match_eigh(self, d, dtype):
        # parts of unit column-sum norm and (a, b) pairs whose bound
        # |a| + |b| runs up to the most a substep of either run reaches:
        # the companion's 2 THETA times sqrt(3)/3. At that full reach
        # every power of b the a-series keeps is kept; where |b| stays
        # below 0.05 times it, the bound e^|a| |b|^j / j! puts the powers
        # from 8 up below SERIES_CUT and only 8 rows are kept
        rng = np.random.default_rng(d)
        parts = rng.standard_normal((2, d, d)).astype(dtype)
        if dtype is complex:
            parts += 1j * rng.standard_normal((2, d, d))
        parts = parts + parts.conj().swapaxes(-1, -2)
        parts /= np.abs(parts).sum(axis=-2).max(axis=-1)[:, None, None]
        x = 2 * THETA * np.sqrt(3) / 3
        a = x * np.array([-0.5, 0.0, 0.1, 0.5, 0.9, 1.0])
        spectral = partial(np.linalg.norm, ord=2, axis=(-2, -1))
        full = _series_degree(x)
        assert full == 13 and _series_degree(0.05 * x, np.exp(x)) == 7
        for reach, degree in [(1.0, full), (0.05, 7)]:
            b = np.minimum(x - np.abs(a), reach * x)[:, None] * np.array(
                [-1.0, -0.6, -0.1, 0.0, 0.3, 0.8, 1.0])
            u = _drive_polynomial(parts, degree)(a, b)
            w, v = np.linalg.eigh(a[:, None, None, None] * parts[0]
                                  + b[..., None, None] * parts[1])
            oracle = (v * np.exp(-1j * w)[..., None, :]) @ v.conj(
            ).swapaxes(-1, -2)
            assert spectral(u - oracle).max() <= 1e-14
            assert spectral(u.conj().swapaxes(-1, -2) @ u
                            - np.eye(d)).max() <= 1e-14

    def test_degree_counts_the_powers_of_b(self):
        # at degree J the exponentials are a polynomial of degree J in b,
        # on five equally spaced b: the J-th difference is nonzero and
        # the next one vanishes
        rng = np.random.default_rng(3)
        parts = rng.standard_normal((2, 3, 3))
        parts = parts + parts.swapaxes(-1, -2)
        b = 0.5 * np.arange(-2.0, 3.0)[None, :]
        for degree in range(4):
            u = _drive_polynomial(parts, degree)(np.array([0.1]), b)[0]
            differences = np.diff(u, n=degree, axis=0)
            assert np.abs(differences).max() > 1e-3
            assert np.abs(np.diff(differences, axis=0)).max() <= 1e-10

    @pytest.mark.parametrize("spec, cutoff, grid", [
        (driven_displacement(), 10, [0.0, 0.31, 0.5, 0.94, 1.2, 1.77, 2.0]),
        (kicked_mode(0.3j), 10, [0.0, 0.31, 0.5, 0.94, 1.2, 1.77, 2.0]),
        (kicked_mode(0.3j), 15,
         np.cumsum([0.0, *0.04 * 1.01**np.arange(40)]))])
    def test_route_matches_taylor_route(self, spec, cutoff, grid):
        # one batch over a grid whose intervals all take the same
        # substep count, so each has its own substep length and D table;
        # 40 tables of 16 states are more than the cache holds at once
        psi0 = fock_state(RegisterLayout.bosons(1, cutoff), (0,))
        grid = np.asarray(grid)
        basis = _reachable([*spec.static_terms,
                            *(t for t, _ in spec.driven_terms)], psi0)
        terms = [spec.static_terms, [t for t, _ in spec.driven_terms]]
        matrix = partial(_basis_matrix, layout=psi0.layout, basis=basis)
        parts = np.array([matrix(t, sparse=False) for t in terms])
        if not parts.imag.any():
            parts = parts.real
        assert parts.dtype == type(spec.driven_terms[0][0].coefficient)
        envelopes = [spec.driven_terms[0][1]]
        count = 2 * int(_half_steps(parts, envelopes, grid).max())
        ks = np.repeat(np.arange(len(grid) - 1), count)
        h = (grid[ks + 1] - grid[ks]) / count
        starts = grid[ks] + h * np.tile(np.arange(count), len(grid) - 1)
        weights = _cf4_weights(envelopes, grid, ks, starts, h).reshape(
            len(grid) - 1, count, 2, 2)
        h = h[::count, None]
        assert len(set(h[:, 0].tolist())) == len(grid) - 1
        psi = psi0.data[basis]
        by_taylor = np.array(list(_taylor_route(
            [matrix(t, sparse=True) for t in terms], psi, weights, h)))
        by_polynomial = np.array(list(_polynomial_route(
            _drive_polynomial(parts, 13), psi, weights, h)))
        assert np.abs(by_polynomial - by_taylor).max() <= 1e-13
        assert np.abs(np.linalg.norm(by_polynomial, axis=1) - 1).max() \
            < 1e-12

    def test_one_group_run_takes_no_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Taylor route on one group")

        monkeypatch.setattr(dynamics, "_taylor_route", refuse)
        config = build_scenario_config(load_config(
            os.path.join(CONFIGS, "dce.ini")))
        config = dataclasses.replace(config, cutoff=2, dce=dataclasses.replace(
            config.dce, periods=1, window_periods=1))
        traj = scenarios.run_scenario(config).trajectory
        assert traj.diagnostics["path"] == "magnus-dense"
        assert traj.diagnostics["exponentials"] > 0

    def test_shipped_run_keeps_eight_powers_of_b(self, monkeypatch):
        # on configs/dce.ini every |b| ||H_g|| stays near 0.027, so the
        # powers of b from 8 up fall below SERIES_CUT: 8 of the 14 rows
        # the a-series keeps
        degrees, polynomial = [], dynamics._drive_polynomial

        def spy(parts, degree):
            degrees.append(degree)
            return polynomial(parts, degree)

        monkeypatch.setattr(dynamics, "_drive_polynomial", spy)
        config = build_scenario_config(load_config(
            os.path.join(CONFIGS, "dce.ini")))
        traj = scenarios.run_scenario(config).trajectory
        assert traj.diagnostics["exponentials"] == 18432
        assert degrees == [7]

    def test_batches_keep_the_bits(self, monkeypatch):
        # whole grid intervals go in every batch, each multiplied in the
        # same pairwise order, so the stack budget changes how many
        # batches a run takes but not one bit of its states. One period
        # of configs/dce.ini at its own cutoff: 9 states and 32 substeps
        # per interval, so the run takes one interval per batch at 2^12
        config = build_scenario_config(load_config(
            os.path.join(CONFIGS, "dce.ini")))
        config = dataclasses.replace(config, dce=dataclasses.replace(
            config.dce, periods=1, window_periods=1))
        batches, route = [], dynamics._polynomial_route

        def spy(*args):
            batches[-1] += 1
            return route(*args)

        monkeypatch.setattr(dynamics, "_polynomial_route", spy)
        runs = []
        for budget in [2**12, dynamics._STACK_BUDGET]:
            monkeypatch.setattr(dynamics, "_STACK_BUDGET", budget)
            batches.append(0)
            runs.append(scenarios.run_scenario(config).trajectory)
        assert batches[0] > batches[1]
        assert np.array_equal(runs[0].columns, runs[1].columns)
        assert (runs[0].diagnostics["exponentials"]
                == runs[1].diagnostics["exponentials"])

    def test_two_groups_take_the_taylor_route(self, monkeypatch):
        calls = []

        def spy(parts, psi, weights, h):
            calls.append(weights[..., 0].size)
            return _taylor_route(parts, psi, weights, h)

        monkeypatch.setattr(dynamics, "_taylor_route", spy)
        traj = evolve(TestMagnusRoutes.spec(),
                      fock_state(RegisterLayout.bosons(2, 3), (0, 0)),
                      np.linspace(0.0, 2.0, 5))
        assert traj.diagnostics["path"] == "magnus-taylor"
        assert sum(calls) == traj.diagnostics["exponentials"]


# every envelope type, at parameters no shipped config uses
ENVELOPES = [Constant(0.7), Cosine(0.3, 1.7, 0.2),
             TwoTone(0.1, 1.35, 0.1, 0.65, phase1=0.4, phase2=-1.1),
             Motional(v=1.3, k=2.1, x0=0.4)]


def gauss_nodes():
    """A (pieces, substeps, 2) stack of stage times, the Gauss nodes the
    propagator evaluates each envelope on, once per chunk."""
    rng = np.random.default_rng(12)
    starts = rng.uniform(-50.0, 200.0, (30, 10))
    h = 10.0 ** rng.uniform(-8.0, 0.5, (30, 1))
    root = np.sqrt(3.0) / 6.0
    return starts[..., None] + h[..., None] * (0.5 + np.array([-root, root]))


class TestEnvelopes:
    @pytest.mark.parametrize("env", ENVELOPES)
    def test_scalar_gives_the_bits_of_an_array(self, env):
        # a scalar time gives the bits of a one-entry array
        ts = np.random.default_rng(11).uniform(-50.0, 200.0, 1000)
        scalar = [float(env(float(t))) for t in ts]
        numpy_scalar = [float(env(t)) for t in ts]
        array = [env(np.array([t]))[0] for t in ts]
        np.testing.assert_array_equal(scalar, array)
        np.testing.assert_array_equal(numpy_scalar, array)

    @pytest.mark.parametrize("env", ENVELOPES)
    def test_stage_times_give_the_bits_of_each_stage(self, env):
        nodes = gauss_nodes()
        each = [float(env(t)) for t in nodes.ravel()]
        np.testing.assert_array_equal(env(nodes).ravel(), each)

    @pytest.mark.parametrize("env", ENVELOPES)
    def test_supremum_bounds_every_value(self, env):
        # the step count takes each envelope at its supremum
        values = np.abs(env(np.linspace(-50.0, 200.0, 100_001)))
        assert values.max() <= env.supremum
        assert values.max() >= 0.95 * env.supremum

    def test_tones_give_the_bits_of_each_formula(self):
        # a constant, a cosine and two cosines summed left to right take
        # the bits of their own closed forms, suprema included
        t = gauss_nodes()
        constant, cosine, two_tone = ENVELOPES[:3]
        for env, value, supremum in (
                (constant, 0.7 * np.ones_like(t), 0.7),
                (cosine, 0.3 * np.cos(1.7 * t + 0.2), 0.3),
                (two_tone, 0.1 * np.cos(1.35 * t + 0.4)
                 + 0.1 * np.cos(0.65 * t + -1.1), 0.1 + 0.1)):
            np.testing.assert_array_equal(env(t), value)
            assert env.supremum == supremum

    @pytest.mark.parametrize("other, path", [
        (Cosine(0.7, 0.0), "magnus-dense"),
        (Cosine(0.7, 0.5), "magnus-taylor")])
    def test_equal_envelopes_form_one_group(self, other, path):
        # Constant(0.7) is the tone 0.7 cos(0 t + 0), so terms under it
        # and under Cosine(0.7, 0.0) form one group, and the run takes the
        # one-group route; a different tone makes a second group
        assert (Constant(0.7) == other) == (path == "magnus-dense")
        kick = mono([(0, CREATE)], 0.3)
        h = HamiltonianSpec([mono([(0, NUMBER)], 1.0)], [
            (kick, Constant(0.7)), (kick.conjugate(), Constant(0.7)),
            (mono([(0, NUMBER)], 0.2), other)])
        traj = evolve(h, fock_state(RegisterLayout.bosons(1, 3), (0,)),
                      np.linspace(0.0, 1.0, 3))
        assert traj.diagnostics["path"] == path

    def test_motional_is_sampled_mode_function(self):
        # cos(k (x0 + v t)) to roundoff, with the bits of the tone
        # cos(k v t + k x0)
        env = Motional(v=2.0, k=1.5, x0=0.3)
        ts = np.linspace(0, 4, 9)
        assert np.allclose(env(ts), np.cos(1.5 * (0.3 + 2.0 * ts)))
        np.testing.assert_array_equal(env(ts), np.cos(3.0 * ts + 1.5 * 0.3))

    def test_two_tone_sum(self):
        env = TwoTone(0.3, 1.0, 0.5, 2.0, phase2=0.7)
        ts = np.linspace(0, 4, 9)
        assert np.allclose(env(ts),
                           0.3 * np.cos(ts) + 0.5 * np.cos(2 * ts + 0.7))

    def test_constant(self):
        assert np.allclose(Constant(2.5)(np.arange(4.0)), 2.5)


class TestSplitDriveBranches:
    def test_pairs_collapse_to_cosine(self):
        plus = mono([(0, CREATE), (1, CREATE)], 0.4, drive=+1)
        minus = mono([(0, CREATE), (1, CREATE)], 0.4, drive=-1)
        static = mono([(0, NUMBER)], 1.0)
        spec = split_drive_branches([plus, minus, static], 2.2)
        assert spec.static_terms == [static]
        assert len(spec.driven_terms) == 1
        term, env = spec.driven_terms[0]
        assert term.drive_sign == 0
        assert term.coefficient == 0.4
        assert env == Cosine(1.0, 2.2)

    def test_unpaired_branches_rejected(self):
        lone = mono([(0, CREATE)], 1.0, drive=+1)
        with pytest.raises(ValueError):
            split_drive_branches([lone], 1.0)


class TestCutoffSweep:
    @staticmethod
    def run_triple(cutoff, horizon=0.25):
        lay = RegisterLayout.bosons(3, cutoff)
        grid = np.linspace(0.0, horizon, 6)
        traj = evolve(spec_of(triple_spdc_terms()), fock_state(lay, (0, 0, 0)),
                      grid, observables={
                          "n1": mono([(0, NUMBER)]),
                          "triple": mono([(0, ANNIHILATE), (1, ANNIHILATE),
                                          (2, ANNIHILATE)])})
        return {k: v for k, v in traj.observables.items() if k != "norm"}

    def test_changes_decrease_with_cutoff(self):
        report = cutoff_sweep(self.run_triple, [6, 8, 10])
        for name, deltas in report.deltas.items():
            assert deltas[1] < deltas[0]

    def test_linear_hamiltonian_converges_immediately(self):
        def run(cutoff):
            lay = RegisterLayout.bosons(1, cutoff)
            grid = np.linspace(0.0, 1.0, 5)
            traj = evolve(spec_of([mono([(0, NUMBER)], 1.7)]),
                          fock_state(lay, (0,)), grid,
                          observables={"n": mono([(0, NUMBER)])})
            return {"n": traj.observables["n"]}

        report = cutoff_sweep(run, [2, 4, 6])
        assert report.converged
        assert max(report.final_change.values()) < 1e-10

    def test_overdriven_scenario_flagged(self):
        report = cutoff_sweep(
            lambda c: self.run_triple(c, horizon=1.5), [4, 6])
        assert not report.converged

    def test_requires_two_cutoffs(self):
        with pytest.raises(ValueError):
            cutoff_sweep(self.run_triple, [8])

    @pytest.mark.parametrize("cutoffs", [[4, 4], [4, 6, 6], [6, 4]])
    def test_requires_strictly_increasing_cutoffs(self, cutoffs):
        runs = []
        with pytest.raises(ValueError, match="strictly increasing"):
            cutoff_sweep(runs.append, cutoffs)
        assert runs == []
