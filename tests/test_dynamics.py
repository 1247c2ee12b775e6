"""Integrator tests against closed-form and eigendecomposition oracles."""

import os
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from triphoton import scenarios
from triphoton._dop853 import C
from triphoton.config import build_scenario_config, load_config
from triphoton.dynamics import (
    SPARSE_EVOLVE_LIMIT,
    Constant,
    Cosine,
    HamiltonianSpec,
    Motional,
    TwoTone,
    _reachable,
    cutoff_sweep,
    evolve,
    evolve_static_expm,
    split_drive_branches,
)
from triphoton.errors import IntegrationError
from triphoton.hilbert import (
    QuantumState,
    RegisterLayout,
    _basis_matrix,
    _level_map,
    fock_state,
    terms_to_matrix,
)
from triphoton.rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    PAULI_MINUS,
    PAULI_PLUS,
    LadderMonomial,
)
from triphoton.scenarios import hybrid_interaction, pair_interaction
from triphoton.witnesses import genuine_witness_max, optimize_vlf

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
class Pole:
    """1 / (1 - t), which no integrator passes."""

    def __call__(self, t):
        return 1.0 / (1.0 - np.asarray(t))


@dataclass(frozen=True)
class NotANumber:
    """An envelope that is NaN everywhere."""

    def __call__(self, t):
        return float("nan")


def hybrid_layout(cutoff):
    return RegisterLayout((("boson", cutoff + 1),) * 3 + (("qubit", 2),) * 3)


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
        assert genuine_witness_max(vacuum).value == 0.0
        assert optimize_vlf(vacuum).value == 0.0

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
        assert traj.diagnostics["path"] == "dop853"
        assert traj.diagnostics["evolved_dim"] == 10_000
        assert traj.diagnostics["rhs_evals"] > 0
        for with_qubit, without in zip(map(traj.state, range(2)),
                                       map(alone.state, range(2))):
            assert np.array_equal(with_qubit.data[0::2], without.data)
            assert not with_qubit.data[1::2].any()

    def test_chain_closure_builds_each_level_map_once(self):
        # a displacement walks one level per pass: 4,096 passes of two
        # factors each, all served by the two cached level maps
        terms = [mono([(0, CREATE)], 1.0), mono([(0, ANNIHILATE)], 1.0)]
        psi0 = fock_state(RegisterLayout.bosons(1, 4095), (0,))
        _level_map.cache_clear()
        basis = _reachable(terms, psi0)
        info = _level_map.cache_info()
        np.testing.assert_array_equal(basis, np.arange(4096))
        assert info.misses == 2
        assert info.hits + info.misses == 2 * 4096

    def test_driven_spec_integrates(self):
        traj = evolve(driven_displacement(),
                      fock_state(RegisterLayout.bosons(1, 10), (0,)),
                      [0.0, 1.0])
        assert traj.diagnostics["path"] == "dop853"
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
        reversed_terms = [t.scaled(-1.0) for t in terms]
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

    def test_stall_names_grid_interval(self):
        # 1 / (1 - t) on n: the phase of |1> winds without bound at t = 1,
        # so the integrator passes t = 0.5 and stalls before t = 2
        lay = RegisterLayout.bosons(1, 1)
        h = HamiltonianSpec([], [(mono([(0, NUMBER)]), Pole())])
        with pytest.raises(IntegrationError,
                           match="stalled between t = 0.5 and t = 2:") as exc:
            evolve(h, fock_state(lay, (1,)), [0.0, 0.5, 2.0])
        assert exc.value.time == 0.5

    def test_nan_drive_stalls_at_once(self):
        # a NaN step size fails scipy's `h_abs < min_step` test for ever;
        # the port stops on it before the first step
        lay = RegisterLayout.bosons(1, 1)
        h = HamiltonianSpec([], [(mono([(0, NUMBER)]), NotANumber())])
        with pytest.raises(IntegrationError,
                           match="stalled between t = 0 and t = 0.5: "
                                 "step size nan") as exc:
            evolve(h, fock_state(lay, (1,)), [0.0, 0.5, 2.0])
        assert exc.value.time == 0.0

    @pytest.mark.parametrize("spec, path", [
        (spec_of(triple_spdc_terms()), "sector-eigh"),
        (driven_displacement(), "dop853")])
    def test_one_point_grid_returns_psi0(self, spec, path):
        psi0 = fock_state(RegisterLayout.bosons(3, 3), (0, 0, 0))
        traj = evolve(spec, psi0, [0.5])
        assert traj.diagnostics["path"] == path
        assert traj.diagnostics["rhs_evals"] == 0
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


class TestDrivenOracle:
    """The shipped dce-rabi run against the full-register integrator at
    rtol = 1e-13: same states and photon number, parity kept exactly;
    and against scipy's integrator at the shipped setting, bit for bit."""

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

    def test_dce_matches_solve_ivp_bit_for_bit(self, monkeypatch):
        # the only shipped run through the integrator: a TwoTone envelope
        # on a 193-point grid, against the per-group right-hand side on
        # the same sector matrices
        traj, captured = run_shipped_dce(monkeypatch)
        h, psi0, grid = captured["h"], captured["psi0"], captured["grid"]
        assert {type(env) for _, env in h.driven_terms} == {TwoTone}
        basis = traj.basis
        matrix = partial(_basis_matrix, layout=psi0.layout, basis=basis,
                         sparse=False)
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
                        method="DOP853", t_eval=grid, rtol=1e-10,
                        atol=1e-11)
        assert ref.success
        np.testing.assert_array_equal(traj.columns, ref.y)
        assert ref.nfev == 31_541
        assert traj.diagnostics["rhs_evals"] == 31_541


class TestStackedGenerator:
    """evolve's right-hand side, one product with -i H_static stacked over
    -i H_g per envelope group, against the per-group form it replaced:
    one product per block, their envelope-weighted sum, then -i. On the
    same sector matrices and integrator settings both give the same
    bits, since -i only swaps real and imaginary parts with one sign."""

    @staticmethod
    def spec():
        # static number terms plus two distinct envelope groups: a
        # displacement of mode 0 and a two-mode squeezer, together
        # reaching every state of the register
        kick = mono([(0, CREATE)], 0.3)
        squeeze = mono([(0, CREATE), (1, CREATE)], 0.2)
        cosine, motional = Cosine(1.0, 3.0), Motional(v=1.0, k=2.0)
        return HamiltonianSpec(
            [mono([(0, NUMBER)], 1.0), mono([(1, NUMBER)], 1.3)],
            [(kick, cosine), (kick.conjugate(), cosine),
             (squeeze, motional), (squeeze.conjugate(), motional)])

    @pytest.mark.parametrize("cutoff, sparse", [(5, False), (24, True)])
    def test_matches_per_group_rhs(self, cutoff, sparse):
        h = self.spec()
        psi0 = fock_state(RegisterLayout.bosons(2, cutoff), (0, 0))
        grid = np.linspace(0.0, 2.0, 5)
        traj = evolve(h, psi0, grid)
        basis = _reachable(
            [*h.static_terms, *(t for t, _ in h.driven_terms)], psi0)
        assert len(basis) == (cutoff + 1) ** 2
        assert (len(basis) > SPARSE_EVOLVE_LIMIT) == sparse
        matrix = partial(_basis_matrix, layout=psi0.layout, basis=basis,
                         sparse=sparse)
        groups = {}
        for term, env in h.driven_terms:
            groups.setdefault(env, []).append(term)
        h_static = matrix(h.static_terms)
        h_driven = [(env, matrix(terms)) for env, terms in groups.items()]
        assert len(h_driven) == 2

        def rhs(t, y):
            hy = h_static @ y
            for env, mat in h_driven:
                hy = hy + float(env(t)) * (mat @ y)
            return -1j * hy

        ref = solve_ivp(rhs, (grid[0], grid[-1]), psi0.data[basis],
                        method="DOP853", t_eval=grid, rtol=1e-10,
                        atol=1e-11)
        assert ref.success
        np.testing.assert_array_equal(traj.columns, ref.y)
        assert traj.diagnostics["rhs_evals"] == ref.nfev


class TestStepRejectionOracle:
    """The integrator against scipy's solve_ivp on what no shipped run
    reaches: a sharp Motional drive that makes the controller reject
    steps, several grid times inside one step, and an interior grid time
    exactly on a step end. scipy is the oracle here only."""

    def test_matches_solve_ivp(self):
        kick = mono([(0, CREATE)], 1.0)
        motional = Motional(v=1.0, k=40.0)
        h = HamiltonianSpec([mono([(0, NUMBER)], 1.0)],
                            [(kick, motional), (kick.conjugate(), motional)])
        psi0 = fock_state(RegisterLayout.bosons(1, 6), (0,))
        basis = _reachable([*h.static_terms, kick, kick.conjugate()], psi0)
        matrix = partial(_basis_matrix, layout=psi0.layout, basis=basis,
                         sparse=False)
        h_static, h_drive = matrix(h.static_terms), matrix(
            [kick, kick.conjugate()])

        def rhs(t, y):
            hy = h_static @ y
            hy = hy + float(motional(t)) * (h_drive @ y)
            return -1j * hy

        span, tol = (0.0, 1.0), {"rtol": 1e-10, "atol": 1e-11}
        # without t_eval scipy reports every step end and evaluates the
        # right-hand side 2 times plus 12 per attempted step
        free = solve_ivp(rhs, span, psi0.data[basis], method="DOP853", **tol)
        steps, (attempts, rest) = len(free.t) - 1, divmod(free.nfev - 2, 12)
        assert rest == 0 and attempts > steps
        wide = np.argmax(np.diff(free.t))
        inside = free.t[wide] + np.array([0.2, 0.4, 0.6, 0.8]) * (
            free.t[wide + 1] - free.t[wide])
        on_end = free.t[steps // 2]
        grid = np.unique(np.concatenate([span, inside, [on_end]]))
        assert len(grid) == 7

        traj = evolve(h, psi0, grid)
        ref = solve_ivp(rhs, span, psi0.data[basis], method="DOP853",
                        t_eval=grid, **tol)
        assert ref.success
        np.testing.assert_array_equal(traj.columns, ref.y)
        assert traj.diagnostics["rhs_evals"] == ref.nfev


class TestEnvelopes:
    @pytest.mark.parametrize("env", [
        Constant(0.7), Cosine(0.3, 1.7, 0.2),
        TwoTone(0.1, 1.35, 0.1, 0.65, phase1=0.4, phase2=-1.1),
        Motional(v=1.3, k=2.1, x0=0.4)])
    def test_scalar_gives_the_bits_of_an_array(self, env):
        # the integrator evaluates one scalar time per step
        ts = np.random.default_rng(11).uniform(-50.0, 200.0, 1000)
        scalar = [float(env(float(t))) for t in ts]
        numpy_scalar = [float(env(t)) for t in ts]
        array = [env(np.array([t]))[0] for t in ts]
        np.testing.assert_array_equal(scalar, array)
        np.testing.assert_array_equal(numpy_scalar, array)

    @pytest.mark.parametrize("env", [
        Constant(0.7), Cosine(0.3, 1.7, 0.2),
        TwoTone(0.1, 1.35, 0.1, 0.65, phase1=0.4, phase2=-1.1),
        Motional(v=1.3, k=2.1, x0=0.4)])
    def test_stage_times_give_the_bits_of_each_stage(self, env):
        # the integrator evaluates each envelope once per attempted step,
        # on the array of its 16 stage times
        rng = np.random.default_rng(12)
        for t, h in zip(rng.uniform(-50.0, 200.0, 300),
                        10.0 ** rng.uniform(-8.0, 0.5, 300)):
            stage_times = t + C[:16] * h
            each = [float(env(t + C[s] * h)) for s in range(16)]
            np.testing.assert_array_equal(env(stage_times), each)

    def test_motional_is_sampled_mode_function(self):
        env = Motional(v=2.0, k=1.5, x0=0.3)
        ts = np.linspace(0, 4, 9)
        assert np.allclose(env(ts), np.cos(1.5 * (0.3 + 2.0 * ts)))

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
