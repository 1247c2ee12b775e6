"""Scenario-level tests: each end-to-end run reproduces its expected
detection pattern, and the reduced Hamiltonians stay consistent with the
full driven model."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from triphoton.circuit import (
    CavityParams,
    SquidParams,
    coupling_table,
    effective_junction,
    mode_spectrum,
    three_spdc_coupling,
)
from triphoton.config import build_scenario_config, load_config
from triphoton.dynamics import HamiltonianSpec, evolve
from triphoton.errors import PumpMismatchError
from triphoton.hilbert import (
    QuantumState,
    RegisterLayout,
    _reduce_columns,
    covariance_matrix,
    expect_monomial,
    fock_state,
)
from triphoton.rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    LadderMonomial,
    is_kerr_quartic,
)
from triphoton.scenarios import (
    _STEPS,
    CircuitConfig,
    DceParams,
    ScenarioConfig,
    cavity_hamiltonian,
    convergence_gate,
    pair_interaction,
    reduced_cavity_hamiltonian,
    run_scenario,
    sweep_observables,
)
from triphoton import scenarios, witnesses
from triphoton.witnesses import (
    dv_genuine_witness,
    mode_moment_witnesses,
    negativity,
    optimize_vlf,
    vlf_value,
)

from oracles import combine_like_terms, evolve_static_expm, von_neumann_entropy

from test_witnesses import restart_oracle

REF_SQUID = SquidParams(ej1=6.1, ej2=4.99, c1=1e-13, c2=1e-13,
                        flux_bias=0.4, pump_amplitude=0.05)
REF_CAVITY = CavityParams(length=1.0, cap_per_len=1000.0, ind_per_len=1.0)
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def fast_config(name, **kw):
    defaults = dict(n_steps=11)
    defaults.update(kw)
    return ScenarioConfig(name=name, **defaults)


class TestRun3spdc:
    def test_g2_follows_perturbative_form(self):
        res = run_scenario(fast_config("3spdc", g0=1.0, n_steps=21))
        tau = res.trajectory.times
        g2 = res.witness_series["g2"]
        for k, gt in enumerate(tau):
            if gt == 0.0:
                continue
            assert abs(g2[k] - (gt - gt**2)) < 5 * gt**3

    def test_covariance_cross_terms_vanish(self):
        res = run_scenario(fast_config("3spdc", g0=1.0))
        assert res.summary["cov_cross_max"] < 1e-8

    def test_zero_pump_is_inert(self):
        res = run_scenario(fast_config("3spdc", g0=0.0))
        for key in ("i1", "i2", "i3", "g1", "g2"):
            assert np.all(res.witness_series[key] <= 0.0)
        assert np.all(res.witness_series["s_opt"] <= 1e-9)
        n_end = res.trajectory.observables["n1"][-1].real
        assert n_end == pytest.approx(0.0, abs=1e-12)

    def test_circuit_pipeline_supplies_g0(self):
        cfg = fast_config("3spdc", circuit=CircuitConfig(REF_SQUID, REF_CAVITY))
        res = run_scenario(cfg)
        eff = effective_junction(REF_SQUID)
        spec = mode_spectrum(REF_CAVITY, eff.e_bar, 3)
        expected = three_spdc_coupling(coupling_table(spec, eff),
                                       REF_SQUID.pump_amplitude)
        assert res.summary["g0"] == pytest.approx(expected, rel=1e-12)
        assert res.summary["g0_source"] == "circuit"

    def test_pump_mismatch_rejected(self):
        squid = dataclasses.replace(REF_SQUID, pump_frequency=0.123)
        cfg = fast_config("3spdc", circuit=CircuitConfig(squid, REF_CAVITY))
        with pytest.raises(PumpMismatchError):
            run_scenario(cfg)

    def test_detection_window_recorded(self):
        res = run_scenario(fast_config("3spdc", g0=1.0, n_steps=21))
        assert res.summary["g2_peak"] > 0
        windows = res.summary["windows"]["g2"]
        assert len(windows) >= 1
        assert windows[0][0] <= res.summary["g2_peak_time"] <= windows[0][1]


class TestRun22spdc:
    def test_mutual_exclusion_pattern(self):
        res = run_scenario(fast_config("22spdc", n_steps=16))
        assert res.summary["s_peak"] > 0
        assert np.all(res.witness_series["g1"] <= 0.0)
        assert np.all(res.witness_series["g2"] <= 0.0)

    def test_zero_coupling_identity(self):
        res = run_scenario(fast_config("22spdc", pair_coupling=0.0))
        n = res.trajectory.observables["n2"].real
        assert np.abs(n).max() < 1e-12

    def test_wrong_pair_tone_rejected(self):
        squid = dataclasses.replace(REF_SQUID, pump_frequency=1.0)
        cfg = fast_config("22spdc", circuit=CircuitConfig(squid, REF_CAVITY))
        with pytest.raises(PumpMismatchError):
            run_scenario(cfg)

    def test_matching_pair_tone_accepted(self):
        eff = effective_junction(REF_SQUID)
        spec = mode_spectrum(REF_CAVITY, eff.e_bar, 3)
        tone = float(spec.frequencies[0] + spec.frequencies[1])
        squid = dataclasses.replace(REF_SQUID, pump_frequency=tone)
        cfg = fast_config("22spdc", circuit=CircuitConfig(squid, REF_CAVITY))
        run_scenario(cfg)  # should not raise

    def test_covariances_within_the_gaussian_truncation_gaps(self):
        # pair_interaction is quadratic, so the vacuum stays Gaussian: in
        # units of 1/g the quadratures obey R' = M R, M = diag(K, -K), K
        # the pair graph, and C(t) = e^{Mt} (I/2) e^{M^T t} at every
        # cutoff: e^{2Kt} / 2 and e^{-2Kt} / 2 from one 3 x 3 eigh. On
        # spdc22.ini's grid the Fock-space covariances lie within the
        # gaps measured there (6.57e-4, 2.33e-5, 7.67e-7 at cutoffs 4, 6,
        # 8), and each two more levels cut the gap tenfold at least
        config = build_scenario_config(
            load_config(os.path.join(CONFIGS, "spdc22.ini")))
        w, v = np.linalg.eigh([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                               [0.0, 1.0, 0.0]])
        gaps = []
        for cutoff, bound in ((4, 6.6e-4), (6, 2.4e-5), (8, 7.7e-7)):
            traj, _ = _STEPS["22spdc"][0](
                dataclasses.replace(config, cutoff=cutoff))
            assert len(traj.times) == 101
            gap = 0.0
            for k, t in enumerate(traj.times):
                exact = np.zeros((6, 6))
                exact[:3, :3] = (v * np.exp(2 * w * t)) @ v.T / 2
                exact[3:, 3:] = (v * np.exp(-2 * w * t)) @ v.T / 2
                cov = covariance_matrix(traj.state(k))
                gap = max(gap, np.abs(cov - exact).max())
            assert gap <= bound
            gaps.append(gap)
        assert gaps[1] < gaps[0] / 10 and gaps[2] < gaps[1] / 10

    def test_circuit_pump_tone_checked(self):
        # the circuit's tone is checked: 0 stands for the three-mode
        # resonance, which is no pair resonance
        eff = effective_junction(REF_SQUID)
        spec = mode_spectrum(REF_CAVITY, eff.e_bar, 3)
        tone = float(spec.frequencies[1] + spec.frequencies[2])
        for pump, fits in ((123.0, False), (0.0, False), (tone, True)):
            squid = dataclasses.replace(REF_SQUID, pump_frequency=pump)
            cfg = fast_config("22spdc",
                              circuit=CircuitConfig(squid, REF_CAVITY))
            if fits:
                run_scenario(cfg)
            else:
                with pytest.raises(PumpMismatchError):
                    run_scenario(cfg)


@pytest.mark.parametrize("name, changes", [
    ("3spdc", {"g0": 1.0}), ("22spdc", {})])
def test_spdc_series_are_the_witnesses_on_each_state(name, changes):
    # the analysis takes each series over the whole grid in one call;
    # every point holds the bits of the public one-state witnesses on the
    # state its sector column embeds
    res = run_scenario(fast_config(name, **changes))
    traj, series = res.trajectory, res.witness_series
    names = {"i1": "hz_i1", "i2": "hz_i2", "i3": "hz_i3",
             "g1": "genuine_sum", "g2": "genuine_max"}
    assert np.abs(series["g2" if name == "3spdc" else "s_opt"]).max() > 0.0
    for k in range(len(traj.times)):
        state = traj.state(k)
        reports = mode_moment_witnesses(state)
        for key, report in names.items():
            assert series[key][k] == reports[report].value
        assert series["s_opt"][k] == optimize_vlf(state).value


class TestHybridSwap:
    def test_decoupled_qubits_stay_ground(self):
        res = run_scenario(fast_config("hybrid-swap", g0=1.0, jc_ratio=0.0))
        assert np.all(res.witness_series["dv"] <= 1e-12)
        exc = res.trajectory.observables["qubit_excitation"].real
        assert np.abs(exc).max() < 1e-10

    def test_transfer_window(self):
        res = run_scenario(fast_config("hybrid-swap", g0=1.0, n_steps=31))
        dv = res.witness_series["dv"]
        best = int(np.argmax(dv))
        assert dv[best] > 0.05
        for q in range(1, 4):
            assert res.witness_series[f"neg_q{q}"][best] > 0.01
        assert res.summary["neg_min_at_dv_peak"] > 0.01

    def test_dv_series_is_the_witness_on_each_state(self):
        # the analysis reads the qubit moments off the sector columns;
        # the public witness reads them off each embedded state
        res = run_scenario(fast_config("hybrid-swap", g0=1.0))
        traj = res.trajectory
        oracle = [dv_genuine_witness(traj.state(k)).value
                  for k in range(len(traj.times))]
        assert np.abs(res.witness_series["dv"] - oracle).max() <= 1e-15

    def test_qubit_series_are_the_one_state_functions(self):
        # negativities and purities are taken on the whole stack of
        # reduced qubit densities; each point holds the bits of the public
        # functions on its own density
        res = run_scenario(fast_config("hybrid-swap", g0=1.0))
        traj, series = res.trajectory, res.witness_series
        rhos = _reduce_columns(traj.layout, traj.basis, traj.columns,
                               [3, 4, 5])
        assert series["neg_q1"].max() > 0.0
        for k, rho in enumerate(rhos):
            state = QuantumState(RegisterLayout.qubits(3), rho)
            for q in range(3):
                assert series[f"neg_q{q + 1}"][k] == negativity(state, {q})
            assert series["qubit_purity"][k] == state.purity()

    def test_swap_fidelity_series(self):
        res = run_scenario(fast_config("hybrid-swap", g0=1.0, n_steps=16))
        fid = res.witness_series["swap_fidelity"]
        assert np.all((0.0 <= fid) & (fid <= 1.0 + 1e-9))
        assert fid[0] == pytest.approx(1.0, abs=1e-9)  # vacuum is eta = 0

    def test_zero_coupling_is_inert(self):
        # the exchange terms scale with g0, so g0 = 0 switches off the
        # qubits as well as the down-conversion
        res = run_scenario(fast_config("hybrid-swap", g0=0.0, cutoff=2,
                                       n_steps=5))
        obs = res.trajectory.observables
        assert np.all(obs["n1"] == 0.0)
        assert np.all(obs["qubit_excitation"] == 0.0)
        assert np.all(res.witness_series["dv"] <= 0.0)


class TestDce:
    def test_zero_coupling_keeps_photon_number(self):
        cfg = fast_config("dce-rabi",
                          dce=DceParams(coupling=0.0, periods=4))
        res = run_scenario(cfg)
        n = res.trajectory.observables["n"].real
        assert np.abs(n).max() < 1e-12

    def test_counter_rotating_activation(self):
        # cosine envelope at qubit+mode frequency excites both
        cfg = fast_config("dce-rabi", dce=DceParams(
            coupling=0.05, envelope="cosine", periods=8))
        res = run_scenario(cfg)
        n = res.trajectory.observables["n"].real
        pe = res.trajectory.observables["qubit_excitation"].real
        assert n[-1] > 1e-4
        assert pe[-1] > 1e-4

    def test_pair_production_regime(self):
        cfg = fast_config("dce-rabi", dce=DceParams(periods=12))
        res = run_scenario(cfg)
        s = res.summary
        assert s["windowed_monotone"]
        assert s["qubit_excitation_max"] < 0.1
        assert s["qubit_entropy_max"] < 0.1
        assert s["pair_final"] > 0.0

    def test_entropy_series_is_the_per_point_entropy(self):
        # one eigvalsh on the stacked qubit densities gives every point
        # the bits of von_neumann_entropy on its own reduced state
        res = run_scenario(fast_config("dce-rabi", dce=DceParams(periods=4)))
        traj = res.trajectory
        qubit = RegisterLayout.qubits(1)
        expected = np.array([
            von_neumann_entropy(QuantumState(qubit, rho, validate=False))
            for rho in _reduce_columns(traj.layout, traj.basis,
                                       traj.columns, [1])])
        entropy = res.witness_series["qubit_entropy"]
        assert entropy.max() > 0.0
        assert entropy.view(np.int64).tolist() == \
            expected.view(np.int64).tolist()


class TestShippedConfigs:
    """Coarse-grid runs of the shipped 3spdc and 22spdc configs."""

    @staticmethod
    def run(name, **changes):
        cfg = build_scenario_config(load_config(os.path.join(CONFIGS, name)))
        return run_scenario(dataclasses.replace(cfg, **changes))

    def test_3spdc_vacuum_not_detected(self):
        s = self.run("reference.ini", n_steps=3).summary
        assert s["s_peak"] == 0.0
        assert s["windows"]["s_opt"] == []
        assert s["s_certified_points"] == 3

    def test_22spdc_search_pinned(self):
        res = self.run("spdc22.ini", n_steps=2)
        s = res.summary
        # the simplex polish pinned 1.1054547234023853 here before, and
        # the interior point's 11 iterations 1.1058946779172178
        assert s["s_peak"] == 1.1058946779198289
        assert s["s_certified_points"] == 1
        assert s["s_undecided_points"] == 0
        assert s["s_ipm_iterations"] == 0
        assert s["diagnostics"]["s_kkt_pairs"] == 1
        assert 0.0 <= s["diagnostics"]["s_gap_max"] <= 1e-11
        # the witness point holds on the full-register eigendecomposition
        # state, whose covariance agrees to roundoff
        rep = optimize_vlf(res.trajectory.state(-1))
        assert rep.value == s["s_peak"]
        vacuum = fock_state(RegisterLayout.bosons(3, 8), (0, 0, 0))
        oracle = covariance_matrix(
            evolve_static_expm(pair_interaction(1.0), vacuum, 0.3))
        cov = covariance_matrix(res.trajectory.state(-1))
        assert np.abs(cov - oracle).max() <= 1e-14
        g, h = rep.parameters.g, rep.parameters.h
        assert abs(vlf_value(oracle, g, h) - s["s_peak"]) <= 1e-13
        # never below 200 seeded restarts on the same covariance, nor
        # above the bound; the 20-restart search gave 0.980581336817619
        assert restart_oracle(cov, 200, 8)[0] <= s["s_peak"] <= \
            rep.components["s_upper"]
        assert s["s_peak"] >= 1.10 > 0.980581336817619

    def test_22spdc_value_holds_across_evolution_paths(self):
        # The sector-eigh state at g t = 0.3 and the full-register
        # exponential's have covariances 8.3e-16 apart. The optimum is
        # continuous in the covariance; a local search was not, and gave
        # 1.10545 and 1.10506 on them.
        state = self.run("spdc22.ini", n_steps=2).trajectory.state(-1)
        vacuum = fock_state(RegisterLayout.bosons(3, 8), (0, 0, 0))
        expm = evolve_static_expm(pair_interaction(1.0), vacuum, 0.3)
        assert np.abs(covariance_matrix(state)
                      - covariance_matrix(expm)).max() <= 1e-14
        assert abs(optimize_vlf(state).value
                   - optimize_vlf(expm).value) <= 1e-10

    @pytest.mark.parametrize("name, changes, diagnostics", [
        ("reference.ini", {"n_steps": 3}, {
            "path": "sector-eigh", "register_dim": 729, "evolved_dim": 9,
            "rhs_evals": 0, "s_gap_max": 0.0, "s_kkt_pairs": 0}),
        ("hybrid.ini", {"n_steps": 3}, {
            "path": "sector-eigh", "register_dim": 1000, "evolved_dim": 34,
            "rhs_evals": 0}),
        ("dce.ini", {}, {
            "path": "magnus-dense", "register_dim": 18, "evolved_dim": 9,
            "exponentials": 18_432}),
    ])
    def test_evolution_diagnostics(self, name, changes, diagnostics):
        s = self.run(name, **changes).summary
        estimate = s["diagnostics"].pop("error_estimate", 0.0)
        assert s["diagnostics"] == diagnostics
        assert 0.0 <= estimate < 1e-8

    def test_objective_evals_summed_over_points(self):
        # the covariance witness's work: pairs closed by a certificate
        # and interior-point iterations
        res = self.run("spdc22.ini", n_steps=2)
        traj = res.trajectory
        reps = [optimize_vlf(traj.state(k)) for k in range(len(traj.times))]
        assert res.summary["diagnostics"]["s_kkt_pairs"] == sum(
            rep.components["kkt_pairs"] for rep in reps) > 0
        assert res.summary["s_ipm_iterations"] == sum(
            rep.components["ipm_iterations"] for rep in reps)
        s3 = self.run("reference.ini", n_steps=3).summary
        assert s3["s_ipm_iterations"] == 0
        assert s3["diagnostics"]["s_kkt_pairs"] == 0

    def test_coarse_22spdc_never_enters_the_interior_point(self,
                                                           monkeypatch):
        # the certificate stage closes the one open pair, so the interior
        # point is never called
        calls = []

        def spy(*args):
            calls.append(args)
            return sdp(*args)

        sdp = witnesses._vlf_sdp
        monkeypatch.setattr(witnesses, "_vlf_sdp", spy)
        s = self.run("spdc22.ini", n_steps=2).summary
        assert calls == []
        assert s["diagnostics"]["s_kkt_pairs"] == 1
        assert s["s_peak"] >= 1.10

    def test_dual_rows_over_the_full_grids(self, monkeypatch):
        # the rows the dual stage's batched eigh calls took: on
        # reference.ini every pair closes at the first step (101 points x
        # 32 patterns); on spdc22.ini a pair stops stepping once its
        # bound lies below its point's best S, where stepping each pair
        # until lambda_max <= 0 took 19,963 rows
        reports = []

        def spy(covs):
            reports.append(report(covs))
            return reports[-1]

        report = scenarios._vlf_report
        monkeypatch.setattr(scenarios, "_vlf_report", spy)
        self.run("reference.ini")
        self.run("spdc22.ini")
        rows = [sum(rep.components["dual_rows"]) for rep in reports]
        assert rows[0] == 3_232
        assert rows[1] < 19_963


class TestReproducibility:
    def test_same_config_same_numbers(self):
        cfg = fast_config("3spdc", g0=1.0)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.summary == b.summary
        for key in a.witness_series:
            assert np.array_equal(a.witness_series[key],
                                  b.witness_series[key])


class TestSectorMemory:
    """Cost follows the sector, not the cutoff: a run keeps no
    register-sized copy of its trajectory."""

    @pytest.mark.parametrize("name, cutoff", [("3spdc", 40),
                                              ("hybrid-swap", 24)])
    def test_run_memory_at_large_cutoff(self, name, cutoff):
        # Registers of 68,921 and 125,000 states, sectors of 41 and 194:
        # the 101 grid states embedded into the register would alone
        # take 111 and 202 MB.
        config = ScenarioConfig(name=name, cutoff=cutoff, g0=1.0)
        tracemalloc.start()
        try:
            traj = run_scenario(config).trajectory
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert traj.columns.shape == (traj.diagnostics["evolved_dim"],
                                      config.n_steps)


class TestConvergenceGate:
    def test_default_grid_converges(self):
        report = convergence_gate(fast_config("3spdc", g0=1.0, n_steps=41),
                                  [8, 10])
        assert report.converged

    def test_overdriven_grid_flagged(self):
        cfg = fast_config("3spdc", g0=1.0, horizon=1.5, n_steps=41)
        report = convergence_gate(cfg, [8, 10])
        assert not report.converged

    def test_gate_recorded_in_summary(self):
        res = run_scenario(fast_config("3spdc", g0=1.0),
                           check_convergence=True)
        assert res.summary["converged"] is True


class TestSweepRunParity:
    """A sweep point reruns the scenario's own evolution step, so its
    observables are the run's, bit for bit, at the same cutoff and grid."""

    @pytest.mark.parametrize("config", [
        fast_config("3spdc", g0=1.0),
        fast_config("3spdc", g0=0.0),
        fast_config("3spdc", circuit=CircuitConfig(REF_SQUID, REF_CAVITY)),
        fast_config("22spdc", pair_coupling=0.5),
        fast_config("hybrid-swap", g0=1.0, n_steps=5),
        fast_config("dce-rabi", dce=DceParams(periods=2, window_periods=1)),
    ], ids=["3spdc", "3spdc-g0-zero", "3spdc-circuit",
            "22spdc", "hybrid-swap", "dce-rabi"])
    def test_sweep_matches_run(self, config):
        cutoff = 3
        run = run_scenario(dataclasses.replace(config, cutoff=cutoff))
        swept = sweep_observables(config, cutoff)
        recorded = dict(run.trajectory.observables)
        del recorded["norm"]
        assert swept.keys() == recorded.keys()
        for name, values in recorded.items():
            assert np.array_equal(swept[name], values), name

    def test_sweep_caps_the_grid(self):
        swept = sweep_observables(fast_config("3spdc", g0=1.0, n_steps=60),
                                  3)
        assert len(swept["n1"]) == 41

    def test_sweep_checks_the_pump(self):
        squid = dataclasses.replace(REF_SQUID, pump_frequency=123.0)
        cfg = fast_config("3spdc", circuit=CircuitConfig(squid, REF_CAVITY))
        with pytest.raises(PumpMismatchError):
            sweep_observables(cfg, 3)


def reference_table(m1_scale=1.0, m2_scale=1.0, m3_scale=1.0):
    eff = effective_junction(REF_SQUID)
    spec = mode_spectrum(REF_CAVITY, eff.e_bar, 3)
    table = coupling_table(spec, eff)
    table = dataclasses.replace(
        table,
        m1_tilde=m1_scale * table.m1_tilde,
        m2_tilde=m2_scale * table.m2_tilde,
        m3_tilde=m3_scale * table.m3_tilde)
    return eff, spec, table


class TestReducedHamiltonian:
    def test_reduction_reproduces_triple_coupling(self):
        _, spec, table = reference_table()
        lam = REF_SQUID.pump_amplitude
        reduced = combine_like_terms(
            reduced_cavity_hamiltonian(table, spec, lam, kerr="drop"))
        assert len(reduced) == 2
        g0 = three_spdc_coupling(table, lam)
        for term in reduced:
            assert abs(abs(term.coefficient) - g0) < 1e-15 * max(1.0, g0)
            kinds = {k for _, k in term.factors}
            assert kinds in ({CREATE}, {ANNIHILATE})
            assert sorted(i for i, _ in term.factors) == [0, 1, 2]

    def test_full_vs_reduced_photon_numbers(self):
        # Validation config for the 4(5)-pair vs reduced-model agreement:
        # the cubic channel boosted, the linear and quadratic drive
        # channels attenuated so that pump-induced micromotion and
        # second-order shifts sit well below the resonant signal, and
        # the pump calibrated onto the Kerr-shifted triple resonance.
        # The circuit-faithful table at this pump amplitude shows ~30%
        # deviations from identified second-order channels, so it cannot
        # satisfy a 5% bound; see the reduction notes in the README.
        eff, spec, table = reference_table(m1_scale=0.1, m2_scale=0.1,
                                           m3_scale=10.0)
        lam = REF_SQUID.pump_amplitude
        g0 = three_spdc_coupling(table, lam)
        freqs = list(spec.frequencies)
        w_sum = float(np.sum(freqs))

        reduced = reduced_cavity_hamiltonian(table, spec, lam, kerr="keep")
        lay = RegisterLayout.bosons(3, 6)
        vac = fock_state(lay, (0, 0, 0))
        f111 = fock_state(lay, (1, 1, 1))
        kerr = [t for t in reduced if is_kerr_quartic(t)]
        kerr_shift = sum(
            expect_monomial(f111, t.factors, t.coefficient)
            for t in kerr).real - sum(
            expect_monomial(vac, t.factors, t.coefficient)
            for t in kerr).real
        pump = w_sum + kerr_shift

        grid = np.linspace(0.0, 0.1 / g0, 11)
        obs = {f"n{i + 1}": LadderMonomial(((i, NUMBER),), 1.0)
               for i in range(3)}
        frame = [LadderMonomial(((i, CREATE), (i, ANNIHILATE)),
                                -kerr_shift / 3.0) for i in range(3)]
        tr_red = evolve(HamiltonianSpec(list(reduced) + frame), vac, grid,
                        observables=obs)
        tr_full = evolve(cavity_hamiltonian(table, spec, lam, pump), vac,
                         grid, observables=obs)
        for key in ("n1", "n2", "n3"):
            red = tr_red.observables[key].real
            full = tr_full.observables[key].real
            scale = max(full.max(), 1e-12)
            assert np.abs(red - full).max() / scale < 0.05

    def test_kerr_drop_is_a_visible_approximation(self):
        # dropping the number-conserving quartics moves the photon
        # numbers by >> the 5% band: the "adds up to a constant" claim
        # fails as operators
        eff, spec, table = reference_table(m1_scale=0.1, m2_scale=0.1,
                                           m3_scale=10.0)
        lam = REF_SQUID.pump_amplitude
        g0 = three_spdc_coupling(table, lam)
        freqs = list(spec.frequencies)
        keep = reduced_cavity_hamiltonian(table, spec, lam, kerr="keep")
        drop = reduced_cavity_hamiltonian(table, spec, lam, kerr="drop")
        lay = RegisterLayout.bosons(3, 6)
        vac = fock_state(lay, (0, 0, 0))
        grid = np.linspace(0.0, 0.1 / g0, 9)
        obs = {"n1": LadderMonomial(((0, NUMBER),), 1.0)}
        tr_keep = evolve(HamiltonianSpec(list(keep)), vac, grid,
                         observables=obs)
        tr_drop = evolve(HamiltonianSpec(list(drop)), vac, grid,
                         observables=obs)
        n_keep = tr_keep.observables["n1"].real
        n_drop = tr_drop.observables["n1"].real
        assert np.abs(n_keep - n_drop).max() > 0.05 * n_drop.max()
