"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its measured numbers. Heavy scenario runs are shared through
module-scoped fixtures; each criterion's runtime budget covers the work
it actually triggers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from triphoton.circuit import (
    CavityParams,
    SquidParams,
    coupling_table,
    effective_junction,
    mode_spectrum,
    solve_wavenumbers,
)
from triphoton.dynamics import HamiltonianSpec, evolve
from triphoton.hilbert import (
    QuantumState,
    RegisterLayout,
    covariance_matrix,
    fock_state,
    ghz_state,
    terms_to_matrix,
    w_state,
)
from triphoton.rwa import (
    classify_terms,
    driven_cavity_terms,
    is_kerr_quartic,
)
from triphoton.scenarios import (
    ScenarioConfig,
    convergence_gate,
    hybrid_interaction,
    pair_interaction,
    run_scenario,
    triple_interaction,
)
from triphoton.witnesses import (
    dv_genuine_witness,
    genuine_witness_max,
    genuine_witness_sum,
    hz_witness,
    negativity,
    optimize_vlf,
    random_separable_mixture,
    triple_superposition,
    vlf_value,
)

from test_witnesses import restart_oracle

REF_SQUID = SquidParams(ej1=6.1, ej2=4.99, c1=1e-13, c2=1e-13,
                        flux_bias=0.4, pump_amplitude=0.05)
REF_CAVITY = CavityParams(length=1.0, cap_per_len=1000.0, ind_per_len=1.0)


def report(criterion: int, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {verdict} - {detail}")


@pytest.fixture(scope="module")
def default_3spdc():
    t0 = time.time()
    res = run_scenario(ScenarioConfig(name="3spdc", g0=1.0))
    return res, time.time() - t0


@pytest.fixture(scope="module")
def default_22spdc():
    t0 = time.time()
    res = run_scenario(ScenarioConfig(name="22spdc"))
    return res, time.time() - t0


@pytest.fixture(scope="module")
def default_hybrid():
    t0 = time.time()
    res = run_scenario(ScenarioConfig(name="hybrid-swap", g0=1.0))
    return res, time.time() - t0


@pytest.fixture(scope="module")
def default_dce():
    t0 = time.time()
    res = run_scenario(ScenarioConfig(name="dce-rabi"))
    return res, time.time() - t0


def test_criterion_01_perturbative_witness_match(default_3spdc):
    res, elapsed = default_3spdc
    assert res.config.effective_cutoff == 8
    tau = res.trajectory.times
    lay = RegisterLayout.bosons(3, 8)
    vac = fock_state(lay, (0, 0, 0)).data
    top = fock_state(lay, (1, 1, 1)).data
    worst_exact = 0.0
    worst_margin = np.inf
    for gt in (0.02, 0.05, 0.1):
        # first-order construction, deliberately unnormalized
        state = QuantumState(lay, vac + gt * top, validate=False)
        i1 = hz_witness(state, singled=0).value
        worst_exact = max(worst_exact, abs(i1 - (gt - gt**2)))
        # full evolution at the same grid point
        k = int(np.argmin(np.abs(tau - gt)))
        assert abs(tau[k] - gt) < 1e-12
        diff = abs(res.witness_series["i1"][k] - (gt - gt**2))
        worst_margin = min(worst_margin, 5 * gt**3 - diff)
    ok = worst_exact < 1e-12 and worst_margin > 0 and elapsed < 10.0
    report(1, ok, f"construction dev {worst_exact:.2e}, slack to "
                  f"5(g0t)^3 bound {worst_margin:.2e}, runtime {elapsed:.1f}s")
    assert worst_exact < 1e-12
    assert worst_margin > 0
    assert elapsed < 10.0


def test_criterion_02_gaussian_blindness_of_3spdc(default_3spdc):
    res, elapsed = default_3spdc
    s_max = float(res.witness_series["s_opt"].max())
    certified = res.summary["s_certified_points"]
    ok = s_max <= 1e-9 and certified == 101 and elapsed < 300.0
    report(2, ok, f"max optimized S over 101 points = {s_max:.2e}, "
                  f"{certified} certified, runtime {elapsed:.0f}s")
    assert s_max <= 1e-9
    assert certified == 101 and res.summary["s_peak"] == 0.0
    assert elapsed < 300.0


def test_criterion_03_mutual_exclusion(default_3spdc, default_22spdc):
    res3, t3 = default_3spdc
    res22, t22 = default_22spdc
    s22_peak = float(res22.witness_series["s_opt"].max())
    g1_22 = float(res22.witness_series["g1"].max())
    g2_22 = float(res22.witness_series["g2"].max())
    g2_3 = float(res3.witness_series["g2"].max())
    s3 = float(res3.witness_series["s_opt"].max())
    ok = (s22_peak >= 1.10 and g1_22 <= 0 and g2_22 <= 0
          and g2_3 > 0 and s3 <= 1e-9 and (t3 + t22) < 600.0)
    report(3, ok, f"22spdc: S_peak={s22_peak:.3f} G1<= {g1_22:.1e} "
                  f"G2<= {g2_22:.1e}; 3spdc: G2_peak={g2_3:.3f} "
                  f"S<= {s3:.1e}; runtime {t3 + t22:.0f}s")
    assert s22_peak >= 1.10
    assert g1_22 <= 0 and g2_22 <= 0
    assert g2_3 > 0
    assert s3 <= 1e-9
    assert t3 + t22 < 600.0


def test_22spdc_covariance_verdicts(default_22spdc):
    """Criterion 3's covariance verdicts point by point: the vacuum is
    certified, every later point detected on one window, each witness
    point reproduces its value, and no value falls below 200 seeded
    restarts on the same covariance (every fifth point is checked)."""
    res, _ = default_22spdc
    s = res.summary
    assert s["s_certified_points"] == 1
    assert s["s_undecided_points"] == 0
    assert s["windows"]["s_opt"] == [[0.003, 0.3]]
    for k in range(1, len(res.trajectory.times)):
        rep = optimize_vlf(res.trajectory.state(k))
        assert rep.components["verdict"] == "detected"
        assert rep.value == res.witness_series["s_opt"][k]
        cov = covariance_matrix(res.trajectory.state(k))
        assert vlf_value(cov, rep.parameters.g, rep.parameters.h) == rep.value
        if k % 5 == 0:
            assert rep.value >= restart_oracle(cov, 200, 7 + k)[0]


def _dominance_bank():
    """200 seeded states, mixed and pure. The separable mixtures fill
    every Fock level up to the cutoff, where the witness moments are
    still exact."""
    rng = np.random.default_rng(2024)
    lay = RegisterLayout.bosons(3, 4)
    bank = []
    for _ in range(150):
        bank.append(random_separable_mixture(lay, rng))
    for eps in np.linspace(0.05, 1.4, 20):
        bank.append(triple_superposition(lay, float(eps)))
    terms = triple_interaction(1.0)
    h3 = HamiltonianSpec(terms)
    grid = np.linspace(0.0, 0.2, 6)
    traj = evolve(h3, fock_state(lay, (0, 0, 0)), grid)
    bank.extend(QuantumState(lay, traj.state(k).data, validate=False)
                for k in range(1, len(grid)))
    h22 = HamiltonianSpec(pair_interaction(1.0))
    traj = evolve(h22, fock_state(lay, (0, 0, 0)), grid)
    bank.extend(QuantumState(lay, traj.state(k).data, validate=False)
                for k in range(1, len(grid)))
    for _ in range(200 - len(bank)):
        # random pure states on the sub-cutoff support, mixed across all
        # three modes (generally entangled)
        amps = rng.normal(size=27) + 1j * rng.normal(size=27)
        amps /= np.linalg.norm(amps)
        vec = np.zeros(lay.total_dim, dtype=complex)
        d = 5
        for flat, val in enumerate(amps):
            i, j, k = flat // 9, (flat // 3) % 3, flat % 3
            vec[(i * d + j) * d + k] = val
        bank.append(QuantumState(lay, vec))
    return bank


def test_criterion_04_g2_dominates_g1():
    bank = _dominance_bank()
    assert len(bank) == 200
    separating = 0
    worst_gap = np.inf
    for state in bank:
        g1 = genuine_witness_sum(state).value
        g2 = genuine_witness_max(state).value
        worst_gap = min(worst_gap, g2 - g1)
        if g2 > 0 >= g1:
            separating += 1
    half = triple_superposition(RegisterLayout.bosons(3, 4), 0.5)
    g2_half = genuine_witness_max(half).value
    g1_half = genuine_witness_sum(half).value
    ok = (worst_gap >= 0 and separating >= 1
          and abs(g2_half - 0.2) < 1e-12 and g1_half < 0)
    report(4, ok, f"min(G2-G1)={worst_gap:.3e} over 200 states, "
                  f"{separating} states with G2>0>=G1, eps=0.5 gives "
                  f"G2={g2_half:.3f}, G1={g1_half:.3f}")
    assert worst_gap >= 0
    assert separating >= 1
    assert g2_half == pytest.approx(0.2, abs=1e-12)
    assert g1_half < 0


def test_criterion_05_mode_solver():
    t0 = time.time()
    cav = CavityParams(length=1.0, cap_per_len=1.0, ind_per_len=1.0)
    k_free = solve_wavenumbers(cav, 0.0, 6)
    free_dev = max(abs(k - n * np.pi)
                   for n, k in enumerate(k_free, start=1))

    def f(x):
        return x * np.tan(x) - 1.0
    lo, hi = 1e-9, np.pi / 2 - 1e-9
    flo = f(lo)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    oracle = 0.5 * (lo + hi)
    k_unit = solve_wavenumbers(cav, 2.0, 1)[0]  # R = l d E / 2 = 1
    unit_dev = abs(k_unit - oracle)
    elapsed = time.time() - t0
    ok = free_dev < 1e-10 and unit_dev < 1e-6 \
        and abs(k_unit - 0.860334) < 1e-6 and elapsed < 1.0
    report(5, ok, f"free-cavity dev {free_dev:.2e}, x tan x = 1 root dev "
                  f"{unit_dev:.2e} vs bisection oracle, runtime "
                  f"{elapsed * 1000:.0f}ms")
    assert free_dev < 1e-10
    assert unit_dev < 1e-6
    assert abs(k_unit - 0.860334) < 1e-6
    assert elapsed < 1.0


def test_criterion_06_rwa_classification():
    t0 = time.time()
    eff = effective_junction(REF_SQUID)
    spectrum = mode_spectrum(REF_CAVITY, eff.e_bar, 3)
    table = coupling_table(spectrum, eff)
    terms = driven_cavity_terms(table, REF_SQUID.pump_amplitude, 3)
    freqs = list(spectrum.frequencies)
    drive = float(np.sum(freqs))
    cls = classify_terms(terms, freqs, drive)

    # exhaustive sign-tuple oracle, independent arithmetic
    sign = {"create": +1.0, "annihilate": -1.0}
    oracle_resonant = []
    for term in terms:
        exponent = term.drive_sign * drive
        for idx, kind in term.factors:
            exponent += sign[kind] * freqs[idx]
        if abs(exponent) <= cls.tolerance:
            oracle_resonant.append(term)
    same_set = ({id(t) for t in cls.resonant}
                == {id(t) for t in oracle_resonant})

    driven = [t for t in cls.resonant if t.drive_sign != 0]
    static = [t for t in cls.resonant if t.drive_sign == 0]
    triples_ok = len(driven) == 12 and all(
        sorted(i for i, _ in t.factors) == [0, 1, 2]
        and len({k for _, k in t.factors}) == 1 for t in driven)
    # per-mode balanced quartics: 3 single-mode contents x 6 sign
    # orderings + 3 mode pairs x 6 index orderings x 4 sign choices
    quartics_ok = len(static) == 90 and all(is_kerr_quartic(t)
                                            for t in static)
    elapsed = time.time() - t0
    ok = same_set and triples_ok and quartics_ok and elapsed < 1.0
    report(6, ok, f"{len(terms)} expanded terms; resonant = 12 triple "
                  f"entries + {len(static)} number-conserving quartics, "
                  f"oracle match = {same_set}, runtime "
                  f"{elapsed * 1000:.0f}ms")
    assert same_set
    assert triples_ok
    assert quartics_ok
    assert elapsed < 1.0


def _energy_drift(traj, terms):
    states = [traj.state(k) for k in range(len(traj.times))]
    layout = traj.layout
    h = terms_to_matrix(terms, layout, sparse=layout.total_dim > 512)
    vals = np.array([np.vdot(s.data, h @ s.data).real for s in states])
    scale = max(1.0, np.abs(vals).max())
    return float(np.abs(vals - vals[0]).max() / scale)


def test_criterion_07_numerical_hygiene(default_3spdc, default_22spdc,
                                        default_hybrid, default_dce):
    drifts = {}
    energy = {}
    drifts["3spdc"] = default_3spdc[0].summary["norm_drift"]
    drifts["22spdc"] = default_22spdc[0].summary["norm_drift"]
    drifts["hybrid"] = default_hybrid[0].summary["norm_drift"]
    drifts["dce"] = default_dce[0].summary["norm_drift"]
    energy["3spdc"] = _energy_drift(default_3spdc[0].trajectory,
                                    triple_interaction(1.0))
    energy["22spdc"] = _energy_drift(default_22spdc[0].trajectory,
                                     pair_interaction(1.0))
    energy["hybrid"] = _energy_drift(
        default_hybrid[0].trajectory,
        hybrid_interaction(1.0, default_hybrid[0].config.jc_ratio))

    sweeps = {}
    for name, g0 in (("3spdc", 1.0), ("22spdc", None), ("hybrid-swap", 1.0),
                     ("dce-rabi", None)):
        cfg = ScenarioConfig(name=name, g0=g0, n_steps=41)
        rep = convergence_gate(cfg, [8, 10])
        sweeps[name] = max(rep.final_change.values())

    norm_ok = max(drifts.values()) < 1e-8
    energy_ok = max(energy.values()) < 1e-8
    sweep_ok = max(sweeps.values()) < 1e-6
    ok = norm_ok and energy_ok and sweep_ok
    report(7, ok, f"norm drift max {max(drifts.values()):.1e}, energy "
                  f"drift max {max(energy.values()):.1e}, cutoff 8->10 "
                  f"change max {max(sweeps.values()):.1e}")
    assert norm_ok, drifts
    assert energy_ok, energy
    assert sweep_ok, sweeps


def test_criterion_08_soundness(default_3spdc):
    rng = np.random.default_rng(99)
    mode_lay = RegisterLayout.bosons(3, 4)
    qubit_lay = RegisterLayout.qubits(3)
    worst = -np.inf
    for _ in range(120):
        state = random_separable_mixture(mode_lay, rng)
        worst = max(worst, optimize_vlf(state).value)
        for singled in range(3):
            worst = max(worst, hz_witness(state, singled).value)
        worst = max(worst, genuine_witness_sum(state).value)
        worst = max(worst, genuine_witness_max(state).value)
    for _ in range(80):
        state = random_separable_mixture(qubit_lay, rng)
        for ordering in ("normal", "antinormal"):
            for combine in ("max", "sum"):
                worst = max(worst, dv_genuine_witness(state, ordering,
                                                      combine).value)
    res, _ = default_3spdc
    confirmed = 0
    checked = 0
    for k in range(0, len(res.trajectory.times), 10):
        if res.witness_series["g2"][k] > 0:
            checked += 1
            state = res.trajectory.state(k)
            if any(negativity(state, {i}) > 1e-9 for i in range(3)):
                confirmed += 1
    ok = worst <= 1e-9 and checked > 0 and confirmed == checked
    report(8, ok, f"max witness value over 200 separable mixtures "
                  f"= {worst:.2e}; negativity backs detection at "
                  f"{confirmed}/{checked} sampled detection points")
    assert worst <= 1e-9
    assert checked > 0 and confirmed == checked


def test_criterion_09_ghz_w_discrimination():
    t0 = time.time()
    lay = RegisterLayout.qubits(3)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    op = np.kron(np.kron(sm, sm), sm)

    ghz = ghz_state(lay)
    w = w_state(lay)
    ghz_oracle = abs(ghz.data.conj() @ op @ ghz.data)
    w_oracle = abs(w.data.conj() @ op @ w.data)
    ghz_num = abs(dv_genuine_witness(ghz).components["triple"])
    w_num = abs(dv_genuine_witness(w).components["triple"])
    negs = [negativity(ghz, {i}) for i in range(3)]
    elapsed = time.time() - t0
    ok = (abs(ghz_num - 0.5) < 1e-12 and abs(ghz_num - ghz_oracle) < 1e-12
          and w_num < 1e-12 and w_oracle < 1e-12
          and all(abs(n - 0.5) < 1e-9 for n in negs) and elapsed < 1.0)
    report(9, ok, f"GHZ numerator {ghz_num:.6f} (oracle {ghz_oracle:.6f}), "
                  f"W numerator {w_num:.1e}, GHZ negativities "
                  f"{[round(n, 6) for n in negs]}, runtime "
                  f"{elapsed * 1000:.0f}ms")
    assert abs(ghz_num - 0.5) < 1e-12
    assert abs(ghz_num - ghz_oracle) < 1e-12
    assert w_num < 1e-12 and w_oracle < 1e-12
    for n in negs:
        assert n == pytest.approx(0.5, abs=1e-9)


def test_criterion_10_dce_regime(default_dce):
    res, elapsed = default_dce
    s = res.summary
    windows = s["windowed_n"]
    periods_covered = s["periods"]
    increments = np.diff(windows)
    ok = (s["windowed_monotone"] and periods_covered >= 10
          and s["qubit_excitation_max"] < 0.1
          and s["qubit_entropy_max"] < 0.1
          and elapsed < 120.0)
    report(10, ok, f"windowed <n> monotone over {periods_covered} periods "
                   f"(min increment {increments.min():.2e}), excitation "
                   f"max {s['qubit_excitation_max']:.4f}, entropy max "
                   f"{s['qubit_entropy_max']:.4f} nats, runtime "
                   f"{elapsed:.0f}s")
    assert s["windowed_monotone"]
    assert periods_covered >= 10
    assert s["qubit_excitation_max"] < 0.1
    assert s["qubit_entropy_max"] < 0.1
    assert elapsed < 120.0


def test_criterion_11_hybrid_swap(default_hybrid):
    res, elapsed = default_hybrid
    assert res.config.effective_cutoff == 4
    dv = res.witness_series["dv"]
    detected = dv > 0
    neg_all = np.minimum(np.minimum(res.witness_series["neg_q1"],
                                    res.witness_series["neg_q2"]),
                         res.witness_series["neg_q3"])
    both = detected & (neg_all > 0)
    ok = bool(np.any(both)) and elapsed < 600.0
    best = int(np.argmax(dv))
    report(11, ok, f"dv peak {dv[best]:.4f} at g0t={res.trajectory.times[best]:.3f} "
                   f"with min bipartition negativity "
                   f"{neg_all[best]:.4f}; {int(both.sum())} grid points "
                   f"show both signals, runtime {elapsed:.0f}s")
    assert np.any(both)
    assert elapsed < 600.0
