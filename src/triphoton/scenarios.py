"""End-to-end experiments: circuit parameters in, witness verdicts out.

Each scenario wires the circuit model, the rotating-wave reduction, the
truncated-register dynamics and the witness suite into one reproducible
run, in two steps: an evolution step (g0 and pump resolution,
Hamiltonian, initial state, grid) that returns the trajectory with its
recorded observables, and an analysis step that evaluates the witness
series and builds the summary. Nothing is random: the covariance witness
gives each grid point one deterministic verdict (certified, detected or
undecided), which the summary counts. Every evolution step runs
``evolve`` on the basis states the Hamiltonian reaches from the vacuum:
exactly for the static scenarios, by the fixed-step Magnus propagator
for the driven ``dce-rabi``, whose even-parity sector is half its
register. The summary's ``diagnostics`` records which path ran, on how
many states and, for the propagator, its error estimate.
Every analysis reads its moments and reduced states off the
trajectory's sector columns, as series and density stacks over the
grid, into the cores the one-state functions use. A cutoff sweep
reruns only the evolution step, so it shares the run's Hamiltonian,
pump check and evolution path, and records observables only.

Times in the down-conversion scenarios are quoted as the dimensionless
g0 * t; interaction-picture Hamiltonians are static there, so the free
mode rotation never enters the recorded moments (photon numbers and
moment moduli are picture-invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Sequence

import numpy as np

from .circuit import (
    CavityParams,
    SquidParams,
    coupling_table,
    effective_junction,
    mode_spectrum,
    three_spdc_coupling,
)
from .dynamics import (
    Cosine,
    HamiltonianSpec,
    Trajectory,
    TwoTone,
    Motional,
    Constant,
    cutoff_sweep,
    evolve,
    split_drive_branches,
)
from .errors import PumpMismatchError
from .hilbert import (
    RegisterLayout,
    _column_rows,
    _covariance,
    _entropies,
    _expect_rows,
    _purities,
    _reduce_columns,
    fock_state,
)
from .rwa import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    PAULI_MINUS,
    PAULI_PLUS,
    PAULI_Z,
    LadderMonomial,
    driven_cavity_terms,
    ensure_anharmonic,
    free_mode_terms,
    rwa_reduce,
)
from .witnesses import (
    _blocks,
    _dv_report,
    _mode_reports,
    _negativities,
    _vlf_report,
)

SCENARIO_NAMES = ("3spdc", "22spdc", "hybrid-swap", "dce-rabi")

_PUMP_TOL = 1e-6


def mono(factors, coeff=1.0) -> LadderMonomial:
    return LadderMonomial(tuple(factors), coeff)


@dataclass(frozen=True)
class CircuitConfig:
    """SQUID plus cavity inputs; ``e_bar_override`` replaces the derived
    junction energy (an explicit zero gives the free cavity)."""

    squid: SquidParams
    cavity: CavityParams
    e_bar_override: float | None = None


@dataclass(frozen=True)
class DceParams:
    """Single mode + qubit with a modulated coupling.

    Defaults are the repo-tuned pair-production regime: two tones at
    mode_freq +/- tone_delta make the second-order two-photon channel
    resonant while every first-order channel stays far detuned. The
    0.1-excitation and 0.1-nat ceilings quoted in the acceptance run are
    repo-defined constants, not published values.
    """

    mode_freq: float = 1.0
    qubit_freq: float = 12.37
    coupling: float = 0.1
    envelope: str = "two-tone"  # constant | cosine | two-tone | motional
    tone_delta: float = 0.35
    cosine_freq: float | None = None  # default: qubit_freq + mode_freq
    motional_velocity: float = 1.0
    motional_wavenumber: float = 1.0
    motional_origin: float = 0.0
    periods: int = 24
    steps_per_period: int = 8
    window_periods: int = 2


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    cutoff: int | None = None  # per-scenario default when None
    n_steps: int = 101
    horizon: float | None = None  # g0*t span; per-scenario default if None
    g0: float | None = None  # direct coupling; overrides the circuit path
    circuit: CircuitConfig | None = None
    pair_coupling: float = 1.0  # 22spdc direct coupling
    jc_ratio: float = 10.0  # hybrid swap: lambda_i = jc_ratio * g0
    dce: DceParams = field(default_factory=DceParams)

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}; "
                             f"choose from {SCENARIO_NAMES}")
        if self.cutoff is not None and self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")

    @property
    def effective_cutoff(self) -> int:
        if self.cutoff is not None:
            return self.cutoff
        return 4 if self.name == "hybrid-swap" else 8


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trajectory: Trajectory
    witness_series: dict[str, np.ndarray]
    summary: dict


_DEFAULT_HORIZON = {"3spdc": 0.2, "22spdc": 0.3, "hybrid-swap": 0.2}


def _grid(config: ScenarioConfig) -> np.ndarray:
    """Evenly spaced g0 * t grid up to the (default) horizon."""
    horizon = config.horizon if config.horizon is not None \
        else _DEFAULT_HORIZON[config.name]
    return np.linspace(0.0, horizon, config.n_steps)


def resolve_circuit(circuit: CircuitConfig, n_modes: int = 3):
    """Junction and ``n_modes``-mode spectrum for a circuit config."""
    eff = effective_junction(circuit.squid)
    e_bar = circuit.e_bar_override if circuit.e_bar_override is not None \
        else eff.e_bar
    return eff, mode_spectrum(circuit.cavity, e_bar, n_modes)


def _pump_tone(circuit: CircuitConfig, frequencies) -> float:
    """The pump tone of a circuit, its ``pump_frequency``, where 0 stands
    for the three-mode resonance w1 + w2 + w3. ``run`` checks this tone
    and ``rwa`` lists at it."""
    return circuit.squid.pump_frequency or float(np.sum(frequencies))


def _check_pump(circuit: CircuitConfig, frequencies, resonances,
                mismatch: str) -> None:
    """``PumpMismatchError`` with ``mismatch`` after the tone unless the
    circuit's pump tone lies within ``_PUMP_TOL`` of some resonance."""
    pump = _pump_tone(circuit, frequencies)
    if all(abs(pump - r) > _PUMP_TOL * r for r in resonances):
        raise PumpMismatchError(f"pump tone {pump:.9g} {mismatch}")


def _resolve_g0(config: ScenarioConfig) -> tuple[float, dict]:
    if config.g0 is not None:
        return float(config.g0), {"g0_source": "direct"}
    if config.circuit is None:
        raise ValueError("scenario needs either g0 or a circuit config")
    eff, spectrum = resolve_circuit(config.circuit)
    ensure_anharmonic(spectrum.frequencies)
    w_sum = float(np.sum(spectrum.frequencies))
    _check_pump(config.circuit, spectrum.frequencies, [w_sum],
                f"does not match the three-mode resonance {w_sum:.9g}")
    g0 = three_spdc_coupling(coupling_table(spectrum, eff),
                             config.circuit.squid.pump_amplitude)
    if g0 == 0.0:
        raise ValueError("circuit yields zero three-mode coupling; "
                         "check asymmetry, bias and pump amplitude")
    return g0, {
        "g0_source": "circuit",
        "mode_frequencies": [float(w) for w in spectrum.frequencies],
        "pump_frequency": w_sum,
    }


def triple_interaction(g0: float) -> list[LadderMonomial]:
    """Reduced three-mode down-conversion interaction
    -g0 (a1+ a2+ a3+ + a1 a2 a3)."""
    up = mono([(0, CREATE), (1, CREATE), (2, CREATE)], -g0)
    return [up, up.conjugate()]


def pair_interaction(g: float) -> list[LadderMonomial]:
    """Double two-mode down-conversion, i g (a1+ a2+ + a2+ a3+) + h.c.

    The +i phase is the pump-phase reference that puts the squeezing
    correlations into the x-x and p-p covariance blocks; with a real
    coupling they sit entirely in the x-p cross blocks, where the fixed
    quadrature combinations of the covariance witness provably never
    look.
    """
    t12 = mono([(0, CREATE), (1, CREATE)], 1j * g)
    t23 = mono([(1, CREATE), (2, CREATE)], 1j * g)
    return [t12, t12.conjugate(), t23, t23.conjugate()]


def cavity_hamiltonian(table, spectrum, pump_amplitude: float,
                       pump_frequency: float) -> HamiltonianSpec:
    """Full driven-cavity Hamiltonian in the lab frame: free modes plus
    every pumped interaction term with its cos(w_d t) envelope."""
    terms = driven_cavity_terms(table, pump_amplitude, spectrum.n_modes)
    spec = split_drive_branches(terms, pump_frequency)
    spec.static_terms.extend(free_mode_terms(spectrum.frequencies))
    return spec


def reduced_cavity_hamiltonian(table, spectrum, pump_amplitude: float,
                               kerr: str = "drop") -> list[LadderMonomial]:
    """Interaction-picture Hamiltonian after the rotating-wave
    reduction of the full pumped-cavity expansion, pumped at the
    three-mode resonance w1 + w2 + w3."""
    freqs = list(spectrum.frequencies)
    terms = driven_cavity_terms(table, pump_amplitude, spectrum.n_modes)
    return rwa_reduce(terms, freqs, float(np.sum(freqs)), kerr=kerr)


def _detection_windows(times: np.ndarray, values: np.ndarray) -> list:
    windows = []
    active = None
    for t, v in zip(times, values):
        if v > 0 and active is None:
            active = t
        elif v <= 0 and active is not None:
            windows.append([float(active), float(t)])
            active = None
    if active is not None:
        windows.append([float(active), float(times[-1])])
    return windows


def _mode_observables():
    return {
        "n1": mono([(0, NUMBER)]),
        "n2": mono([(1, NUMBER)]),
        "n3": mono([(2, NUMBER)]),
        "triple": mono([(0, ANNIHILATE), (1, ANNIHILATE), (2, ANNIHILATE)]),
    }


def _norm_drift(traj: Trajectory) -> float:
    return float(np.abs(traj.observables["norm"] - 1.0).max())


def _resolve_pair_coupling(config: ScenarioConfig) -> tuple[float, dict]:
    """Direct pair coupling; a circuit's pump tone, as ``_pump_tone``
    gives it, must sit on one of the two pair resonances w1+w2, w2+w3."""
    if config.circuit is not None:
        _, spectrum = resolve_circuit(config.circuit)
        w = spectrum.frequencies
        pairs = (w[0] + w[1], w[1] + w[2])
        _check_pump(config.circuit, w, pairs, "matches neither pair "
                    f"resonance {pairs[0]:.9g} / {pairs[1]:.9g}")
    return config.pair_coupling, {}


def _evolve_spdc(config: ScenarioConfig) -> tuple[Trajectory, dict]:
    """Vacuum evolved under the reduced triple (3spdc) or the double pair
    (22spdc, pumps at w1+w2 and w2+w3) down-conversion Hamiltonian;
    records photon numbers and the triple moment."""
    if config.name == "3spdc":
        g0, details = _resolve_g0(config)
        interaction = triple_interaction
    else:
        g0, details = _resolve_pair_coupling(config)
        interaction = pair_interaction
    layout = RegisterLayout.bosons(3, config.effective_cutoff)
    # time is measured in 1/g0; a switched-off pump freezes the state
    h = HamiltonianSpec(interaction(1.0 if g0 != 0.0 else 0.0))
    traj = evolve(h, fock_state(layout, (0, 0, 0)), _grid(config),
                  observables=_mode_observables())
    return traj, {"g0": float(g0), **details}


def _column_moments(traj: Trajectory):
    """``expect(factors)``: a monomial's moments over the grid, an array
    with one entry per grid point. Each monomial is applied once, to
    every column of the trajectory, through one row table."""
    return cache(partial(_expect_rows, layout=traj.layout, basis=traj.basis,
                         states=_column_rows(traj.columns)))


def _analyze_spdc(config: ScenarioConfig, traj: Trajectory,
                  details: dict) -> ScenarioResult:
    """Full witness suite over the grid, each series in one call, with
    each distinct moment (19 of 22) evaluated once on every column; one
    covariance-witness search per run over the grid; peaks and detection
    windows."""
    times = traj.times
    expect = _column_moments(traj)
    modes = traj.layout.boson_indices()
    reports = _mode_reports(expect, modes)
    covs = _covariance(expect, modes)
    vlf = _vlf_report(covs)
    verdicts = vlf.components["verdict"]
    blocks = np.abs(_blocks(covs))
    series = {f"i{p}": reports[f"hz_i{p}"].value for p in (1, 2, 3)}
    series["g1"] = reports["genuine_sum"].value
    series["g2"] = reports["genuine_max"].value
    series["s_opt"] = vlf.value
    series["cov_cross_max"] = (blocks * (1.0 - np.eye(3))).max(axis=(1, 2, 3))
    summary = {"scenario": config.name}
    for key, label in (("g2", "g2"), ("g1", "g1"), ("s_opt", "s"),
                       ("i1", "i1")):
        idx = int(np.argmax(series[key]))
        summary[f"{label}_peak"] = float(series[key][idx])
        summary[f"{label}_peak_time"] = float(times[idx])
    summary["windows"] = {
        "g2": _detection_windows(times, series["g2"]),
        "s_opt": _detection_windows(times, series["s_opt"]),
    }
    summary["s_certified_points"] = verdicts.count("certified")
    summary["s_undecided_points"] = verdicts.count("undecided")
    summary["s_ipm_iterations"] = sum(vlf.components["ipm_iterations"])
    summary["norm_drift"] = _norm_drift(traj)
    summary.update(details)
    if config.name == "3spdc":
        summary["cov_cross_max"] = float(series["cov_cross_max"].max())
    summary["diagnostics"] = {
        "s_gap_max": float(np.max(vlf.components["s_upper"]
                                  - series["s_opt"])),
        "s_kkt_pairs": sum(vlf.components["kkt_pairs"])}
    return ScenarioResult(config, traj, series, summary)


def hybrid_interaction(g0: float, jc: float) -> list[LadderMonomial]:
    """Triple down-conversion on three modes plus a resonant exchange
    coupling from each mode to its own qubit (register order: modes
    0, 1, 2 then qubits 3, 4, 5)."""
    terms = triple_interaction(g0)
    for i in range(3):
        swap = mono([(3 + i, PAULI_PLUS), (i, ANNIHILATE)], jc)
        terms += [swap, swap.conjugate()]
    return terms


def _eta_family_fidelity(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best overlap of each 3-qubit density matrix in a stack (n, 8, 8)
    with the (|ggg> + eta |eee>)/sqrt(1+eta^2) family; returns the
    fidelities and etas. The candidates are the two stationary etas and
    0, in that order, the first best one wins; below |rho_07| = 1e-15
    only 0 is a candidate."""
    p0, p7 = rhos[:, 0, 0].real, rhos[:, 7, 7].real
    a = np.abs(rhos[:, 0, 7])
    coherent = a >= 1e-15
    disc = np.sqrt((p7 - p0) ** 2 + 4 * a**2)
    two_a = np.where(coherent, 2 * a, 1.0)
    etas = np.stack([((p7 - p0) + disc) / two_a, ((p7 - p0) - disc) / two_a,
                     np.zeros_like(a)])
    fids = (p0 + 2 * a * etas + p7 * etas**2) / (1 + etas**2)
    fids[:2, ~coherent] = -np.inf
    return fids.max(axis=0), etas[fids.argmax(axis=0), np.arange(len(rhos))]


def _evolve_hybrid(config: ScenarioConfig) -> tuple[Trajectory, dict]:
    """Down-conversion feeding three resonant qubits; records photon
    numbers, the triple moment and the total qubit excitation."""
    g0, details = _resolve_g0(config) if (
        config.g0 is not None or config.circuit is not None) \
        else (1.0, {"g0_source": "default"})
    jc = config.jc_ratio  # in units of g0, matching the 1/g0 time scale
    layout = RegisterLayout(
        (("boson", config.effective_cutoff + 1),) * 3 + (("qubit", 2),) * 3)
    # time is measured in 1/g0 and the exchange terms are jc * g0, so a
    # zero coupling freezes the state
    on = 1.0 if g0 != 0.0 else 0.0
    h = HamiltonianSpec(hybrid_interaction(on, on * jc))
    obs = _mode_observables()
    obs["qubit_excitation"] = [
        mono([(q, PAULI_PLUS), (q, PAULI_MINUS)], 1.0) for q in (3, 4, 5)]
    traj = evolve(h, fock_state(layout, (0,) * 6), _grid(config),
                  observables=obs)
    return traj, {"g0": float(g0), "jc_ratio": float(jc), **details}


def _analyze_hybrid(config: ScenarioConfig, traj: Trajectory,
                    details: dict) -> ScenarioResult:
    """Tracks how the genuinely tripartite moment structure transfers
    from the field register to the qubit register. The field and qubit
    moments and the qubits' reduced states are read off the sector
    columns."""
    tau = traj.times
    expect = _column_moments(traj)
    sites = [3, 4, 5]
    rhos = _reduce_columns(traj.layout, traj.basis, traj.columns, sites)
    series = {"dv": _dv_report(expect, sites).value}
    for q in range(3):
        series[f"neg_q{q + 1}"] = _negativities(rhos, (2, 2, 2), [q])
    series["g2_field"] = _mode_reports(expect, [0, 1, 2])["genuine_max"].value
    series["swap_fidelity"], series["swap_eta"] = _eta_family_fidelity(rhos)
    series["qubit_purity"] = _purities(rhos)

    dv_idx = int(np.argmax(series["dv"]))
    all_neg = np.minimum(np.minimum(series["neg_q1"], series["neg_q2"]),
                         series["neg_q3"])
    summary = {
        "scenario": "hybrid-swap",
        "dv_peak": float(series["dv"][dv_idx]),
        "dv_peak_time": float(tau[dv_idx]),
        "neg_min_at_dv_peak": float(all_neg[dv_idx]),
        "windows": {
            "dv": _detection_windows(tau, series["dv"]),
            "all_bipartitions_negative": _detection_windows(tau, all_neg),
        },
        "swap_fidelity_peak": float(series["swap_fidelity"].max()),
        "norm_drift": _norm_drift(traj),
    }
    summary.update(details)
    return ScenarioResult(config, traj, series, summary)


def dce_envelope(p: DceParams):
    if p.envelope == "constant":
        return Constant(p.coupling)
    if p.envelope == "cosine":
        freq = p.cosine_freq if p.cosine_freq is not None \
            else p.qubit_freq + p.mode_freq
        return Cosine(p.coupling, freq)
    if p.envelope == "two-tone":
        return TwoTone(p.coupling, p.mode_freq + p.tone_delta,
                       p.coupling, p.mode_freq - p.tone_delta)
    if p.envelope == "motional":
        return Motional(v=p.motional_velocity, k=p.motional_wavenumber,
                        x0=p.motional_origin)
    raise ValueError(f"unknown envelope {p.envelope!r}")


def _evolve_dce(config: ScenarioConfig) -> tuple[Trajectory, dict]:
    """Rabi model with a modulated coupling: photon pair production from
    vacuum while the qubit stays close to its ground state. Records the
    photon number, the two-photon moment and the qubit excitation over
    ``periods`` modulation periods (``n_steps`` does not apply)."""
    p = config.dce
    layout = RegisterLayout(
        (("boson", config.effective_cutoff + 1), ("qubit", 2)))
    static = [mono([(0, CREATE), (0, ANNIHILATE)], p.mode_freq),
              mono([(1, PAULI_Z)], p.qubit_freq / 2.0)]
    env = dce_envelope(p)
    coupling_ops = [mono([(1, PAULI_PLUS), (0, CREATE)]),
                    mono([(1, PAULI_PLUS), (0, ANNIHILATE)]),
                    mono([(1, PAULI_MINUS), (0, CREATE)]),
                    mono([(1, PAULI_MINUS), (0, ANNIHILATE)])]
    h = HamiltonianSpec(static, [(t, env) for t in coupling_ops])

    t_period = 2.0 * np.pi / p.mode_freq
    grid = np.linspace(0.0, p.periods * t_period,
                       p.periods * p.steps_per_period + 1)
    traj = evolve(h, fock_state(layout, (0, 0)), grid, observables={
        "n": mono([(0, NUMBER)]),
        "pair": mono([(0, ANNIHILATE), (0, ANNIHILATE)]),
        "qubit_excitation": mono([(1, PAULI_PLUS), (1, PAULI_MINUS)]),
    })
    return traj, {}


def _analyze_dce(config: ScenarioConfig, traj: Trajectory,
                 details: dict) -> ScenarioResult:
    """Qubit reduced entropy per grid point; the summary carries
    windowed photon-number averages (window = ``window_periods``
    modulation periods) and their monotonicity flag."""
    p = config.dce
    entropy = _entropies(
        _reduce_columns(traj.layout, traj.basis, traj.columns, [1]))
    series = {"qubit_entropy": entropy}

    samples_per_window = p.window_periods * p.steps_per_period
    n_vals = traj.observables["n"].real[1:]
    n_windows = len(n_vals) // samples_per_window
    windowed = n_vals[:n_windows * samples_per_window] \
        .reshape(n_windows, samples_per_window).mean(axis=1)
    summary = {
        "scenario": "dce-rabi",
        "envelope": p.envelope,
        "n_final": float(traj.observables["n"].real[-1]),
        "pair_final": float(np.abs(traj.observables["pair"][-1])),
        "windowed_n": [float(v) for v in windowed],
        "windowed_monotone": bool(np.all(np.diff(windowed) > 0)),
        "window_periods": p.window_periods,
        "periods": p.periods,
        "qubit_excitation_max": float(
            traj.observables["qubit_excitation"].real.max()),
        "qubit_entropy_max": float(entropy.max()),
        "norm_drift": _norm_drift(traj),
    }
    return ScenarioResult(config, traj, series, summary)


# Each scenario is an evolution step, config -> (Trajectory, details),
# and an analysis step that adds witness series and the summary;
# ``details`` holds the summary fields the set-up resolved (g0 and its
# source).
_STEPS = {
    "3spdc": (_evolve_spdc, _analyze_spdc),
    "22spdc": (_evolve_spdc, _analyze_spdc),
    "hybrid-swap": (_evolve_hybrid, _analyze_hybrid),
    "dce-rabi": (_evolve_dce, _analyze_dce),
}


def sweep_observables(config: ScenarioConfig, cutoff: int) -> dict:
    """Scenario observables at one cutoff, for convergence gating.

    Reruns only the scenario's own evolution step (same Hamiltonian,
    pump check and evolution path) on the run's grid capped at 41
    points, and returns every recorded observable except ``norm``.
    Witness series are not evaluated.
    """
    evolve_step, _ = _STEPS[config.name]
    return _gated(evolve_step(replace(config, cutoff=cutoff,
                                      n_steps=min(config.n_steps, 41)))[0])


def _gated(traj: Trajectory) -> dict:
    """A trajectory's recorded observables except ``norm``."""
    return {k: v for k, v in traj.observables.items() if k != "norm"}


def convergence_gate(config: ScenarioConfig, cutoffs: Sequence[int]):
    """Cutoff sweep of a scenario config's observables over the cutoffs."""
    return cutoff_sweep(partial(sweep_observables, config), cutoffs)


def run_scenario(config: ScenarioConfig,
                 check_convergence: bool = False) -> ScenarioResult:
    """Run a scenario's evolution step, then its analysis step, and put
    the evolution's diagnostics ahead of the analysis's in the summary;
    optionally gate the run's observables on one more evolution, at the
    cutoff + 2 on its grid, and record the verdict in the summary."""
    evolve_step, analyze = _STEPS[config.name]
    result = analyze(config, *evolve_step(config))
    analysis = result.summary.pop("diagnostics", {})
    result.summary["diagnostics"] = result.trajectory.diagnostics | analysis
    if check_convergence:
        cutoff = config.effective_cutoff
        runs = {cutoff: result.trajectory, cutoff + 2: evolve_step(
            replace(config, cutoff=cutoff + 2))[0]}
        report = cutoff_sweep(lambda c: _gated(runs[c]), list(runs))
        result.summary["converged"] = report.converged
        result.summary["convergence_final_change"] = {
            k: float(v) for k, v in report.final_change.items()}
    return result
