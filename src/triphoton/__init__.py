"""Desk-scale toolkit for three-mode parametric down-conversion in a
SQUID-terminated cavity and the entanglement witnesses that detect its
genuinely tripartite, non-Gaussian output states.

Internal units: hbar = 1, reduced flux quantum = 1, energies in rad/s.
Composite registers are big-endian (subsystem 0 varies slowest);
quadratures use x = (a + a+)/sqrt(2), so the vacuum variance is 1/2.
"""

from .circuit import (
    CavityParams,
    CouplingTable,
    EffectiveJunction,
    ModeSpectrum,
    SquidParams,
    coupling_table,
    effective_junction,
    mode_spectrum,
    solve_wavenumbers,
    three_spdc_coupling,
)
from .dynamics import (
    Constant,
    Cosine,
    HamiltonianSpec,
    Motional,
    Trajectory,
    TwoTone,
    evolve,
    split_drive_branches,
)
from .errors import (
    ConfigError,
    DegenerateFrequencyError,
    IntegrationError,
    LayoutMismatchError,
    PumpMismatchError,
    SingularBiasError,
    TriphotonError,
)
from .hilbert import (
    QuantumState,
    RegisterLayout,
    covariance_matrix,
    expect_monomial,
    fock_state,
)
from .rwa import (
    LadderMonomial,
    TermClassification,
    classify_terms,
    driven_cavity_terms,
    ensure_anharmonic,
    free_mode_terms,
    rwa_reduce,
)
from .scenarios import (
    CircuitConfig,
    ConvergenceReport,
    DceParams,
    ScenarioConfig,
    ScenarioResult,
    cavity_hamiltonian,
    convergence_gate,
    reduced_cavity_hamiltonian,
    run_scenario,
)
from .witnesses import (
    VlfParams,
    WitnessReport,
    dv_genuine_witness,
    negativity,
    optimize_vlf,
)

__all__ = [
    "CavityParams", "CouplingTable", "EffectiveJunction", "ModeSpectrum",
    "SquidParams", "coupling_table", "effective_junction", "mode_spectrum",
    "solve_wavenumbers", "three_spdc_coupling",
    "Constant", "Cosine", "HamiltonianSpec", "Motional", "Trajectory",
    "TwoTone", "evolve", "split_drive_branches",
    "ConfigError", "DegenerateFrequencyError", "IntegrationError",
    "LayoutMismatchError", "PumpMismatchError", "SingularBiasError",
    "TriphotonError",
    "QuantumState", "RegisterLayout", "covariance_matrix", "expect_monomial",
    "fock_state",
    "LadderMonomial", "TermClassification", "classify_terms",
    "driven_cavity_terms", "ensure_anharmonic", "free_mode_terms",
    "rwa_reduce",
    "CircuitConfig", "ConvergenceReport", "DceParams", "ScenarioConfig",
    "ScenarioResult",
    "cavity_hamiltonian", "convergence_gate", "reduced_cavity_hamiltonian",
    "run_scenario",
    "VlfParams", "WitnessReport", "dv_genuine_witness", "negativity",
    "optimize_vlf",
]
