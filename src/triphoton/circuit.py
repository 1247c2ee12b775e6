"""Circuit model: SQUID-terminated one-dimensional cavity.

Derives the effective junction parameters of a slightly asymmetric,
weakly flux-pumped SQUID, the normal-mode spectrum of the cavity it
terminates, and the inter-mode coupling coefficients that feed the
driven Hamiltonian.

Unit conventions used throughout the package: hbar = 1 and the reduced
flux quantum phi0 = 1, so flux biases are angles in radians and every
energy is a rate in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularBiasError

PHI0 = 1.0  # reduced flux quantum in internal units

# Keep clear of the tan singularity at half-integer multiples of pi.
_SINGULAR_BIAS_MARGIN = 1e-6


@dataclass(frozen=True)
class SquidParams:
    """Physical inputs of the two-junction SQUID.

    Energies in rad/s, capacitances in F, fluxes in units of phi0.
    ``flux_bias`` is the static external flux, ``pump_amplitude`` the
    small oscillating component at ``pump_frequency``.
    """

    ej1: float
    ej2: float
    c1: float
    c2: float
    flux_bias: float
    pump_amplitude: float
    pump_frequency: float = 0.0

    def __post_init__(self):
        if self.ej1 <= 0 or self.ej2 <= 0:
            raise ValueError("Josephson energies must be positive")
        if abs(self.asymmetry) >= 0.2:
            raise ValueError(
                f"junction asymmetry {self.asymmetry:.3f} outside the "
                "small-asymmetry regime (|.| < 0.2)"
            )
        if not abs(self.pump_amplitude) < 0.1:
            raise ValueError("pump amplitude must stay below 0.1 phi0")

    @property
    def asymmetry(self) -> float:
        return (self.ej2 - self.ej1) / (self.ej1 + self.ej2)


@dataclass(frozen=True)
class EffectiveJunction:
    """Single effective junction replacing the SQUID.

    ``e_bar`` is the static effective Josephson energy, ``delta_e`` the
    pump-induced modulation of that energy per unit flux, ``delta_alpha``
    the modulation amplitude of the effective phase offset, and
    ``c_total`` the summed junction capacitance.
    """

    e_bar: float
    delta_e: float
    delta_alpha: float
    c_total: float


@dataclass(frozen=True)
class CavityParams:
    """One-dimensional cavity: length (m), capacitance and inductance
    per unit length (F/m, H/m)."""

    length: float
    cap_per_len: float
    ind_per_len: float

    def __post_init__(self):
        if self.length <= 0 or self.cap_per_len <= 0 or self.ind_per_len <= 0:
            raise ValueError("cavity parameters must be strictly positive")


@dataclass(frozen=True)
class ModeSpectrum:
    """Solved normal modes of the terminated cavity.

    ``zero_point`` holds the factor sqrt(0.5 * sqrt(l_n / c_n)) relating
    the mode flux to a_n + a_n^dagger.
    """

    wavenumbers: np.ndarray
    mode_caps: np.ndarray
    mode_inds: np.ndarray
    frequencies: np.ndarray
    edge_amplitudes: np.ndarray
    zero_point: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.wavenumbers)


@dataclass(frozen=True)
class CouplingTable:
    """Inter-mode coupling coefficients of the pumped junction.

    Plain tensors multiply mode fluxes; the tilded variants absorb one
    zero-point factor per index and multiply ladder-operator sums.
    All tensors are fully symmetric under index permutation.
    """

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    n4: np.ndarray
    m4: np.ndarray
    m1_tilde: np.ndarray
    m2_tilde: np.ndarray
    m3_tilde: np.ndarray
    n4_tilde: np.ndarray
    m4_tilde: np.ndarray


def exact_josephson_energy(ej1: float, ej2: float, loop_flux: float) -> float:
    """Full two-junction effective Josephson energy for a loop flux
    (in phi0 units), without any small-asymmetry expansion."""
    return math.sqrt(
        ej1**2 + ej2**2 + 2.0 * ej1 * ej2 * math.cos(loop_flux / PHI0)
    )


def effective_junction(squid: SquidParams) -> EffectiveJunction:
    """Reduce the SQUID to one flux-tunable junction.

    Returns the small-asymmetry, weak-pump expansion:

        e_bar       = 2 ej1 sqrt(1 + 2 Delta) |cos(bias)|
        delta_e     = (e_bar / phi0) tan(bias)
        delta_alpha = sec^2(bias/2) Delta / (1 + tan^2(bias/2) Delta^2)

    with Delta the junction asymmetry and bias the static flux in phi0
    units. Biases at half-integer multiples of pi are rejected: tan(bias)
    diverges there and the expansion loses meaning.
    """
    delta = squid.asymmetry
    bias = squid.flux_bias / PHI0

    # distance from the nearest tan singularity bias = (k + 1/2) pi
    if abs(math.cos(bias)) < _SINGULAR_BIAS_MARGIN:
        raise SingularBiasError(
            f"flux bias {squid.flux_bias!r} sits on a tan singularity; "
            "the effective-junction expansion is invalid there"
        )

    e_bar = 2.0 * squid.ej1 * math.sqrt(1.0 + 2.0 * delta) * abs(math.cos(bias))
    delta_e = (e_bar / PHI0) * math.tan(bias)
    half = bias / 2.0
    delta_alpha = (delta / math.cos(half) ** 2) / (
        1.0 + math.tan(half) ** 2 * delta**2
    )
    return EffectiveJunction(
        e_bar=e_bar,
        delta_e=delta_e,
        delta_alpha=delta_alpha,
        c_total=squid.c1 + squid.c2,
    )


def _branch_root(target: float, n: int) -> float:
    """Root of x tan(x) = target on the branch (n pi, n pi + pi/2).

    Bisection on the bracketing interval followed by one Newton polish;
    x tan(x) - target goes from -target to +infinity across the branch,
    so the bracket always holds for target > 0.
    """
    eps = 1e-9 * math.pi
    lo = n * math.pi + eps
    hi = n * math.pi + math.pi / 2.0 - eps

    def f(x: float) -> float:
        return x * math.tan(x) - target

    flo = f(lo)
    fhi = f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise RuntimeError(f"branch {n} lost its bracket: f={flo:.3e},{fhi:.3e}")
    while hi - lo > 1e-15 * lo:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    # Newton polish: d/dx [x tan x] = tan x + x / cos^2 x
    t = math.tan(x)
    slope = t + x * (1.0 + t * t)
    if slope != 0.0:
        step = (x * t - target) / slope
        if lo <= x - step <= hi:
            x -= step
    return x


def solve_wavenumbers(
    cavity: CavityParams, e_bar: float, n_modes: int
) -> np.ndarray:
    """Smallest positive wavenumbers of the SQUID-terminated cavity.

    The modes solve k d tan(k d) = l d e_bar / (2 phi0^2); each root is
    bracketed on its own branch between consecutive tangent poles. For
    e_bar = 0 the boundary is open at both ends and k_n d = n pi exactly
    (n >= 1; the constant zero mode is not a cavity mode).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if e_bar < 0:
        raise ValueError("e_bar must be non-negative")
    d = cavity.length
    target = cavity.ind_per_len * d * e_bar / (2.0 * PHI0**2)
    if target < 1e-14:
        return np.array([n * math.pi / d for n in range(1, n_modes + 1)])
    return np.array([_branch_root(target, n) / d for n in range(n_modes)])


def mode_spectrum(
    cavity: CavityParams, e_bar: float, n_modes: int
) -> ModeSpectrum:
    """Wavenumbers plus per-mode capacitance, inductance, frequency,
    edge amplitude and zero-point flux factor.

    Per mode: c_n = (c d / 2)(1 + sinc), 1/l_n = (k^2 d^2 / 2 l d)(1 - sinc)
    with sinc = sin(2 k d)/(2 k d), and omega_n = 1/sqrt(l_n c_n).
    """
    k = solve_wavenumbers(cavity, e_bar, n_modes)
    d = cavity.length
    kd = k * d
    sinc = np.sin(2.0 * kd) / (2.0 * kd)
    caps = (cavity.cap_per_len * d / 2.0) * (1.0 + sinc)
    inv_inds = (kd**2 / (2.0 * cavity.ind_per_len * d)) * (1.0 - sinc)
    inds = 1.0 / inv_inds
    freqs = 1.0 / np.sqrt(inds * caps)
    edges = np.cos(kd)
    zp = np.sqrt(0.5 * np.sqrt(inds / caps))
    return ModeSpectrum(
        wavenumbers=k,
        mode_caps=caps,
        mode_inds=inds,
        frequencies=freqs,
        edge_amplitudes=edges,
        zero_point=zp,
    )


def coupling_table(spectrum: ModeSpectrum, eff: EffectiveJunction) -> CouplingTable:
    """Coupling coefficients of the pumped junction over the given modes.

    The rank-r tensor carries a product of r edge amplitudes times a
    constant prefactor:

        m1_n     = (e_bar delta_alpha / phi0)   cos(k_n d)
        m2_nm    = (e_bar / 2 phi0^2)           cos cos
        m3_nmo   = (e_bar delta_alpha / 6 phi0^3) cos cos cos
        n4_nmop  = (e_bar / 24 phi0^4)          cos cos cos cos
        m4_nmop  = (delta_e / 24 phi0^4)        cos cos cos cos

    Tilded variants additionally absorb one zero-point factor per index.
    """
    cos = spectrum.edge_amplitudes
    zp = spectrum.zero_point
    czp = cos * zp

    def outer(vec: np.ndarray, rank: int) -> np.ndarray:
        # product over a sorted index tuple, so that any permutation of
        # the indices evaluates in the same float order (exact symmetry)
        n = len(vec)
        out = np.empty((n,) * rank)
        for idx in np.ndindex(out.shape):
            p = 1.0
            for i in sorted(idx):
                p *= vec[i]
            out[idx] = p
        return out

    e = eff.e_bar
    da = eff.delta_alpha
    tensors = {}
    for name, prefactor, rank in (
            ("m1", e * da / PHI0, 1),
            ("m2", e / (2.0 * PHI0**2), 2),
            ("m3", e * da / (6.0 * PHI0**3), 3),
            ("n4", e / (24.0 * PHI0**4), 4),
            ("m4", eff.delta_e / (24.0 * PHI0**4), 4)):
        tensors[name] = prefactor * outer(cos, rank)
        tensors[f"{name}_tilde"] = prefactor * outer(czp, rank)
    return CouplingTable(**tensors)


def three_spdc_coupling(table: CouplingTable, pump_amplitude: float) -> float:
    """Magnitude of the triple down-conversion rate for the three lowest
    modes: g0 = |3 lambda m3_tilde[0,1,2]|. The sign lives in the
    Hamiltonian, not here."""
    if table.m3_tilde.shape[0] < 3:
        raise ValueError("need at least three modes for triple down-conversion")
    return abs(3.0 * pump_amplitude * table.m3_tilde[0, 1, 2])
