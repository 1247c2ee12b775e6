"""Entanglement witnesses for three-mode and three-qubit registers.

Two families are implemented. The covariance-based family (the van
Loock-Furusawa combination S) sees entanglement written into second
quadrature moments. The moment-based family (pairwise inseparability
I_alpha, the genuine witnesses built from |<a1 a2 a3>| and the qubit
analog) sees entanglement written into third and fourth moments, which
covariances miss entirely. A positive value always means "detected";
non-positive values are inconclusive.

The partial-transpose negativity is included as the independent
necessary-condition oracle for cross-checks: a sound witness may only
fire on states with nonzero negativity across some bipartition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import LayoutMismatchError
from .hilbert import (
    BOSON,
    QUBIT,
    QuantumState,
    RegisterLayout,
    covariance_matrix,
    expect_monomial,
    fock_state,
)
from .rwa import ANNIHILATE, CREATE, PAULI_MINUS, PAULI_PLUS


@dataclass(frozen=True)
class VlfParams:
    """Free real weights of the covariance witness."""

    g: tuple[float, float, float]
    h: tuple[float, float, float]

    def __post_init__(self):
        if len(self.g) != 3 or len(self.h) != 3:
            raise ValueError("g and h are 3-vectors")
        if not (np.all(np.isfinite(self.g)) and np.all(np.isfinite(self.h))):
            raise ValueError("witness parameters must be finite")


@dataclass
class WitnessReport:
    name: str
    value: float
    detects: bool
    components: dict
    parameters: VlfParams | None = None

    def argmax_bipartition(self) -> int | None:
        """1-based index of the singled subsystem attaining the largest
        bound term, where the formula has per-bipartition terms."""
        terms = [(k, v) for k, v in self.components.items()
                 if k.startswith("term_")]
        if not terms:
            return None
        key, _ = max(terms, key=lambda kv: kv[1])
        return int(key.split("_")[1])


def _report(name, value, components, parameters=None) -> WitnessReport:
    value = float(value)
    return WitnessReport(name=name, value=value, detects=value > 0.0,
                         components=components, parameters=parameters)


_KIND_NOUNS = {BOSON: ("bosonic modes", "bosonic"),
               QUBIT: ("qubits", "a qubit")}


def _three_sites(state: QuantumState, sites, kind: str) -> list[int]:
    """The three subsystems of the given kind a witness acts on; all of
    the register's when ``sites`` is None."""
    layout = state.layout
    plural, adjective = _KIND_NOUNS[kind]
    sites = list(sites) if sites is not None else \
        [i for i, (k, _) in enumerate(layout.subsystems) if k == kind]
    if len(sites) != 3:
        raise LayoutMismatchError(f"witness needs exactly three {plural}")
    for i in sites:
        layout.check_index(i)
        if layout.kind(i) != kind:
            raise LayoutMismatchError(f"subsystem {i} is not {adjective}")
    return sites


def vlf_value(cov: np.ndarray, g, h) -> float:
    """Covariance witness from a precomputed 6x6 (x..., p...) matrix:

        S = min over singled mode i of |h_i g_i| + |h_j g_j + h_k g_k|
            - sum_ij g_i g_j C_x[i,j] - sum_ij h_i h_j C_p[i,j]
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    cx = cov[:3, :3]
    cp = cov[3:, 3:]
    bound = min(
        abs(h[i] * g[i]) + abs(h[j] * g[j] + h[k] * g[k])
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )
    return float(bound - g @ cx @ g - h @ cp @ h)


def vlf_witness(state: QuantumState, params: VlfParams,
                modes=None) -> WitnessReport:
    """Covariance (Gaussian) genuine-entanglement witness at fixed
    weights; positive S certifies genuine tripartite entanglement."""
    modes = _three_sites(state, modes, BOSON)
    cov = covariance_matrix(state, modes)
    value = vlf_value(cov, params.g, params.h)
    return _report("vlf_s", value,
                   {"cov_x": cov[:3, :3], "cov_p": cov[3:, 3:]},
                   parameters=params)


def optimize_vlf(state: QuantumState, restarts: int = 20, seed: int = 0,
                 modes=None, max_iter: int = 300) -> WitnessReport:
    """Best covariance witness over the free weights.

    Certificate first. With lx = lambda_min(C_x) and lp = lambda_min(C_p)
    from the state's covariance matrix, lx > 0, lp > 0 and lx lp >= 1/4
    prove S <= 0 for every weight, so the maximum is exactly 0 at
    g = h = 0 and no search runs. Proof: for each pair of weights,
    |h_i g_i| <= lx g_i^2 + h_i^2 / (4 lx), so by the triangle inequality
    every bound term satisfies

        B_i <= sum_l |h_l g_l| <= lx |g|^2 + |h|^2 / (4 lx)
            <= lx |g|^2 + lp |h|^2 <= g^T C_x g + h^T C_p h,

    using 1 / (4 lx) <= lp. Hence S = min_i B_i - g^T C_x g - h^T C_p h
    <= 0. The test lambda_min >= 1/2 for both blocks (vacuum variance)
    is the special case lx = lp = 1/2. The comparison carries no
    tolerance: a roundoff miss only falls back to the search.

    Otherwise, simplex (Nelder-Mead) local searches from ``restarts``
    random points in the box [-2, 2]^6; deterministic for a fixed seed.
    S is homogeneous of degree 2 in (g, h), so its sign cannot depend on
    the overall scale and the search stays confined to the box (a
    quadratic penalty pulls excursions back); an unconstrained maximum
    would be unbounded for any detected state. The covariance matrix is
    computed once per state.

    Components hold the covariance blocks, ``certified`` and
    ``restarts``, the number of searches actually run (0 when
    certified).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    modes = _three_sites(state, modes, BOSON)
    cov = covariance_matrix(state, modes)
    certified = _vlf_certified(cov)
    if certified:
        best, best_x, restarts = 0.0, np.zeros(6), 0
    else:
        best, best_x = _search_vlf(cov, restarts, seed, max_iter)
    params = VlfParams(g=tuple(best_x[:3]), h=tuple(best_x[3:]))
    return _report("vlf_s_opt", best,
                   {"cov_x": cov[:3, :3], "cov_p": cov[3:, 3:],
                    "certified": certified, "restarts": restarts},
                   parameters=params)


def _vlf_certified(cov: np.ndarray) -> bool:
    """The certificate of ``optimize_vlf``: lx > 0, lp > 0, lx lp >= 1/4."""
    lx = np.linalg.eigvalsh(cov[:3, :3])[0]
    lp = np.linalg.eigvalsh(cov[3:, 3:])[0]
    return bool(lx > 0.0 and lp > 0.0 and lx * lp >= 0.25)


def _search_vlf(cov: np.ndarray, restarts: int, seed: int,
                max_iter: int) -> tuple[float, np.ndarray]:
    """Nelder-Mead search of ``optimize_vlf``: the best S and its
    weights (g, h) as one 6-vector; g = h = 0 counts as a candidate."""
    rng = np.random.default_rng(seed)

    def objective(x):
        xc = np.clip(x, -2.0, 2.0)
        penalty = 100.0 * float(np.sum((x - xc) ** 2))
        return -vlf_value(cov, xc[:3], xc[3:]) + penalty

    best_x = np.zeros(6)
    best = -objective(best_x)
    for _ in range(restarts):
        x0 = rng.uniform(-2.0, 2.0, size=6)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-10,
                                "fatol": 1e-10})
        if -res.fun > best:
            best = -res.fun
            best_x = np.clip(res.x, -2.0, 2.0)
    return best, best_x


# The moment witnesses share one inequality (Hillery-Zubairy):
#
#     |<L1 L2 L3>| - combine over singled alpha of
#         sqrt(<M_alpha> <M_beta M_gamma>)
#
# with L the lowering operator (a for modes, sigma- for qubits) and
# M = L+ L (normal ordering) or L L+ (antinormal). The combine rule is
# a single alpha (pairwise inseparability), the max or the sum over
# alpha (genuine tripartite entanglement).

_RAISING = {ANNIHILATE: CREATE, PAULI_MINUS: PAULI_PLUS}


def _triple(state: QuantumState, sites, lower: str) -> complex:
    return expect_monomial(state, tuple((s, lower) for s in sites))


def _bound_moments(state: QuantumState, sites, lower: str, ordering: str,
                   singled=(0, 1, 2)) -> dict[int, tuple[float, float]]:
    """(<M_alpha>, <M_beta M_gamma>) real parts per singled position."""
    pair = (_RAISING[lower], lower) if ordering == "normal" \
        else (lower, _RAISING[lower])

    def m(site):
        return ((site, pair[0]), (site, pair[1]))

    out = {}
    for p in singled:
        beta, gamma = [s for q, s in enumerate(sites) if q != p]
        out[p] = (expect_monomial(state, m(sites[p])).real,
                  expect_monomial(state, m(beta) + m(gamma)).real)
    return out


def _moment_witness(name: str, triple: complex, moments,
                    combine) -> WitnessReport:
    """Report for the shared inequality; ``combine`` is "max", "sum" or
    the position of a single singled subsystem."""
    terms = {p: np.sqrt(max(single, 0.0) * max(pair, 0.0))
             for p, (single, pair) in moments.items()}
    if isinstance(combine, int):
        single, pair = moments[combine]
        return _report(name, abs(triple) - terms[combine], {
            "triple": triple, "n_singled": single, "n_pair": pair})
    comps = {"triple": triple}
    comps.update({f"term_{p + 1}": t for p, t in terms.items()})
    bound = max(terms.values()) if combine == "max" else sum(terms.values())
    return _report(name, abs(triple) - bound, comps)


def hz_witness(state: QuantumState, singled: int = 0,
               modes=None) -> WitnessReport:
    """Pairwise inseparability of one mode from the other two:

        I_alpha = |<a1 a2 a3>| - sqrt(<N_alpha> <N_beta N_gamma>)

    Positive values rule out separability across the alpha | beta gamma
    split only; this is not yet a genuine-entanglement statement.
    """
    modes = _three_sites(state, modes, BOSON)
    if singled not in (0, 1, 2):
        raise LayoutMismatchError("singled mode index must be 0, 1 or 2")
    return _moment_witness(
        f"hz_i{singled + 1}", _triple(state, modes, ANNIHILATE),
        _bound_moments(state, modes, ANNIHILATE, "normal", (singled,)),
        singled)


def genuine_witness_sum(state: QuantumState, modes=None) -> WitnessReport:
    """Genuine tripartite witness with the triangle-inequality bound and
    anti-normally ordered moments:

        |<a1 a2 a3>| - sum over singled alpha of
            sqrt(<a_alpha a_alpha+> <a_beta a_beta+ a_gamma a_gamma+>)
    """
    modes = _three_sites(state, modes, BOSON)
    return _moment_witness(
        "genuine_sum", _triple(state, modes, ANNIHILATE),
        _bound_moments(state, modes, ANNIHILATE, "antinormal"), "sum")


def genuine_witness_max(state: QuantumState, modes=None) -> WitnessReport:
    """Sharper genuine tripartite witness: a convex mixture is bounded by
    its largest branch, so the sum collapses to a max and the moments
    are photon-number ones:

        |<a1 a2 a3>| - max over singled alpha of
            sqrt(<N_alpha> <N_beta N_gamma>)
    """
    modes = _three_sites(state, modes, BOSON)
    return _moment_witness(
        "genuine_max", _triple(state, modes, ANNIHILATE),
        _bound_moments(state, modes, ANNIHILATE, "normal"), "max")


def mode_moment_witnesses(state: QuantumState,
                          modes=None) -> dict[str, WitnessReport]:
    """I_1..I_3, genuine_sum and genuine_max, keyed by report name, from
    one evaluation of each moment they share."""
    modes = _three_sites(state, modes, BOSON)
    triple = _triple(state, modes, ANNIHILATE)
    normal = _bound_moments(state, modes, ANNIHILATE, "normal")
    out = {f"hz_i{p + 1}": _moment_witness(f"hz_i{p + 1}", triple, normal, p)
           for p in range(3)}
    out["genuine_sum"] = _moment_witness(
        "genuine_sum", triple,
        _bound_moments(state, modes, ANNIHILATE, "antinormal"), "sum")
    out["genuine_max"] = _moment_witness("genuine_max", triple, normal, "max")
    return out


def dv_genuine_witness(state: QuantumState, ordering: str = "normal",
                       combine: str = "max", qubits=None) -> WitnessReport:
    """Qubit analog of the genuine witnesses with sigma- replacing a:

        |<s1- s2- s3->| - combine over alpha of
            sqrt(<m_alpha> <m_beta m_gamma>)

    where m = sigma+ sigma- for normal ordering (excited population) or
    sigma- sigma+ for antinormal (ground population); ``combine`` is
    "max" or "sum".
    """
    if ordering not in ("normal", "antinormal"):
        raise ValueError("ordering must be 'normal' or 'antinormal'")
    if combine not in ("max", "sum"):
        raise ValueError("combine must be 'max' or 'sum'")
    qubits = _three_sites(state, qubits, QUBIT)
    return _moment_witness(
        "dv_genuine", _triple(state, qubits, PAULI_MINUS),
        _bound_moments(state, qubits, PAULI_MINUS, ordering), combine)


def negativity(state: QuantumState, bipartition) -> float:
    """Entanglement negativity (|rho^T_A|_1 - 1)/2 across the given
    subsystem subset; strictly positive negativity certifies
    inseparability of that bipartition (PPT criterion)."""
    layout = state.layout
    part = sorted(set(bipartition))
    n_sub = layout.n_subsystems
    if not part or len(part) >= n_sub:
        raise LayoutMismatchError("bipartition must be a proper nonempty "
                                  "subset of the register")
    for i in part:
        layout.check_index(i)
    rho = state.to_density().data
    dims = layout.dims
    tensor = rho.reshape(dims + dims)
    perm = list(range(2 * n_sub))
    for i in part:
        perm[i], perm[n_sub + i] = perm[n_sub + i], perm[i]
    transposed = tensor.transpose(perm).reshape(rho.shape)
    eigs = np.linalg.eigvalsh(transposed)
    return float(-eigs[eigs < 0.0].sum())


def triple_superposition(layout: RegisterLayout, eps: float,
                         modes=None) -> QuantumState:
    """Normalized (|000> + eps |111>)/sqrt(1 + eps^2) on three modes."""
    modes = modes if modes is not None else layout.boson_indices()
    occ_zero = [0] * layout.n_subsystems
    occ_one = list(occ_zero)
    for m in modes:
        occ_one[m] = 1
    vec = fock_state(layout, occ_zero).data + \
        eps * fock_state(layout, occ_one).data
    vec = vec / np.linalg.norm(vec)
    return QuantumState(layout, vec)


def random_separable_mixture(layout: RegisterLayout,
                             rng: np.random.Generator,
                             max_components: int = 4,
                             margin: int = 2) -> QuantumState:
    """Random convex mixture of random product pure states.

    Per-subsystem amplitudes leave the top ``margin`` levels of each
    bosonic mode empty: right at the cutoff the truncated a a^dagger
    loses its <N> + 1 form and moment inequalities that rely on it stop
    holding, which would say nothing about the physics being modeled.
    """
    n_components = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(n_components))
    dim = layout.total_dim
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for kind, d in layout.subsystems:
            live = d - margin if (kind == BOSON and d > margin + 1) else d
            local = rng.normal(size=d) + 1j * rng.normal(size=d)
            local[live:] = 0.0
            local /= np.linalg.norm(local)
            vec = np.kron(vec, local)
        rho += w * np.outer(vec, vec.conj())
    return QuantumState(layout, rho)
