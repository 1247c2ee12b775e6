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
from functools import partial
from itertools import product

import numpy as np

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


_MAX_ITER = 300  # simplex iterations of the polish in optimize_vlf
# exponentiated-gradient steps of its dual and their size, and the top
# eigenvectors that start the polish
_DUAL_STEPS, _DUAL_RATE, _STARTS = 10, 4.0, 4


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
    x = np.concatenate([np.asarray(g, dtype=float),
                        np.asarray(h, dtype=float)])
    return float(_vlf_s(np.stack([cov[:3, :3], cov[3:, 3:]]), x[None])[0])


def _vlf_s(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S of ``vlf_value`` for each row (g, h) of x, shape (m, 6), with
    blocks = [C_x, C_p] stacked, shape (2, 3, 3).

    The quadratic forms are stacked matmuls, (g C) g per row, so each
    row sums in the order of ``g @ C @ g`` on one vector."""
    p = x[:, :3] * x[:, 3:]
    # columns 1..3 and 2..4 of (p, p) pair to (j, k) = (1, 2), (2, 0),
    # (0, 1) for the singled mode i = 0, 1, 2
    pp = np.concatenate((p, p), axis=1)
    bound = (np.abs(p) + np.abs(pp[:, 1:4] + pp[:, 2:5])).min(axis=1)
    v = x.reshape(-1, 2, 1, 3)
    q = (v @ blocks @ v.transpose(0, 1, 3, 2))[..., 0, 0]
    return bound - q[:, 0] - q[:, 1]


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


def optimize_vlf(state: QuantumState, modes=None) -> WitnessReport:
    """Best covariance witness over the free weights, with a verdict.

    Write x = (g, h) and C = diag(C_x, C_p) (S never reads C_xp). Each
    bound term is a maximum over two signs, B_i = max over (s, t) of
    x^T E_i x = s g_i h_i + t (g_j h_j + g_k h_k). So S(x) > 0 exactly
    when, for one sign pattern (an (s, t) per i), the three forms
    f_i = x^T (E_i - C) x are all positive at one x. Of the 64 patterns
    32 suffice: h -> -h maps a pattern to its negation and leaves C.
    ``_vlf_dual`` takes exponentiated-gradient steps on mu in the
    simplex towards min over mu of lambda_max(sum_i mu_i E_i - C), all
    patterns in one batched ``eigh``; the gradient is f_i at the top
    unit eigenvector.

    "certified": every pattern reached lambda_max <= 0 at some mu. By
    weak duality that mu is the proof: sum_i mu_i f_i <= 0 everywhere,
    so some f_i <= 0, S <= 0, and the maximum is exactly 0 at g = h = 0.
    The first step takes mu uniform; the older block test
    ([[C_x, -D/2], [-D/2, C_p]] >= 0 for all 8 sign matrices D) makes
    every mu a proof, since sum_i mu_i E_i - C is then a convex
    combination of their negatives. The x-p entries, sums of mu_i times
    signs, are clipped to [-1, 1], so that the rounding of sum mu_i = 1
    cannot lift the vacuum's zero eigenvalue above 0.

    Otherwise the top eigenvectors with the largest S(x)/|x|^2, scaled
    into the box [-2, 2]^6, start one batched simplex polish
    (``_vlf_polish``); S is homogeneous of degree 2, so the box fixes the
    scale. "detected": a polished S beats its rounding error, 16 eps
    times the magnitudes it is summed from; (g, h) is the witness point.
    "undecided": none does, and the value is the origin's exact 0.
    Nothing is random. The covariance is exact at the Fock cutoff, so
    top-level population cannot fire the witness on a product state.
    Components: the covariance blocks, the ``verdict`` and
    ``objective_evals``, the polish's evaluations (0 when certified).
    """
    modes = _three_sites(state, modes, BOSON)
    return _vlf_report(covariance_matrix(state, modes))


def _vlf_report(cov: np.ndarray) -> WitnessReport:
    """``optimize_vlf`` on the 6x6 covariance of its three modes."""
    starts = _vlf_dual(cov)
    if starts is None:
        verdict, best, best_x, evals = "certified", 0.0, np.zeros(6), 0
    else:
        best, best_x, evals = _vlf_polish(cov, starts)
        verdict = "detected" if best > 0.0 else "undecided"
    params = VlfParams(g=tuple(best_x[:3]), h=tuple(best_x[3:]))
    return _report("vlf_s_opt", best,
                   {"cov_x": cov[:3, :3], "cov_p": cov[3:, 3:],
                    "verdict": verdict, "objective_evals": evals},
                   parameters=params)


# Coefficient of g_l h_l in x^T E_i x per sign pattern, (32, 3, 3): s_i
# for l = i, else t_i; s_0 = +1 (see optimize_vlf)
_PATTERNS = np.array([
    [[s[i] if l == i else t[i] for l in range(3)] for i in range(3)]
    for s in product((1.0, -1.0), repeat=3) if s[0] > 0
    for t in product((1.0, -1.0), repeat=3)])


def _vlf_dual(cov: np.ndarray) -> np.ndarray | None:
    """Dual of ``optimize_vlf``: None when every sign pattern is
    certified, else the polish's starting points, shape (_STARTS, 6)."""
    blocks = np.stack([cov[:3, :3], cov[3:, 3:]])
    m = np.zeros((len(_PATTERNS), 6, 6))
    m[:, :3, :3], m[:, 3:, 3:] = -blocks
    mu = np.full(_PATTERNS.shape[:2], 1.0 / 3.0)
    uncertified = np.ones(len(_PATTERNS), dtype=bool)
    tops, k = [], np.arange(3)
    for _ in range(_DUAL_STEPS):
        m[:, k, k + 3] = m[:, k + 3, k] = 0.5 * np.einsum(
            "pi,pil->pl", mu, _PATTERNS).clip(-1.0, 1.0)
        w, v = np.linalg.eigh(m)
        uncertified &= w[:, -1] > 0.0
        if not uncertified.any():
            return None
        x = v[:, :, -1]
        tops.append(x[uncertified])
        grad = np.einsum("pil,pl->pi", _PATTERNS, x[:, :3] * x[:, 3:])
        mu *= np.exp(-_DUAL_RATE * (grad - grad.min(1, keepdims=True)))
        mu /= mu.sum(axis=1, keepdims=True)
    tops = np.concatenate(tops)
    best = tops[np.argsort(-_vlf_s(blocks, tops), kind="stable")[:_STARTS]]
    return 2.0 * best / np.abs(best).max(axis=1, keepdims=True)


def _vlf_objective(cov: np.ndarray):
    """The search objective on ``cov``, for rows x of shape (m, 6): -S
    at the row clipped to the box [-2, 2]^6, plus 100 times the squared
    distance to the box."""
    blocks = np.stack([cov[:3, :3], cov[3:, 3:]])

    def objective(x):
        xc = x.clip(-2.0, 2.0)
        d = x - xc
        return 100.0 * np.add.reduce(d * d, axis=1) - _vlf_s(blocks, xc)
    return objective


def _vlf_polish(cov: np.ndarray,
                x0: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Polish of ``optimize_vlf`` from the rows of x0, shape (m, 6): the
    best S, its weights (g, h) and the objective evaluations. Each end
    point is clipped to the box and scored there, and counts only above
    16 eps (sum |g_l h_l| + |g|^T |C_x| |g| + |h|^T |C_p| |h|), the
    rounding error of S; else the origin's exact 0 stands."""
    x, _, nfev, _ = _nelder_mead(_vlf_objective(cov), x0, _MAX_ITER,
                                 xatol=1e-10, fatol=1e-10)
    x = x.clip(-2.0, 2.0)
    values = _vlf_s(np.stack([cov[:3, :3], cov[3:, 3:]]), x)
    abs_cov = np.abs(cov)
    best, best_x = 0.0, np.zeros(6)
    for xr, value in zip(x, values):
        g, h = np.abs(xr[:3]), np.abs(xr[3:])
        rounding = 16 * np.finfo(float).eps * (
            g @ h + g @ abs_cov[:3, :3] @ g + h @ abs_cov[3:, 3:] @ h)
        if value > max(best, rounding):
            best, best_x = float(value), xr
    return best, best_x, int(nfev.sum())


# Trial points of a Nelder-Mead step, a xbar - b worst: reflection,
# expansion, outside and inside contraction, with scipy's rho = 1,
# chi = 2, psi = 1/2. The inside point (1 - psi) xbar + psi worst is
# written with b = -psi, which gives the same bits.
_TRIAL_A = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_TRIAL_B = np.array([1.0, 2.0, 0.5, -0.5])[:, None]
_SHRINK = 0.5


def _nelder_mead(f, x0: np.ndarray, max_iter: int, xatol: float,
                 fatol: float):
    """Minimize f from every row of x0, shape (m, n), at once.

    Each row follows scipy's non-adaptive ``_minimize_neldermead`` with
    ``maxiter=max_iter`` step for step: the same initial simplex, trial
    point, shrink and sort arithmetic, so it ends on the same bits, and
    counts the same evaluations, as its own
    ``minimize(method="Nelder-Mead")`` call. ``f`` maps points (k, n) to
    values (k,) and must treat rows independently; each step evaluates
    all four trial points of every live row in one call (a row counts
    only those scipy would have evaluated). A row stops, and stays
    frozen, once its vertices are within ``xatol`` and its values within
    ``fatol`` of the best vertex, or after ``max_iter`` iterations
    (counted from 1, as scipy does).

    Returns per row the best vertex, its value, the evaluations of f and
    the iterations (scipy's x, fun, nfev, nit).
    """
    m, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = f(sim.reshape(-1, n)).reshape(m, n + 1)
    rows = each = np.arange(m)
    # scipy sorts the initial simplex twice; with tied values the second
    # argsort need not be the identity, so it is repeated. Rows are
    # sorted by argsort and take, as scipy does.
    for _ in range(2):
        order = fsim.argsort(axis=1)
        sim, fsim = sim[each[:, None], order], fsim[each[:, None], order]
    x_out, f_out = np.empty((m, n)), np.empty(m)
    nfev_out, nit_out = np.empty(m, dtype=int), np.empty(m, dtype=int)
    # evaluations beyond the n + 1 initial ones and the one reflection of
    # every iteration: expansions, contractions and shrinks
    extra = np.zeros(m, dtype=int)

    def freeze(stop, iterations):
        r = rows[stop]
        x_out[r], f_out[r] = sim[stop, 0], fsim[stop].min(axis=1)
        nfev_out[r] = n + iterations + extra[stop]
        nit_out[r] = iterations

    iterations = 1
    while iterations < max_iter:
        # values are sorted, so max |f_0 - f_i| is f_n - f_0 exactly
        done = fsim[:, -1] - fsim[:, 0] <= fatol
        if done.any():
            done &= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
            if done.any():
                freeze(done, iterations)
                live = ~done
                sim, fsim, extra, rows = (sim[live], fsim[live], extra[live],
                                          rows[live])
                each = np.arange(rows.size)
                if not rows.size:
                    break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = _TRIAL_A * xbar[:, None] - _TRIAL_B * sim[:, -1:]
        ft = f(trial.reshape(-1, n)).reshape(-1, 4)
        fxr, fxe, fxc, fxcc = ft.T
        f_worst = fsim[:, -1]
        expand = fxr < fsim[:, 0]
        contract = ~(expand | (fxr < fsim[:, -2]))
        outside = contract & (fxr < f_worst)
        inside = contract & ~outside
        shrink = outside & ~(fxc <= fxr) | inside & ~(fxcc < f_worst)
        pick = (expand & (fxe < fxr)) + 2 * outside + 3 * inside
        extra += expand | contract
        any_shrink = shrink.any()
        if any_shrink:
            extra += n * shrink
            base = sim[shrink, :1]
            moved = base + _SHRINK * (sim[shrink, 1:] - base)
            f_moved = f(moved.reshape(-1, n)).reshape(-1, n)
        sim[:, -1] = trial[each, pick]
        fsim[:, -1] = ft[each, pick]
        if any_shrink:
            sim[shrink, 1:] = moved
            fsim[shrink, 1:] = f_moved
        iterations += 1
        order = fsim.argsort(axis=1)
        sim, fsim = sim[each[:, None], order], fsim[each[:, None], order]
    freeze(np.ones(rows.size, dtype=bool), iterations)
    return x_out, f_out, nfev_out, nit_out


# The moment witnesses share one inequality (Hillery-Zubairy):
#
#     |<L1 L2 L3>| - combine over singled alpha of
#         sqrt(<M_alpha> <M_beta M_gamma>)
#
# with L the lowering operator (a for modes, sigma- for qubits) and
# M = L+ L (normal ordering) or L L+ (antinormal). The combine rule is
# a single alpha (pairwise inseparability), the max or the sum over
# alpha (genuine tripartite entanglement).
#
# Only normal moments are evaluated: L+ L never crosses the cutoff, so
# they are exact on a truncated register, where a a+ is 0 on the top
# level instead of c + 1. The antinormal ones follow from a a+ = N + 1
# and sigma- sigma+ = 1 - sigma+ sigma- (``_antinormal``).

_RAISING = {ANNIHILATE: CREATE, PAULI_MINUS: PAULI_PLUS}
# positions (beta, gamma) of the other two sites per singled alpha
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _normal_moments(expect, sites, lower: str):
    """<L1 L2 L3> and, per singled position, the real parts of the
    normally ordered (<n_alpha>, <n_beta n_gamma>) of ``expect``."""
    def n(p):
        return ((sites[p], _RAISING[lower]), (sites[p], lower))

    triple = expect(tuple((s, lower) for s in sites))
    single = [expect(n(p)).real for p in range(3)]
    return triple, {p: (single[p], expect(n(b) + n(g)).real)
                    for p, (b, g) in enumerate(_OTHERS)}


def _antinormal(moments, s: float):
    """(<L L+>, <L L+ L L+>) per singled position from the normally
    ordered moments: (1 + s n_alpha, 1 + s (n_beta + n_gamma) +
    n_beta_gamma), with s = +1 for modes and -1 for qubits."""
    n = [moments[p][0] for p in range(3)]
    return {p: (1.0 + s * n[p], 1.0 + s * (n[b] + n[g]) + moments[p][1])
            for p, (b, g) in enumerate(_OTHERS)}


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
    if singled not in (0, 1, 2):
        raise LayoutMismatchError("singled mode index must be 0, 1 or 2")
    return mode_moment_witnesses(state, modes)[f"hz_i{singled + 1}"]


def genuine_witness_sum(state: QuantumState, modes=None) -> WitnessReport:
    """Genuine tripartite witness with the triangle-inequality bound and
    anti-normally ordered moments:

        |<a1 a2 a3>| - sum over singled alpha of
            sqrt(<a_alpha a_alpha+> <a_beta a_beta+ a_gamma a_gamma+>)

    with <a a+> taken as <N> + 1, which stays exact at the cutoff.
    """
    return mode_moment_witnesses(state, modes)["genuine_sum"]


def genuine_witness_max(state: QuantumState, modes=None) -> WitnessReport:
    """Sharper genuine tripartite witness: a convex mixture is bounded by
    its largest branch, so the sum collapses to a max and the moments
    are photon-number ones:

        |<a1 a2 a3>| - max over singled alpha of
            sqrt(<N_alpha> <N_beta N_gamma>)
    """
    return mode_moment_witnesses(state, modes)["genuine_max"]


def mode_moment_witnesses(state: QuantumState,
                          modes=None) -> dict[str, WitnessReport]:
    """I_1..I_3, genuine_sum and genuine_max, keyed by report name, from
    one evaluation of the seven moments they share."""
    return _mode_reports(partial(expect_monomial, state),
                         _three_sites(state, modes, BOSON))


def _mode_reports(expect, modes) -> dict[str, WitnessReport]:
    """``mode_moment_witnesses`` from one state's ``expect(factors)``."""
    triple, normal = _normal_moments(expect, modes, ANNIHILATE)
    out = {f"hz_i{p + 1}": _moment_witness(f"hz_i{p + 1}", triple, normal, p)
           for p in range(3)}
    out["genuine_sum"] = _moment_witness(
        "genuine_sum", triple, _antinormal(normal, 1.0), "sum")
    out["genuine_max"] = _moment_witness("genuine_max", triple, normal, "max")
    return out


def dv_genuine_witness(state: QuantumState, ordering: str = "normal",
                       combine: str = "max", qubits=None) -> WitnessReport:
    """Qubit analog of the genuine witnesses with sigma- replacing a:

        |<s1- s2- s3->| - combine over alpha of
            sqrt(<m_alpha> <m_beta m_gamma>)

    where m = sigma+ sigma- for normal ordering (excited population) or
    sigma- sigma+ = 1 - sigma+ sigma- for antinormal (ground
    population); ``combine`` is "max" or "sum".
    """
    if ordering not in ("normal", "antinormal"):
        raise ValueError("ordering must be 'normal' or 'antinormal'")
    if combine not in ("max", "sum"):
        raise ValueError("combine must be 'max' or 'sum'")
    return _dv_report(partial(expect_monomial, state),
                      _three_sites(state, qubits, QUBIT), ordering, combine)


def _dv_report(expect, qubits, ordering: str = "normal",
               combine: str = "max") -> WitnessReport:
    """``dv_genuine_witness`` from one state's ``expect(factors)``."""
    triple, moments = _normal_moments(expect, qubits, PAULI_MINUS)
    if ordering == "antinormal":
        moments = _antinormal(moments, -1.0)
    return _moment_witness("dv_genuine", triple, moments, combine)


def negativity(state: QuantumState, bipartition) -> float:
    """Entanglement negativity (|rho^T_A|_1 - 1)/2 across the given
    subsystem subset; strictly positive negativity certifies
    inseparability of that bipartition (PPT criterion).

    A pure state's rho^T_A has eigenvalues s_i^2 and +-s_i s_j (i < j)
    over its Schmidt coefficients s, so no density is formed there."""
    layout = state.layout
    part = sorted(set(bipartition))
    n_sub = layout.n_subsystems
    if not part or len(part) >= n_sub:
        raise LayoutMismatchError("bipartition must be a proper nonempty "
                                  "subset of the register")
    for i in part:
        layout.check_index(i)
    dims = layout.dims
    if state.is_pure:
        psi = np.moveaxis(state.data.reshape(dims), part, range(len(part)))
        s = np.linalg.svd(psi.reshape(np.prod(psi.shape[:len(part)]), -1),
                          compute_uv=False)
        return float(s[1:] @ np.cumsum(s)[:-1])
    tensor = state.data.reshape(dims + dims)
    perm = list(range(2 * n_sub))
    for i in part:
        perm[i], perm[n_sub + i] = perm[n_sub + i], perm[i]
    transposed = tensor.transpose(perm).reshape(state.data.shape)
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
                             max_components: int = 4) -> QuantumState:
    """Random convex mixture of random product pure states.

    Per-subsystem amplitudes are drawn on every level, the top Fock
    level of each bosonic mode included: the moment witnesses evaluate
    exact moments there, so no level needs to be held back.
    """
    n_components = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(n_components))
    dim = layout.total_dim
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for _, d in layout.subsystems:
            local = rng.normal(size=d) + 1j * rng.normal(size=d)
            local /= np.linalg.norm(local)
            vec = np.kron(vec, local)
        rho += w * np.outer(vec, vec.conj())
    return QuantumState(layout, rho)
