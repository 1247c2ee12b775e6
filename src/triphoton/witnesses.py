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
    """A witness's value and verdict: floats for one state; arrays over
    the grid when the analyses evaluate a whole trajectory at once."""

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
    """Report with a float value and bool verdict, or arrays for a grid."""
    value = np.asarray(value, float)
    value = value if value.ndim else value.item()
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
    return float(_vlf_s(_blocks(cov), x[None])[0])


def _blocks(cov: np.ndarray) -> np.ndarray:
    """[C_x, C_p] of each 6x6 covariance of a stack (..., 6, 6), shape
    (..., 2, 3, 3)."""
    return np.stack([cov[..., :3, :3], cov[..., 3:, 3:]], axis=-3)


# p @ _BOUND = [p | p_j + p_k] for p_l = g_l h_l: column 3 + i sums the
# pair (j, k) = (1, 2), (2, 0), (0, 1) of the singled mode i. Products by
# 0 and 1 are exact, so every entry has the bits of p_i or p_j + p_k.
_BOUND = np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
                   [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
                   [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]])


def _vlf_s(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S of ``vlf_value`` at each point (g, h) of x, shape (m, 6), with
    blocks [C_x, C_p] per point, shape (m, 2, 3, 3), or one (2, 3, 3)."""
    p = x[:, :3] * x[:, 3:]
    terms = np.abs(p @ _BOUND)
    bound = (terms[:, :3] + terms[:, 3:]).min(axis=1)
    q = _forms(blocks, x)
    return bound - q[:, 0] - q[:, 1]


def _forms(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(g^T C_x g, h^T C_p h) at each point (g, h) of x, shape (m, 2).
    The forms are stacked matmuls, (g C) g per point, so each sums in
    the order of ``g @ C @ g`` on one vector."""
    v = x.reshape(-1, 2, 1, 3)
    return (v @ blocks @ v.transpose(0, 1, 3, 2))[:, :, 0, 0]


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

    This is the one-point case of ``_vlf_report``, which the scenario
    analyses run once per run over the whole grid, with the same bits
    for every point.
    """
    modes = _three_sites(state, modes, BOSON)
    return _vlf_report(covariance_matrix(state, modes))


def _vlf_report(cov: np.ndarray) -> WitnessReport:
    """``optimize_vlf`` on the 6x6 covariance of its three modes, or on
    each covariance of a stack (n, 6, 6) in one search: one dual over
    every sign pattern of every point and one simplex over the starts of
    every point the dual leaves open. Floats, a verdict and an
    evaluation count for one covariance; over a stack, arrays of values
    and weights and lists of verdicts and counts."""
    shape = cov.shape[:-2]
    covs = cov.reshape(-1, 6, 6)
    starts = _vlf_dual(cov).reshape(-1, _STARTS, 6)
    open_ = ~np.isnan(starts[:, 0, 0])
    best, x = np.zeros(len(covs)), np.zeros((len(covs), 6))
    evals = np.zeros(len(covs), dtype=int)
    if open_.any():
        best[open_], x[open_], evals[open_] = _vlf_polish(covs[open_],
                                                          starts[open_])
    verdict = _VERDICTS[open_ * (1 + (best > 0.0))]
    x = x.reshape(shape + (6,)).T
    params = VlfParams(g=tuple(x[:3]), h=tuple(x[3:]))
    return _report("vlf_s_opt", best.reshape(shape),
                   {"cov_x": cov[..., :3, :3], "cov_p": cov[..., 3:, 3:],
                    "verdict": verdict.reshape(shape).tolist(),
                    "objective_evals": evals.reshape(shape).tolist()},
                   parameters=params)


_VERDICTS = np.array(["certified", "undecided", "detected"])

# Coefficient of g_l h_l in x^T E_i x per sign pattern, (32, 3, 3): s_i
# for l = i, else t_i; s_0 = +1 (see optimize_vlf)
_PATTERNS = np.array([
    [[s[i] if l == i else t[i] for l in range(3)] for i in range(3)]
    for s in product((1.0, -1.0), repeat=3) if s[0] > 0
    for t in product((1.0, -1.0), repeat=3)])


def _vlf_dual(cov: np.ndarray) -> np.ndarray:
    """Dual of ``optimize_vlf`` on each 6x6 covariance of a stack
    (..., 6, 6): the polish's starting points, shape (..., _STARTS, 6),
    NaN where every sign pattern is certified.

    Every pattern of every covariance steps in one batched ``eigh``; a
    pattern drops out once certified, so later steps take only the live
    ones. The starts of a covariance are its live patterns' top
    eigenvectors of every step with the largest S, ties in step and
    pattern order."""
    covs = cov.reshape(-1, 6, 6)
    n, p, k = len(covs), len(_PATTERNS), np.arange(3)
    owner = np.arange(n).repeat(p)
    patterns = _PATTERNS[np.arange(n * p) % p]
    m = np.zeros((n, p, 6, 6))
    m[:, :, :3, :3] = -covs[:, None, :3, :3]
    m[:, :, 3:, 3:] = -covs[:, None, 3:, 3:]
    m = m.reshape(n * p, 6, 6)
    mu = np.full((n * p, 3), 1.0 / 3.0)
    tops, top_owner = [], []
    for _ in range(_DUAL_STEPS):
        m[:, k, k + 3] = m[:, k + 3, k] = 0.5 * np.einsum(
            "pi,pil->pl", mu, patterns).clip(-1.0, 1.0)
        w, v = np.linalg.eigh(m)
        live = w[:, -1] > 0.0
        owner = owner[live]
        if not owner.size:
            break
        m, mu, patterns = m[live], mu[live], patterns[live]
        x = v[live, :, -1]
        tops.append(x)
        top_owner.append(owner)
        grad = np.einsum("pil,pl->pi", patterns, x[:, :3] * x[:, 3:])
        mu *= np.exp(-_DUAL_RATE * (grad - grad.min(1, keepdims=True)))
        mu /= mu.sum(axis=1, keepdims=True)
    starts = np.full((n, _STARTS, 6), np.nan)
    if owner.size:
        # the points with a pattern live after the last step
        points = np.flatnonzero(np.bincount(owner, minlength=n))
        tops, top_owner = np.concatenate(tops), np.concatenate(top_owner)
        order = np.lexsort((-_vlf_s(_blocks(covs)[top_owner], tops),
                            top_owner))
        first = np.searchsorted(top_owner[order], points)
        best = tops[order[first[:, None] + np.arange(_STARTS)]]
        starts[points] = 2.0 * best / np.abs(best).max(axis=-1,
                                                        keepdims=True)
    return starts.reshape(cov.shape[:-2] + (_STARTS, 6))


def _vlf_penalized(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The search objective at each point of x, shape (m, 6), with blocks
    [C_x, C_p] as in ``_vlf_s``: -S at the point clipped to the box
    [-2, 2]^6, plus 100 times the squared distance to the box."""
    xc = x.clip(-2.0, 2.0)
    d = x - xc
    return 100.0 * np.add.reduce(d * d, axis=1) - _vlf_s(blocks, xc)


def _vlf_objective(cov: np.ndarray):
    """The search objective on one covariance, for points (m, 6)."""
    return partial(_vlf_penalized, blocks=_blocks(cov))


def _vlf_polish(cov: np.ndarray, x0: np.ndarray):
    """Polish of ``optimize_vlf`` on each 6x6 covariance of a stack
    (..., 6, 6) from its rows of x0, shape (..., m, 6), in one batched
    simplex: the best S, its weights (g, h) and the objective
    evaluations, shapes (...), (..., 6) and (...). Each end point is
    clipped to the box and scored there, and counts only above 16 eps
    (sum |g_l h_l| + |g|^T |C_x| |g| + |h|^T |C_p| |h|), the rounding
    error of S; else the origin's exact 0 stands. Of the end points that
    count, the first with the largest S wins."""
    shape, m = cov.shape[:-2], x0.shape[-2]
    # every start's own blocks; the simplex keeps the live rows' entries
    blocks = _blocks(cov.reshape(-1, 6, 6)).repeat(m, axis=0)
    x, _, nfev, _ = _nelder_mead(_vlf_penalized, x0.reshape(-1, 6),
                                 _MAX_ITER, xatol=1e-10, fatol=1e-10,
                                 args=(blocks,))
    x = x.clip(-2.0, 2.0)
    a = np.abs(x)
    qa = _forms(np.abs(blocks), a)
    gh = (a[:, None, :3] @ a[:, 3:, None])[:, 0, 0]
    rounding = 16 * np.finfo(float).eps * (gh + qa[:, 0] + qa[:, 1])
    values = _vlf_s(blocks, x).reshape(-1, m)
    counts = values > rounding.reshape(-1, m)  # rounding >= 0
    first = np.where(counts, values, -np.inf).argmax(axis=1)
    each = np.arange(len(values))
    found = counts.any(axis=1)
    best = np.where(found, values[each, first], 0.0)
    best_x = np.where(found[:, None], x.reshape(-1, m, 6)[each, first], 0.0)
    return (best.reshape(shape)[()], best_x.reshape(shape + (6,)),
            nfev.reshape(-1, m).sum(axis=1).reshape(shape)[()])


# Trial points of a Nelder-Mead step, a xbar - b worst: reflection,
# expansion, outside and inside contraction, with scipy's rho = 1,
# chi = 2, psi = 1/2. The inside point (1 - psi) xbar + psi worst is
# written with b = -psi, which gives the same bits.
_TRIAL_A = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_TRIAL_B = np.array([1.0, 2.0, 0.5, -0.5])[:, None]
_SHRINK = 0.5


def _step_tables():
    """scipy's choice after a step, per code of its six comparisons (bit
    b set when comparison b of ``_nelder_mead`` holds): the trial point
    kept (0 reflection, 1 expansion, 2 outside, 3 inside contraction),
    whether the simplex shrinks, and whether a second trial point was
    evaluated."""
    pick, shrink, evals = [], [], []
    for code in range(64):
        (beats_best, beats_second, beats_worst, expansion_better,
         outside_worse, inside_better) = (code >> b & 1 for b in range(6))
        contract = not (beats_best or beats_second)
        outside = contract and beats_worst
        inside = contract and not beats_worst
        pick.append(1 if beats_best and expansion_better else
                    2 if outside else 3 if inside else 0)
        shrink.append(outside and outside_worse
                      or inside and not inside_better)
        evals.append(int(beats_best or contract))
    return np.array(pick), np.array(shrink, dtype=bool), np.array(evals)


_STEP_PICK, _STEP_SHRINK, _STEP_EVALS = _step_tables()


def _nelder_mead(f, x0: np.ndarray, max_iter: int, xatol: float,
                 fatol: float, args=()):
    """Minimize f from every row of x0, shape (m, n), at once.

    Each row follows scipy's non-adaptive ``_minimize_neldermead`` with
    ``maxiter=max_iter`` step for step: the same initial simplex, trial
    point, shrink and sort arithmetic, so it ends on the same bits, and
    counts the same evaluations, as its own
    ``minimize(method="Nelder-Mead")`` call. ``f(x, *args)`` maps points
    x, shape (k, n), to values (k,) and must treat points independently;
    each of ``args`` has one entry per row of x0, and f gets each point's
    row entry (gathered when the live rows change, not per call). Each
    step evaluates all four trial points of every live row in one call
    (a row counts only those scipy would have evaluated). A row stops,
    and stays frozen, once its vertices are within ``xatol`` and its
    values within ``fatol`` of the best vertex, or after ``max_iter``
    iterations (counted from 1, as scipy does).

    Returns per row the best vertex, its value, the evaluations of f and
    the iterations (scipy's x, fun, nfev, nit).
    """
    m, n = x0.shape
    # per row the n + 1 vertices, sorted by value, then the four trial
    # points of a step; column n holds each point's value
    pts = np.empty((m, n + 5, n + 1))
    pts[:, :n + 1, :n] = x0[:, None]
    k = np.arange(n)
    pts[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    pts[:, :n + 1, n] = f(pts[:, :n + 1, :n].reshape(-1, n),
                          *(a.repeat(n + 1, axis=0) for a in args)
                          ).reshape(m, n + 1)
    rows = each = np.arange(m)
    # scipy sorts the initial simplex twice; with tied values the second
    # argsort need not be the identity, so it is repeated. Rows are
    # sorted by argsort and take, as scipy does.
    for _ in range(2):
        order = pts[:, :n + 1, n].argsort(axis=1)
        pts[:, :n + 1] = pts[each[:, None], order]
    trial_args = tuple(a.repeat(4, axis=0) for a in args)
    x_out, f_out = np.empty((m, n)), np.empty(m)
    nfev_out, nit_out = np.empty(m, dtype=int), np.empty(m, dtype=int)
    # evaluations beyond the n + 1 initial ones and the one reflection of
    # every iteration: expansions, contractions and shrinks
    extra = np.zeros(m, dtype=int)
    kept_row, step_evals = n + 1 + _STEP_PICK, _STEP_EVALS + n * _STEP_SHRINK
    # comparison b of a step is v[pairs[b]] < v[pairs[6 + b]] over the
    # values v of a row's points [vertex 0 .. n, reflection, expansion,
    # outside, inside point]: the reflection against f_0, f_n-1 and f_n,
    # the expansion against the reflection, the reflection against the
    # outside point (scipy's fxc <= fxr, negated) and the inside point
    # against f_n
    r, e, c, cc = n + 1, n + 2, n + 3, n + 4
    pairs = np.array([r, r, r, e, r, cc, 0, n - 1, n, r, c, n])

    def freeze(stop, iterations):
        r = rows[stop]
        x_out[r], f_out[r] = pts[stop, 0, :n], pts[stop, :n + 1, n].min(axis=1)
        nfev_out[r] = n + iterations + extra[stop]
        nit_out[r] = iterations

    iterations = 1
    while iterations < max_iter:
        # values are sorted, so max |f_0 - f_i| is f_n - f_0 exactly
        done = pts[:, n, n] - pts[:, 0, n] <= fatol
        if np.count_nonzero(done):
            done &= np.abs(pts[:, 1:n + 1, :n] - pts[:, :1, :n]).max(
                axis=(1, 2)) <= xatol
            if np.count_nonzero(done):
                freeze(done, iterations)
                live = ~done
                pts, extra, rows = pts[live], extra[live], rows[live]
                args = tuple(a[live] for a in args)
                trial_args = tuple(a.repeat(4, axis=0) for a in args)
                each = np.arange(rows.size)
                if not rows.size:
                    break
        xbar = np.add.reduce(pts[:, :n, :n], 1) / n
        trial = _TRIAL_A * xbar[:, None] - _TRIAL_B * pts[:, n:n + 1, :n]
        pts[:, n + 1:, :n] = trial
        pts[:, n + 1:, n] = f(trial.reshape(-1, n), *trial_args).reshape(-1, 4)
        v = pts[:, pairs, n]
        code = np.packbits(v[:, :6] < v[:, 6:], axis=1, bitorder="little")
        code = code[:, 0]
        extra += step_evals[code]
        shrink = _STEP_SHRINK[code]
        any_shrink = np.count_nonzero(shrink)
        if any_shrink:
            base = pts[shrink, :1, :n]
            moved = base + _SHRINK * (pts[shrink, 1:n + 1, :n] - base)
            f_moved = f(moved.reshape(-1, n),
                        *(a[shrink].repeat(n, axis=0) for a in args))
        pts[:, n] = pts[each, kept_row[code]]
        if any_shrink:
            pts[shrink, 1:n + 1, :n] = moved
            pts[shrink, 1:n + 1, n] = f_moved.reshape(-1, n)
        iterations += 1
        order = pts[:, :n + 1, n].argsort(axis=1)
        pts[:, :n + 1] = pts[each[:, None], order]
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
    the position of a single singled subsystem. Moments of one state give
    a float value, moments over a grid an array."""
    terms = {p: np.sqrt(np.maximum(single, 0.0) * np.maximum(pair, 0.0))
             for p, (single, pair) in moments.items()}
    if isinstance(combine, int):
        single, pair = moments[combine]
        return _report(name, abs(triple) - terms[combine], {
            "triple": triple, "n_singled": single, "n_pair": pair})
    comps = {"triple": triple}
    comps.update({f"term_{p + 1}": t for p, t in terms.items()})
    bound = np.max(list(terms.values()), axis=0) if combine == "max" \
        else sum(terms.values())
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
    """``mode_moment_witnesses`` from the moments ``expect(factors)`` of
    one state, or arrays of them over a grid."""
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
    """``dv_genuine_witness`` from the moments ``expect(factors)`` of one
    state, or arrays of them over a grid."""
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
    return float(_negativities(state.data, dims, part))


def _negativities(rhos: np.ndarray, dims, part) -> np.ndarray:
    """``negativity`` across the subsystems ``part`` of each density in a
    stack of shape (..., d, d) over subsystems of the dimensions in the
    tuple ``dims``: minus the sum of the negative eigenvalues of the
    partial transpose."""
    n_sub = len(dims)
    tensor = rhos.reshape(rhos.shape[:-2] + dims * 2)
    for i in part:
        tensor = tensor.swapaxes(i - 2 * n_sub, i - n_sub)
    eigs = np.linalg.eigvalsh(tensor.reshape(rhos.shape))
    return -np.sum(eigs, axis=-1, where=eigs < 0.0)


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
