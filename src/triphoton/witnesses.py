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
    covariance_matrix,
    expect_monomial,
)
from .rwa import ANNIHILATE, CREATE, PAULI_MINUS, PAULI_PLUS


# steps and step size of optimize_vlf's dual stage; its certificate
# stage's Newton steps and active-set shares (_vlf_kkt); its semidefinite
# stage's relative tolerance, step fraction and iteration cap (_vlf_sdp)
_DUAL_STEPS, _DUAL_RATE = 10, 4.0
_KKT_STEPS, _KKT_ACTIVE, _KKT_FACE = 4, 1.0 / 3.0, 0.05
# Largest step a Newton path of _vlf_kkt may take: far above every path
# of the shipped 22spdc grid (steps up to 4.8e4, of pairs that still
# close, since only the direction of x is scored), far enough below
# overflow that the next step's products stay finite
_KKT_REACH = 1e8
_SDP_TOL, _SDP_TAU, _SDP_MAX_ITER = 1e-10, 0.98, 50


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


def optimize_vlf(state: QuantumState, modes=None) -> WitnessReport:
    """Best covariance witness over the free weights, with a bound and a
    verdict.

    Write x = (g, h) in the box [-2, 2]^6 (S is homogeneous of degree 2)
    and C = diag(C_x, C_p) (S never reads C_xp). Each bound term is a
    maximum over two signs of x^T E_i x = s g_i h_i + t (g_j h_j +
    g_k h_k), so S is the largest, over sign patterns, of min_i x^T A_i x
    with A_i = E_i - C; h -> -h pairs the 64 patterns, so 32 are solved.
    For mu in the simplex and d >= 0 with diag(d) >= sum_i mu_i A_i,
    min_i x^T A_i x <= 4 sum d on the box.

    Three stages bound each (point, pattern) pair, and a pair keeps the
    least bound any of them proves. ``_vlf_dual`` steps mu towards
    min lambda_max(sum_i mu_i A_i) for all pairs in one batched ``eigh``,
    with the bound 24 lambda_max+ (d = lambda_max+); the x-p entries are
    clipped to [-1, 1] so that rounding cannot lift the vacuum's zero
    eigenvalue above 0. The Shor relaxation max t: tr(A_i X) >= t,
    X_ll <= 4, X >= 0 has the dual min 4 sum d (Vandenberghe & Boyd,
    SIAM Review 38, 49 (1996)). ``_vlf_kkt`` tries its rank-one optimum
    X = x x^T: Newton steps on the KKT conditions, from the pattern's
    best top eigenvector, give (x, mu, d) with 4 sum d = S(x);
    ``_vlf_sdp``, an interior point on it, bounds by its 4 sum d and by
    24 lambda_max+ at its final mu. Each stage takes the pairs the one
    before leaves open, by one rule: a pair stays open while its bound
    exceeds its floor, the larger of its point's best S so far and the
    rounding bound at the box's corner (below), checked after every dual
    step; the later stages, which converge to a tolerance, also close a
    pair within ``_SDP_TOL`` of a floor that is a detection (``_closes``).
    Where X has rank 1, bound and attained S meet: observed, not
    assumed, to 1.5e-13 on the shipped 22spdc grid and 1e-9 on random
    Gaussian states; on covariances that violate the uncertainty
    relation the gap can stay open.

    The value is the best S attained, the origin's 0 included; its
    (g, h) reproduce it through ``vlf_value``. ``s_upper`` is the largest
    of the patterns' least bounds; each later stage's d is raised by any
    negative eigenvalue of diag(d) - sum_i mu_i A_i (``eigvalsh``) plus
    16 eps times the largest magnitude. With S's rounding error at x as
    16 eps (sum |g_l h_l| + |g|^T |C_x| |g| + |h|^T |C_p| |h|), the
    verdict is "detected" when the value beats it; else "certified" when
    s_upper is within it at the box's corner |x| = 2; else "undecided"
    (the gap straddles the bound), with the origin's exact 0. Nothing is
    random. Components: the covariance blocks, ``verdict``, ``s_upper``,
    ``dual_rows`` (rows of the dual stage's ``eigh`` calls),
    ``kkt_pairs`` (patterns closed by a certificate) and
    ``ipm_iterations`` (over the patterns). This is the one-point case
    of ``_vlf_report``, which the scenario analyses run once over the
    whole grid, with the same bits per point.
    """
    modes = _three_sites(state, modes, BOSON)
    return _vlf_report(covariance_matrix(state, modes))


def _vlf_report(cov: np.ndarray) -> WitnessReport:
    """``optimize_vlf`` on the 6x6 covariance of its three modes, or on
    each of a stack (n, 6, 6) in one dual stage, one certificate stage
    over every (point, pattern) pair the dual stage leaves open, and one
    interior point over the pairs the certificate leaves open: floats
    for one covariance, arrays and lists over a stack."""
    shape = cov.shape[:-2]
    covs = cov.reshape(-1, 6, 6)
    n = len(covs)
    blocks = _blocks(covs)
    corner = _corner(blocks)
    bound, best, x, starts, dual_rows = _vlf_dual(covs, corner)
    found = [(np.arange(n), best, x)]
    kkt_pairs = iterations = np.zeros(n, dtype=int)
    floor = best.copy()
    point, pattern = np.nonzero(bound > np.maximum(best, corner)[:, None])
    if point.size:
        closed, s, xs, _, d = _vlf_kkt(covs[point], pattern,
                                       starts[point, pattern], point, floor)
        c = point[closed]
        np.minimum.at(bound, (c, pattern[closed]), 4.0 * d.sum(axis=1))
        found.append((c, s, xs))
        np.maximum.at(floor, c, s)
        kkt_pairs = np.bincount(c, minlength=n)
        point, pattern = point[~closed], pattern[~closed]
    if point.size:
        s, xs, mu, d, its = _vlf_sdp(covs[point], pattern, point, floor)
        # the dual stage's bound at each open pair's final mu
        m = _minus_c(covs[point])
        _couple(m, mu / mu.sum(axis=1, keepdims=True), _PATTERNS[pattern])
        lam = np.linalg.eigvalsh(m)[:, -1]
        np.minimum.at(bound, (point, pattern), np.minimum(
            4.0 * d.sum(axis=1), 24.0 * lam.clip(0.0)))
        found.append((point, s, xs))
        iterations = np.bincount(point, its, n).astype(int)
    upper = bound.max(axis=1)
    value, x = _best_per_point(*map(np.concatenate, zip(*found)), n)
    detected = value > _rounding(blocks, x)
    verdict = _VERDICTS[np.where(detected, 2, upper > corner)]
    value = np.where(detected, value, 0.0)
    x = np.where(detected[:, None], x, 0.0).reshape(shape + (6,)).T
    return _report("vlf_s_opt", value.reshape(shape),
                   {"cov_x": cov[..., :3, :3], "cov_p": cov[..., 3:, 3:],
                    "verdict": verdict.reshape(shape).tolist(),
                    "s_upper": upper.reshape(shape)[()],
                    "dual_rows": dual_rows.reshape(shape).tolist(),
                    "ipm_iterations": iterations.reshape(shape).tolist(),
                    "kkt_pairs": kkt_pairs.reshape(shape).tolist()},
                   parameters=VlfParams(g=tuple(x[:3]), h=tuple(x[3:])))


_VERDICTS = np.array(["certified", "undecided", "detected"])

# Coefficient of g_l h_l in x^T E_i x per sign pattern, (32, 3, 3): s_i
# for l = i, else t_i; s_0 = +1 (see optimize_vlf)
_PATTERNS = np.array([
    [[s[i] if l == i else t[i] for l in range(3)] for i in range(3)]
    for s in product((1.0, -1.0), repeat=3) if s[0] > 0
    for t in product((1.0, -1.0), repeat=3)])


def _box(v: np.ndarray) -> np.ndarray:
    """Each row of v scaled onto the boundary of the box [-2, 2]^6."""
    return 2.0 * v / np.abs(v).max(axis=-1, keepdims=True)


def _best_per_point(owner, s, x, n):
    """Per point 0..n-1 the first largest value s of its candidate weights
    x (owner: the point of each), and those weights; else the origin's 0."""
    owner = np.concatenate([np.arange(n), owner])
    s = np.concatenate([np.zeros(n), s])
    x = np.concatenate([np.zeros((n, 6)), x])
    first = _firsts(owner, s)[1]
    return s[first], x[first]


def _firsts(owner, s):
    """The owners present, ascending, and the index of the first largest
    s of each."""
    order = np.lexsort((-s, owner))
    owner = owner[order]
    head = np.flatnonzero(np.diff(owner, prepend=-1))
    return owner[head], order[head]


def _rounding(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rounding error of S at each row (g, h) of x, with blocks [C_x, C_p]
    per row: 16 eps (sum |g_l h_l| + |g|^T |C_x| |g| + |h|^T |C_p| |h|)."""
    a = np.abs(x)
    qa = _forms(np.abs(blocks), a)
    gh = (a[:, None, :3] @ a[:, 3:, None])[:, 0, 0]
    return 16 * np.finfo(float).eps * (gh + qa[:, 0] + qa[:, 1])


def _corner(blocks: np.ndarray) -> np.ndarray:
    """``_rounding`` at the box's corner |x| = 2, the largest over the box,
    per row of blocks [C_x, C_p] (m, 2, 3, 3)."""
    return _rounding(blocks, np.full((len(blocks), 6), 2.0))


def _vlf_dual(cov: np.ndarray, corner: np.ndarray):
    """Dual stage of ``optimize_vlf`` on a stack (n, 6, 6), with the
    rounding bound at the box's corner per point: per pair (point, sign
    pattern) the least bound 24 lambda_max+ seen, (n, 32); per point the
    best S at its top eigenvectors scaled into the box, and those
    weights, as ``_best_per_point`` picks them; per pair the first of its
    own scaled top eigenvectors with the largest S, (n, 32, 6); per point
    the rows of its ``eigh`` calls. Open pairs step in one batched
    ``eigh``; a pair closes once its bound is at or below max(its point's
    best S so far, corner), at lambda_max <= 0 without scoring its top."""
    n, p = len(cov), len(_PATTERNS)
    blocks = _blocks(cov)
    rows = np.arange(n * p)
    patterns = _PATTERNS[rows % p]
    m = _minus_c(np.repeat(cov, p, axis=0))
    mu = np.full((n * p, 3), 1.0 / 3.0)
    bound, best = np.full(n * p, np.inf), np.zeros(n)
    steps = np.zeros(n * p, dtype=int)
    tops, top_rows, scores = [], [], []
    for _ in range(_DUAL_STEPS):
        steps[rows] += 1
        _couple(m, mu, patterns)
        w, v = np.linalg.eigh(m)
        bound[rows] = np.minimum(bound[rows], 24.0 * w[:, -1].clip(0.0))
        up = w[:, -1] > 0.0
        owner = rows[up] // p
        tops.append(_box(v[up, :, -1]))
        top_rows.append(rows[up])
        scores.append(_vlf_s(blocks[owner], tops[-1]))
        np.maximum.at(best, owner, scores[-1])
        live = bound[rows] > np.maximum(best, corner)[rows // p]
        rows = rows[live]
        if not rows.size:
            break
        m, mu, patterns = m[live], mu[live], patterns[live]
        x = v[live, :, -1]
        grad = np.einsum("pil,pl->pi", patterns, x[:, :3] * x[:, 3:])
        mu *= np.exp(-_DUAL_RATE * (grad - grad.min(1, keepdims=True)))
        mu /= mu.sum(axis=1, keepdims=True)
    top_rows, s, tops = map(np.concatenate, (top_rows, scores, tops))
    best, x = _best_per_point(top_rows // p, s, tops, n)
    starts = np.zeros((n * p, 6))
    row, first = _firsts(top_rows, s)
    starts[row] = tops[first]
    return (bound.reshape(n, p), best, x, starts.reshape(n, p, 6),
            steps.reshape(n, p).sum(axis=1))


def _minus_c(cov: np.ndarray) -> np.ndarray:
    """-diag(C_x, C_p) of each 6x6 covariance of a stack (m, 6, 6), the
    part of sum_i mu_i A_i that mu in the simplex leaves as it is."""
    m = np.zeros(cov.shape)
    m[:, :3, :3] = -cov[:, :3, :3]
    m[:, 3:, 3:] = -cov[:, 3:, 3:]
    return m


def _couple(m: np.ndarray, mu: np.ndarray, patterns: np.ndarray):
    """Write the x-p entries of sum_i mu_i A_i into each row of m, for
    the rows of mu and their sign patterns: 0.5 mu @ pattern, clipped to
    [-1, 1] so that rounding cannot lift the vacuum's zero eigenvalue
    above 0."""
    k = np.arange(3)
    m[:, k, k + 3] = m[:, k + 3, k] = 0.5 * np.einsum(
        "pi,pil->pl", mu, patterns).clip(-1.0, 1.0)


# _vlf_sdp in y = (mu_1, mu_2, d), mu_3 = 1 - mu_1 - mu_2: the slacks are
# Z = diag(d) - sum_i mu_i A_i = C - E_3 - sum_k y_k F_k and z = (mu, d) =
# _LP_C - y @ _LP_G, the objective y @ _LP_B = -4 sum d.
_E = np.zeros((len(_PATTERNS), 3, 6, 6))
_E[:, :, np.arange(3), np.arange(3, 6)] = 0.5 * _PATTERNS
_E[:, :, np.arange(3, 6), np.arange(3)] = 0.5 * _PATTERNS
_F = np.zeros((len(_PATTERNS), 8, 6, 6))
_F[:, :2] = _E[:, :2] - _E[:, 2:]
_F[:, np.arange(2, 8), np.arange(6), np.arange(6)] = -1.0
_LP_G = np.zeros((8, 9))
_LP_G[:2, :3] = [[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]
_LP_G[2:, 3:] = -np.eye(6)
_LP_C = np.array([0.0, 0.0, 1.0] + [0.0] * 6)
_LP_B = np.array([0.0, 0.0] + [-4.0] * 6)


def _vlf_kkt(cov: np.ndarray, pattern: np.ndarray, x: np.ndarray,
             owner: np.ndarray, floor: np.ndarray):
    """Certificate stage of ``optimize_vlf`` on (covariance, sign pattern)
    pairs, (m, 6, 6) and (m,), each from its start x on the box's
    boundary (m, 6): the pattern's own best top eigenvector from the
    dual stage (on the shipped 22spdc grid it closes 247 of the 339
    open pairs; its point's best weights close 153, all among those).
    Where the Shor relaxation's optimum has rank one,
    X = x x^T, the KKT conditions give mu in the simplex and d >= 0 with
    Z = diag(d) - sum_i mu_i A_i >= 0 and Z x = 0, mu_i = 0 on every
    inactive form and d_l = 0 wherever |x_l| < 2; then 4 sum d =
    sum_l d_l x_l^2 = sum_i mu_i x^T A_i x = S(x), the bound meets the
    value.

    The start fixes the active set: form i is active where x^T A_i x
    lies within ``_KKT_ACTIVE`` of the forms' spread above the lowest,
    and x_l is on the face at 2 sign(x_l) where |x_l| lies within
    ``_KKT_FACE`` of the box's half-width from it. ``_KKT_STEPS`` batched
    Newton steps, from mu uniform on the active forms, d = 0 and
    t = min_i x^T A_i x, then solve the square system in (x, mu, d, t):
    Z x = 0; x^T A_i x = t on active forms, mu_i = 0 on inactive ones;
    x_l = 2 sign(x_l) on faces, d_l = 0 off them; sum mu = 1. A pair
    leaves the batch once numpy cannot solve its Newton system (an
    exact zero pivot) or a step passes ``_KKT_REACH``.

    Each end point is scored by S at its weights scaled into the box,
    and its (mu, d), mu put on the simplex, goes through
    ``_certificate``. ``_closes`` closes a pair against its point's
    (owner's) floor, raised by the pairs it closes against their own
    value. Returns which pairs are closed, and for those the S, the
    weights and the certificate (mu, d)."""
    m = len(cov)
    a = _E[pattern] + _minus_c(cov)[:, None]
    q = (x[:, None, None] @ a @ x[:, None, :, None])[:, :, 0, 0]
    t = q.min(axis=1, keepdims=True)
    active = q - t <= _KKT_ACTIVE * (q.max(axis=1, keepdims=True) - t)
    face = np.abs(x) >= 2.0 * (1.0 - _KKT_FACE)
    side = 2.0 * np.sign(x)
    # the Jacobian's rows that no step moves, in u = (x, mu, d, t)
    k, l = np.arange(3), np.arange(6)
    jac = np.zeros((m, 16, 16))
    jac[:, 6 + k, 6 + k] = ~active
    jac[:, 6:9, 15] = -1.0 * active
    jac[:, 9 + l, l] = face
    jac[:, 9 + l, 9 + l] = ~face
    jac[:, 15, 6:9] = 1.0
    u = np.hstack([x, active / active.sum(axis=1, keepdims=True),
                   np.zeros((m, 6)), t])
    live = np.ones(m, dtype=bool)
    for _ in range(_KKT_STEPS):
        x, mu, d, t = u[:, :6], u[:, 6:9], u[:, 9:15], u[:, 15:]
        ax = (a @ x[:, None, :, None])[..., 0]
        z = d[:, :, None] * np.eye(6) - (mu[:, None] @ a.reshape(m, 3, 36)
                                         ).reshape(m, 6, 6)
        j = jac.copy()
        j[:, :6, :6] = z
        j[:, :6, 6:9] = -ax.swapaxes(1, 2)
        j[:, l, 9 + l] = x
        j[:, 6:9, :6] = 2.0 * ax * active[..., None]
        r = np.hstack([(z @ x[..., None])[..., 0],
                       np.where(active, (ax @ x[..., None])[..., 0] - t, mu),
                       np.where(face, x - side, d),
                       mu.sum(axis=1, keepdims=True) - 1.0])
        j[~live], r[~live] = np.eye(16), 0.0
        du = _solve_each(j, r)
        live &= np.abs(du).max(axis=1) <= _KKT_REACH
        u = np.where(live[:, None], u - du, u)
    rows = np.flatnonzero(live)
    a, cov, owner, u = a[rows], cov[rows], owner[rows], u[rows]
    x, blocks = _box(u[:, :6]), _blocks(cov)
    s = _vlf_s(blocks, x)
    # mu exactly 0 on the inactive forms, which Newton meets to rounding
    mu = (u[:, 6:9] * active[rows]).clip(0.0)
    mu, d = _certificate(a, mu / mu.sum(axis=1, keepdims=True), u[:, 9:15])
    bound = 4.0 * d.sum(axis=1)
    corner = _corner(blocks)
    own = _closes(bound, s, corner)
    floor = floor.copy()
    np.maximum.at(floor, owner[own], s[own])
    ok = _closes(bound, floor[owner], corner)
    return np.isin(np.arange(m), rows[ok]), s[ok], x[ok], mu[ok], d[ok]


def _closes(bound, best, corner):
    """Where a later stage closes a pair: its bound at or below
    max(best, corner), or within ``_SDP_TOL`` (1 + |bound|) of a best
    above the corner; below it, only a bound under it decides a verdict."""
    return bound - np.maximum(best, corner) <= \
        _SDP_TOL * (1.0 + np.abs(bound)) * (best > corner)


def _solve_each(j: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solution of each system j u = r of a stack, (m, k, k) and (m, k),
    in one batched ``solve`` over those whose LU has no exact zero pivot
    (``slogdet``'s sign, the same LU), NaN for the others."""
    out = np.full(r.shape, np.nan)
    ok = np.linalg.slogdet(j)[0] != 0.0
    out[ok] = np.linalg.solve(j[ok], r[ok, :, None])[..., 0]
    return out


def _certificate(a: np.ndarray, mu: np.ndarray, d: np.ndarray):
    """(mu, d) in the nonnegative orthant, then diag(d) - sum_i mu_i A_i,
    for the forms a (m, 3, 6, 6), made positive semidefinite by raising d
    by any negative eigenvalue (``eigvalsh``) plus a margin for its
    rounding, 16 eps times the largest magnitude."""
    mu, d = mu.clip(0.0), d.clip(0.0)
    e = np.linalg.eigvalsh(d[:, :, None] * np.eye(6)
                           - np.einsum("bi,bijk->bjk", mu, a))
    d = d + (np.maximum(-e[:, 0], 0.0)
             + 16 * np.finfo(float).eps * np.abs(e).max(axis=1))[:, None]
    return mu, d


def _vlf_sdp(cov: np.ndarray, pattern: np.ndarray, owner: np.ndarray,
             floor: np.ndarray):
    """Semidefinite stage of ``optimize_vlf`` on (covariance, sign
    pattern) pairs, (m, 6, 6) and (m,), in one batched primal-dual
    interior point (HKM direction, Mehrotra predictor-corrector, steps
    ``_SDP_TAU`` of the way to the boundary) from X = I and a
    dual-feasible (mu, d). A pair leaves the batch once ``_closes``
    closes its bound 4 sum d against the best S its point (owner) has
    attained (floor, per point), once an iterate leaves its cone's
    interior in floating point, or after ``_SDP_MAX_ITER`` iterations.
    Returns per pair the best S at the top eigenvectors of its X
    iterates scaled into the box, and those weights; the certificate
    (mu, d), diag(d) - sum_i mu_i A_i checked positive semidefinite by
    ``eigvalsh``; and the iterations."""
    m = len(cov)
    F = _F[pattern].reshape(m, 8, 36)
    a = _E[pattern] + _minus_c(cov)[:, None]
    c0, blocks = -a[:, 2], _blocks(cov)
    y = np.full((m, 8), 1.0 / 3.0)
    y[:, 2:] = np.abs(a.mean(axis=1)).sum(axis=-1) + 1.0
    # primal slacks x = (u, w): X = I, u = 1 (tr(A_i - A_3) = 0) and
    # X_ll + w_l = 4 start feasible
    X = np.broadcast_to(np.eye(6), (m, 6, 6))
    x = np.tile([1.0, 1.0, 1.0] + [3.0] * 6, (m, 1))
    floor = floor.copy()
    best, best_x = np.full(m, -np.inf), np.zeros((m, 6))
    s_out, x_out, y_out = np.empty(m), np.empty((m, 6)), np.empty((m, 8))
    iterations = np.empty(m, dtype=int)
    rows = np.arange(m)
    for it in range(_SDP_MAX_ITER + 1):
        z = _LP_C - y @ _LP_G
        Z = c0 - (y[:, None] @ F).reshape(-1, 6, 6)
        w, v = np.linalg.eigh(np.concatenate([X, Z]))
        top = _box(v[:len(X), :, -1])
        s = _vlf_s(blocks, top)
        best_x = np.where((s > best)[:, None], top, best_x)
        best = np.maximum(s, best)
        np.maximum.at(floor, owner, best)
        bound = -(y @ _LP_B)
        done = (_closes(bound, floor[owner], _corner(blocks))
                | (w[:, 0].reshape(2, -1) <= 0.0).any(axis=0)
                | (np.hstack([x, z]).min(axis=1) <= 0.0)
                | (it == _SDP_MAX_ITER))
        if done.any():
            r = rows[done]
            s_out[r], x_out[r], y_out[r] = best[done], best_x[done], y[done]
            iterations[r] = it
            keep = ~done
            rows, owner, X, x, y, Z, z, F, c0, blocks, best, best_x = (
                t[keep] for t in (rows, owner, X, x, y, Z, z, F, c0, blocks,
                                  best, best_x))
            keep = np.concatenate([keep, keep])
            w, v = w[keep], v[keep]
        b = len(rows)
        if not b:
            break
        gap = np.einsum("bij,bij->b", X, Z) + np.einsum("bj,bj->b", x, z)
        # X^(-1/2) and Z^(-1/2) up to rotation, and Z^-1
        root = v.swapaxes(-1, -2) / np.sqrt(w)[..., None]
        zi = root[b:].swapaxes(-1, -2) @ root[b:]
        # Schur complement: tr(F_k X F_l Z^-1) plus the linear part
        schur = F @ (X[:, None] @ F.reshape(b, 8, 6, 6)
                     @ zi[:, None]).reshape(b, 8, 36).swapaxes(-1, -2)
        schur += (_LP_G * (x / z)[:, None]) @ _LP_G.T
        schur[:, np.arange(8), np.arange(8)] += np.finfo(float).eps * \
            np.trace(schur, axis1=1, axis2=2)[:, None]
        inv = np.linalg.inv(schur)
        step = (X, x, z, zi, F, inv)
        dX, dx, dy, dZ, dz = _hkm_direction(*step, np.zeros(b))
        ap, ad = _max_steps(root, x, z, dX, dx, dZ, dz)
        # Mehrotra: centring from the predictor's gap, its second-order term
        ahead = np.einsum("bij,bij->b", X + ap[:, None, None] * dX,
                          Z + ad[:, None, None] * dZ) + \
            np.einsum("bj,bj->b", x + ap[:, None] * dx, z + ad[:, None] * dz)
        dX, dx, dy, dZ, dz = _hkm_direction(
            *step, (ahead / gap) ** 3 * gap / 15.0, dX @ dZ @ zi,
            dx * dz / z)
        ap, ad = _max_steps(root, x, z, dX, dx, dZ, dz)
        X = X + ap[:, None, None] * dX
        x = x + ap[:, None] * dx
        y = y + ad[:, None] * dy
    z = _LP_C - y_out @ _LP_G
    mu, d = _certificate(a, z[:, :3], z[:, 3:])
    return s_out, x_out, mu, d, iterations


def _hkm_direction(X, x, z, zi, F, inv, target, corr_X=0.0, corr_x=0.0):
    """HKM direction (dX, dx, dy, dZ, dz) of ``_vlf_sdp`` towards
    X Z = target I and x z = target, less the corrector terms, with inv
    the inverse Schur complement: dX = target Z^-1 - corr_X - X - X dZ
    Z^-1, symmetrized, and likewise for the linear part."""
    q_X = target[:, None, None] * zi - corr_X
    q_x = target[:, None] / z - corr_x
    rhs = _LP_B - (F @ q_X.reshape(-1, 36, 1))[..., 0] - q_x @ _LP_G.T
    dy = (inv @ rhs[..., None])[..., 0]
    dZ = -(dy[:, None] @ F).reshape(-1, 6, 6)
    dz = -dy @ _LP_G
    # one step of iterative refinement against the Schur complement's own
    # action, which the inverse misses by its condition number times eps
    residual = rhs + (F @ (X @ dZ @ zi).reshape(-1, 36, 1))[..., 0] \
        + (x * dz / z) @ _LP_G.T
    dy = dy + (inv @ residual[..., None])[..., 0]
    dZ = -(dy[:, None] @ F).reshape(-1, 6, 6)
    dz = -dy @ _LP_G
    dX = q_X - X - X @ dZ @ zi
    dX = 0.5 * (dX + dX.swapaxes(-1, -2))
    return dX, q_x - x - x * dz / z, dy, dZ, dz


def _max_steps(root, x, z, dX, dx, dZ, dz):
    """Primal and dual step lengths of ``_vlf_sdp``, ``_SDP_TAU`` of the
    way to the cones' boundary and at most 1; root stacks X^(-1/2) and
    Z^(-1/2) up to rotation."""
    d = np.concatenate([dX, dZ])
    e = np.linalg.eigvalsh(root @ d @ root.swapaxes(-1, -2))[:, 0]
    e = np.minimum(e, np.concatenate([(dx / x).min(axis=1),
                                      (dz / z).min(axis=1)]))
    return np.minimum(1.0, -_SDP_TAU / np.minimum(e, -_SDP_TAU)).reshape(2, -1)


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


def mode_moment_witnesses(state: QuantumState,
                          modes=None) -> dict[str, WitnessReport]:
    """The moment witnesses of three modes, keyed by report name, from
    one evaluation of the seven moments they share:

    - ``hz_i1`` .. ``hz_i3``: I_alpha = |<a1 a2 a3>| - sqrt(<N_alpha>
      <N_beta N_gamma>), positive only if mode alpha is inseparable from
      the other two; not yet a genuine-entanglement statement;
    - ``genuine_sum``: |<a1 a2 a3>| - sum over alpha of
      sqrt(<a_alpha a_alpha+> <a_beta a_beta+ a_gamma a_gamma+>), the
      triangle-inequality bound on antinormal moments;
    - ``genuine_max``: |<a1 a2 a3>| - max over alpha of sqrt(<N_alpha>
      <N_beta N_gamma>), sharper, since a convex mixture is bounded by
      its largest branch.

    Positive ``genuine_sum`` or ``genuine_max`` certifies genuine
    tripartite entanglement."""
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
