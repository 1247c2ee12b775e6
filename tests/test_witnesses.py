"""Witness-family tests: formula examples, soundness battery, dominance
and invariance properties, negativity oracle values."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize

from triphoton import witnesses
from triphoton.errors import LayoutMismatchError
from triphoton.hilbert import (
    QuantumState,
    RegisterLayout,
    covariance_matrix,
    expect_monomial,
    fock_state,
)
from triphoton.rwa import CREATE, NUMBER, LadderMonomial
from triphoton.witnesses import (
    _PATTERNS,
    _SDP_TOL,
    VlfParams,
    _blocks,
    _vlf_dual,
    _vlf_kkt,
    _vlf_report,
    _vlf_s,
    _vlf_sdp,
    dv_genuine_witness,
    mode_moment_witnesses,
    negativity,
    optimize_vlf,
    vlf_value,
)

from oracles import (
    _nelder_mead,
    _vlf_objective,
    _vlf_penalized,
    _vlf_polish,
    evolve_static_expm,
    ghz_state,
    partial_trace,
    random_separable_mixture,
    triple_superposition,
    w_state,
)

LAY3 = RegisterLayout.bosons(3, 4)
QUBITS = RegisterLayout.qubits(3)


def vacuum3(layout=LAY3):
    return fock_state(layout, (0, 0, 0))


def random_full_support(layout, rng, mixed):
    """A seeded pure state, or a rank-4 mixture, with every basis level
    populated, the top Fock level of each mode included."""
    n = layout.total_dim
    if not mixed:
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        return QuantumState(layout, vec / np.linalg.norm(vec))
    k = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    rho = k @ k.conj().T
    return QuantumState(layout, rho / np.trace(rho).real)


def evolved_triple(gt, cutoff=8):
    lay = RegisterLayout.bosons(3, cutoff)
    up = LadderMonomial(((0, CREATE), (1, CREATE), (2, CREATE)), -1.0)
    psi = evolve_static_expm([up, up.conjugate()], fock_state(lay, (0, 0, 0)),
                             gt)
    return QuantumState(lay, psi.data, validate=False)


def evolved_pair(gt, cutoff=8):
    lay = RegisterLayout.bosons(3, cutoff)
    t1 = LadderMonomial(((0, CREATE), (1, CREATE)), 1j)
    t2 = LadderMonomial(((1, CREATE), (2, CREATE)), 1j)
    terms = [t1, t1.conjugate(), t2, t2.conjugate()]
    psi = evolve_static_expm(terms, fock_state(lay, (0, 0, 0)), gt)
    return QuantumState(lay, psi.data, validate=False)


class TestVlf:
    def test_vacuum_unit_weights_is_boundary(self):
        value = vlf_value(covariance_matrix(vacuum3()), (1, 1, 1), (1, 1, 1))
        # 3 - 3/2 - 3/2 with vacuum variance 1/2
        assert value == pytest.approx(0.0, abs=1e-14)
        assert not value > 0.0

    def test_zero_weights(self):
        value = vlf_value(covariance_matrix(vacuum3()), (0, 0, 0), (0, 0, 0))
        assert value == 0.0

    def test_triple_superposition_never_positive(self):
        rng = np.random.default_rng(7)
        cov = covariance_matrix(evolved_triple(0.2))
        for _ in range(40):
            x = rng.uniform(-2, 2, size=6)
            assert vlf_value(cov, x[:3], x[3:]) <= 1e-10

    def test_non_bosonic_subsystem_rejected(self):
        state = ghz_state(QUBITS)
        with pytest.raises(LayoutMismatchError):
            vlf_value(covariance_matrix(state, range(3)), (1, 1, 1),
                      (1, 1, 1))


def dual_certifies(cov):
    """The dual stage certifies cov: every sign pattern reached
    lambda_max <= 0."""
    return bool((_vlf_dual(cov[None])[0] <= 0.0).all())


def restart_starts(restarts, seed):
    """``restarts`` seeded uniform random points of the box [-2, 2]^6."""
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(restarts, 6))


def restart_oracle(cov, restarts, seed):
    """The seeded restart search that ``optimize_vlf`` no longer runs:
    the polish from ``restart_starts(restarts, seed)``, i.e. the former
    ``_search_vlf(cov, restarts, seed, 300)`` with each end point scored
    at its clipped weights; (best S, weights, objective evaluations).
    Every value it finds is attained, so it never exceeds the exact
    optimum."""
    return _vlf_polish(cov, restart_starts(restarts, seed))


def sdp_pairs(cov):
    """The (point, pattern) pairs the dual stage leaves open on one
    covariance, and the semidefinite stage's output on them."""
    lam, best, x, _ = _vlf_dual(cov[None])
    point, pattern = np.nonzero(24.0 * lam > best[:, None])
    return (lam[0], best[0], x[0], pattern,
            _vlf_sdp(cov[None][point], pattern, point, best))


def kkt_pairs(cov):
    """The (point, pattern) pairs the dual stage leaves open on one
    covariance, and the certificate stage's output on them."""
    lam, best, x, starts = _vlf_dual(cov[None])
    point, pattern = np.nonzero(24.0 * lam > best[:, None])
    return (lam[0], best[0], x[0], pattern,
            _vlf_kkt(cov[None][point], pattern, starts[point, pattern],
                     point, best))


def no_certificates(cov, pattern, x, owner, floor):
    """``_vlf_kkt`` closing no pair: every open pair goes to the interior
    point, as before the certificate stage."""
    return (np.zeros(len(cov), dtype=bool), np.empty(0), np.empty((0, 6)),
            np.empty((0, 3)), np.empty((0, 6)))


class TestOptimizeVlf:
    def test_vacuum_soundness(self):
        rep = optimize_vlf(vacuum3())
        assert rep.value <= 1e-9
        assert rep.components["verdict"] == "certified"

    def test_pair_process_detected(self):
        rep = optimize_vlf(evolved_pair(0.3))
        assert rep.value > 0.1
        assert rep.detects
        assert rep.components["verdict"] == "detected"
        assert np.all(np.abs(rep.parameters.g) <= 2.0)
        assert np.all(np.abs(rep.parameters.h) <= 2.0)

    def test_triple_process_blind(self):
        for gt in (0.05, 0.15):
            rep = optimize_vlf(evolved_triple(gt))
            assert rep.value <= 1e-9
            assert rep.components["verdict"] == "certified"

    def test_deterministic(self):
        state = evolved_pair(0.2)
        a = optimize_vlf(state)
        b = optimize_vlf(state)
        assert a.value == b.value
        assert a.parameters == b.parameters

    def test_vacuum_certified_at_exact_zero(self):
        # lambda_max is exactly 0 for several sign patterns here, so a
        # rounding error of the dual weights would leave them open
        assert dual_certifies(0.5 * np.eye(6))
        for cutoff in (1, 2, 4, 8):
            rep = optimize_vlf(fock_state(RegisterLayout.bosons(3, cutoff),
                                          (0, 0, 0)))
            assert rep.value == 0.0
            assert np.copysign(1.0, rep.value) == 1.0
            assert not rep.detects
            assert rep.components["verdict"] == "certified"
            assert rep.components["ipm_iterations"] == 0
            assert rep.components["s_upper"] == 0.0
            assert rep.parameters == VlfParams(g=(0, 0, 0), h=(0, 0, 0))
            np.testing.assert_array_equal(rep.components["cov_x"],
                                          0.5 * np.eye(3))

    def test_uncertified_path_is_the_search(self):
        # the open sign patterns go to the certificate stage, which closes
        # them all here; the value is the best S attained by either
        # stage, the bound the largest over the patterns, and the
        # interior point is not entered
        state = evolved_pair(0.3)
        rep = optimize_vlf(state)
        cov = covariance_matrix(state)
        lam, best, x0, pattern, (closed, s, x, mu, d) = kkt_pairs(cov)
        assert pattern.size and best > 0.0
        # the dual stage's weights lie on the boundary of the box
        assert np.abs(x0).max() == 2.0
        assert closed.all()
        k = np.argmax(s)
        assert rep.value == s[k] > best
        assert rep.parameters == VlfParams(g=tuple(x[k, :3]),
                                           h=tuple(x[k, 3:]))
        assert rep.components["ipm_iterations"] == 0
        assert rep.components["kkt_pairs"] == pattern.size
        bound = 24.0 * lam.clip(0.0)
        bound[pattern] = 4.0 * d.sum(axis=1)
        assert rep.components["s_upper"] == bound.max()
        assert rep.value == vlf_value(cov, x[k, :3], x[k, 3:])
        assert 0.0 <= rep.components["s_upper"] - rep.value <= \
            _SDP_TOL * (1.0 + rep.components["s_upper"])

    def test_interior_point_path_is_the_search(self, monkeypatch):
        # with the certificate stage closing nothing, the open patterns
        # go to the interior point: the value is the best S it attained,
        # within its tolerance of the bound
        monkeypatch.setattr(witnesses, "_vlf_kkt", no_certificates)
        state = evolved_pair(0.3)
        rep = optimize_vlf(state)
        cov = covariance_matrix(state)
        lam, best, x0, pattern, (s, x, mu, d, its) = sdp_pairs(cov)
        k = np.argmax(s)
        assert rep.value == s[k] > best
        assert rep.parameters == VlfParams(g=tuple(x[k, :3]),
                                           h=tuple(x[k, 3:]))
        assert rep.components["ipm_iterations"] == its.sum() > 0
        assert rep.components["kkt_pairs"] == 0
        bound = 24.0 * lam.clip(0.0)
        bound[pattern] = 4.0 * d.sum(axis=1)
        assert rep.components["s_upper"] == bound.max()
        assert 0.0 <= rep.components["s_upper"] - rep.value <= \
            _SDP_TOL * (1.0 + rep.components["s_upper"])

    @pytest.mark.parametrize("cutoff, local", [(2, (1, 0, 1)), (1, (1, 1))],
                             ids=["0+2", "0+1"])
    def test_product_at_the_cutoff_certified(self, cutoff, local):
        # Half the population of every mode sits on the top Fock level,
        # where a truncated a a^dag reads 0 instead of c + 1; exact
        # covariances still certify the product state.
        local = np.array(local, dtype=complex) / np.linalg.norm(local)
        vec = np.kron(np.kron(local, local), local)
        state = QuantumState(RegisterLayout.bosons(3, cutoff), vec)
        rep = optimize_vlf(state)
        assert rep.components["verdict"] == "certified"
        assert rep.value == 0.0
        assert not rep.detects
        assert max(negativity(state, [i]) for i in range(3)) < 1e-15

    def test_uncertified_search_pinned(self):
        # The 512-dimensional evolution behind evolved_pair sums in an
        # order that depends on the OpenBLAS thread count, which moves the
        # last bits of the state. The pin is taken with one BLAS thread,
        # as the benchmark runs, in a child process so that the setting
        # holds from the first import of numpy.
        here = Path(__file__).resolve().parent
        code = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(here)!r}, {str(here.parent / 'src')!r}]\n"
            "from test_witnesses import evolved_pair, restart_oracle\n"
            "from triphoton.hilbert import covariance_matrix\n"
            "from triphoton.witnesses import optimize_vlf\n"
            "state = evolved_pair(0.3)\n"
            "rep = optimize_vlf(state)\n"
            "oracle = restart_oracle(covariance_matrix(state), 200, 1)[0]\n"
            "print(json.dumps([rep.value, rep.components['verdict'],\n"
            "                  rep.components['ipm_iterations'],\n"
            "                  rep.components['s_upper'],\n"
            "                  [float(v) for v in rep.parameters.g],\n"
            "                  [float(v) for v in rep.parameters.h],\n"
            "                  oracle]))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300).stdout
        value, verdict, iterations, upper, g, h, oracle = json.loads(out)
        assert verdict == "detected"
        # the interior point's 11 iterations gave 1.1058946779172227,
        # bounded by 1.1058946779251353
        assert value == 1.1058946779198349
        assert iterations == 0
        assert upper == 1.105894677919978
        assert g == [-0.9762291299387151, 2.0, -0.976229129938715]
        assert h == [-0.976229129938715, -2.0, -0.9762291299387152]
        # the simplex polish pinned here before gave 1.1050574181421056,
        # and the 20-restart search 0.8458822213170961
        assert upper >= value > 1.1058946779172227
        assert value >= oracle >= 0.8458822213170961


# A product of single-mode squeezed vacua: lambda_min(C_x) lambda_min(C_p)
# = e^-1 / 4 < 1/4, and the block test holds with equality.
SQUEEZED_PRODUCT = np.diag([np.exp(-1) / 2, 0.5, 0.5, np.exp(1) / 2, 0.5, 0.5])


class TestBatchedSearchOracle:
    """The batched simplex against scipy's Nelder-Mead, start by start,
    on the same objective and starting points."""

    @staticmethod
    def scipy_starts(cov, x0, max_iter=300):
        objective = _vlf_objective(cov)
        return [minimize(lambda x: objective(x[None])[0], x,
                         method="Nelder-Mead",
                         options={"maxiter": max_iter, "xatol": 1e-10,
                                  "fatol": 1e-10})
                for x in x0]

    @pytest.mark.parametrize("max_iter", [1, 5, 300])
    @pytest.mark.parametrize("which", ["evolved_pair", "squeezed_product"])
    def test_restarts_bit_identical(self, which, max_iter):
        cov = (covariance_matrix(evolved_pair(0.3)) if which == "evolved_pair"
               else SQUEEZED_PRODUCT)
        x0 = np.random.default_rng(1).uniform(-2.0, 2.0, size=(8, 6))
        x, fun, nfev, nit = _nelder_mead(_vlf_objective(cov), x0, max_iter,
                                         xatol=1e-10, fatol=1e-10)
        ref = self.scipy_starts(cov, x0, max_iter)
        for r, res in enumerate(ref):
            assert np.array_equal(x[r], res.x)
            assert fun[r] == res.fun
            assert nfev[r] == res.nfev
            assert nit[r] == res.nit
        if which == "squeezed_product" and max_iter == 300:
            # some restarts stop on xatol/fatol, the others on max_iter
            assert min(nit) < max_iter
            assert max(nit) == max_iter

    def test_objective_evals_are_scipys_nfev(self):
        # the oracle polish counts scipy's evaluations, and its best end
        # point, scored at its clipped weights, lies between the origin's
        # 0 and the exact optimum
        state = evolved_pair(0.3)
        rep = optimize_vlf(state)
        cov = covariance_matrix(state)
        x0 = np.vstack([_vlf_dual(cov[None])[2], restart_starts(3, 0)])
        best, _, evals = _vlf_polish(cov, x0)
        ref = self.scipy_starts(cov, x0)
        assert evals == sum(r.nfev for r in ref)
        ends = [r.x.clip(-2.0, 2.0) for r in ref]
        assert best == max([0.0] + [vlf_value(cov, x[:3], x[3:])
                                    for x in ends])
        assert 0.0 < best <= rep.value <= rep.components["s_upper"]

    @pytest.mark.parametrize("seed", range(4))
    def test_roundoff_is_not_a_detection(self, seed):
        # restarts end a few ulps above 0 on this separable covariance;
        # the rounding bound keeps the origin's exact +0.0
        best, x, _ = restart_oracle(SQUEEZED_PRODUCT, 20, seed)
        assert best == 0.0
        assert math.copysign(1.0, best) == 1.0
        assert not x.any()

    def test_first_of_tied_end_points_wins(self):
        # S is even in (g, h) bit for bit, and a simplex started from -x0
        # is the mirror of the one from x0 step for step: two end points
        # of one value. The first one listed is reported.
        cov = covariance_matrix(evolved_pair(0.3))
        x0 = _vlf_dual(cov[None])[2]
        best, x, evals = _vlf_polish(cov, x0)
        assert best > 0 and np.abs(x).max() > 0
        for starts, end in ((np.vstack([x0, -x0]), x),
                            (np.vstack([-x0, x0]), -x)):
            tied_best, tied_x, tied_evals = _vlf_polish(cov, starts)
            assert tied_best == best
            assert tied_evals == 2 * evals
            np.testing.assert_array_equal(tied_x, end)

    def test_certified_state_counts_no_evaluations(self):
        rep = optimize_vlf(vacuum3())
        assert rep.components["ipm_iterations"] == 0

    def test_origin_best_returns_positive_zero(self, monkeypatch):
        # Left open on the squeezed product, which the dual stage
        # certifies, the semidefinite stage bounds its zero maximum only
        # to within its tolerance: "undecided", with the origin's +0.0
        # and no weights.
        monkeypatch.setattr(witnesses, "covariance_matrix",
                            lambda state, modes: SQUEEZED_PRODUCT)
        monkeypatch.setattr(witnesses, "_vlf_dual", left_open(
            witnesses._vlf_dual, lambda cov: True))
        rep = optimize_vlf(vacuum3())
        assert rep.components["verdict"] == "undecided"
        assert rep.components["ipm_iterations"] > 0
        assert 0.0 < rep.components["s_upper"] <= _SDP_TOL
        assert rep.value == 0.0
        assert math.copysign(1.0, rep.value) == 1.0
        assert rep.parameters == VlfParams(g=(0, 0, 0), h=(0, 0, 0))


def left_open(dual, which):
    """``_vlf_dual`` with every sign pattern of the covariances picked by
    ``which`` left open, at lambda_max = 1/100."""
    def dual_left_open(cov):
        lam, *rest = dual(cov)
        lam[np.array([which(c) for c in cov], dtype=bool)] = 0.01
        return lam, *rest
    return dual_left_open


class TestGridSearchOracle:
    """One search over many covariances against the search on each."""

    @pytest.mark.parametrize("max_iter", [1, 5, 300])
    def test_rows_of_different_covariances_match_scipy(self, max_iter):
        # squeezed-product rows stop early on xatol/fatol, among them the
        # first row, while the others run on, so the live rows' blocks
        # are gathered again after each freeze
        covs = [SQUEEZED_PRODUCT, covariance_matrix(evolved_pair(0.3)),
                _covariance((0.3, 0.5, 0.7), (0.8, 1.0, 1.2))]
        owner = np.arange(12) % 3
        x0 = np.random.default_rng(4).uniform(-2.0, 2.0, size=(12, 6))
        blocks = _blocks(np.stack(covs))[owner]
        x, fun, nfev, nit = _nelder_mead(_vlf_penalized, x0,
                                         max_iter, xatol=1e-10, fatol=1e-10,
                                         args=(blocks,))
        for r, (start, cov) in enumerate(zip(x0, np.array(covs)[owner])):
            res = TestBatchedSearchOracle.scipy_starts(cov, [start],
                                                       max_iter)[0]
            assert np.array_equal(x[r], res.x)
            assert fun[r] == res.fun
            assert nfev[r] == res.nfev
            assert nit[r] == res.nit
        if max_iter == 300:
            assert nit[0] < max_iter and min(nit[owner == 0]) < nit[0]
            assert min(nit[owner != 0]) == max_iter

    def test_stacked_report_matches_each_point(self, monkeypatch):
        # certified, detected and undecided points in one stack; the
        # squeezed product is left open, and the semidefinite stage
        # bounds its zero maximum only to within its tolerance
        covs = np.stack([
            0.5 * np.eye(6), covariance_matrix(evolved_pair(0.3)),
            SQUEEZED_PRODUCT, covariance_matrix(evolved_triple(0.15)),
            _covariance((-1.0, 0.5, 0.7), (-1.0, 1.0, 1.2)),
            covariance_matrix(evolved_pair(0.1))])
        dual = witnesses._vlf_dual
        monkeypatch.setattr(witnesses, "_vlf_dual", left_open(
            dual, lambda cov: np.all(cov == SQUEEZED_PRODUCT)))
        grid = _vlf_report(covs)
        assert grid.components["verdict"] == [
            "certified", "detected", "undecided", "certified", "detected",
            "detected"]
        for i, cov in enumerate(covs):
            monkeypatch.setattr(witnesses, "covariance_matrix",
                                lambda state, modes: cov)
            rep = optimize_vlf(vacuum3())
            assert np.array_equal(grid.value[i], rep.value)
            assert np.signbit(grid.value[i]) == np.signbit(rep.value)
            assert grid.detects[i] == rep.detects
            assert grid.components["verdict"][i] == rep.components["verdict"]
            assert (grid.components["ipm_iterations"][i]
                    == rep.components["ipm_iterations"])
            assert grid.components["s_upper"][i] == rep.components["s_upper"]
            assert [g[i] for g in grid.parameters.g] == \
                list(rep.parameters.g)
            assert [h[i] for h in grid.parameters.h] == \
                list(rep.parameters.h)
            for stacked, alone in zip(dual(covs), dual(cov[None])):
                assert np.array_equal(stacked[i], alone[0])

    def test_stacked_value_is_vlf_value(self):
        cov = covariance_matrix(evolved_pair(0.2))
        x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(200, 6))
        assert _vlf_s(_blocks(cov), x).tolist() == [
            vlf_value(cov, row[:3], row[3:]) for row in x]


def _covariance(lam_x, lam_p, seed=0):
    """6x6 (x..., p...) covariance whose blocks have the given spectra
    in random orthonormal bases, with a random x-p block."""
    rng = np.random.default_rng(seed)
    cov = np.zeros((6, 6))
    for block, lam in ((slice(0, 3), lam_x), (slice(3, 6), lam_p)):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cov[block, block] = q @ np.diag(lam) @ q.T
    cov[:3, 3:] = rng.normal(size=(3, 3))
    cov[3:, :3] = cov[:3, 3:].T
    return cov


class TestVlfCertificate:
    """The dual's certificate checked against the restart search and
    against random weights."""

    def assert_never_positive(self, cov, rng):
        assert restart_oracle(cov, 5, 3)[0] <= 1e-9
        # vlf_value at 10,000 random weights, in one stacked evaluation
        x = rng.uniform(-2.0, 2.0, size=(10_000, 6))
        assert np.all(_vlf_s(_blocks(cov), x) <= 1e-12)

    def test_certified_states_never_positive(self):
        rng = np.random.default_rng(2024)
        states = [vacuum3()] + [evolved_triple(gt) for gt in (0.05, 0.15, 0.3)]
        states += [random_separable_mixture(LAY3, rng) for _ in range(40)]
        for state in states:
            rep = optimize_vlf(state)
            assert rep.components["verdict"] == "certified"
            assert rep.value == 0.0
            self.assert_never_positive(covariance_matrix(state), rng)

    def test_product_above_quarter_certifies_below_half(self):
        cov = _covariance((0.3, 0.5, 0.7), (0.9, 1.0, 1.2))
        assert dual_certifies(cov)
        self.assert_never_positive(cov, np.random.default_rng(5))

    def test_product_below_quarter_not_certified(self):
        # x and p of mode 0 alone have 0.3 * 0.8 < 1/4: g_0 h_0 > 0
        # alone gives S = |g_0 h_0| - 0.3 g_0^2 - 0.8 h_0^2, at most
        # 1/20 on the box, which both bounds meet
        cov = np.diag([0.3, 0.5, 0.7, 0.8, 1.0, 1.2])
        assert not dual_certifies(cov)
        rep = _vlf_report(cov)
        best, upper = rep.value, rep.components["s_upper"]
        assert best <= 0.05 <= upper <= best + _SDP_TOL
        assert best >= restart_oracle(cov, 20, 0)[0]
        assert best == vlf_value(cov, rep.parameters.g, rep.parameters.h)

    def test_rotated_blocks_below_quarter_certified(self):
        # the same spectra in unaligned bases: the product misses it,
        # the dual proves it
        cov = _covariance((0.3, 0.5, 0.7), (0.8, 1.0, 1.2))
        assert dual_certifies(cov)
        self.assert_never_positive(cov, np.random.default_rng(7))

    def test_squeezed_product_certified(self, monkeypatch):
        # lambda_min(C_x) lambda_min(C_p) = e^-1 / 4 misses this
        # separable state; the dual holds with lambda_max = 0
        assert dual_certifies(SQUEEZED_PRODUCT)
        self.assert_never_positive(SQUEEZED_PRODUCT,
                                   np.random.default_rng(6))
        monkeypatch.setattr(witnesses, "covariance_matrix",
                            lambda state, modes: SQUEEZED_PRODUCT)
        rep = optimize_vlf(vacuum3())
        assert rep.components["verdict"] == "certified"
        assert rep.value == 0.0
        assert math.copysign(1.0, rep.value) == 1.0

    def test_negative_spectra_not_certified(self):
        cov = _covariance((-1.0, 0.5, 0.7), (-1.0, 1.0, 1.2))
        assert not dual_certifies(cov)
        rep = _vlf_report(cov)
        assert rep.components["verdict"] == "detected"
        assert rep.value > 0.0
        assert rep.value == vlf_value(cov, rep.parameters.g,
                                      rep.parameters.h)

    def test_one_step_certifies_what_the_block_test_did(self, monkeypatch):
        # Where [[C_x, -D/2], [-D/2, C_p]] >= 0 for all 8 sign matrices
        # D, every dual weight certifies, the uniform first one included.
        monkeypatch.setattr(witnesses, "_DUAL_STEPS", 1)
        rng = np.random.default_rng(11)
        covs = [0.5 * np.eye(6), SQUEEZED_PRODUCT]
        covs += [covariance_matrix(random_separable_mixture(LAY3, rng))
                 for _ in range(50)]
        for cov in covs:
            blocks = np.zeros((8, 6, 6))
            blocks[:, :3, :3], blocks[:, 3:, 3:] = cov[:3, :3], cov[3:, 3:]
            for b, signs in zip(blocks, product((1, -1), repeat=3)):
                b[:3, 3:] = b[3:, :3] = -0.5 * np.diag(signs)
            assert np.linalg.eigvalsh(blocks)[:, 0].min() >= -1e-15
            assert dual_certifies(cov)


def _gaussian_covariance(h, nu):
    """6x6 (x..., p...) covariance of the Gaussian state with symplectic
    eigenvalues nu (each >= 1/2, the vacuum's) and symplectic matrix
    exp(J H), H symmetric with the 21 upper entries h."""
    sym = np.zeros((6, 6))
    sym[np.triu_indices(6)] = h
    sym = sym + np.triu(sym, 1).T
    j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3))
    s = expm(j @ sym)
    return s @ np.diag(np.concatenate([nu, nu])) @ s.T


def _independent_forms(cov, p):
    """The three forms E_i - C of sign pattern p, with E_i and C built
    here from the pattern's signs and the covariance's blocks."""
    c = np.zeros((6, 6))
    c[:3, :3], c[3:, 3:] = cov[:3, :3], cov[3:, 3:]
    forms = []
    for i in range(3):
        e = np.zeros((6, 6))
        for lo in range(3):
            e[lo, lo + 3] = e[lo + 3, lo] = 0.5 * _PATTERNS[p][i][lo]
        forms.append(e - c)
    return forms


def _independent_bounds(cov, pattern, mu, d):
    """For each certificate (mu, d) of a sign pattern, the smallest
    eigenvalue of diag(d) - sum_i mu_i (E_i - C), the forms built by
    ``_independent_forms``."""
    out = []
    for p, m, dd in zip(pattern, mu, d):
        slack = np.diag(dd)
        for m_i, form in zip(m, _independent_forms(cov, p)):
            slack = slack - m_i * form
        out.append(np.linalg.eigvalsh(slack)[0])
    return np.array(out)


class TestExactOptimum:
    """The semidefinite stage against its own certificates, against
    ``vlf_value`` and against the restart oracle, on random
    covariances."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1.0, 2.0), min_size=6, max_size=6),
           st.integers(0, 2**16))
    def test_random_spectra(self, spectra, seed):
        cov = _covariance(spectra[:3], spectra[3:], seed)
        rep = _vlf_report(cov)
        g, h, upper = rep.parameters.g, rep.parameters.h, \
            rep.components["s_upper"]
        assert max(np.abs(g).max(), np.abs(h).max()) <= 2.0
        assert rep.value == vlf_value(cov, g, h)
        assert rep.value <= upper
        # every open pattern's (mu, d) proves its bound independently
        lam, _, _, pattern, (_, _, mu, d, _) = sdp_pairs(cov)
        assert (mu >= 0.0).all() and (d >= 0.0).all()
        assert np.all(np.abs(mu.sum(axis=1) - 1.0) <= 4e-16)
        assert (_independent_bounds(cov, pattern, mu, d) >= 0.0).all()
        # s_upper is the largest bound over the 32 patterns
        bound = 24.0 * lam.clip(0.0)
        bound[pattern] = 4.0 * d.sum(axis=1)
        assert bound.max() == upper
        # a local search attains what it finds, so never passes the
        # bound; on these covariances, most of which violate the
        # uncertainty relation, the relaxation can be loose and the
        # search can pass the value
        assert _vlf_polish(cov, restart_starts(8, seed))[0] <= upper

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-0.6, 0.6), min_size=21, max_size=21),
           st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
    def test_gaussian_states_close_the_gap(self, h, nu):
        # On covariances of Gaussian states the relaxation is tight: the
        # bound meets the attained value wherever S detects. The
        # iteration stops at _SDP_TOL; where rounding leaves X or Z
        # singular first, the gap stalls, within ten times that.
        cov = _gaussian_covariance(h, nu)
        rep = _vlf_report(cov)
        upper = rep.components["s_upper"]
        assert rep.value == vlf_value(cov, rep.parameters.g,
                                      rep.parameters.h)
        assert rep.value <= upper
        if rep.components["verdict"] == "detected":
            assert upper - rep.value <= 10 * _SDP_TOL * (1.0 + upper)
        assert _vlf_polish(cov, restart_starts(8, 0))[0] <= rep.value


    def test_open_pattern_certified_at_the_final_mu(self):
        # draw 1768 of these Gaussian states: the dual stage leaves one
        # pattern open, the interior point stops with s_upper ~3.6e-12,
        # above the rounding bound, and lambda_max at its final mu is
        # ~-2e-5, which the dual stage's test reads as certified
        rng = np.random.default_rng(1)
        for _ in range(1769):
            h = rng.uniform(-0.3, 0.3, 21)
            nu = rng.uniform(0.5, 1.5, 3)
        cov = _gaussian_covariance(h, nu)
        lam, _, _, pattern, (_, _, mu, _, _) = sdp_pairs(cov)
        assert len(pattern) == 1 and lam[pattern[0]] > 0.0
        # lambda_max(sum_i mu_i A_i) < 0: diag(0) - sum_i mu_i A_i > 0
        assert _independent_bounds(cov, pattern, mu, np.zeros((1, 6)))[0] > 0
        rep = _vlf_report(cov)
        assert rep.components["verdict"] == "certified"
        assert 0.0 < rep.components["s_upper"] < 1e-11
        assert rep.value == 0.0


class TestCertificateStage:
    """The rank-one KKT certificates against their own bounds, the
    interior point on the same pairs, and the interior point's bits where
    the certificate fails."""

    @staticmethod
    def assert_certificates(cov):
        # every accepted (mu, d) proves its bound independently, with mu
        # on the simplex; each pattern's own objective min_i x^T A_i x,
        # at the interior point's weights on the same pair and at the
        # certificate's, lies at or below that bound 4 sum d
        _, best, _, pattern, (closed, _, x, mu, d) = kkt_pairs(cov)
        pattern = pattern[closed]
        assert (_independent_bounds(cov, pattern, mu, d) >= 0.0).all()
        assert np.all(np.abs(mu.sum(axis=1) - 1.0) <= 4e-16)
        point = np.zeros(len(pattern), dtype=int)
        ipm = _vlf_sdp(cov[None][point], pattern, point,
                       np.array([best]))[1]
        for p, bound, weights in zip(pattern, 4.0 * d.sum(axis=1),
                                     np.stack([ipm, x], axis=1)):
            forms = _independent_forms(cov, p)
            for v in weights:
                assert min(v @ form @ v for form in forms) <= bound

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-0.6, 0.6), min_size=21, max_size=21),
           st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
    def test_gaussian_states(self, h, nu):
        self.assert_certificates(_gaussian_covariance(h, nu))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1.0, 2.0), min_size=6, max_size=6),
           st.integers(0, 2**16))
    def test_random_spectra(self, spectra, seed):
        self.assert_certificates(_covariance(spectra[:3], spectra[3:], seed))

    def test_shipped_optimum_matches_its_forms(self):
        # at g t = 0.3 the one open pattern closes with two active forms
        # at the value, the third above it, and d on the two faces
        cov = covariance_matrix(evolved_pair(0.3))
        _, _, _, pattern, (closed, s, x, mu, d) = kkt_pairs(cov)
        assert closed.tolist() == [True]
        q = np.array([x[0] @ form @ x[0]
                      for form in _independent_forms(cov, pattern[0])])
        assert np.abs(q[[0, 2]] - s[0]).max() <= 1e-15
        assert q[1] > s[0] + 1.0
        assert mu[0, 1] == 0.0
        # off the faces d is the repair's margin alone
        off = d[0, [0, 2, 3, 5]]
        assert (off == off[0]).all() and off[0] < 1e-14
        assert (d[0, [1, 4]] > 0.1).all()

    def test_wrong_active_set_falls_to_the_interior_point(self, monkeypatch):
        # every form read as active: the Newton system holds the third
        # form at the value too, which the optimum does not, so no
        # certificate closes and the interior point runs as it did alone
        cov = covariance_matrix(evolved_pair(0.3))
        with monkeypatch.context() as m:
            m.setattr(witnesses, "_vlf_kkt", no_certificates)
            alone = _vlf_report(cov)
        monkeypatch.setattr(witnesses, "_KKT_ACTIVE", 1.0)
        rep = _vlf_report(cov)
        assert rep.components["kkt_pairs"] == 0
        assert rep.components["ipm_iterations"] > 0
        assert rep.value == alone.value
        assert rep.parameters == alone.parameters
        for key in ("verdict", "s_upper", "ipm_iterations"):
            assert rep.components[key] == alone.components[key]

    def test_singular_newton_system_falls_to_the_interior_point(
            self, monkeypatch):
        # A start at the origin reads every form as active and no face:
        # the three forms' rows of the Jacobian are equal, so LU meets an
        # exact zero pivot. That pair alone leaves the batch and goes to
        # the interior point with the bits it gets without the stage; the
        # other point's pair still closes.
        covs = np.stack([covariance_matrix(evolved_pair(t))
                         for t in (0.3, 0.2)])
        dual = witnesses._vlf_dual

        def origin_start(cov):
            lam, best, x, starts = dual(cov)
            starts[0] = 0.0
            return lam, best, x, starts

        with monkeypatch.context() as m:
            m.setattr(witnesses, "_vlf_kkt", no_certificates)
            alone = _vlf_report(covs)
        monkeypatch.setattr(witnesses, "_vlf_dual", origin_start)
        rep = _vlf_report(covs)
        assert rep.components["kkt_pairs"][0] == 0
        assert rep.components["kkt_pairs"][1] > 0
        assert rep.components["ipm_iterations"][1] == 0
        assert rep.components["ipm_iterations"][0] == \
            alone.components["ipm_iterations"][0] > 0
        assert rep.value[0] == alone.value[0]
        assert rep.components["s_upper"][0] == alone.components["s_upper"][0]
        assert rep.components["verdict"][0] == alone.components["verdict"][0]
        assert [g[0] for g in rep.parameters.g] == \
            [g[0] for g in alone.parameters.g]
        assert [h[0] for h in rep.parameters.h] == \
            [h[0] for h in alone.parameters.h]


class TestHzWitness:
    def test_perturbative_value_exact(self):
        g0t = 0.08
        lay = LAY3
        vec = fock_state(lay, (0, 0, 0)).data + \
            g0t * fock_state(lay, (1, 1, 1)).data
        state = QuantumState(lay, vec, validate=False)
        rep = mode_moment_witnesses(state)["hz_i1"]
        assert rep.value == pytest.approx(g0t - g0t**2, rel=1e-12)

    def test_vacuum_is_zero(self):
        for singled in range(3):
            assert mode_moment_witnesses(vacuum3())[
                f"hz_i{singled + 1}"].value == 0.0

    def test_triple_fock_is_minus_one(self):
        state = fock_state(LAY3, (1, 1, 1))
        rep = mode_moment_witnesses(state)["hz_i1"]
        assert rep.value == pytest.approx(-1.0, abs=1e-14)


class TestGenuineSum:
    def test_vacuum(self):
        rep = mode_moment_witnesses(vacuum3())["genuine_sum"]
        assert rep.value == pytest.approx(-3.0, abs=1e-14)

    def test_triple_fock(self):
        rep = mode_moment_witnesses(fock_state(LAY3, (1, 1, 1)))["genuine_sum"]
        assert rep.value == pytest.approx(-6 * np.sqrt(2), rel=1e-14)

    def test_small_eps_expansion(self):
        # closed form on the normalized (|000> + eps|111>) family:
        # [eps - 3 sqrt((1+2eps^2)(1+4eps^2))] / (1+eps^2)
        for eps in (1e-3, 1e-2, 0.05):
            state = triple_superposition(LAY3, eps)
            rep = mode_moment_witnesses(state)["genuine_sum"]
            closed = (eps - 3 * np.sqrt((1 + 2 * eps**2) * (1 + 4 * eps**2))) \
                / (1 + eps**2)
            assert rep.value == pytest.approx(closed, rel=1e-12)
            hand = -3.0 + eps - 6.0 * eps**2  # O(eps^3) hand expansion
            assert rep.value == pytest.approx(hand, abs=40 * eps**3)

    def test_top_fock_level_is_untruncated(self):
        # <a a+> = c + 1 on |c>, which the truncated a a+ would give as 0
        for c in (1, 2, 4):
            state = fock_state(RegisterLayout.bosons(3, c), (c, c, c))
            rep = mode_moment_witnesses(state)["genuine_sum"]
            assert rep.value == pytest.approx(-3 * np.sqrt((c + 1)**3),
                                              abs=1e-12)

    def test_matches_number_moment_form(self):
        rng = np.random.default_rng(515)
        lay = RegisterLayout.bosons(3, 2)
        for mixed in (False, True, False, True):
            state = random_full_support(lay, rng, mixed)
            n = [expect_monomial(state, ((i, NUMBER),)).real
                 for i in range(3)]
            bound = 0.0
            for a, (b, g) in enumerate(((1, 2), (0, 2), (0, 1))):
                nn = expect_monomial(state, ((b, NUMBER), (g, NUMBER))).real
                bound += np.sqrt((n[a] + 1) * (nn + n[b] + n[g] + 1))
            rep = mode_moment_witnesses(state)["genuine_sum"]
            assert rep.value == pytest.approx(
                abs(rep.components["triple"]) - bound, rel=1e-12)


class TestMomentEvaluation:
    def test_seven_moments_per_state(self, monkeypatch):
        calls = []
        real = witnesses.expect_monomial

        def counting(state, factors, coefficient=1.0):
            calls.append(factors)
            return real(state, factors, coefficient)

        monkeypatch.setattr(witnesses, "expect_monomial", counting)
        states = [vacuum3(), triple_superposition(LAY3, 0.5),
                  evolved_triple(0.1).to_density()]
        for state in states:
            reports = mode_moment_witnesses(state)
            assert set(reports) == {"hz_i1", "hz_i2", "hz_i3",
                                    "genuine_sum", "genuine_max"}
        assert len(calls) == 7 * len(states)

    def test_lookups_match_the_shared_evaluation(self):
        state = evolved_triple(0.12)
        reports = mode_moment_witnesses(state)
        for singled in range(3):
            assert mode_moment_witnesses(state)[
                f"hz_i{singled + 1}"].value == reports[
                    f"hz_i{singled + 1}"].value
        assert mode_moment_witnesses(state)["genuine_sum"].value == \
            reports["genuine_sum"].value
        assert mode_moment_witnesses(state)["genuine_max"].value == \
            reports["genuine_max"].value


class TestGenuineMax:
    def test_vacuum(self):
        assert mode_moment_witnesses(vacuum3())["genuine_max"].value == 0.0

    def test_eps_family_closed_form(self):
        for eps in (0.1, 0.3, 0.5, 0.9):
            state = triple_superposition(LAY3, eps)
            rep = mode_moment_witnesses(state)["genuine_max"]
            assert rep.value == pytest.approx(
                eps * (1 - eps) / (1 + eps**2), rel=1e-12)
            assert rep.detects == (0 < eps < 1)

    def test_half_eps_reference_point(self):
        reports = mode_moment_witnesses(triple_superposition(LAY3, 0.5))
        assert reports["genuine_max"].value == pytest.approx(0.2, rel=1e-12)
        assert reports["genuine_sum"].value < 0.0

    def test_dominates_sum_variant(self):
        rng = np.random.default_rng(31)
        bank = [random_separable_mixture(LAY3, rng) for _ in range(25)]
        bank += [triple_superposition(LAY3, e) for e in (0.05, 0.5, 0.9)]
        bank += [evolved_triple(0.15), evolved_pair(0.3)]
        for state in bank:
            reports = mode_moment_witnesses(state)
            g1 = reports["genuine_sum"].value
            g2 = reports["genuine_max"].value
            assert g2 >= g1

    def test_strictly_greater_with_photons(self):
        reports = mode_moment_witnesses(triple_superposition(LAY3, 0.4))
        assert reports["genuine_max"].value > reports["genuine_sum"].value


class TestDvGenuine:
    def test_ghz_numerator(self):
        rep = dv_genuine_witness(ghz_state(QUBITS))
        assert abs(rep.components["triple"]) == pytest.approx(0.5, abs=1e-14)

    def test_w_numerator_vanishes(self):
        rep = dv_genuine_witness(w_state(QUBITS))
        assert abs(rep.components["triple"]) == pytest.approx(0.0, abs=1e-14)

    def test_product_state_sound_in_every_mode(self):
        state = fock_state(QUBITS, (0, 0, 0))
        for ordering in ("normal", "antinormal"):
            for combine in ("max", "sum"):
                rep = dv_genuine_witness(state, ordering, combine)
                assert rep.value <= 0.0

    def test_partial_ghz_detected(self):
        # (|ggg> + eta |eee>)/norm with 0 < eta < 1 mirrors the bosonic
        # eps family: detected by the max/normal default
        eta = 0.4
        vec = np.zeros(8, dtype=complex)
        vec[0], vec[7] = 1.0, eta
        vec /= np.linalg.norm(vec)
        rep = dv_genuine_witness(QuantumState(QUBITS, vec))
        assert rep.value == pytest.approx(eta * (1 - eta) / (1 + eta**2),
                                          rel=1e-12)
        assert rep.detects

    def test_antinormal_matches_explicit_moments(self):
        # ground populations from explicit sigma- sigma+ matrices, as
        # against the 1 - sigma+ sigma- identity the witness uses
        down = np.array([[0, 1], [0, 0]], dtype=complex)
        ground = down @ down.conj().T
        eye = np.eye(2)

        def on(site, op):
            mats = [op if i == site else eye for i in range(3)]
            return np.kron(np.kron(mats[0], mats[1]), mats[2])

        lowers = on(0, down) @ on(1, down) @ on(2, down)
        rng = np.random.default_rng(616)
        for mixed in (False, True) * 3:
            state = random_full_support(QUBITS, rng, mixed)
            rho = state.to_density().data

            def moment(op):
                return np.trace(rho @ op)

            terms = [np.sqrt(max(moment(on(a, ground)).real, 0.0)
                             * max(moment(on(b, ground) @ on(g, ground)).real,
                                   0.0))
                     for a, (b, g) in enumerate(((1, 2), (0, 2), (0, 1)))]
            triple = abs(moment(lowers))
            for combine, bound in (("max", max(terms)), ("sum", sum(terms))):
                rep = dv_genuine_witness(state, "antinormal", combine)
                assert abs(rep.value - (triple - bound)) <= 1e-15

    def test_non_qubit_rejected(self):
        with pytest.raises(LayoutMismatchError):
            dv_genuine_witness(vacuum3())

    def test_option_validation(self):
        state = ghz_state(QUBITS)
        with pytest.raises(ValueError):
            dv_genuine_witness(state, ordering="weird")
        with pytest.raises(ValueError):
            dv_genuine_witness(state, combine="min")


class TestNegativity:
    def test_bell_pair(self):
        lay = RegisterLayout.qubits(2)
        bell = QuantumState(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert negativity(bell, {0}) == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        lay = RegisterLayout.qubits(2)
        assert negativity(fock_state(lay, (0, 1)), {0}) == \
            pytest.approx(0.0, abs=1e-12)

    def test_ghz_single_vs_pair(self):
        state = ghz_state(QUBITS)
        for i in range(3):
            assert negativity(state, {i}) == pytest.approx(0.5, abs=1e-12)

    def test_separable_mixture_not_negative(self):
        rng = np.random.default_rng(9)
        lay = RegisterLayout.bosons(2, 3)
        for _ in range(10):
            state = random_separable_mixture(lay, rng)
            assert negativity(state, {0}) < 1e-9

    def test_invalid_bipartition(self):
        state = ghz_state(QUBITS)
        with pytest.raises(LayoutMismatchError):
            negativity(state, set())
        with pytest.raises(LayoutMismatchError):
            negativity(state, {0, 1, 2})

    @pytest.mark.parametrize("seed", range(3))
    def test_pure_state_matches_density_path(self, seed):
        # The Schmidt sum against the partial-transpose spectrum of the
        # density, on random pure states of any norm and on a weakly
        # entangled evolved state.
        rng = np.random.default_rng(40 + seed)
        lay = RegisterLayout((("boson", 3), ("qubit", 2), ("boson", 4)))
        n = lay.total_dim
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec *= rng.uniform(0.3, 2.0) / np.linalg.norm(vec)
        states = [QuantumState(lay, vec, validate=False),
                  evolved_triple(0.01 + 0.1 * seed, cutoff=4)]
        for state in states:
            for part in ({0}, {1}, {2}, {0, 2}, {1, 2}):
                want = negativity(state.to_density(), part)
                assert negativity(state, part) == pytest.approx(
                    want, rel=1e-10, abs=1e-15)

    def test_pure_state_memory_at_cutoff_12(self):
        # The density of this 2,197-state register alone would take
        # 2197^2 * 16 B = 77 MB.
        state = triple_superposition(RegisterLayout.bosons(3, 12), 0.5)
        tracemalloc.start()
        try:
            values = [negativity(state, {i}) for i in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # Schmidt coefficients 1 and 0.5 over sqrt(1.25)
        assert values == pytest.approx([0.4] * 3, rel=1e-14)


class TestSoundnessBattery:
    def test_mode_witnesses_on_separable_mixtures(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            state = random_separable_mixture(LAY3, rng)
            assert optimize_vlf(state).value <= 1e-9
            reports = mode_moment_witnesses(state)
            for singled in range(3):
                assert reports[f"hz_i{singled + 1}"].value <= 1e-9
            assert reports["genuine_sum"].value <= 1e-9
            assert reports["genuine_max"].value <= 1e-9

    def test_qubit_witness_on_separable_mixtures(self):
        rng = np.random.default_rng(4321)
        for _ in range(40):
            state = random_separable_mixture(QUBITS, rng)
            for combine in ("max", "sum"):
                for ordering in ("normal", "antinormal"):
                    rep = dv_genuine_witness(state, ordering, combine)
                    assert rep.value <= 1e-9

    def test_detection_implies_negativity(self):
        for gt in (0.05, 0.15):
            state = evolved_triple(gt)
            assert mode_moment_witnesses(state)["genuine_max"].value > 0
            assert any(negativity(state, {i}) > 1e-6 for i in range(3))


class TestLocalPhaseInvariance:
    @staticmethod
    def dephase(state, thetas):
        lay = state.layout
        dims = lay.dims
        phases = np.ones(1, dtype=complex)
        for d, th in zip(dims, thetas):
            phases = np.kron(phases, np.exp(1j * th * np.arange(d)))
        return QuantumState(lay, phases * state.data, validate=False)

    def test_moment_witnesses_invariant(self):
        rng = np.random.default_rng(77)
        state = evolved_triple(0.12)
        for _ in range(5):
            thetas = rng.uniform(0, 2 * np.pi, size=3)
            rotated = self.dephase(state, thetas)
            before = mode_moment_witnesses(state)
            after = mode_moment_witnesses(rotated)
            for singled in range(3):
                key = f"hz_i{singled + 1}"
                assert after[key].value == pytest.approx(before[key].value,
                                                         abs=1e-12)
            for key in ("genuine_sum", "genuine_max"):
                assert after[key].value == pytest.approx(before[key].value,
                                                         abs=1e-12)

    def test_qubit_witness_invariant(self):
        rng = np.random.default_rng(78)
        eta_vec = np.zeros(8, dtype=complex)
        eta_vec[0], eta_vec[7] = 1.0, 0.5
        eta_vec /= np.linalg.norm(eta_vec)
        state = QuantumState(QUBITS, eta_vec)
        base = dv_genuine_witness(state).value
        for _ in range(5):
            thetas = rng.uniform(0, 2 * np.pi, size=3)
            rotated = self.dephase(state, thetas)
            assert dv_genuine_witness(rotated).value == pytest.approx(
                base, abs=1e-12)


class TestReportShape:
    def test_detects_iff_positive(self):
        pos = mode_moment_witnesses(
            triple_superposition(LAY3, 0.5))["genuine_max"]
        neg = mode_moment_witnesses(vacuum3())["genuine_sum"]
        assert pos.detects and pos.value > 0
        assert not neg.detects and neg.value <= 0

    def test_components_present(self):
        rep = mode_moment_witnesses(
            triple_superposition(LAY3, 0.5))["genuine_max"]
        assert set(rep.components) == {"triple", "term_1", "term_2", "term_3"}


class TestMixedStateInputs:
    def test_witnesses_accept_density_matrices(self):
        reports = mode_moment_witnesses(evolved_triple(0.1).to_density())
        assert reports["genuine_max"].value > 0
        assert reports["hz_i1"].value > 0

    def test_qubit_marginal_of_ghz(self):
        # tracing one qubit leaves a separable pair: no negativity
        reduced = partial_trace(ghz_state(QUBITS), {0, 1})
        assert negativity(reduced, {0}) == pytest.approx(0.0, abs=1e-12)
