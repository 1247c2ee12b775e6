"""Circuit-model tests: effective junction, mode solver, coupling tables.

Expected values are either closed-form limits or frozen outputs of the
independent oracles defined here (plain bisection, quadrature).
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from triphoton import (
    CavityParams,
    SquidParams,
    coupling_table,
    effective_junction,
    mode_spectrum,
    solve_wavenumbers,
    three_spdc_coupling,
)
from triphoton.circuit import PHI0
from triphoton.errors import SingularBiasError

from oracles import exact_josephson_energy


def bisect_oracle(f, lo, hi, tol=1e-10):
    """Plain bisection, independent of the production root finder."""
    flo = f(lo)
    assert flo * f(hi) <= 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestEffectiveJunction:
    def test_symmetric_zero_bias(self):
        sq = SquidParams(ej1=5.0, ej2=5.0, c1=1e-13, c2=1e-13,
                         flux_bias=0.0, pump_amplitude=0.01)
        eff = effective_junction(sq)
        assert eff.e_bar == pytest.approx(10.0, rel=1e-15)
        assert eff.delta_e == 0.0
        assert eff.delta_alpha == 0.0
        assert eff.c_total == 2e-13

    def test_symmetric_squid_has_no_cubic_channel(self):
        # delta_alpha carries the asymmetry in its numerator
        for bias in [0.1, 0.5, 1.0, -0.8]:
            sq = SquidParams(ej1=3.0, ej2=3.0, c1=1e-13, c2=1e-13,
                             flux_bias=bias, pump_amplitude=0.01)
            assert effective_junction(sq).delta_alpha == 0.0

    def test_quarter_flux_energy(self):
        # ej1 = ej2 = 100, bias = pi/4 -> e_bar = 200 cos(pi/4)
        sq = SquidParams(ej1=100.0, ej2=100.0, c1=1e-13, c2=1e-13,
                         flux_bias=math.pi / 4, pump_amplitude=0.01)
        eff = effective_junction(sq)
        assert eff.e_bar == pytest.approx(200.0 * math.cos(math.pi / 4), rel=1e-14)
        assert eff.e_bar == pytest.approx(141.4213562373095, rel=1e-12)
        # symmetric case: exact two-junction energy at loop flux 2*bias
        # reduces to 200 |cos(bias)| with no expansion error at all
        assert eff.e_bar == pytest.approx(
            exact_josephson_energy(100.0, 100.0, 2 * (math.pi / 4)), rel=1e-14)

    def test_singular_bias_rejected(self):
        for bias in [math.pi / 2, -math.pi / 2, 3 * math.pi / 2]:
            sq = SquidParams(ej1=1.0, ej2=1.0, c1=1e-13, c2=1e-13,
                             flux_bias=bias, pump_amplitude=0.01)
            with pytest.raises(SingularBiasError):
                effective_junction(sq)

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
    def test_matches_exact_two_junction_energy(self, delta):
        # The expansion evaluated at bias b approximates the exact
        # two-junction energy at loop flux 2b (the exact formula carries
        # the half-angle). Relative error stays below 2 delta^2 on a
        # 100-point grid kept away from the half-flux region.
        ej1 = 4.0
        ej2 = ej1 * (1 + delta) / (1 - delta)
        bound = 2 * delta**2
        for bias in np.linspace(-0.7, 0.7, 100):
            sq = SquidParams(ej1=ej1, ej2=ej2, c1=1e-13, c2=1e-13,
                             flux_bias=bias, pump_amplitude=0.01)
            approx = effective_junction(sq).e_bar
            exact = exact_josephson_energy(ej1, ej2, 2 * bias)
            assert abs(approx - exact) / exact < bound

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SquidParams(ej1=-1.0, ej2=1.0, c1=1e-13, c2=1e-13,
                        flux_bias=0.0, pump_amplitude=0.01)
        with pytest.raises(ValueError):
            SquidParams(ej1=1.0, ej2=2.0, c1=1e-13, c2=1e-13,
                        flux_bias=0.0, pump_amplitude=0.01)  # |Delta| = 1/3
        with pytest.raises(ValueError):
            SquidParams(ej1=1.0, ej2=1.0, c1=1e-13, c2=1e-13,
                        flux_bias=0.0, pump_amplitude=0.5)


class TestWavenumberSolver:
    CAV = CavityParams(length=1.0, cap_per_len=1.0, ind_per_len=1.0)

    def test_free_cavity_roots(self):
        k = solve_wavenumbers(self.CAV, 0.0, 5)
        assert np.allclose(k, [n * math.pi for n in range(1, 6)], atol=1e-12)

    def test_large_target_approaches_pole(self):
        # R -> infinity pushes each root toward (n + 1/2) pi from below
        k = solve_wavenumbers(self.CAV, 2.0e8, 4)
        for n, kn in enumerate(k):
            assert kn < (n + 0.5) * math.pi
            assert (n + 0.5) * math.pi - kn < 1e-4

    def test_first_root_of_x_tan_x_equals_one(self):
        # oracle: plain bisection on (0, pi/2) to 1e-10
        oracle = bisect_oracle(lambda x: x * math.tan(x) - 1.0,
                               1e-9, math.pi / 2 - 1e-9)
        k = solve_wavenumbers(self.CAV, 2.0, 1)  # R = l d e/2 = 1
        assert k[0] == pytest.approx(oracle, abs=1e-10)
        assert k[0] == pytest.approx(0.860334, abs=1e-6)

    @pytest.mark.parametrize("e_bar", [1e-6, 0.3, 2.0, 17.0, 400.0])
    def test_residual_after_resubstitution(self, e_bar):
        d = 0.7
        cav = CavityParams(length=d, cap_per_len=2.0, ind_per_len=0.5)
        target = cav.ind_per_len * d * e_bar / 2.0
        k = solve_wavenumbers(cav, e_bar, 6)
        for kn in k:
            resid = kn * d * math.tan(kn * d) - target
            assert abs(resid) < 1e-9 * (1.0 + target)

    def test_roots_strictly_increasing_and_bracketed(self):
        k = solve_wavenumbers(self.CAV, 5.0, 6)
        assert np.all(np.diff(k) > 0)
        for n, kn in enumerate(k):
            assert n * math.pi < kn < n * math.pi + math.pi / 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_wavenumbers(self.CAV, 1.0, 0)
        with pytest.raises(ValueError):
            solve_wavenumbers(self.CAV, -1.0, 3)


class TestModeSpectrum:
    def test_free_cavity_limit(self):
        cav = CavityParams(length=2.0, cap_per_len=3.0, ind_per_len=0.25)
        spec = mode_spectrum(cav, 0.0, 4)
        d, c, l = 2.0, 3.0, 0.25
        v = 1.0 / math.sqrt(l * c)
        for n in range(1, 5):
            i = n - 1
            assert spec.mode_caps[i] == pytest.approx(c * d / 2, rel=1e-12)
            assert 1 / spec.mode_inds[i] == pytest.approx(
                n**2 * math.pi**2 / (2 * l * d), rel=1e-12)
            assert spec.frequencies[i] == pytest.approx(
                n * math.pi * v / d, rel=1e-12)

    def test_frequencies_increase(self):
        cav = CavityParams(length=1.0, cap_per_len=1.0, ind_per_len=1.0)
        for e_bar in [0.0, 0.5, 2.0, 40.0]:
            spec = mode_spectrum(cav, e_bar, 5)
            assert np.all(np.diff(spec.frequencies) > 0)

    def test_positive_caps_and_inds(self):
        cav = CavityParams(length=1.3, cap_per_len=0.8, ind_per_len=2.2)
        for e_bar in [0.0, 1e-3, 1.0, 90.0]:
            spec = mode_spectrum(cav, e_bar, 6)
            assert np.all(spec.mode_caps > 0)
            assert np.all(spec.mode_inds > 0)

    def test_unit_target_mode_against_quadrature(self):
        # R = 1 with d = c = l = 1: c_1 must equal the direct overlap
        # integral c * int_0^d cos^2(k x) dx, and omega_1 must follow
        # from the c_n / l_n pair.
        cav = CavityParams(length=1.0, cap_per_len=1.0, ind_per_len=1.0)
        spec = mode_spectrum(cav, 2.0, 1)
        k = spec.wavenumbers[0]
        assert k == pytest.approx(0.860334, abs=1e-6)
        c_quad, _ = quad(lambda x: math.cos(k * x) ** 2, 0.0, 1.0)
        assert spec.mode_caps[0] == pytest.approx(c_quad, rel=1e-10)
        sinc = math.sin(2 * k) / (2 * k)
        inv_l = (k**2 / 2.0) * (1.0 - sinc)
        assert 1 / spec.mode_inds[0] == pytest.approx(inv_l, rel=1e-12)
        assert spec.frequencies[0] == pytest.approx(
            math.sqrt(inv_l / c_quad), rel=1e-10)

    def test_zero_point_factor(self):
        cav = CavityParams(length=1.0, cap_per_len=1.0, ind_per_len=1.0)
        spec = mode_spectrum(cav, 2.0, 3)
        expect = np.sqrt(0.5 * np.sqrt(spec.mode_inds / spec.mode_caps))
        assert np.allclose(spec.zero_point, expect, rtol=1e-14)


def reference_squid():
    return SquidParams(ej1=1.1, ej2=0.9, c1=1e-13, c2=1e-13,
                       flux_bias=0.4, pump_amplitude=0.05)


def reference_cavity():
    return CavityParams(length=1.0, cap_per_len=1.0, ind_per_len=1.0)


class TestCouplingTable:
    def setup_method(self):
        self.eff = effective_junction(reference_squid())
        self.spec = mode_spectrum(reference_cavity(), self.eff.e_bar, 3)
        self.table = coupling_table(self.spec, self.eff)

    def test_symmetric_squid_kills_odd_tensors(self):
        sq = SquidParams(ej1=1.0, ej2=1.0, c1=1e-13, c2=1e-13,
                         flux_bias=0.4, pump_amplitude=0.05)
        eff = effective_junction(sq)
        spec = mode_spectrum(reference_cavity(), eff.e_bar, 3)
        tab = coupling_table(spec, eff)
        assert np.all(tab.m1 == 0)
        assert np.all(tab.m3 == 0)
        assert np.all(tab.m3_tilde == 0)
        assert np.any(tab.m2 != 0)

    def test_permutation_symmetry_exact(self):
        t = self.table
        for perm in [(1, 0, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0), (0, 2, 1)]:
            assert np.array_equal(t.m3, np.transpose(t.m3, perm))
            assert np.array_equal(t.m3_tilde, np.transpose(t.m3_tilde, perm))
        for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]:
            assert np.array_equal(t.n4, np.transpose(t.n4, perm))
            assert np.array_equal(t.m4, np.transpose(t.m4, perm))
        assert np.array_equal(t.m2, t.m2.T)

    def test_edge_amplitude_ratio(self):
        t = self.table
        cos = self.spec.edge_amplitudes
        ratio = t.m3[0, 1, 2] / t.m3[0, 0, 0]
        assert ratio == pytest.approx(cos[1] * cos[2] / cos[0] ** 2, rel=1e-12)

    def test_tilde_absorbs_zero_point(self):
        t = self.table
        zp = self.spec.zero_point
        assert t.m3_tilde[0, 1, 2] == pytest.approx(
            t.m3[0, 1, 2] * zp[0] * zp[1] * zp[2], rel=1e-14)
        assert t.m1_tilde[1] == pytest.approx(t.m1[1] * zp[1], rel=1e-14)
        assert t.n4_tilde[0, 1, 2, 2] == pytest.approx(
            t.n4[0, 1, 2, 2] * zp[0] * zp[1] * zp[2] ** 2, rel=1e-14)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    def test_tensors_match_the_loop_form(self, n_modes):
        # random edge amplitudes and zero-point factors, every tensor of
        # ranks 1-4 bit for bit against the product per index tuple
        rng = np.random.default_rng(n_modes)
        cos = rng.normal(size=n_modes)
        zp = rng.uniform(0.1, 2.0, size=n_modes)
        spec = dataclasses.replace(self.spec, edge_amplitudes=cos,
                                   zero_point=zp)
        t = coupling_table(spec, self.eff)
        e, da = self.eff.e_bar, self.eff.delta_alpha
        for name, prefactor, rank in (
                ("m1", e * da / PHI0, 1),
                ("m2", e / (2.0 * PHI0**2), 2),
                ("m3", e * da / (6.0 * PHI0**3), 3),
                ("n4", e / (24.0 * PHI0**4), 4),
                ("m4", self.eff.delta_e / (24.0 * PHI0**4), 4)):
            for suffix, vec in (("", cos), ("_tilde", cos * zp)):
                assert np.array_equal(getattr(t, name + suffix),
                                      prefactor * loop_outer(vec, rank))


def loop_outer(vec, rank):
    """The coupling tensors' products as a loop over index tuples: the
    factors of each sorted tuple, left to right from 1.0."""
    out = np.empty((len(vec),) * rank)
    for idx in np.ndindex(out.shape):
        p = 1.0
        for i in sorted(idx):
            p *= vec[i]
        out[idx] = p
    return out


class TestAnharmonicity:
    def test_reference_config_ratios_not_integer(self):
        # the scenario reference circuit (impedance-scaled cavity)
        sq = SquidParams(ej1=6.1, ej2=4.99, c1=1e-13, c2=1e-13,
                         flux_bias=0.4, pump_amplitude=0.05)
        cav = CavityParams(length=1.0, cap_per_len=1000.0, ind_per_len=1.0)
        eff = effective_junction(sq)
        w = mode_spectrum(cav, eff.e_bar, 3).frequencies
        for ratio in (w[1] / w[0], w[2] / w[0], w[2] / w[1]):
            assert abs(ratio - round(ratio)) > 1e-6


class TestTripleCoupling:
    def test_zero_pump_gives_zero(self):
        eff = effective_junction(reference_squid())
        spec = mode_spectrum(reference_cavity(), eff.e_bar, 3)
        table = coupling_table(spec, eff)
        assert three_spdc_coupling(table, 0.0) == 0.0

    def test_linearity_in_pump(self):
        eff = effective_junction(reference_squid())
        spec = mode_spectrum(reference_cavity(), eff.e_bar, 3)
        table = coupling_table(spec, eff)
        g1 = three_spdc_coupling(table, 0.02)
        g2 = three_spdc_coupling(table, 0.04)
        assert g2 == pytest.approx(2 * g1, rel=1e-14)

    def test_full_pipeline_against_independent_recomputation(self):
        # Oracle: the whole coefficient chain retranscribed from scratch,
        # with scipy's brentq instead of the package root finder.
        sq = reference_squid()
        cav = reference_cavity()

        delta = (sq.ej2 - sq.ej1) / (sq.ej1 + sq.ej2)
        e = 2 * sq.ej1 * math.sqrt(1 + 2 * delta) * abs(math.cos(sq.flux_bias))
        half = sq.flux_bias / 2
        dalpha = (delta / math.cos(half) ** 2) / (1 + math.tan(half) ** 2 * delta**2)

        d, c, l = cav.length, cav.cap_per_len, cav.ind_per_len
        target = l * d * e / 2
        roots = []
        for n in range(3):
            lo = n * math.pi + 1e-9
            hi = n * math.pi + math.pi / 2 - 1e-9
            roots.append(brentq(lambda x: x * math.tan(x) - target, lo, hi,
                                xtol=1e-14))
        m3_123 = 1.0
        for x in roots:
            sinc = math.sin(2 * x) / (2 * x)
            cn = (c * d / 2) * (1 + sinc)
            ln = 1.0 / ((x**2 / (2 * l * d)) * (1 - sinc))
            zp = math.sqrt(0.5 * math.sqrt(ln / cn))
            m3_123 *= math.cos(x) * zp
        m3_123 *= e * dalpha / 6.0
        g0_oracle = abs(3 * sq.pump_amplitude * m3_123)

        eff = effective_junction(sq)
        spec = mode_spectrum(cav, eff.e_bar, 3)
        table = coupling_table(spec, eff)
        assert three_spdc_coupling(table, sq.pump_amplitude) == pytest.approx(
            g0_oracle, rel=1e-10)
