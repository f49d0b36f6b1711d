import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as stock_solve_ivp
from scipy.special import eval_legendre, jv

from lowkgreen import custom_model, oracle
from lowkgreen.brackets import QuadratureConfig
from lowkgreen.errors import (
    BesselNonconvergence,
    DegenerateFit,
    InvalidSpec,
    NonconvergedODE,
    ToleranceNotMet,
    UnsupportedAsymptotics,
    WronskianDegenerate,
)
from lowkgreen.oracle import (
    SolverConfig,
    bessel_j,
    green_closed_ex5,
    green_closed_ex6,
    green_exact,
    green_exact_grid,
    green_exact_report,
    remainder_scaling_fit,
    zero_energy_modes,
)
from lowkgreen.potential import (
    EXPONENTIAL,
    EndpointClass,
    EndpointKind,
    PotentialModel,
    catalog,
)

CFG = SolverConfig()
QCFG = QuadratureConfig()


def free_green(x, y, k):
    return cmath.exp(1j * k * abs(x - y)) / (2j * k)


def poschl_teller_green(x, y, k):
    """logcosh's G: V_S = 1 - 2 sech^2 z is the reflectionless
    Poschl-Teller well, whose Jost solutions are (tanh z -+ iq) e^{+-iqz},
    q = sqrt(k^2 - 1) with Im q >= 0."""
    if x < y:
        x, y = y, x
    q = cmath.sqrt(k * k - 1)
    if q.imag < 0:
        q = -q
    return ((math.tanh(x) - 1j * q) * (math.tanh(y) + 1j * q)
            * cmath.exp(1j * q * (x - y)) / (2j * q * (1 + q * q)))


class TestFreeParticle:
    @pytest.mark.parametrize("k", [0.3 + 0.2j, 1.0 + 1e-5j, 2.0 + 1.0j])
    def test_complex_k(self, k):
        s = green_exact(catalog("free"), 1.2, 0.3, k, CFG)
        assert abs(s.value / free_green(1.2, 0.3, k) - 1) < 1e-10

    def test_real_k_stays_real(self):
        s, diag = green_exact_report(catalog("free"), 1.2, 0.3, 0.7, CFG)
        assert diag["k_effective"] == s.k == complex(0.7)
        assert "epsilon_imag" not in diag
        assert abs(s.value / free_green(1.2, 0.3, 0.7) - 1) < 1e-12


class TestBarrier:
    def test_against_closed_form_grid(self):
        bar = catalog("barrier", a=1.0)
        for k in np.linspace(0.1, 0.9, 5):
            for x in np.linspace(-0.6, 0.8, 5):
                s = green_exact(bar, x, -0.7, k, CFG)
                want = green_closed_ex6(x, -0.7, s.k, 1.0)
                assert abs(s.value / want - 1) < 1e-6

    def test_closed_form_free_limit(self):
        # a -> 0 reduces the barrier to the free particle
        k = 0.4 + 0j
        got = green_closed_ex6(0.5, -0.5, k, 1e-8)
        assert abs(got / free_green(0.5, -0.5, k) - 1) < 1e-6

    def test_no_pole_at_imaginary_k(self):
        v = green_closed_ex6(0.5, -0.5, 1j * 1.0, 1.0)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestLogstep:
    def test_two_routes_agree(self):
        ls = catalog("logstep", alpha=1.5)
        s = green_exact(ls, 1.5, 0.8, 0.2, CFG)
        want = green_closed_ex5(1.5, 0.8, s.k, 1.5)
        assert abs(s.value / want - 1) < 1e-6

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_parameter_grid(self, alpha):
        ls = catalog("logstep", alpha=alpha)
        for k in (0.2, 0.6):
            for x in (1.2, 2.0):
                s = green_exact(ls, x, 0.5, k, CFG)
                want = green_closed_ex5(x, 0.5, s.k, alpha)
                assert abs(s.value / want - 1) < 1e-6

    def test_small_k_leading_behavior(self):
        # leading coefficient of 1/k is x^(-alpha/2)
        alpha = 1.5
        x = 1.5
        k = 1e-4
        v = green_closed_ex5(x, 0.8, k, alpha)
        lead = (v * 1j * k).real
        assert abs(lead / x ** (-alpha / 2) - 1) < 0.02


class TestRealAxis:
    """A real k is solved on the real axis: at default settings the samples
    meet the closed forms at the same real k.  Shifted to k + 1e-8 i, as
    every real k once was, they were up to 1.0e-6 (free), 1.75e-8
    (barrier) and 1.0e-6 (logstep) from them on this grid."""

    K_GRID = np.geomspace(0.01, 1.0, 9)

    @pytest.mark.parametrize("name,params,x,y,closed,tol", [
        ("free", {}, 1.2, 0.3, free_green, 1e-12),
        ("barrier", {"a": 1.0}, 0.5, -0.3,
         lambda x, y, k: green_closed_ex6(x, y, k, 1.0), 1e-10),
        ("logstep", {"alpha": 1.5}, 1.5, 0.8,
         lambda x, y, k: green_closed_ex5(x, y, k, 1.5), 2e-9),
    ], ids=["free", "barrier", "logstep"])
    def test_against_closed_form(self, name, params, x, y, closed, tol):
        model = catalog(name, **params)
        for k in self.K_GRID:
            s = green_exact(model, x, y, k, CFG)
            assert s.k.imag == 0.0
            assert _rel(s.value, closed(x, y, k)) <= tol

    # G ~ 1/k^2 at small k amplifies the ODE tolerance: at k = 0.01 the two
    # pairs read 2.9e-8 and 4.7e-8 from the closed form under DOP853, and
    # 5.6e-12 and 7.9e-11 on the panel march
    @pytest.mark.parametrize("x,y", [(1.5, 0.4), (0.5, -0.3)])
    @pytest.mark.parametrize("k", [0.01, 0.1, 0.3, 0.5, 1.5, 3.0])
    def test_logcosh_against_poschl_teller(self, x, y, k):
        s = green_exact(catalog("logcosh"), x, y, k, CFG)
        tol = 5e-8 if k == 0.01 else 1e-9
        assert _rel(s.value, poschl_teller_green(x, y, k)) <= tol

    # DOP853 on the right Riccati tail took steps of about 4 across e^{2z}
    # structure here and was 1.8e-6 from the closed form; the march is not
    def test_logcosh_right_tail_outlier(self):
        k = float(self.K_GRID[3])
        s = green_exact(catalog("logcosh"), 1.5, 0.4, k, CFG)
        assert _rel(s.value, poschl_teller_green(1.5, 0.4, k)) <= 1e-9

    def test_logcosh_closed_form_at_a_tight_tolerance(self):
        tight = SolverConfig(ode_rel_tol=1e-13)
        s = green_exact(catalog("logcosh"), 1.5, 0.4, 0.3, tight)
        assert _rel(s.value, poschl_teller_green(1.5, 0.4, 0.3)) <= 1e-12

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_barrier_closed_form_at_k_equal_a(self, a):
        # p = sqrt(a^2 - k^2) = 0: the limit (1 - ikA)(1 - ikB)/(2k(k + i))
        k = a
        for x, y in ((0.5, -0.3), (0.9, -0.8), (0.2, 0.1)):
            want = ((1 - 1j * k * (1 - x)) * (1 - 1j * k * (1 + y))
                    / (2 * k * (k + 1j)))
            assert _rel(green_closed_ex6(x, y, k, a), want) <= 1e-15
            s = green_exact(catalog("barrier", a=a), x, y, k, CFG)
            assert _rel(s.value, want) <= 1e-10


class TestClosedFormsAcrossBreakpoints:
    """Segments end on the breakpoints of V_S (logstep's z = 1, the
    barrier's z = +-1); V_S taken from the far side of one at a step's last
    node put logstep 1.3e-6 and the barrier 1.4e-9 from their closed forms
    on this grid."""

    K_GRID = np.geomspace(1e-3, 1.0, 7)

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_logstep(self, alpha):
        ls = catalog("logstep", alpha=alpha)
        for x, y in ((1.5, 0.8), (1.2, 0.3), (2.5, -0.4)):
            for k in self.K_GRID:
                s = green_exact(ls, x, y, k, CFG)
                want = green_closed_ex5(x, y, s.k, alpha)
                assert abs(s.value / want - 1) < 5e-8

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_barrier(self, a):
        bar = catalog("barrier", a=a)
        for x, y in ((0.5, -0.3), (0.9, -0.8), (0.2, 0.1)):
            for k in self.K_GRID:
                s = green_exact(bar, x, y, k, CFG)
                want = green_closed_ex6(x, y, s.k, a)
                assert abs(s.value / want - 1) < 1e-10


class TestBessel:
    def test_half_integer(self):
        for z in (0.3, 1.0, 2.7):
            want = math.sqrt(2 / (math.pi * z)) * math.sin(z)
            assert abs(bessel_j(0.5, z) / want - 1) < 1e-14

    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(0.5, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [-1.25, -0.25, 0.25, 1.0, 2.5])
    def test_against_scipy(self, nu):
        for z in (0.1, 1.0, 5.0):
            assert abs(bessel_j(nu, z) / jv(nu, z) - 1) < 1e-12

    def test_range_guard(self):
        with pytest.raises(BesselNonconvergence):
            bessel_j(0.5, 40.0)


class TestZeroModes:
    def test_barrier_branches(self):
        a = 1.0
        pm, pp, wr = zero_energy_modes(catalog("barrier", a=a), QCFG)
        c1 = math.cosh(2 * a) - a * math.sinh(2 * a)
        c2 = a * math.sinh(2 * a)
        assert abs(pm(0.3) / math.cosh(a * 1.3) - 1) < 1e-8
        assert abs(pm(1.7) / (c1 + c2 * 1.7) - 1) < 1e-8
        assert pm(-1.5) == 1.0
        assert abs(pp(-0.2) / math.cosh(a * 1.2) - 1) < 1e-8
        assert abs(abs(wr) / (a * math.sinh(2 * a)) - 1) < 1e-8

    def test_free_is_exceptional(self):
        pm, pp, wr = zero_energy_modes(catalog("free"), QCFG)
        assert pm(0.7) == 1.0 and pp(-0.4) == 1.0
        assert abs(wr) < 1e-12

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_barrier_wronskian(self, a):
        _, _, wr = zero_energy_modes(catalog("barrier", a=a), QCFG)
        assert abs(wr / (-a * math.sinh(2 * a)) - 1) <= 1e-14

    @staticmethod
    def poschl_teller(ell):
        """V_S = -l(l+1) sech^2 z, whose zero-energy solutions are the
        Legendre functions P_l(-tanh z) and P_l(tanh z)."""
        return PotentialModel(
            id="poschl-teller", left=None, right=None,
            eval_VS=lambda z: -ell * (ell + 1) / np.cosh(z) ** 2,
            vs_limit_left=0.0, vs_limit_right=0.0, vs_defined_only=True)

    def test_poschl_teller_is_legendre(self):
        ell = -0.3
        pm, pp, _ = zero_energy_modes(self.poschl_teller(ell), QCFG)
        z = np.linspace(-5.0, 5.0, 41)
        assert np.abs(pm(z) - eval_legendre(ell, -np.tanh(z))).max() <= 1e-12
        assert np.abs(pp(z) - eval_legendre(ell, np.tanh(z))).max() <= 1e-12

    def test_march_depth_cap(self):
        with pytest.raises(ToleranceNotMet, match="depth 2"):
            zero_energy_modes(self.poschl_teller(-0.3),
                              QuadratureConfig(max_depth=2))


class TestIntegrity:
    @pytest.mark.parametrize("name,params,x,y", [
        ("free", {}, 0.9, -0.4), ("parabolic", {}, 0.9, -0.4),
        ("logcosh", {}, 0.9, -0.4), ("exponential", {}, 0.9, -0.4),
        ("sqrtwell", {}, 0.9, -0.4), ("logstep", {"alpha": 1.5}, 1.5, 0.8),
    ])
    def test_symmetry_and_wronskian(self, name, params, x, y):
        m = catalog(name, **params)
        s1, d1 = green_exact_report(m, x, y, 0.45, CFG)
        s2, _ = green_exact_report(m, y, x, 0.45, CFG)
        assert abs(s1.value / s2.value - 1) < 1e-8
        assert d1["wronskian_variation"] < 1e-8
        assert abs(d1["derivative_jump_defect"] - 1) < 1e-6

    def test_pole_detected_by_epsilon_sensitivity(self):
        # the parabolic spectrum starts at k^2 = 2: on the real axis the
        # two sides' solutions are proportional there, which the Wronskian
        # test catches, and a grid raises it before a later refused k
        par = catalog("parabolic")
        with pytest.raises(WronskianDegenerate, match="nearly proportional"):
            green_exact(par, 0.9, -0.4, math.sqrt(2.0), CFG)
        TestGridErrors.both_raise(WronskianDegenerate, par, 0.9, -0.4,
                                  [0.9, math.sqrt(2.0), 0.3 - 0.1j])

    def test_lower_half_plane_rejected(self):
        with pytest.raises(UnsupportedAsymptotics):
            green_exact(catalog("free"), 0.5, -0.5, 0.3 - 0.2j, CFG)

    def test_wronskian_condition_flags_a_bound_state(self):
        # k^2 = 4 is a pole of the parabolic G: on the real axis the
        # Wronskian test refuses it; away from it the condition is large
        par = catalog("parabolic")
        with pytest.raises(WronskianDegenerate):
            green_exact_report(par, 1.2, 1.0, 2.0, CFG)
        _, d = green_exact_report(par, 1.2, 1.0, 1.2, CFG)
        assert d["wronskian_condition"] > 0.1


class TestScalingFit:
    def test_parabolic_next_term(self):
        ks = np.geomspace(0.05, 0.4, 7)
        slope = remainder_scaling_fit(catalog("parabolic"), 1.2, 1.0, 0, ks, CFG)
        assert abs(slope - 2.0) < 0.15

    def test_parabolic_remainder_slope_at_order_two(self):
        # the N=2 remainder is the k^4 term; the oracle's own error bent
        # the fit to 4.752 under DOP853
        ks = np.geomspace(0.05, 0.3, 9)
        slope = remainder_scaling_fit(catalog("parabolic"), 1.2, 1.0, 2, ks)
        assert abs(slope - 4.0) < 0.05

    def test_logstep_marginal(self):
        ks = np.geomspace(1e-3, 1e-1, 7)
        slope = remainder_scaling_fit(catalog("logstep", alpha=1.5),
                                      1.5, 0.8, 0, ks, CFG)
        assert abs(slope - 0.5) < 0.1

    def test_sqrtwell_imaginary_part_beats_every_power(self):
        # the imaginary part is essentially singular at k = 0: its log-log
        # slope keeps growing as the fit window shrinks
        sw = catalog("sqrtwell")

        def im_slope(ks):
            vals = [abs(green_exact(sw, 1.0, -0.5, k, CFG).value.imag)
                    for k in ks]
            return np.polyfit(np.log(ks), np.log(vals), 1)[0]

        hi = im_slope(np.geomspace(0.1, 0.2, 4))
        lo = im_slope(np.geomspace(0.04, 0.08, 4))
        assert lo > hi + 1.0


# The references below were recorded when every real k was solved at
# k + 1e-8 i; that k is written out, so each row pins the old sample as one
# input away.  Test ids name the real part.
RECORDED_EPS = 1e-8


def _k_id(k):
    return k.real if k.imag == RECORDED_EPS else k


# Samples recorded at commit af6edc7, before the Riccati tail: every side was
# then integrated linearly from its cutoff.  (model, params, x, y, k, value)
# The logstep rows (value None) are checked against green_closed_ex5: the
# recorded values took V_S from across the breakpoint at z = 1 and were up
# to 1.3e-6 from the closed form.
TAIL_REFERENCE = [
    ("sqrtwell", {}, 1.0, -0.5, complex(0.003, RECORDED_EPS), complex(-3.510763737799648, -1.8579821037009722e-08)),
    ("sqrtwell", {}, 1.0, -0.5, complex(0.01, RECORDED_EPS), complex(-3.539762577133357, -5.112709712485462e-07)),
    ("sqrtwell", {}, 1.0, -0.5, complex(0.1, RECORDED_EPS), complex(-3.6250012379657734, -3.0785012328449217)),
    ("sqrtwell", {}, 1.0, -0.5, complex(0.45, RECORDED_EPS), complex(0.6506845799756547, -1.0009038519625149)),
    ("sqrtwell", {}, 1.0, -0.5, 1 + 0.2j, complex(0.3506319129650102, -0.10887992088693864)),
    # the right tail crosses the breakpoint at 0 before its switch point
    ("sqrtwell", {}, -1.8, -3.0, complex(0.2, RECORDED_EPS), complex(-0.8854841787096556, -2.60418263954789)),
    ("logstep", {"alpha": 1.5}, 1.5, 0.8, complex(0.001, RECORDED_EPS), None),
    ("logstep", {"alpha": 1.5}, 1.5, 0.8, complex(0.01, RECORDED_EPS), None),
    ("logstep", {"alpha": 1.5}, 1.5, 0.8, complex(0.2, RECORDED_EPS), None),
    ("logstep", {"alpha": 2.5}, 1.5, 0.8, complex(0.001, RECORDED_EPS), None),
    ("logstep", {"alpha": 2.5}, 1.5, 0.8, complex(0.01, RECORDED_EPS), None),
    ("logstep", {"alpha": 2.5}, 1.5, 0.8, complex(0.2, RECORDED_EPS), None),
    ("exponential", {}, 0.5, -0.3, complex(0.01, RECORDED_EPS), complex(-0.35760944066938594, -30.287956910623638)),
    ("exponential", {}, 0.5, -0.3, complex(0.3, RECORDED_EPS), complex(-0.2598776790268152, -1.3092937271810652)),
    ("logcosh", {}, 1.5, 0.4, complex(0.3, RECORDED_EPS), complex(2.1761636007717087, -1.459795985288657e-07)),
    ("free", {}, 1.2, 0.3, complex(0.01, RECORDED_EPS), complex(0.4499439229996447, -49.997975013630864)),
    ("free", {}, 1.2, 0.3, complex(0.3, RECORDED_EPS), complex(0.4445523369375862, -1.606284827638332)),
]

# Paths the Riccati tail left alone (confining and zero-edge cutoffs, and
# cutoffs set in the config): (..., config, value, tolerance).  The barrier
# rows (value None) are checked against green_closed_ex6.  The parabolic
# values are its closed form, G = D_nu(-sqrt2 y) D_nu(sqrt2 x) / W with
# nu = k^2/2 (parabolic cylinder functions, 40 digits); the sqrtwell and
# logstep rows, cut where no closed form applies, are DOP853 solves at
# ode_rel_tol 1e-13, whose own error is about 1e-13 here.
UNTOUCHED_REFERENCE = [
    ("parabolic", {}, 1.2, 1.0, complex(0.01, RECORDED_EPS), {}, complex(1665.3712553627422, -0.0033313157215626088), 1e-11),
    ("parabolic", {}, 1.2, 1.0, complex(0.3, RECORDED_EPS), {}, complex(1.553342866585141, -1.2413372760014625e-07), 1e-14),
    ("barrier", {"a": 1.0}, 0.5, -0.3, complex(0.01, RECORDED_EPS), {}, None, 1e-10),
    ("barrier", {"a": 1.0}, 0.5, -0.3, complex(0.3, RECORDED_EPS), {}, None, 1e-10),
    ("sqrtwell", {}, 1.0, -0.5, complex(0.3, RECORDED_EPS), {"cutoff_left": -40.0, "cutoff_right": 40.0},
     complex(0.470235660884452, -1.8201768294790182), 1e-12),
    ("logstep", {"alpha": 1.5}, 1.5, 0.8, complex(0.05, RECORDED_EPS), {"cutoff_left": -20.0, "cutoff_right": 60.0},
     complex(1.361267940794639, -14.459756034204737), 1e-12),
]


class TestRiccatiTail:
    """Samples against references recorded before, during and after the
    Riccati tail, which integrated power tails by their log-derivative: every
    side is now marched linearly from its cutoff."""

    @pytest.mark.parametrize("name,params,x,y,k,want", TAIL_REFERENCE,
                             ids=[f"{r[0]}{r[1].get('alpha', '')}-k{_k_id(r[4])}"
                                  for r in TAIL_REFERENCE])
    def test_matches_linear_tail(self, name, params, x, y, k, want):
        s, d = green_exact_report(catalog(name, **params), x, y, k, CFG)
        tol = 1e-8
        if want is None:
            want, tol = green_closed_ex5(x, y, s.k, params["alpha"]), 5e-8
        assert abs(s.value - want) < tol * abs(want)
        assert d["wronskian_variation"] < 1e-5

    @pytest.mark.parametrize("name,params,x,y,k,cfg,want,tol",
                             UNTOUCHED_REFERENCE,
                             ids=[f"{r[0]}-k{_k_id(r[4])}{'-cut' if r[5] else ''}"
                                  for r in UNTOUCHED_REFERENCE])
    def test_other_cutoffs_unchanged(self, name, params, x, y, k, cfg, want,
                                     tol):
        s, _ = green_exact_report(catalog(name, **params), x, y, k,
                                  SolverConfig(**cfg))
        if want is None:
            want = green_closed_ex6(x, y, s.k, params["a"])
        assert abs(s.value - want) <= tol * abs(want)

    def test_logcosh_small_k_against_converged(self):
        # G ~ 1/k^2 here, so the ODE tolerance is amplified: at the default
        # config the linear tail was 4.8e-8 from the value converged at
        # ode_rel_tol=1e-13, boundary_tol=1e-12 (either tail gives it to 1e-11)
        s = green_exact(catalog("logcosh"), 1.5, 0.4,
                        complex(0.01, RECORDED_EPS), CFG)
        want = complex(1966.0812933594598, -0.003932170010815294)
        assert abs(s.value - want) < 5e-8 * abs(want)

    def test_sqrtwell_work_bound(self):
        import dataclasses
        sw = catalog("sqrtwell")
        points = []

        def counting(z):
            points.append(np.size(z))
            return sw.eval_VS(z)

        model = dataclasses.replace(sw, eval_VS=counting)
        _, d = green_exact_report(model, 1.04, -0.54, 0.006, CFG)
        # DOP853's linear tail from the +-2.9e5 cutoffs took about 130k
        # points; the march takes about 4k
        assert sum(points) < 50_000
        assert 0 < d["rhs_evals"] <= sum(points)
        # one call per panel attempt (one per DOP853 stage was about 37.8k)
        assert len(points) < 5_000

    def test_diagnostics(self):
        keys = ["k_effective", "cutoff_left", "cutoff_right",
                "boundary_error_left", "boundary_error_right",
                "wronskian_variation", "wronskian_condition",
                "derivative_jump_defect", "rhs_evals"]
        _, d = green_exact_report(catalog("sqrtwell"), 1.0, -0.5, 0.01, CFG)
        assert list(d) == keys
        assert d["cutoff_left"] < -0.5 and 1.0 < d["cutoff_right"]
        _, d = green_exact_report(catalog("logstep", alpha=1.5), 1.5, 0.8, 0.01, CFG)
        # zero-edge on the left, power tail on the right
        assert list(d) == keys
        assert 1.5 < d["cutoff_right"]


# Confining cutoffs (parabolic both ends, exponential on the right; the
# exponential's left end is a ladder cutoff), recorded before the march
# evaluated V_S a block at a time: (model, x, y, k, cutoff_left, cutoff_right).
# The exponential k = 4 row's left end was -17.931537499999997 under the
# second-order rule; the first omitted term accepts -8.43935, where the
# sample is 3.2e-10 from a solve cut at -179.3 (1.95e-10 before).
CONFINING_CUTOFFS = [
    ("parabolic", 1.2345, 0.9871, 0.01, -9.2629, 9.2345),
    ("parabolic", 1.2345, 0.9871, 3.0, -10.2629, 10.2345),
    ("parabolic", -0.3, -2.1, 0.7 + 0.2j, -9.6, 9.45),
    ("exponential", 0.5123, -0.3456, 0.02, -39.28895937499998, 4.5123),
    ("exponential", 0.5123, -0.3456, 4.0, -8.43935, 4.7623),
]


@pytest.mark.parametrize("name,x,y,k,left,right", CONFINING_CUTOFFS)
def test_confining_cutoffs_recorded(name, x, y, k, left, right):
    _, d = green_exact_report(catalog(name), x, y, k, CFG)
    assert (d["cutoff_left"], d["cutoff_right"]) == (left, right)


def test_confining_march_matches_pointwise_loop():
    def march(model, start, k2, side):
        sgn = 1.0 if side == "right" else -1.0
        z, phase, prev = start, 0.0, 0.0
        while True:
            z += sgn * 0.25
            vs = float(model.VS(np.array([z]))[0])
            val = math.sqrt(max(vs - abs(k2), 0.0))
            phase += 0.25 * 0.5 * (val + prev)
            prev = val
            if phase > 40.0 and vs > abs(k2) + 1.0:
                return z

    for name in ("parabolic", "exponential"):
        model = catalog(name)
        for start in (-0.3127, 0.1, 1.7345):
            for k2 in (1e-4, 0.49 + 0.28j, 9.0, 60.0):
                for side in (("left", "right") if name == "parabolic" else ("right",)):
                    assert (oracle._confining_cutoff(model, start, k2, side)
                            == march(model, start, k2, side))


@pytest.mark.parametrize("name,params", [("sqrtwell", {}), ("logcosh", {}),
                                         ("logstep", {"alpha": 1.5}),
                                         ("exponential", {})])
def test_stencil_matches_pointwise_values(name, params):
    model = catalog(name, **params)
    for z in (-37.3, -2.0, -0.1, 0.0, 0.7, 3.3, 234.5):
        h = 1e-4 * max(1.0, abs(z))
        v = [float(model.VS(np.array([z + j * h]))[0]) for j in (-2, -1, 0, 1, 2)]
        d1 = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h)
        d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        d3 = (-v[0] + 2 * v[1] - 2 * v[3] + v[4]) / (2 * h * h * h)
        d4 = (v[0] - 4 * v[1] + 6 * v[2] - 4 * v[3] + v[4]) / (h * h * h * h)
        assert oracle._vs_derivs(model, z, h) == (v[2], d1, d2, d3, d4)


def neg_exponential():
    """Case III: V = -e^z, whose left end decays exponentially to V_S = 0."""
    return custom_model(
        "neg-exponential", lambda z: -np.exp(z), lambda z: 0.5 * np.exp(z),
        left=EndpointClass(EndpointKind.FINITE_LIMIT, EXPONENTIAL, 0.0),
        right=EndpointClass(EndpointKind.MINUS_INFINITY, EXPONENTIAL),
        eval_VS=lambda z: 0.25 * np.exp(2 * z) + 0.5 * np.exp(z),
        vs_limit_left=0.0, vs_limit_right=math.inf)


def second_order_cutoff(model, inner, k2, side, tol):
    """The ladder cutoff where the second-order term, |u_2/u_0|, falls below
    tol: the rule before the first omitted term, one point at a time."""
    sgn = 1.0 if side == "right" else -1.0
    lim = model.vs_limit_right if side == "right" else model.vs_limit_left
    x = inner + sgn
    for _ in range(200):
        h = 1e-4 * max(1.0, abs(x))
        v = [float(model.VS(np.array([x + j * h]))[0])
             for j in (-2, -1, 0, 1, 2)]
        if abs(k2 - lim - (v[2] - lim)) > 0.2 * max(abs(k2 - lim), 1e-12):
            qp = -(v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h)
            qpp = (v[0] - 16 * v[1] + 30 * v[2] - 16 * v[3] + v[4]) \
                / (12 * h * h)
            q = k2 - v[2]
            s = cmath.sqrt(q)
            u2 = -qpp / (8.0 * q * s) + 5.0 * qp * qp / (32.0 * q * q * s)
            if abs(u2) / max(abs(s), 1e-300) < tol:
                return x
        x = inner + sgn * (abs(x - inner) * 1.5)
    raise AssertionError("no second-order cutoff")


class TestFirstOmittedTerm:
    """Ladder cutoffs accepted where the first phase-integral term the
    boundary data leave out is below boundary_tol, checked against
    references that do not depend on where the cutoffs fall."""

    BOUND = CFG.ode_rel_tol + CFG.boundary_tol

    @pytest.mark.parametrize("k", [0.1, 0.3, 1.0])
    def test_sqrtwell_against_far_cutoffs(self, k):
        sw = catalog("sqrtwell")
        s, d = green_exact_report(sw, 1.0, -0.5, k, CFG)
        far = SolverConfig(cutoff_left=10 * d["cutoff_left"],
                           cutoff_right=10 * d["cutoff_right"],
                           ode_rel_tol=1e-12)
        want = green_exact(sw, 1.0, -0.5, k, far).value
        assert _rel(s.value, want) <= self.BOUND

    # at the smallest k the ODE tolerance sets the distance, and the bound
    # is the distance under the second-order rule (1.5408e-9 and
    # 2.1527e-9), rounded up
    @pytest.mark.parametrize("alpha,k,bound", [
        (1.5, 0.006, 1.541e-9), (1.5, 0.02, BOUND), (1.5, 0.2, BOUND),
        (1.5, 0.7, BOUND), (2.5, 0.006, 2.153e-9), (2.5, 0.02, BOUND),
        (2.5, 0.2, BOUND), (2.5, 0.7, BOUND),
    ])
    def test_logstep_against_closed_form(self, alpha, k, bound):
        s, _ = green_exact_report(catalog("logstep", alpha=alpha), 1.5, 0.8,
                                  k, CFG)
        assert _rel(s.value, green_closed_ex5(1.5, 0.8, s.k, alpha)) <= bound

    @pytest.mark.parametrize("model,sides", [
        (catalog("exponential"), ("left",)),
        (catalog("logcosh"), ("left", "right")),
        (neg_exponential(), ("left",)),
    ], ids=["exponential", "logcosh", "neg-exponential"])
    def test_no_cutoff_moves_out(self, model, sides):
        # where rounding swamps the higher terms (V_S near a nonzero limit)
        # or the series is not asymptotic (small k), the second-order test
        # decides
        for k in np.geomspace(0.01, 8.0, 30):
            k2 = complex(k) ** 2
            for side in sides:
                inner = 1.3 if side == "right" else -0.8
                cut = oracle._auto_cutoff(model, inner, k2, side, CFG)[0]
                old = second_order_cutoff(model, inner, k2, side,
                                          CFG.boundary_tol)
                assert abs(cut - inner) <= abs(old - inner)

    def test_boundary_errors_reported(self):
        sw = catalog("sqrtwell")
        ks = [0.1, 0.3]
        grid = green_exact_grid(sw, 1.0, -0.5, ks, CFG)
        for k, (_, d) in zip(ks, grid):
            single = green_exact_report(sw, 1.0, -0.5, k, CFG)[1]
            for key in ("boundary_error_left", "boundary_error_right"):
                assert 0 < d[key] < CFG.boundary_tol
                assert d[key] == single[key]
        # a cutoff set too close reports its own estimate
        _, d = green_exact_report(sw, 1.0, -0.5, 0.3, SolverConfig(
            cutoff_left=-40.0, cutoff_right=40.0))
        assert d["boundary_error_left"] > CFG.boundary_tol
        assert d["boundary_error_right"] > CFG.boundary_tol
        # confining and zero-edge ends impose the second-order data
        _, d = green_exact_report(catalog("parabolic"), 1.2, 1.0, 0.3, CFG)
        assert d["boundary_error_left"] is d["boundary_error_right"] is None
        _, d = green_exact_report(catalog("logstep", alpha=1.5), 1.5, 0.8,
                                  0.3, CFG)
        assert d["boundary_error_left"] is None
        assert 0 < d["boundary_error_right"] < CFG.boundary_tol


class _Stepped:
    """A stand-in model with only V_S, for single-segment marches."""

    def __init__(self, vs):
        self.VS = vs


class TestStageBatched:
    """One sweep segment's march, ``oracle.solve_ivp``, against scipy's
    DOP853 at a tight tolerance on the same equation.  V_S is evaluated in
    one batch per panel attempt, at the panel's 17 nodes for every k it
    carries, and ``nfev`` counts those points."""

    @staticmethod
    def both(model, k2, span, y0):
        """(march, stock): the march at the default tolerance, and scipy's
        DOP853 at rtol 1e-13 with V_S taken inside the span; their ends
        agree to the march's tolerance."""
        res = oracle.solve_ivp(model, span, np.array([k2]),
                               np.array([y0[0]]), np.array([y0[1]]), CFG)
        lo, hi = sorted(span)

        def fun(t, y):
            q = model.VS(np.array([min(max(t, lo), hi)]))[0] - k2
            return [y[1], q * y[0]]

        stock = stock_solve_ivp(fun, span, y0, method="DOP853", rtol=1e-13,
                                atol=1e-14)
        assert stock.status == 0
        end = stock.y[:, -1]
        assert np.all(np.abs(res.y[:, 0] - end)
                      <= CFG.ode_rel_tol * np.abs(end))
        return res, stock

    def test_linear_sqrtwell_segment(self):
        sw = catalog("sqrtwell")
        res, _ = self.both(sw, complex(0.3, 1e-8) ** 2, (40.0, 1.0),
                           [1.0 + 0.0j, 0.3j])
        assert res.nfev > 10 * 17

    def test_initial_step_within_a_short_segment(self):
        # a segment shorter than the structure of its solution is one
        # panel, accepted at the first attempt
        par = catalog("parabolic")
        for span in ((1.0, 1.03), (1.03, 1.0)):
            res, _ = self.both(par, complex(0.3, 1e-8) ** 2, span,
                               [1.0 + 0.0j, 0.3j])
            assert res.nfev == 17

    def test_sharp_bump_rejects_steps(self):
        bump = _Stepped(lambda z: 50.0 * np.exp(-((z - 0.3) / 0.05) ** 2))
        k2 = complex(0.5, 1e-8) ** 2
        self.both(bump, k2, (-1.0, 1.0), [1.0 + 0.0j, 0.5j])
        panels = list(oracle._march(bump, np.array([k2]), -1.0, 1.0,
                                    np.ones(1, complex), np.full(1, 0.5j),
                                    CFG.ode_rel_tol, oracle.MAX_DEPTH))
        # halved panels are attempted before the accepted ones
        assert sum(points for *_, points in panels) > 17 * len(panels)
        widths = np.abs(np.diff([-1.0] + [end for end, *_ in panels]))
        assert widths.min() < widths.max() / 8

    def test_coefficient_taken_inside_the_segment(self):
        seen = []

        def vs(z):
            seen.extend(z.tolist())
            # V_S with steps at both ends of the segment
            return np.where((z <= -1.0) | (z >= 1.0), 1e6, -0.25)

        for span in ((-1.0, 1.0), (1.0, -1.0)):
            res = oracle.solve_ivp(_Stepped(vs), span, np.zeros(1, complex),
                                   np.ones(1, complex), np.full(1, 0.5j), CFG)
            # e^{i(z - z0)/2} from z0 = -1 up, or from z0 = +1 down
            z = span[1] - span[0]
            want = cmath.exp(0.5j * z)
            assert abs(res.y[0, 0] - want) < 1e-9
        assert len(seen) > 24
        assert -1.0 < min(seen) and max(seen) < 1.0

    @staticmethod
    def nan_segment(vs):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonconvergedODE, match="unresolved at depth 40"):
            oracle.solve_ivp(_Stepped(vs), (0.0, 1.0), np.zeros(1, complex),
                             np.ones(1, complex), np.zeros(1, complex), CFG)

    def test_nan_coefficient_raises(self):
        self.nan_segment(lambda z: np.where(z > 0.5, np.nan, 1.0))

    def test_nan_step_size_raises(self):
        # NaN from the first panel on: every halving fails
        self.nan_segment(lambda z: np.full(z.shape, np.nan))

    def test_every_oracle_solve_is_stage_batched(self, monkeypatch):
        import dataclasses
        sizes, marched = [], []
        solve = oracle.solve_ivp

        def recording(*args):
            start = len(sizes)
            res = solve(*args)
            marched.append((res.nfev, sizes[start:]))
            return res

        monkeypatch.setattr(oracle, "solve_ivp", recording)
        for name, x, y, k in (("sqrtwell", 1.0, -0.5, 0.01),
                              ("parabolic", 1.2, 1.0, 0.3)):
            base = catalog(name)

            def counting(z, vs=base.eval_VS):
                sizes.append(np.size(z))
                return vs(z)

            green_exact_report(dataclasses.replace(base, eval_VS=counting),
                               x, y, k, CFG)
        assert len(marched) > 10
        for nfev, calls in marched:
            assert set(calls) == {17} and nfev == sum(calls)

    @pytest.mark.parametrize("name,params,x,y,k,points", [
        ("sqrtwell", {}, 1.0, -0.5, 0.006, 3162),
        ("sqrtwell", {}, 1.0, -0.5, 0.75, 1020),
        ("logstep", {"alpha": 1.5}, 1.5, 0.8, 0.02, 952),
        ("parabolic", {}, 1.2, 1.0, 0.3, 748),
        ("barrier", {"a": 1.0}, 0.5, -0.3, 0.3, 204),
        ("logcosh", {}, 1.5, 0.4, 0.01, 442),
    ])
    def test_panel_partition_is_pinned(self, name, params, x, y, k, points):
        # the V_S points of a default sample count its panel attempts, so a
        # tail test that accepts or rejects a different panel moves them
        _, diag = green_exact_report(catalog(name, **params), x, y, k, CFG)
        assert diag["rhs_evals"] == points


class TestSolverConfig:
    @pytest.mark.parametrize("name,value", [
        ("ode_rel_tol", math.nan), ("ode_rel_tol", -1e-10), ("ode_rel_tol", 0.0),
        ("ode_rel_tol", math.inf), ("boundary_tol", 0.0),
        ("boundary_tol", math.nan),
    ])
    def test_bad_values_refused(self, name, value):
        with pytest.raises(InvalidSpec, match=name):
            SolverConfig(**{name: value})

    def test_fields(self):
        import dataclasses
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "cutoff_left", "cutoff_right", "ode_rel_tol", "boundary_tol"]
        # a real k is solved on the real axis
        assert SolverConfig().epsilon_imag == 0.0

    def test_tiny_rel_tol_is_floored(self):
        free = catalog("free")
        floored = SolverConfig(ode_rel_tol=oracle.RTOL_FLOOR)
        assert green_exact_report(free, 0.5, 0.2, 0.3,
                                  SolverConfig(ode_rel_tol=1e-300)) == \
            green_exact_report(free, 0.5, 0.2, 0.3, floored)


def _rel(a, b):
    return abs(a - b) / abs(b)


# k grids integrated as one system per side: (model, params, x, y, ks)
GRIDS = [
    ("parabolic", {}, 1.2, 1.0, np.linspace(0.05, 1.2, 10)),
    ("exponential", {}, 0.5, 0.0, np.linspace(0.1, 0.5, 10)),
    # without k = 1, logcosh's threshold, which the oracle refuses
    ("logcosh", {}, 1.5, 0.4, np.geomspace(0.01, 1.0, 10)[:-1]),
    ("sqrtwell", {}, 1.0, -0.5, np.geomspace(0.1, 1.0, 8)),
    # a jump of V_S at z = 1, between the Riccati tails and the batch
    ("logstep", {"alpha": 1.5}, 1.5, 0.8, np.geomspace(0.001, 0.1, 9)),
    # zero edges and breakpoints at z = +-1
    ("barrier", {"a": 1.0}, 0.5, -0.3, np.geomspace(0.01, 1.0, 8)),
    ("free", {}, 1.2, 0.3, np.linspace(0.1, 2.0, 8)),
]

CLOSED_FORMS = {
    "barrier": lambda x, y, k, params: green_closed_ex6(x, y, k, params["a"]),
    "logstep": lambda x, y, k, params: green_closed_ex5(x, y, k, params["alpha"]),
}


class TestGrid:
    @pytest.mark.parametrize("name,params,x,y,ks", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_as_accurate_as_single_samples(self, name, params, x, y, ks):
        model = catalog(name, **params)
        tight = SolverConfig(ode_rel_tol=1e-13)
        closed = CLOSED_FORMS.get(name)
        grid = green_exact_grid(model, x, y, ks, CFG)
        assert len(grid) == len(ks)
        for k, (s, d) in zip(ks, grid):
            single, _ = green_exact_report(model, x, y, k, CFG)
            assert s.k == single.k
            want = green_exact(model, x, y, k, tight).value
            assert _rel(s.value, want) <= max(2 * _rel(single.value, want), 1e-10)
            if closed is not None:
                want = closed(x, y, s.k, params)
                assert (_rel(s.value, want)
                        <= max(2 * _rel(single.value, want), 1e-10))
            assert d["wronskian_variation"] <= 1e-6

    @pytest.mark.parametrize("name,params,x,y,ks", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_one_k_is_the_single_sample(self, name, params, x, y, ks):
        model = catalog(name, **params)
        k = ks[len(ks) // 2]
        assert green_exact_grid(model, x, y, [k], CFG) == \
            [green_exact_report(model, x, y, k, CFG)]

    def test_every_k_reports_its_own_cutoffs(self):
        sw = catalog("sqrtwell")
        ks = [0.05, 0.2, 0.8]
        grid = green_exact_grid(sw, 1.0, -0.5, ks, CFG)
        singles = [green_exact_report(sw, 1.0, -0.5, k, CFG)[1] for k in ks]
        # each k enters the sweep at its own cutoff, as it does alone
        assert singles[0]["cutoff_right"] > singles[1]["cutoff_right"]
        keys = ("cutoff_left", "cutoff_right", "boundary_error_left",
                "boundary_error_right")
        for (_, d), single in zip(grid, singles):
            assert [d[key] for key in keys] == [single[key] for key in keys]

    @staticmethod
    def grid_work(monkeypatch, model, x, y, ks):
        """The V_S points of every segment's march of one grid."""
        nfev = []
        solve = oracle.solve_ivp

        def recording(*args, **kwargs):
            res = solve(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "solve_ivp", recording)
            green_exact_grid(model, x, y, ks, CFG)
        return sum(nfev)

    def test_parabolic_work_bound(self, monkeypatch):
        # one k at a time, the 40-k grid takes about 40x its dearest k
        par = catalog("parabolic")
        ks = np.linspace(0.05, 1.2, 40)
        dearest = max(green_exact_report(par, 1.2, 1.0, k, CFG)[1]["rhs_evals"]
                      for k in ks)
        work = self.grid_work(monkeypatch, par, 1.2, 1.0, ks)
        assert 0 < work <= 2 * dearest
        # one DOP853 system from the outermost cutoff in took 3,380
        # evaluations: entering each k at its own cutoff adds a stop, not work
        assert work <= 1.01 * 3380

    def test_power_tail_grid_beats_the_per_k_loop(self, monkeypatch):
        # run linearly by DOP853 from the smallest k's Riccati switch point
        # (z = 4990), the grid took 30,542, about as much as one k at a time
        model = catalog("logstep", alpha=1.5)
        ks = np.geomspace(0.001, 0.1, 9)
        loop = sum(green_exact_report(model, 1.5, 0.8, k, CFG)[1]["rhs_evals"]
                   for k in ks)
        assert 0 < self.grid_work(monkeypatch, model, 1.5, 0.8, ks) <= loop / 2

    def test_sqrtwell_grid_work_bound(self, monkeypatch):
        # per-k DOP853 Riccati tails in to the shared start took 151,304
        work = self.grid_work(monkeypatch, catalog("sqrtwell"), 1.0, -0.5,
                              np.linspace(0.05, 1.0, 20))
        assert 0 < work <= 151_304 / 3

    def test_every_grid_solve_goes_through_solve_ivp(self, monkeypatch):
        active = []
        solve = oracle.solve_ivp

        def recording(model, span, k2s, *args):
            active.append(len(k2s))
            return solve(model, span, k2s, *args)

        monkeypatch.setattr(oracle, "solve_ivp", recording)
        # the outermost k alone, then the others as they enter
        green_exact_grid(catalog("sqrtwell"), 1.0, -0.5, [0.05, 0.2, 0.8], CFG)
        assert active.count(3) > 2
        assert set(active) == {1, 2, 3}

    def test_error_norm_is_the_worst_k(self):
        # a panel is accepted only where every k passes its tail test: each
        # k of a pair ends as close to a tight march as it does alone
        sw = catalog("sqrtwell")
        k2s = np.array([0.05, 0.8], complex) ** 2
        start = (np.ones(2, complex), 1j * np.sqrt(k2s))

        def march(i, cfg=CFG):
            return oracle.solve_ivp(sw, (400.0, 1.0), k2s[i], start[0][i],
                                    start[1][i], cfg).y

        pair = march(slice(None))
        tight = march(slice(None), SolverConfig(ode_rel_tol=1e-13))
        for i in range(2):
            alone = march(slice(i, i + 1))[:, 0]
            assert np.all(np.abs(pair[:, i] - tight[:, i])
                          <= np.maximum(2 * np.abs(alone - tight[:, i]),
                                        1e-12 * np.abs(tight[:, i])))


class TestGridErrors:
    """A grid raises what the loop [green_exact(...) for k in ks] raised
    first, in grid order."""

    @staticmethod
    def both_raise(want, model, x, y, ks):
        with pytest.raises(want) as loop:
            [green_exact(model, x, y, k, CFG) for k in ks]
        with pytest.raises(want) as grid:
            green_exact_grid(model, x, y, ks, CFG)
        assert type(grid.value) is type(loop.value) is want

    @pytest.mark.parametrize("ks,want", [
        ([0.3, 0.0, 0.5], WronskianDegenerate),
        ([0.3, 0.2 - 0.1j, 0.0], UnsupportedAsymptotics),
        ([0.3, 0.0, 0.2 - 0.1j], WronskianDegenerate),
        ([0.0, 0.3], WronskianDegenerate),
        ([0.3, math.nan, 0.0], InvalidSpec),
        ([math.inf], InvalidSpec),
        ([complex(0.3, math.nan), 0.3 - 0.1j], InvalidSpec),
    ])
    def test_wavenumbers_off_the_sheet(self, ks, want):
        self.both_raise(want, catalog("free"), 1.2, 0.3, ks)

    @pytest.mark.parametrize("ks,want", [
        ([1.0], UnsupportedAsymptotics),
        ([0.5, 1.0, 1.5], UnsupportedAsymptotics),
        ([0.5, 1.0, 0.0], UnsupportedAsymptotics),
        ([0.5, 0.0, 1.0], WronskianDegenerate),
    ])
    def test_real_k_at_a_threshold(self, ks, want):
        # k^2 = 1 is logcosh's V_S at both infinities
        self.both_raise(want, catalog("logcosh"), 0.5, -0.3, ks)

    def test_threshold_named(self):
        with pytest.raises(UnsupportedAsymptotics,
                           match=r"real k = 1 is at the threshold "
                                 r"k\^2 = V_S\(-infinity\) = 1"):
            green_exact_report(catalog("logcosh"), 0.5, -0.3, 1.0, CFG)

    @pytest.mark.parametrize("ks,want", [
        ([0.1, 0.5, 0.0], NonconvergedODE),
        ([0.1, 0.0, 0.5], WronskianDegenerate),
    ])
    def test_failed_cutoff_search(self, monkeypatch, ks, want):
        search = oracle._auto_cutoff

        def failing(model, inner, k2, side, cfg):
            if abs(k2) > 0.2:
                raise NonconvergedODE(f"no usable {side} cutoff found")
            return search(model, inner, k2, side, cfg)

        monkeypatch.setattr(oracle, "_auto_cutoff", failing)
        self.both_raise(want, catalog("sqrtwell"), 1.0, -0.5, ks)

    @pytest.mark.parametrize("ks,want", [
        ([0.5, 2.0, 0.3 - 0.1j], WronskianDegenerate),
        ([0.3 - 0.1j, 2.0], UnsupportedAsymptotics),
    ])
    def test_degenerate_wronskian(self, ks, want):
        # k = 2 sits on a bound state of parabolic
        self.both_raise(want, catalog("parabolic"), 1.2, 1.0, ks)

    @pytest.mark.parametrize("ks", [[0.0], [0.0, 0.3], [0.3 - 0.1j, 0.3]])
    def test_positions_before_wavenumbers(self, ks):
        self.both_raise(InvalidSpec, catalog("free"), math.nan, 0.0, ks)

    @staticmethod
    def nan_panels(monkeypatch, batched_only):
        """Make the march fail: NaN panels, for every k or in batches only."""
        panel = oracle._march_panel

        def failing(model, k2s, *args):
            psi, dpsi = panel(model, k2s, *args)
            if len(k2s) > 1 or not batched_only:
                psi = psi * np.nan
            return psi, dpsi

        monkeypatch.setattr(oracle, "_march_panel", failing)

    def test_one_k_failure_is_not_retried(self, monkeypatch):
        # one k has no batch to fall back from: its march's error is raised
        self.nan_panels(monkeypatch, batched_only=False)
        calls = []
        solve_green = oracle._solve_green

        def counting(*args):
            calls.append(args)
            return solve_green(*args)

        monkeypatch.setattr(oracle, "_solve_green", counting)
        with pytest.raises(NonconvergedODE):
            green_exact_report(catalog("parabolic"), 1.2, 1.0, 0.3, CFG)
        assert len(calls) == 1

    def test_failed_batch_falls_back_to_the_per_k_loop(self, monkeypatch):
        self.nan_panels(monkeypatch, batched_only=True)
        par = catalog("parabolic")
        ks = [0.3, 0.6, 0.9]
        assert green_exact_grid(par, 1.2, 1.0, ks, CFG) == \
            [green_exact_report(par, 1.2, 1.0, k, CFG) for k in ks]

    def test_scaling_fit_checks_in_grid_order(self):
        # the free G's N=4 series is exact to rounding at k = 0.01
        free = catalog("free")
        with pytest.raises(DegenerateFit):
            remainder_scaling_fit(free, 0.5, 0.3, 4, [0.01, 0.02, 0.0, 0.04], CFG)
        with pytest.raises(WronskianDegenerate):
            remainder_scaling_fit(free, 0.5, 0.3, 4, [0.0, 0.01, 0.02, 0.04], CFG)
