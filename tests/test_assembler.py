import math

import numpy as np
import pytest
from scipy.special import erfi, expi, shichi

from lowkgreen.assembler import (
    closed_form_g,
    generic_expansion,
    green_series,
    log_form,
    pole_resummed,
    q_values,
    s_series,
)
from lowkgreen.brackets import QuadratureConfig
from lowkgreen.errors import (
    ExceptionalCase,
    NoClosedForm,
    OrderExceedsValidity,
    ZeroLeadingCoefficient,
)
from lowkgreen.laurent import LaurentSeries
from lowkgreen.potential import (
    EXPONENTIAL,
    CaseTag,
    EndpointClass,
    EndpointKind,
    catalog,
    custom_model,
    max_valid_order,
)

CFG = QuadratureConfig()
F, P, M = (EndpointKind.FINITE_LIMIT, EndpointKind.PLUS_INFINITY,
           EndpointKind.MINUS_INFINITY)


def tanh_model():
    return custom_model(
        "tanh-step", lambda z: np.tanh(z), lambda z: -0.5 / np.cosh(z) ** 2,
        left=EndpointClass(F, EXPONENTIAL, -1.0),
        right=EndpointClass(F, EXPONENTIAL, 1.0),
        eval_VS=lambda z: 0.25 / np.cosh(z) ** 4 + np.tanh(z) / np.cosh(z) ** 2,
        vs_limit_left=0.0, vs_limit_right=0.0)


def neg_exponential_model():
    return custom_model(
        "neg-exponential", lambda z: -np.exp(z), lambda z: 0.5 * np.exp(z),
        left=EndpointClass(F, EXPONENTIAL, 0.0),
        right=EndpointClass(M, EXPONENTIAL),
        eval_VS=lambda z: 0.25 * np.exp(2 * z) + 0.5 * np.exp(z),
        vs_limit_left=0.0, vs_limit_right=math.inf)


def neg_parabolic_model():
    return custom_model(
        "neg-parabolic", lambda z: -z ** 2, lambda z: z,
        left=EndpointClass(M, EXPONENTIAL), right=EndpointClass(M, EXPONENTIAL),
        eval_VS=lambda z: z ** 2 + 1.0,
        vs_limit_left=math.inf, vs_limit_right=math.inf)


class TestFreeParticle:
    def test_series(self):
        r = green_series(catalog("free"), 1.2, 0.3, 3, CFG)
        d = 0.9
        assert r.case_tag is CaseTag.I
        want = {-1: 0.5, 0: d / 2, 1: d * d / 4, 2: d ** 3 / 12, 3: d ** 4 / 48}
        for n, v in want.items():
            assert abs(r.g.coeff(n).real - v) < 1e-12

    def test_s_is_minus_one(self):
        s = s_series(catalog("free"), 0.7, 2, CFG)
        assert abs(s.coeff(0) + 1.0) < 1e-12
        assert abs(s.coeff(1)) < 1e-13 and abs(s.coeff(2)) < 1e-13

    def test_q_values(self):
        q = q_values(catalog("free"), 1.2, 0.3, 2, CFG)
        assert abs(q[1] - 0.9) < 1e-12
        assert abs(q[2]) < 1e-13 and abs(q[3]) < 1e-13


class TestPrintedCoefficients:
    def test_parabolic_s1_s3(self):
        # both-side sums against the closed error-function forms
        from scipy.integrate import quad
        from scipy.special import erfcx
        r = green_series(catalog("parabolic"), 1.2, 1.0, 2, CFG)
        for s, x in ((r.s_x, 1.2), (r.s_y, 1.0)):
            want1 = np.sqrt(np.pi) / 2 * np.exp(x * x)
            assert abs(s.coeff(1).real / want1 - 1) < 1e-10
            ref = np.pi / 8 * (
                quad(lambda z: erfcx(z) ** 2 * np.exp(-z * z), x, np.inf)[0]
                + quad(lambda z: erfcx(z) ** 2 * np.exp(-z * z), -x, np.inf)[0])
            assert abs(s.coeff(3).real / (-np.exp(x * x) * ref) - 1) < 1e-9

    def test_parabolic_q2(self):
        r = green_series(catalog("parabolic"), 1.2, 1.0, 0, CFG)
        want = np.pi / 4 * (erfi(1.0) - erfi(1.2))
        assert abs(r.q[2] / want - 1) < 1e-10

    def test_logcosh_s1_s3_q2(self):
        r = green_series(catalog("logcosh"), 2.0, 0.0, 2, CFG)
        x, y = 2.0, 0.0
        assert abs(r.s_x.coeff(1).real / np.cosh(x) ** 2 - 1) < 1e-11
        want3 = -0.5 * np.cosh(2 * x) * np.cosh(x) ** 2
        assert abs(r.s_x.coeff(3).real / want3 - 1) < 1e-11
        wantq = 0.5 * (y - x) + 0.25 * (np.sinh(2 * y) - np.sinh(2 * x))
        assert abs(r.q[2] / wantq - 1) < 1e-11

    def test_exponential_s0_s1_s2(self):
        r = green_series(catalog("exponential"), 0.5, -0.5, 2, CFG)
        for s, z in ((r.s_x, 0.5), (r.s_y, -0.5)):
            w = np.exp(z)
            assert abs(s.coeff(0).real / (-0.5 * np.exp(w)) - 1) < 1e-11
            want1 = -0.5 * np.exp(w) * (expi(-w) + 2 * shichi(w)[0])
            assert abs(s.coeff(1).real / want1 - 1) < 1e-10
        # s2 = -2 exp(e^z) * integral of exp(e^w) Shi(e^w)
        from scipy.integrate import quad
        z = 0.5
        integral = quad(lambda w: np.exp(np.exp(w)) * shichi(np.exp(w))[0],
                        -40, z, limit=300)[0]
        assert abs(r.s_x.coeff(2).real / (-2 * np.exp(np.exp(z)) * integral)
                   - 1) < 1e-9

    def test_logstep_leading_coefficients(self):
        alpha = 1.5
        r = green_series(catalog("logstep", alpha=alpha), 1.5, 0.8, 0, CFG)
        assert abs(r.g.coeff(-1).real / 1.5 ** (-alpha / 2) - 1) < 1e-10
        want0 = 1.5 ** (-alpha / 2) * (1 - 0.8 + 1 / (alpha - 1))
        assert abs(r.g.coeff(0).real / want0 - 1) < 1e-10

    def test_sqrtwell_printed_g0_g2(self):
        x, y = 1.0, -0.5
        r = green_series(catalog("sqrtwell"), x, y, 2, CFG)
        ex = np.exp(1 - np.sqrt(1 + x) / 2 - np.sqrt(1 - y) / 2)
        g0 = -2 * ex * (1 + np.sqrt(1 + x))
        g2 = (4 / 3) * ex * (118 + 37 * x + 2 * x ** 2 - 3 * y
                             + (94 + 11 * x - 3 * y) * np.sqrt(1 + x)
                             + 2 * (1 - y) * (1 + np.sqrt(1 + x)) * np.sqrt(1 - y))
        assert abs(r.g.coeff(0).real / g0 - 1) < 1e-10
        assert abs(r.g.coeff(2).real / g2 - 1) < 1e-10


CROSS_CHECKS = [
    ("tanh", CaseTag.I, (-1, 0), (0.9, -0.4), 1),
    ("free", CaseTag.I, (-1, 0), (0.9, -0.4), 1),
    ("exponential", CaseTag.II, (-1, 0), (0.5, -0.3), 1),
    ("logstep", CaseTag.II, (-1, 0), (1.5, 0.8), 0),
    ("negexp", CaseTag.III, (0, 1), (0.7, -0.6), 1),
    ("parabolic", CaseTag.IV, (-2, 0), (1.2, 1.0), 2),
    ("logcosh", CaseTag.IV, (-2, 0), (1.5, 0.4), 2),
    ("sqrtwell", CaseTag.V, (0, 2), (1.0, -0.5), 2),
    ("negpara", CaseTag.VI, (0,), (0.8, -0.3), 0),
]


def _named_model(name):
    if name == "tanh":
        return tanh_model()
    if name == "negexp":
        return neg_exponential_model()
    if name == "negpara":
        return neg_parabolic_model()
    if name == "logstep":
        return catalog(name, alpha=1.5)
    return catalog(name)


class TestClosedFormCrossChecks:
    @pytest.mark.parametrize("name,tag,orders,pt,N", CROSS_CHECKS)
    def test_series_matches_closed_form(self, name, tag, orders, pt, N):
        model = _named_model(name)
        x, y = pt
        r = green_series(model, x, y, N, CFG)
        assert r.case_tag is tag
        for which in orders:
            cf = closed_form_g(model, x, y, tag, which, CFG)
            got = r.g.coeff(which).real
            if cf == 0.0:
                assert abs(got) < 1e-9
            else:
                assert abs(got / cf - 1) < 1e-6

    def test_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            closed_form_g(catalog("parabolic"), 1.0, 0.0, CaseTag.IV, 4, CFG)


class TestStructure:
    def test_min_orders(self):
        assert green_series(tanh_model(), 0.5, -0.5, 0, CFG).g.min_order == -1
        assert green_series(catalog("parabolic"), 1.0, 0.5, 0, CFG).g.min_order == -2
        assert green_series(catalog("sqrtwell"), 1.0, -0.5, 0, CFG).g.min_order == 0

    def test_parity_even_cases(self):
        r = green_series(catalog("logcosh"), 1.5, 0.5, 2, CFG)
        assert r.diagnostics["odd_parity_residual"] < 1e-10
        assert r.diagnostics["max_imag"] < 1e-12

    def test_symmetry_under_swap(self):
        m = catalog("parabolic")
        r1 = green_series(m, 1.2, 0.4, 2, CFG)
        r2 = green_series(m, 0.4, 1.2, 2, CFG)
        for n in range(-2, 3):
            assert abs(r1.g.coeff_or_zero(n) - r2.g.coeff_or_zero(n)) < 1e-12

    def test_mirror_reflection_consistency(self):
        m = catalog("exponential")
        refl = m.reflected()
        x, y = 0.6, -0.3
        r1 = green_series(m, x, y, 1, CFG)
        r2 = green_series(refl, -y, -x, 1, CFG)
        assert r2.diagnostics["reflected"]
        for n in range(-1, 2):
            assert abs(r1.g.coeff_or_zero(n) - r2.g.coeff_or_zero(n)) < 1e-9

    def test_order_exceeds_validity(self):
        with pytest.raises(OrderExceedsValidity):
            green_series(catalog("logstep", alpha=1.5), 1.5, 0.8, 2, CFG)
        with pytest.raises(OrderExceedsValidity):
            s_series(catalog("logstep", alpha=1.5), 1.5, 2, CFG)

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_power_tail_expands_up_to_validity(self, alpha):
        # a family's one tail cut is placed for its deepest level, so the
        # power-tail rule (alpha > depth) must accept every valid order
        m = catalog("logstep", alpha=alpha)
        top = max_valid_order(m)
        for N in range(-1, top + 1):
            assert green_series(m, 1.5, 0.8, N, CFG).N == N
            assert s_series(m, 1.5, N, CFG).trunc == N
        with pytest.raises(OrderExceedsValidity):
            green_series(m, 1.5, 0.8, top + 1, CFG)
        with pytest.raises(OrderExceedsValidity):
            s_series(m, 1.5, top + 1, CFG)

    def test_q_values_checks_validity(self):
        # past validity the tail cut used to fail first, with DivergentTail
        m = catalog("logstep", alpha=1.5)
        top = max_valid_order(m)
        assert q_values(m, 1.5, 0.8, top, CFG)
        for N in (top + 1, 3):
            with pytest.raises(OrderExceedsValidity):
                q_values(m, 1.5, 0.8, N, CFG)

    def test_order_below_leading(self):
        with pytest.raises(OrderExceedsValidity):
            green_series(catalog("sqrtwell"), 1.0, -0.5, -1, CFG)

    def test_leading_order_only_request(self):
        r = green_series(catalog("parabolic"), 1.2, 1.0, -2, CFG)
        want = -np.exp(-0.5 * (1.44 + 1.0)) / np.sqrt(np.pi)
        assert r.N == -2
        assert abs(r.g.coeff(-2).real / want - 1) < 1e-12

    @pytest.mark.parametrize("make, tag, lowest", [
        (lambda: catalog("free"), CaseTag.I, 0),
        (lambda: catalog("exponential"), CaseTag.II, 0),
        (neg_exponential_model, CaseTag.III, -1),
    ])
    @pytest.mark.parametrize("below", [1, 3])
    def test_s_series_below_lowest_order(self, make, tag, lowest, below):
        # below the case's lowest s-order the series is zero, known through
        # order N, as cases IV-VI already give
        m, N = make(), lowest - below
        assert green_series(m, 1.2, 0.3, 1, CFG).case_tag is tag
        assert s_series(m, 1.2, lowest, CFG).min_order == lowest
        s = s_series(m, 1.2, N, CFG)
        assert s.is_zero and s.trunc == N
        assert q_values(m, 1.2, 0.3, N, CFG) == {}


def barrier_g0_g1(a, x, y):
    """The printed order-0 and order-1 coefficients of the square barrier."""
    g0 = -np.cosh(a * (x - 1)) * np.cosh(a * (y + 1)) / (a * np.sinh(2 * a))
    t, c = np.tanh, np.cosh
    g1 = g0 / (2 * a) * (
        t(a * (x + 1)) + t(a * (x - 1)) - t(a * (y + 1)) - t(a * (y - 1))
        + (1 / np.sinh(2 * a)) * (
            c(a * (x - 1)) / c(a * (x + 1)) + c(a * (x + 1)) / c(a * (x - 1))
            + c(a * (y - 1)) / c(a * (y + 1)) + c(a * (y + 1)) / c(a * (y - 1))))
    return g0, g1


class TestGenericRoute:
    def test_barrier_printed_forms(self):
        a, x, y = 1.0, 0.5, -0.5
        r = generic_expansion(catalog("barrier", a=a), x, y, 1, CFG)
        g0, g1 = barrier_g0_g1(a, x, y)
        assert abs(r.g.coeff(0).real / g0 - 1) < 1e-8
        assert abs(r.g.coeff(1).real / g1 - 1) < 1e-8
        assert r.diagnostics["g0_closed_residual"] < 1e-8
        assert r.diagnostics["g1_closed_residual"] < 1e-8

    def test_coincident_points(self):
        # x == y leaves nothing to integrate: the q-integrals and the g1
        # closed form's integral are zero, as on the classified route
        a, x = 1.0, 0.5
        r = generic_expansion(catalog("barrier", a=a), x, x, 2, CFG)
        assert r.q == {0: 0.0, 1: 0.0, 2: 0.0}
        g0, g1 = barrier_g0_g1(a, x, x)
        assert abs(r.g.coeff(0).real / g0 - 1) < 1e-8
        assert abs(r.g.coeff(1).real / g1 - 1) < 1e-8
        assert r.diagnostics["g1_closed_residual"] < 1e-8

    def test_flat_potential_is_exceptional(self):
        with pytest.raises(ExceptionalCase):
            generic_expansion(catalog("free"), 0.5, -0.5, 0, CFG)

    @staticmethod
    def sech2_well(depth):
        """V_S = -depth sech^2 z."""
        from lowkgreen.potential import PotentialModel
        return PotentialModel(
            id="sech2-well", left=None, right=None,
            eval_VS=lambda z: -depth / np.cosh(np.asarray(z, float)) ** 2,
            vs_limit_left=0.0, vs_limit_right=0.0, vs_defined_only=True)

    def test_bound_state_rejected_by_sign_change(self):
        # a well deep enough to bind makes the zero-energy solution cross
        # zero, which the route must refuse; at l = 1.5 (depth l(l+1)) the
        # two solutions are not proportional (W = -0.637)
        from lowkgreen.errors import NegativeZeroMode
        with pytest.raises(NegativeZeroMode):
            generic_expansion(self.sech2_well(3.75), 0.5, -0.5, 0, CFG)

    @pytest.mark.parametrize("x,y", [(0.5, -0.5), (0.9, 0.1)])
    def test_proportional_wherever_the_midpoint_falls(self, x, y):
        # the zero-energy solutions of -2 sech^2 z are -+tanh z; at
        # (0.5, -0.5) the midpoint is their common zero, where the scale of
        # the proportionality test is rounding noise, as |W| is
        with pytest.raises(ExceptionalCase, match="proportional"):
            generic_expansion(self.sech2_well(2.0), x, y, 0, CFG)

    def test_printed_forms_to_rounding(self):
        # the barrier's zero-energy solutions are polynomial-exact on one
        # panel each, so the printed forms hold to rounding
        r = generic_expansion(catalog("barrier", a=1.0), 0.5, -0.3, 1, CFG)
        assert r.diagnostics["g0_closed_residual"] <= 1e-13
        assert r.diagnostics["g1_closed_residual"] <= 1e-13

    def test_no_ode_solve(self, monkeypatch):
        from lowkgreen import oracle

        def refuse(*args, **kwargs):
            raise AssertionError("the expansion ran the oracle's ODE driver")

        monkeypatch.setattr(oracle, "solve_ivp", refuse)
        for N in range(4):
            generic_expansion(catalog("barrier", a=1.0), 0.5, -0.3, N, CFG)

    def test_generic_matches_oracle(self):
        # the order-1 truncation error is the order-2 term, |g2| ~ 0.1 here
        from lowkgreen.oracle import green_exact
        bar = catalog("barrier", a=1.0)
        r = generic_expansion(bar, 0.5, -0.5, 1, CFG)
        for k in (0.05, 0.1):
            g = green_exact(bar, 0.5, -0.5, k)
            assert abs(r.truncated_sum(k) - g.value) < 0.3 * k ** 2


def hermite_products(x, y, count):
    """psi_n(x) psi_n(y) for n < count, from the Hermite functions'
    three-term recurrence."""
    a0 = math.pi ** -0.25 * math.exp(-x * x / 2)
    b0 = math.pi ** -0.25 * math.exp(-y * y / 2)
    a1, b1 = math.sqrt(2) * x * a0, math.sqrt(2) * y * b0
    out = [a0 * b0, a1 * b1]
    for n in range(1, count - 1):
        c, d = math.sqrt(2 / (n + 1)), math.sqrt(n / (n + 1))
        a0, a1 = a1, c * x * a1 - d * a0
        b0, b1 = b1, c * y * b1 - d * b0
        out.append(a1 * b1)
    return np.array(out)


class TestSpectralGate:
    def test_parabolic_against_eigenfunction_sums(self):
        # V_S = z^2 - 1 has E_n = 2n and the Hermite functions psi_n, so
        # G = sum_n psi_n(x) psi_n(y) / (k^2 - E_n): g_-2 = -psi_0 psi_0 and
        # g_2m = (-1)^(m+1) sum_{n>=1} psi_n psi_n / E_n^(m+1).  g_0 is left
        # out: its sum converges too slowly without a tail correction
        p = hermite_products(1.2, 1.0, 200_000)
        E = 2.0 * np.arange(1, p.size)
        r = green_series(catalog("parabolic"), 1.2, 1.0, 8, CFG)
        assert abs(r.g.coeff(-2).real / -p[0] - 1) <= 1e-13
        for m, tol in ((1, 1e-9), (2, 1e-10), (3, 1e-10), (4, 1e-10)):
            want = (-1) ** (m + 1) * np.sum(p[1:] / E ** (m + 1))
            assert abs(r.g.coeff(2 * m).real / want - 1) <= tol


class TestHigherOrders:
    def test_case_v_exponent_integral_identity(self):
        # the order-0 exponent integral reduces to a ratio of tail integrals
        from lowkgreen.brackets import BracketKind, BracketSpec, eval_bracket
        sw = catalog("sqrtwell")
        q = q_values(sw, 1.0, -0.5, 1, CFG)
        ipx = eval_bracket(BracketSpec(BracketKind.PLAIN, (1,), 1.0, math.inf),
                           sw, CFG)
        ipy = eval_bracket(BracketSpec(BracketKind.PLAIN, (1,), -0.5, math.inf),
                           sw, CFG)
        assert abs(q[0] / (0.5 * np.log(ipx / ipy)) - 1) < 1e-12

    def test_generic_route_higher_orders_against_oracle(self):
        # with coefficients through order 3 the residual must scale as k^4
        # with a stable constant (the order-4 coefficient)
        from lowkgreen.oracle import green_exact
        bar = catalog("barrier", a=1.0)
        r = generic_expansion(bar, 0.5, -0.5, 3, CFG)
        consts = []
        for k in (0.1, 0.05):
            g = green_exact(bar, 0.5, -0.5, k)
            consts.append(abs(g.value - r.truncated_sum(k)) / k ** 4)
        assert abs(consts[0] / consts[1] - 1) < 0.1
        assert consts[0] < 1.0

    def test_parabolic_order2_truncation_scales_as_k4(self):
        from lowkgreen.oracle import remainder_scaling_fit
        ks = np.geomspace(0.05, 0.4, 7)
        slope = remainder_scaling_fit(catalog("parabolic"), 1.2, 1.0, 2, ks)
        assert 3.5 < slope < 4.8

    def test_series_with_higher_order_tables(self):
        # the generation is not limited to the printed tables
        r = green_series(catalog("parabolic"), 1.2, 1.0, 4, CFG)
        assert r.g.trunc >= 4
        assert r.diagnostics["odd_parity_residual"] < 1e-10
        assert abs(r.g.coeff(4).real) > 0

    def test_divergent_asymptotic_series_still_orders_correctly(self):
        # the slow-tail coefficients grow factorially (the series diverges),
        # yet deep in the asymptotic regime each extra order still improves
        # the truncation
        from lowkgreen.oracle import green_exact
        sw = catalog("sqrtwell")
        r2 = green_series(sw, 1.0, -0.5, 2, CFG)
        r4 = green_series(sw, 1.0, -0.5, 4, CFG)
        assert abs(r4.g.coeff(2).real / r2.g.coeff(2).real - 1) < 1e-10
        assert abs(r4.g.coeff(4).real) > 100 * abs(r4.g.coeff(2).real)
        for k in (0.03, 0.02):
            G = green_exact(sw, 1.0, -0.5, k).value.real
            e2 = abs(G - r2.truncated_sum(k).real)
            e4 = abs(G - r4.truncated_sum(k).real)
            assert e4 < e2

    def test_case_vi_order2_against_oracle(self):
        # no printed closed form exists at this order; the exact solver is
        # the referee: the order-2 residual must scale as k^4 with a stable
        # constant
        from lowkgreen.oracle import green_exact
        m = neg_parabolic_model()
        r = green_series(m, 0.8, -0.3, 2, CFG)
        consts = []
        for k in (0.2, 0.1):
            G = green_exact(m, 0.8, -0.3, k).value.real
            consts.append(abs(G - r.truncated_sum(k).real) / k ** 4)
        assert abs(consts[0] / consts[1] - 1) < 0.1
        assert consts[0] < 1.0

    def test_logstep_flat_region_coefficients(self):
        # with both positions below the step the coefficients are elementary:
        # the tail integrals are (1 - z) + 1/(alpha - 1)
        alpha = 1.5
        r = green_series(catalog("logstep", alpha=alpha), 0.5, -0.5, 0, CFG)
        assert abs(r.g.coeff(-1).real - 1.0) < 1e-12
        imx = (1 - 0.5) + 1 / (alpha - 1)
        imy = (1 + 0.5) + 1 / (alpha - 1)
        want0 = 0.5 * (imx + imy + 1.0)
        assert abs(r.g.coeff(0).real - want0) < 1e-10


class TestDerivedOutputs:
    def test_log_form_relations(self):
        g = LaurentSeries(-1, [1.0, 2.0, 3.0], trunc=1)
        r = green_series(catalog("free"), 1.0, 0.0, 1, CFG)
        r.g = g
        p = log_form(r)
        assert abs(p[0] - 2.0) < 1e-12
        assert abs(p[1] - (3.0 - 0.5 * 4.0)) < 1e-12

    def test_log_form_free_particle(self):
        r = green_series(catalog("free"), 1.2, 0.3, 2, CFG)
        p = log_form(r)
        assert abs(p[0] - 0.9) < 1e-12
        for v in p[1:]:
            assert abs(v) < 1e-12

    def test_exponent_form_wins_in_oscillatory_region(self):
        # truncating the logarithm and exponentiating tracks the oscillatory
        # tail far better than the plain truncation, and its advantage grows
        # with separation
        from lowkgreen.oracle import green_exact
        ex = catalog("exponential")
        k = 0.4
        advantage = []
        for sep in (2.0, 6.0):
            r = green_series(ex, 0.0, -sep, 2, CFG)
            p = log_form(r)
            G = green_exact(ex, 0.0, -sep, k).value
            ik = 1j * k
            lead = r.g.coeff(r.g.val) * ik ** r.g.val
            lf = lead * np.exp(sum(pm * ik ** (m + 1) for m, pm in enumerate(p)))
            assert abs(lf - G) < abs(r.truncated_sum(k) - G)
            advantage.append(abs(r.truncated_sum(k) - G) / abs(lf - G))
        assert advantage[1] > advantage[0]

    def test_pole_resummed_limits(self):
        assert pole_resummed(1.0, 2.0, 0.0, 0.3) == pytest.approx(
            1.0 / (1j * 0.3) ** 2 + 2.0)
        small = pole_resummed(1.0, 2.0, 0.5, 1e-6)
        plain = 1.0 / (1j * 1e-6) ** 2 + 2.0
        assert abs(small - plain) < 1e-9 * abs(plain)

    def test_pole_resummed_guards(self):
        with pytest.raises(ZeroLeadingCoefficient):
            pole_resummed(1.0, 0.0, 0.5, 0.3)
