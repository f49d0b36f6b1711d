import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx, shichi

from lowkgreen import _quad, brackets, coeffgen, green_series
from lowkgreen.brackets import (
    BracketKind,
    build_chain,
    BracketSpec,
    QuadratureConfig,
    cumulative_bracket,
    eval_bracket,
)
from lowkgreen.cli import main
from lowkgreen.coeffgen import Family, Side
from lowkgreen.errors import DivergentTail, InvalidSpec, LowkGreenError
from lowkgreen.potential import (
    EXPONENTIAL,
    Discontinuity,
    EndpointClass,
    EndpointKind,
    catalog,
    custom_model,
    max_valid_order,
)

from test_assembler import neg_exponential_model

INF = math.inf
CFG = QuadratureConfig()
PLAIN, ALEFT, ARIGHT = BracketKind.PLAIN, BracketKind.ANGLE_LEFT, BracketKind.ANGLE_RIGHT


def plain(signs, lo, hi):
    return BracketSpec(PLAIN, signs, lo, hi)


class TestSpecValidation:
    def test_angle_left_needs_infinite_lower(self):
        with pytest.raises(InvalidSpec):
            BracketSpec(ALEFT, (-1,), 0.0, 1.0)

    def test_angle_slots_carry_minus(self):
        with pytest.raises(InvalidSpec):
            BracketSpec(ALEFT, (1,), -INF, 1.0)
        with pytest.raises(InvalidSpec):
            BracketSpec(ARIGHT, (-1, 1), 0.0, INF)

    def test_ordering(self):
        with pytest.raises(InvalidSpec):
            BracketSpec(PLAIN, (1,), 2.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(INF, INF), (-INF, -INF), (0.0, -INF)])
    def test_no_start_at_plus_or_end_at_minus_infinity(self, lo, hi):
        with pytest.raises(InvalidSpec):
            BracketSpec(PLAIN, (-1,), lo, hi)

    @pytest.mark.parametrize("lo,hi", [("inf", "inf"), ("-inf", "-inf")])
    def test_infinite_point_span_exit_2(self, capsys, lo, hi):
        code = main(["brackets", "parabolic", "--plain", "-",
                     "--lower", lo, "--upper", hi])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("lo,hi,name", [(math.nan, 1.0, "lower"),
                                            (0.0, math.nan, "upper"),
                                            (math.nan, math.nan, "lower")])
    def test_nan_limit(self, lo, hi, name):
        with pytest.raises(InvalidSpec, match=f"^{name} limit is NaN$"):
            BracketSpec(PLAIN, (-1,), lo, hi)

    def test_nan_limit_exit_2(self, capsys):
        code = main(["brackets", "parabolic", "--plain", "-",
                     "--lower", "nan", "--upper", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: lower limit is NaN\n"

    @pytest.mark.parametrize("grid", [[-1.0, math.nan], [math.nan, -1.0],
                                      [math.nan]])
    def test_nan_grid_point(self, grid):
        with pytest.raises(InvalidSpec, match="NaN"):
            cumulative_bracket(plain((-1,), -INF, 0.0), catalog("parabolic"),
                               grid, CFG)

    def test_bad_signs(self):
        with pytest.raises(InvalidSpec):
            BracketSpec(PLAIN, (), 0.0, 1.0)
        with pytest.raises(InvalidSpec):
            BracketSpec(PLAIN, (2,), 0.0, 1.0)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "truncation_tail_tol"])
    def test_tolerances_must_be_positive(self, name):
        for bad in (0.0, -1e-10, math.nan):
            with pytest.raises(InvalidSpec):
                QuadratureConfig(**{name: bad})


class TestElementary:
    def test_unit_integrand(self):
        free = catalog("free")
        assert abs(eval_bracket(plain((1,), 0.25, 1.75), free, CFG) - 1.5) < 1e-13

    def test_simplex_volume(self):
        free = catalog("free")
        got = eval_bracket(plain((-1, -1), 0.0, 1.0), free, CFG)
        assert abs(got - 0.5) < 1e-13

    def test_gaussian(self):
        para = catalog("parabolic")
        got = eval_bracket(plain((-1,), -INF, INF), para, CFG)
        assert abs(got - math.sqrt(math.pi)) < 1e-13

    def test_flat_sinh_vanishes(self):
        free = catalog("free")
        spec = BracketSpec(ALEFT, (-1,), -INF, 0.7)
        assert abs(eval_bracket(spec, free, CFG)) < 1e-14

    def test_divergent_plain_toward_finite_limit(self):
        free = catalog("free")
        with pytest.raises(DivergentTail):
            eval_bracket(plain((-1,), -INF, 0.0), free, CFG)

    # alpha just above an integer leaves a tail whose cut the simplex factor
    # |z|^(depth - 1) overflows at the top valid order: each of these raised
    # a bare OverflowError from _find_cut
    @pytest.mark.parametrize("alpha", [5.1, 7.1, 7.2, 9.1, 9.2, 9.3, 11.1,
                                       11.2, 11.3, 11.4])
    def test_slow_logstep_tail_at_the_top_order_is_typed(self, alpha):
        model = catalog("logstep", alpha=alpha)
        try:
            green_series(model, 1.5, 0.8, max_valid_order(model))
        except LowkGreenError:
            pass

    @pytest.mark.parametrize("signs", [(1,), (-1, 1, 1)])
    def test_empty_span_is_zero(self, signs):
        para = catalog("parabolic")
        assert eval_bracket(plain(signs, 0.7, 0.7), para, CFG) == 0.0
        vals = cumulative_bracket(plain(signs, 0.7, 0.7), para, [0.7, 0.7], CFG)
        assert np.all(vals == 0.0)

    def test_empty_span_cli(self, capsys):
        code = main(["brackets", "free", "--plain", "+",
                     "--lower", "1", "--upper", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_doubly_infinite_depth_limit(self):
        para = catalog("parabolic")
        with pytest.raises(InvalidSpec):
            eval_bracket(plain((-1, -1), -INF, INF), para, CFG)


class TestAgainstIndependentQuadrature:
    def test_half_gaussian_cumulative(self):
        para = catalog("parabolic")
        got = cumulative_bracket(plain((-1,), -INF, 0.0), para, [-1.0, 0.0], CFG)
        want0 = math.sqrt(math.pi) / 2
        assert abs(got[1] - want0) < 1e-12
        wantm1 = integrate.quad(lambda z: np.exp(-z * z), -np.inf, -1.0)[0]
        assert abs(got[0] - wantm1) < 1e-12

    def test_three_deep_parabolic_vs_erfc_identity(self):
        # the 3-slot brackets of the parabolic model reduce to integrals of
        # exp(z^2) erfc(z)^2 = erfcx(z)^2 exp(-z^2)
        para = catalog("parabolic")
        ref_fn = lambda z: erfcx(z) ** 2 * np.exp(-z * z)
        for x in (0.0, 0.7, 1.2):
            left = eval_bracket(plain((1, -1, -1), x, INF), para, CFG)
            ref = np.pi / 8 * integrate.quad(ref_fn, x, np.inf, epsabs=1e-15)[0]
            assert abs(left / ref - 1) < 1e-12
            right = eval_bracket(plain((-1, -1, 1), -INF, x), para, CFG)
            ref = np.pi / 8 * integrate.quad(ref_fn, -x, np.inf, epsabs=1e-15)[0]
            assert abs(right / ref - 1) < 1e-12

    def test_angle_left_exponential_vs_shi(self):
        ex = catalog("exponential")
        for x in (-1.0, 0.5):
            got = eval_bracket(BracketSpec(ALEFT, (-1,), -INF, x), ex, CFG)
            want = -2.0 * shichi(np.exp(x))[0]
            assert abs(got / want - 1) < 1e-12

    def test_power_tail_logstep(self):
        ls = catalog("logstep", alpha=1.5)
        got = eval_bracket(plain((-1,), 1.5, INF), ls, CFG)
        want = 1.5 ** (-0.5) / 0.5
        assert abs(got / want - 1) < 1e-12


class TestInvariants:
    def test_splitting(self):
        lc = catalog("logcosh")
        a, b, c = -0.8, 0.4, 1.9
        whole = eval_bracket(plain((-1,), a, c), lc, CFG)
        parts = (eval_bracket(plain((-1,), a, b), lc, CFG)
                 + eval_bracket(plain((-1,), b, c), lc, CFG))
        assert abs(whole - parts) < 1e-12 * abs(whole)

    def test_positivity_and_monotonicity(self):
        para = catalog("parabolic")
        grid = np.linspace(-1.0, 2.0, 7)
        vals = cumulative_bracket(plain((-1,), -INF, 2.0), para, grid, CFG)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)

    def test_angle_sign(self):
        # V >= V1 everywhere makes sinh(V1 - V) <= 0
        ex = catalog("exponential")
        spec = BracketSpec(ALEFT, (-1,), -INF, 1.0)
        assert eval_bracket(spec, ex, CFG) < 0
        spec2 = BracketSpec(ALEFT, (-1, 1), -INF, 1.0)
        assert eval_bracket(spec2, ex, CFG) < 0

    def test_defining_identity_of_angle_brackets(self):
        # on a model with V == V1 exactly below -5 the angle bracket equals
        # the difference of plain brackets started at the flattening point
        v1 = np.exp(-5.0)

        def V(z):
            z = np.asarray(z, float)
            return np.exp(np.maximum(z, -5.0))

        def f(z):
            z = np.asarray(z, float)
            return np.where(z > -5.0, -0.5 * np.exp(z), 0.0)

        m = custom_model(
            "flattened", V, f,
            left=EndpointClass(EndpointKind.FINITE_LIMIT, EXPONENTIAL, v1),
            right=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
            discontinuities=(Discontinuity(-5.0, f(np.array([-4.999]))[0]),),
        )
        x = 0.8
        for tail in [(), (1,), (1, -1)]:
            signs = (-1,) + tail
            ang = eval_bracket(BracketSpec(ALEFT, signs, -INF, x), m, CFG)
            pm = eval_bracket(plain((-1,) + tail, -5.0, x), m, CFG)
            pp = eval_bracket(plain((1,) + tail, -5.0, x), m, CFG)
            want = pm - np.exp(-2 * v1) * pp
            assert abs(ang - want) < 1e-11 * max(1.0, abs(want))

    def test_outer_derivative_is_weight(self):
        # d/dz [+]_z^inf = -exp(V(z))
        sw = catalog("sqrtwell")
        grid = np.array([0.5, 0.5 + 1e-5])
        vals = cumulative_bracket(plain((1,), 0.5, INF), sw, grid, CFG)
        deriv = (vals[1] - vals[0]) / 1e-5
        want = -np.exp(sw.V(0.5 + 0.5e-5))
        assert abs(deriv / want - 1) < 1e-6

    def test_cumulative_matches_pointwise(self):
        lc = catalog("logcosh")
        grid = np.array([-1.0, 0.0, 1.5])
        vals = cumulative_bracket(plain((-1, -1, 1), -INF, 1.5), lc, grid, CFG)
        for z, v in zip(grid, vals):
            single = eval_bracket(plain((-1, -1, 1), -INF, z), lc, CFG)
            assert abs(v - single) < 1e-10 * max(1.0, abs(single))


class TestLevelLoop:
    """``build_chain`` runs the level loop that ``build_states`` runs."""

    @staticmethod
    def record_fits(monkeypatch):
        fits = []
        real = brackets.build_chebfun

        def recording(f, edges, **kwargs):
            fit = real(f, edges, **kwargs)
            fits.append((np.asarray(edges, dtype=float), fit))
            return fit

        monkeypatch.setattr(brackets, "build_chebfun", recording)
        return fits

    @pytest.mark.parametrize("name,spec", [
        ("parabolic", plain((-1, -1, 1), -INF, 1.2)),
        ("parabolic", plain((1, -1, -1), 1.2, INF)),
        ("logcosh", plain((-1, 1, 1, -1), -0.5, 1.5)),
        ("exponential", BracketSpec(ALEFT, (-1, 1, -1), -INF, 0.5)),
    ])
    def test_later_levels_fit_on_level_zero_leaves(self, monkeypatch, name, spec):
        fits = self.record_fits(monkeypatch)
        build_chain(spec, catalog(name), CFG)
        assert len(fits) == spec.depth
        head = fits[0][1].edges
        for edges, _ in fits[1:]:
            assert np.array_equal(edges, head)

    def test_parabolic_three_deep_panels(self, monkeypatch):
        # inheriting each level's leaves took 41 + 86 + 86 = 213 panels
        fits = self.record_fits(monkeypatch)
        build_chain(plain((-1, -1, 1), -INF, 1.2), catalog("parabolic"), CFG)
        assert sum(len(fit.coefs) for _, fit in fits) < 213


class TestRefinementWork:
    """Work counts, not seconds: panels whose values are subnormal are
    accepted at the smallest normal double instead of being halved to the
    depth cap."""

    @staticmethod
    def record_fits(monkeypatch, index=None, factor=1.0):
        """Record every fit, with fit ``index``'s integrand times ``factor``."""
        fits = []

        def recording(f, edges, **kwargs):
            g = (lambda z: factor * f(z)) if len(fits) == index else f
            fit = _quad.build_chebfun(g, edges, **kwargs)
            fits.append(fit)
            return fit

        monkeypatch.setattr(brackets, "build_chebfun", recording)
        return fits

    def test_negexp_btilde_cost_does_not_depend_on_a_constant_factor(self, monkeypatch):
        # the level-2 fit took 24,456 panels at ×0.5, 4,998 at ×1 and over
        # a million at ×2
        model = neg_exponential_model()
        panels = []
        for factor in (0.5, 1.0, 2.0):
            fits = self.record_fits(monkeypatch, 1, factor)
            coeffgen.family_coefficients(model, CFG, 0.0, 0.0, Family.BTILDE,
                                         Side.LEFT, 3)
            assert len(fits) == 3
            panels.append(len(fits[1].coefs))
        assert max(panels) <= 1.1 * min(panels)

    def test_parabolic_order_eight(self, monkeypatch):
        # 28,153 panels, the narrowest 1.1e-13 wide, when subnormal panels
        # were halved to the depth cap; the coefficients did not move
        fits = self.record_fits(monkeypatch)
        res = green_series(catalog("parabolic"), 1.2, 1.0, 8)
        assert sum(len(fit.coefs) for fit in fits) < 7000
        assert min(np.min(np.diff(fit.edges)) for fit in fits) > 1e-6
        assert [repr(res.g.coeff_or_zero(n).real) for n in range(-2, 9)] == [
            "-0.16656578492759416", "-0.0", "-0.28658240003791485", "-0.0",
            "0.11507634291836473", "-0.0", "-0.052991197335168626", "-0.0",
            "0.025663105567082733", "-0.0", "-0.012653460855745573"]
