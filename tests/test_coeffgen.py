import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import shichi

from lowkgreen import assembler, brackets
from lowkgreen.brackets import BracketKind, QuadratureConfig
from lowkgreen.coeffgen import (
    ORDER_CAP,
    CoefficientEvaluator,
    Family,
    Side,
    TermTable,
    a_terms,
    b_terms,
    btilde_terms,
    eval_coeff,
    family_coefficients,
    gamma_series,
    p_coeff,
    term_table,
)
from lowkgreen.errors import BadParameter, ZeroLeadingCoefficient
from lowkgreen.laurent import LaurentSeries, ls_invert
from lowkgreen.oracle import zero_energy_modes
from lowkgreen.potential import (
    EndpointKind,
    catalog,
    classification,
    max_valid_order,
)
from test_assembler import neg_exponential_model, tanh_model

CFG = QuadratureConfig()


def table_as_dict(table):
    """{sign string: (coeff, limit_exponent)} for comparison with the
    hand-evaluated product formula."""
    return {
        "".join("+" if s > 0 else "-" for s in t.signs): (t.coeff, t.limit_exponent)
        for t in table.terms
    }


# golden tables, re-derived by hand from the sign-sequence product formula
GOLDEN_A_RIGHT = {
    1: {"-": (Fraction(1, 2), 0)},
    2: {"-+": (Fraction(1), 1)},
    3: {"-++": (Fraction(3), 2), "--+": (Fraction(-1), 0)},
    4: {"-+++": (Fraction(12), 3), "-+-+": (Fraction(-2), 1),
        "--++": (Fraction(-6), 1)},
    5: {"-++++": (Fraction(60), 4), "-++-+": (Fraction(-6), 2),
        "-+-++": (Fraction(-18), 2), "--+++": (Fraction(-36), 2),
        "--+-+": (Fraction(2), 0), "---++": (Fraction(6), 0)},
}

GOLDEN_B_RIGHT = {
    1: {"-": Fraction(1, 2)},
    3: {"--+": Fraction(-1)},
    5: {"---++": Fraction(6), "--+-+": Fraction(2)},
    7: {"----+++": Fraction(-72), "---+-++": Fraction(-36),
        "---++-+": Fraction(-12), "--+--++": Fraction(-12),
        "--+-+-+": Fraction(-4)},
}


class TestProductFormula:
    def test_empty_product(self):
        assert p_coeff((), 1) == 1

    def test_single_signs(self):
        assert p_coeff((-1,), 1) == 2
        assert p_coeff((1,), 1) == 0

    def test_vanishes_for_m_at_most_lambda(self):
        # for m in the generating sum's range (m >= 1) the product vanishes
        # whenever m <= Lambda, so only m = Lambda + 1 survives the limit
        for seq in [(1,), (1, 1), (1, -1, 1), (-1, 1, 1, 1)]:
            lam = sum(seq)
            for m in range(1, lam + 1):
                assert p_coeff(seq, m) == 0


class TestGoldenTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_right(self, n):
        assert table_as_dict(a_terms(n, Side.RIGHT)) == GOLDEN_A_RIGHT[n]

    def test_a_zero(self):
        t = a_terms(0, Side.RIGHT)
        assert len(t.terms) == 1
        assert t.terms[0].coeff == Fraction(-1, 2)
        assert t.terms[0].limit_exponent == 1
        assert t.terms[0].kind is None

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_b_right(self, n):
        got = {k: v[0] for k, v in table_as_dict(b_terms(n, Side.RIGHT)).items()}
        assert got == GOLDEN_B_RIGHT[n]

    def test_b_even_empty(self):
        assert b_terms(4, Side.RIGHT).terms == ()

    def test_btilde_is_sign_flip(self):
        b = b_terms(5, Side.RIGHT)
        bt = btilde_terms(5, Side.RIGHT)
        flipped = {
            "".join("+" if s < 0 else "-" for s in t.signs): t.coeff
            for t in bt.terms
        }
        want = {k: v[0] for k, v in table_as_dict(b).items()}
        assert flipped == want
        assert bt.point_sign == -1 and b.point_sign == +1

    def test_btilde_low_orders(self):
        bt1 = table_as_dict(btilde_terms(1, Side.RIGHT))
        assert bt1 == {"+": (Fraction(1, 2), 0)}
        bt3 = table_as_dict(btilde_terms(3, Side.RIGHT))
        assert bt3 == {"++-": (Fraction(-1), 0)}

    def test_order_cap(self):
        with pytest.raises(BadParameter):
            a_terms(12, Side.RIGHT)


class TestStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_raw_sequence_count(self, n):
        # before pruning there are 2^(n-1) sequences; pruned terms all carry
        # nonzero weight and nonnegative limit exponent
        t = a_terms(n, Side.RIGHT)
        assert len(t.terms) <= 2 ** (n - 1)
        assert all(term.coeff != 0 for term in t.terms)
        assert all(term.limit_exponent >= 0 for term in t.terms)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_balanced_count_is_catalan(self, n):
        m = (n - 1) // 2
        catalan = math.comb(n - 1, m) // (m + 1)
        assert len(b_terms(n, Side.RIGHT).terms) == catalan

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_divergent_limit_of_a_is_b(self, n):
        # dropping every a-term with a positive limit exponent and renaming
        # the angle bracket to a plain one reproduces the b-table
        a = a_terms(n, Side.RIGHT)
        survivors = {
            "".join("+" if s > 0 else "-" for s in t.signs): t.coeff
            for t in a.terms if t.limit_exponent == 0
        }
        want = {k: v[0] for k, v in table_as_dict(b_terms(n, Side.RIGHT)).items()}
        assert survivors == want

    @pytest.mark.parametrize("family,n", [(Family.A, 4), (Family.B, 5),
                                          (Family.BTILDE, 5)])
    def test_left_right_mirror(self, family, n):
        from lowkgreen.coeffgen import term_table
        right = term_table(family, n, Side.RIGHT)
        left = term_table(family, n, Side.LEFT)
        as_reversed = {tuple(reversed(t.signs)): (t.coeff, t.limit_exponent)
                       for t in left.terms}
        want = {t.signs: (t.coeff, t.limit_exponent) for t in right.terms}
        assert as_reversed == want
        kinds = {t.kind for t in left.terms}
        if family is Family.A:
            assert kinds == {BracketKind.ANGLE_RIGHT}

    def test_json_round(self):
        d = a_terms(3, Side.RIGHT).to_json_dict()
        assert d["order"] == 3 and d["family"] == "a"
        assert {t["signs"] for t in d["terms"]} == {"-++", "--+"}
        assert any(t["coeff"] == "3" for t in d["terms"])


class TestEvaluation:
    def test_a0_exponential_model(self):
        # order-0 coefficient of the exponential potential: -(1/2) exp(e^x)
        ex = catalog("exponential")
        for x in (-1.0, 0.0, 0.5):
            got = eval_coeff(a_terms(0, Side.RIGHT), ex, x, CFG)
            assert abs(got / (-0.5 * np.exp(np.exp(x))) - 1) < 1e-12

    def test_a1_exponential_model(self):
        ex = catalog("exponential")
        x = 0.5
        got = eval_coeff(a_terms(1, Side.RIGHT), ex, x, CFG)
        want = -np.exp(np.exp(x)) * shichi(np.exp(x))[0]
        assert abs(got / want - 1) < 1e-11

    def test_b1_sum_parabolic(self):
        # both-side order-1 sum for the parabolic model: (sqrt(pi)/2) e^{x^2}
        para = catalog("parabolic")
        for x in (0.0, 0.7, 1.2):
            got = (eval_coeff(b_terms(1, Side.RIGHT), para, x, CFG)
                   + eval_coeff(b_terms(1, Side.LEFT), para, x, CFG))
            want = np.sqrt(np.pi) / 2 * np.exp(x * x)
            assert abs(got / want - 1) < 1e-11

    def test_b1_sum_logcosh(self):
        lc = catalog("logcosh")
        for x in (0.0, 1.0, 2.0):
            got = (eval_coeff(b_terms(1, Side.RIGHT), lc, x, CFG)
                   + eval_coeff(b_terms(1, Side.LEFT), lc, x, CFG))
            assert abs(got / np.cosh(x) ** 2 - 1) < 1e-11

    def test_evaluator_shares_chains(self):
        para = catalog("parabolic")
        ev = CoefficientEvaluator(para, CFG, -1.0, 1.5)
        t = b_terms(3, Side.RIGHT)
        v1 = ev.value(t, 1.0)
        assert len(ev._chains) == 1
        fn = ev.coeff_fn(t)
        assert len(ev._chains) == 1
        assert abs(fn(np.array([1.0]))[0] - v1) < 1e-14


class TestGammaSeries:
    def test_monomial(self):
        s = LaurentSeries(1, [0.25, 0.0, 0.0], trunc=3)
        g = gamma_series(s)
        assert abs(g.coeff(-1) - 1.0) < 1e-14
        assert abs(g.coeff_or_zero(1)) < 1e-14

    def test_closed_forms(self):
        b1, b3, b5 = 0.5, -1.0, 0.0
        s = LaurentSeries(1, [b1, 0, b3, 0, b5, 0.0], trunc=6)
        g = gamma_series(s)
        assert abs(g.coeff(-1) - 1 / (4 * b1)) < 1e-14
        assert abs(g.coeff(1) - (-b3 / (4 * b1 ** 2))) < 1e-14
        assert abs(g.coeff(3) - (b3 ** 2 - b5 * b1) / (4 * b1 ** 3)) < 1e-14

    def test_even_orders_vanish(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            b = rng.uniform(-2, 2, 3)
            b[0] = np.sign(b[0]) * max(abs(b[0]), 0.3)
            s = LaurentSeries(1, [b[0], 0, b[1], 0, b[2], 0], trunc=6)
            g = gamma_series(s)
            assert abs(g.coeff_or_zero(0)) < 1e-13
            assert abs(g.coeff_or_zero(2)) < 1e-13

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            b = rng.uniform(-2, 2, 3)
            b[0] = np.sign(b[0]) * max(abs(b[0]), 0.3)
            s = LaurentSeries(1, [b[0], 0, b[1], 0, b[2], 0], trunc=6)
            g = gamma_series(s)
            # the reciprocal relation inverts to the original series
            back = 0.25 * ls_invert(g)
            for j in range(1, back.trunc + 1):
                assert abs(back.coeff(j) - s.coeff_or_zero(j)) < 1e-12 * max(
                    1.0, abs(s.coeff_or_zero(j)))

    def test_zero_leading(self):
        with pytest.raises(ZeroLeadingCoefficient):
            gamma_series(LaurentSeries(1, [0.0, 0.0, 1.0], trunc=3))


#: the family whose brackets start from an end of each kind
START_FAMILY = {EndpointKind.FINITE_LIMIT: Family.A,
                EndpointKind.PLUS_INFINITY: Family.B,
                EndpointKind.MINUS_INFINITY: Family.BTILDE}


def _barrier_aux(side_of_one):
    """One of the generic route's auxiliary potentials for the barrier,
    built as ``generic_expansion`` builds it."""
    barrier = catalog("barrier", a=1.0)
    psi_m, psi_p, _ = zero_energy_modes(barrier, CFG)
    psi = psi_m if side_of_one == "left" else psi_p
    return assembler._aux_model("barrier+aux", psi, tuple(barrier.discontinuities),
                                side_of_one)


def _valid_top(model):
    """The s-order a green_series at the model's validity limit needs."""
    case, _ = classification(model)
    return assembler._needed_s_order(case, max_valid_order(model))


BOTH = (Side.RIGHT, Side.LEFT)
# (model, highest order, sides, tolerance).  The auxiliary potentials are
# checked on the side the generic route reads, through the s-orders of its
# N=6.
RECURSION_CASES = [
    pytest.param(lambda: catalog("free"), 7, BOTH, 1e-12, id="free"),
    pytest.param(lambda: catalog("parabolic"), 7, BOTH, 1e-12, id="parabolic"),
    pytest.param(lambda: catalog("logcosh"), 7, BOTH, 1e-12, id="logcosh"),
    pytest.param(lambda: catalog("exponential"), 7, BOTH, 1e-12, id="exponential"),
    pytest.param(lambda: catalog("exponential").reflected(), 7, BOTH, 1e-12,
                 id="exponential-reflected"),
    pytest.param(lambda: catalog("sqrtwell"), 7, BOTH, 1e-12, id="sqrtwell"),
    pytest.param(lambda: catalog("logstep", alpha=1.5), None, BOTH, 1e-12,
                 id="logstep-1.5"),
    pytest.param(lambda: catalog("logstep", alpha=2.5), None, BOTH, 1e-12,
                 id="logstep-2.5"),
    pytest.param(neg_exponential_model, 7, BOTH, 1e-12, id="neg-exponential"),
    # the only model here whose finite limits are not 0
    pytest.param(tanh_model, 7, BOTH, 1e-12, id="tanh"),
    pytest.param(lambda: _barrier_aux("left"), 5, (Side.RIGHT,), 1e-12,
                 id="barrier-aux-down"),
    pytest.param(lambda: _barrier_aux("right"), 5, (Side.LEFT,), 1e-12,
                 id="barrier-aux-up"),
]


class TestFamilyRecursion:
    """The partial-sum recursion against the term tables summed through
    one ``build_chain`` per sign sequence."""

    @pytest.mark.parametrize("make,top,sides,tol", RECURSION_CASES)
    def test_matches_summed_term_tables(self, make, top, sides, tol):
        model = make()
        top = _valid_top(model) if top is None else top
        lo, hi = -0.4, 1.2
        pts = np.array([lo, hi])
        for side in sides:
            end = model.left if side is Side.RIGHT else model.right
            family = START_FAMILY[end.kind]
            got = family_coefficients(model, CFG, lo, hi, family, side, top)
            ev = CoefficientEvaluator(model, CFG, lo, hi)
            want = {}
            for n, fn in got.items():
                table = term_table(family, n, side)
                terms = [ev.coeff_fn(TermTable(n, side, family, (t,), table.point_sign))(pts)
                         for t in table.terms]
                want[n] = sum(terms)
                # the sum can cancel far below its terms, so the rounding
                # of the reference is relative to the terms' size
                scale = sum(np.abs(v) for v in terms)
                assert np.all(np.abs(fn(pts) - want[n]) <= tol * scale), (side, n)
            if family is Family.BTILDE:
                # the gamma orders, inverted as _GammaField does
                m = max(got)
                for i in range(pts.size):
                    g_got, g_want = (
                        gamma_series(LaurentSeries(1, [v[n][i] if n % 2 else 0.0
                                                       for n in range(1, m + 2)],
                                                   trunc=m + 1))
                        for v in ({n: fn(pts) for n, fn in got.items()}, want))
                    for n in range(-1, m - 1, 2):
                        assert abs(g_got.coeff(n) / g_want.coeff(n) - 1) < 1e-11

    def test_orders_of_each_family(self):
        para, ex = catalog("parabolic"), catalog("exponential")
        assert list(family_coefficients(para, CFG, 1.0, 1.2, Family.B,
                                        Side.RIGHT, 6)) == [1, 3, 5]
        assert list(family_coefficients(ex, CFG, 1.0, 1.2, Family.A,
                                        Side.RIGHT, 3)) == [0, 1, 2, 3]
        assert family_coefficients(para, CFG, 1.0, 1.2, Family.B,
                                   Side.RIGHT, 0) == {}

    @pytest.mark.parametrize("family,model,side", [
        (Family.A, "exponential", Side.RIGHT),
        (Family.B, "parabolic", Side.RIGHT),
        (Family.BTILDE, "sqrtwell", Side.LEFT),
    ])
    @pytest.mark.parametrize("top", [ORDER_CAP + 1, ORDER_CAP + 2])
    def test_rejects_the_orders_the_tables_reject(self, family, model, side, top):
        rejected = False
        a = family is Family.A
        for n in range(0 if a else 1, top + 1, 1 if a else 2):
            try:
                term_table(family, n, side)
            except BadParameter:
                rejected = True
        if rejected:
            with pytest.raises(BadParameter):
                family_coefficients(catalog(model), CFG, 0.5, 1.0, family, side, top)
        else:
            # b and b~ feed odd orders only: top = cap + 1 asks for none
            # past the cap
            assert family is not Family.A and top % 2 == 0
            assert max(family_coefficients(catalog(model), CFG, 0.5, 1.0,
                                           family, side, top)) == ORDER_CAP

    def test_parabolic_order_8_work(self, monkeypatch):
        # one state table per side: 21 fits each for the b-family through
        # order 11, where one chain per sign sequence built 1,274 levels
        fits = []
        real = brackets.build_chebfun

        def counting(*args, **kwargs):
            fits.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(brackets, "build_chebfun", counting)
        r = assembler.green_series(catalog("parabolic"), 1.2, 1.0, 8, CFG)
        assert r.N == 8
        assert len(fits) <= 42
