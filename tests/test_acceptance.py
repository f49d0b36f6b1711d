"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here and match the statements in the project brief;
run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import erfi, expi, shichi

from lowkgreen.assembler import (
    closed_form_g,
    generic_expansion,
    green_series,
    log_form,
    pole_resummed,
)
from lowkgreen.brackets import QuadratureConfig
from lowkgreen.coeffgen import Side, a_terms, b_terms, gamma_series
from lowkgreen.laurent import LaurentSeries, ls_exp, ls_invert, ls_log, ls_mul, ls_sqrt
from lowkgreen.oracle import (
    SolverConfig,
    green_closed_ex6,
    green_exact,
    green_exact_report,
    remainder_scaling_fit,
    zero_energy_modes,
)
from lowkgreen.potential import CaseTag, catalog, max_valid_order

from test_assembler import neg_exponential_model, neg_parabolic_model, tanh_model

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(rel_tol=1e-12, truncation_tail_tol=1e-16)
SCFG = SolverConfig()


def verdict(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_golden_tables():
    a5 = {"".join("+" if s > 0 else "-" for s in t.signs): t.coeff
          for t in a_terms(5, Side.RIGHT).terms}
    want_a5 = {"-++++": Fraction(60), "-++-+": Fraction(-6),
               "-+-++": Fraction(-18), "--+++": Fraction(-36),
               "--+-+": Fraction(2), "---++": Fraction(6)}
    ok = a5 == want_a5
    for n, want in [(1, {"-": Fraction(1, 2)}),
                    (2, {"-+": Fraction(1)}),
                    (3, {"-++": Fraction(3), "--+": Fraction(-1)}),
                    (4, {"-+++": Fraction(12), "-+-+": Fraction(-2),
                         "--++": Fraction(-6)})]:
        got = {"".join("+" if s > 0 else "-" for s in t.signs): t.coeff
               for t in a_terms(n, Side.RIGHT).terms}
        ok = ok and got == want
    want_b = {1: {"-": Fraction(1, 2)},
              3: {"--+": Fraction(-1)},
              5: {"---++": Fraction(6), "--+-+": Fraction(2)},
              7: {"----+++": Fraction(-72), "---+-++": Fraction(-36),
                  "---++-+": Fraction(-12), "--+--++": Fraction(-12),
                  "--+-+-+": Fraction(-4)}}
    for n, want in want_b.items():
        got = {"".join("+" if s > 0 else "-" for s in t.signs): t.coeff
               for t in b_terms(n, Side.RIGHT).terms}
        ok = ok and got == want
    verdict(1, ok, "finite-limit tables to order 5 and divergent-side tables "
                   "to order 7 are reproduced with exact rational weights")


def test_criterion_02_gamma_closed_forms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        b1 = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        b3, b5 = rng.uniform(-2, 2, 2)
        series = LaurentSeries(1, [b1, 0, b3, 0, b5, 0], trunc=6)
        g = gamma_series(series)
        want = {-1: 1 / (4 * b1), 1: -b3 / (4 * b1 ** 2),
                3: (b3 ** 2 - b5 * b1) / (4 * b1 ** 3)}
        for n, w in want.items():
            worst = max(worst, abs(g.coeff(n).real - w) / max(abs(w), 1e-30))
    verdict(2, worst < 1e-12,
            f"reciprocal-series coefficients match the closed forms for 100 "
            f"random triples (worst {worst:.2e} <= 1e-12)")


def test_criterion_03_parabolic_example():
    para = catalog("parabolic")
    worst = 0.0
    r = green_series(para, 1.2, 1.0, 0, TIGHT)
    for x in (0.0, 0.7, 1.2):
        rr = green_series(para, x, x, 0, TIGHT)
        want = np.sqrt(np.pi) / 2 * np.exp(x * x)
        worst = max(worst, abs(rr.s_x.coeff(1).real / want - 1))
    q2 = r.q[2]
    wantq = np.pi / 4 * (erfi(1.0) - erfi(1.2))
    worst_q = abs(q2 / wantq - 1)
    ks = np.geomspace(0.05, 0.4, 8)
    slope = remainder_scaling_fit(para, 1.2, 1.0, 0, ks, SCFG, TIGHT)
    ok = worst < 1e-8 and worst_q < 1e-8 and abs(slope - 2.0) <= 0.15
    verdict(3, ok, f"order-1 coefficient (worst {worst:.1e}) and the erfi "
                   f"integral (err {worst_q:.1e}) match to 1e-8; order-0 "
                   f"truncation error slope {slope:.3f} = 2 +- 0.15")


def test_criterion_04_logcosh_example():
    lc = catalog("logcosh")
    worst = 0.0
    for x in (0.0, 1.0, 2.0):
        r = green_series(lc, x, x, 2, TIGHT)
        s1, s3 = r.s_x.coeff(1).real, r.s_x.coeff(3).real
        worst = max(worst, abs(s1 / np.cosh(x) ** 2 - 1))
        want3 = -0.5 * np.cosh(2 * x) * np.cosh(x) ** 2
        worst = max(worst, abs(s3 / want3 - 1))
    r = green_series(lc, 2.0, 0.0, 0, TIGHT)
    wantq = 0.5 * (0.0 - 2.0) + 0.25 * (np.sinh(0.0) - np.sinh(4.0))
    worst_q = abs(r.q[2] / wantq - 1)
    ok = worst < 1e-10 and worst_q < 1e-10
    verdict(4, ok, f"hyperbolic-model coefficients (worst {worst:.1e}) and "
                   f"integral (err {worst_q:.1e}) match the printed forms to 1e-10")


def test_criterion_05_exponential_example():
    ex = catalog("exponential")
    worst = 0.0
    for z in (-1.0, 0.0, 0.5):
        r = green_series(ex, z, z - 0.5, 1, TIGHT)
        w = np.exp(z)
        want0 = -0.5 * np.exp(w)
        want1 = -0.5 * np.exp(w) * (expi(-w) + 2 * shichi(w)[0])
        worst = max(worst, abs(r.s_x.coeff(0).real / want0 - 1),
                    abs(r.s_x.coeff(1).real / want1 - 1))
    r = green_series(ex, 0.5, 0.0, 2, TIGHT)
    p = log_form(r)
    gm1, g0, g1 = (r.g.coeff(n).real for n in (-1, 0, 1))
    rel1 = abs(p[0] - g0 / gm1)
    rel2 = abs(p[1] - (g1 / gm1 - 0.5 * (g0 / gm1) ** 2))
    ok = worst < 1e-8 and rel1 < 1e-12 and rel2 < 1e-12
    verdict(5, ok, f"exponential-model coefficients match the Ei/Shi forms to "
                   f"1e-8 (worst {worst:.1e}); exponent-form relations hold to "
                   f"1e-12 ({max(rel1, rel2):.1e})")


def test_criterion_06_sqrtwell_example():
    sw = catalog("sqrtwell")
    x, y = 1.0, -0.5
    r = green_series(sw, x, y, 2, TIGHT)
    exf = np.exp(1 - np.sqrt(1 + x) / 2 - np.sqrt(1 - y) / 2)
    g0 = -2 * exf * (1 + np.sqrt(1 + x))
    g2 = (4 / 3) * exf * (118 + 37 * x + 2 * x ** 2 - 3 * y
                          + (94 + 11 * x - 3 * y) * np.sqrt(1 + x)
                          + 2 * (1 - y) * (1 + np.sqrt(1 + x)) * np.sqrt(1 - y))
    rel0 = abs(r.g.coeff(0).real / g0 - 1)
    rel2 = abs(r.g.coeff(2).real / g2 - 1)
    ims = [abs(green_exact(sw, x, y, k, SCFG).value.imag)
           for k in (0.1, 0.05, 0.025)]
    # halving k twice must beat the k^3 rate over the window
    decays = ims[2] / ims[0] < (1 / 4) ** 3 and ims[1] < ims[0] and ims[2] < ims[1]
    ok = rel0 < 1e-6 and rel2 < 1e-6 and decays
    verdict(6, ok, f"slow-tail model coefficients match the printed forms to "
                   f"1e-6 ({max(rel0, rel2):.1e}); imaginary part falls "
                   f"{ims[2] / ims[0]:.2e} < (1/4)^3 over k = 0.1 -> 0.025")


def test_criterion_07_logstep_example():
    alpha = 1.5
    ls = catalog("logstep", alpha=alpha)
    x, y = 1.5, 0.8
    r = green_series(ls, x, y, 0, TIGHT)
    gm1 = x ** (-alpha / 2)
    g0 = x ** (-alpha / 2) * (1 - y + 1 / (alpha - 1))
    rel = max(abs(r.g.coeff(-1).real / gm1 - 1), abs(r.g.coeff(0).real / g0 - 1))
    ks = np.geomspace(1e-3, 1e-1, 9)
    slope = remainder_scaling_fit(ls, x, y, 0, ks, SCFG, TIGHT)
    validity = max_valid_order(ls)
    ok = rel < 1e-8 and abs(slope - 0.5) <= 0.10 and validity == 0
    verdict(7, ok, f"power-tail coefficients match to 1e-8 ({rel:.1e}); "
                   f"remainder slope {slope:.3f} = 0.50 +- 0.10; "
                   f"maximum valid order is {validity}")


def test_criterion_08_barrier_example():
    a, x, y = 1.0, 0.5, -0.5
    bar = catalog("barrier", a=a)
    r = generic_expansion(bar, x, y, 1, TIGHT)
    g0 = -np.cosh(a * (x - 1)) * np.cosh(a * (y + 1)) / (a * np.sinh(2 * a))
    t, c = np.tanh, np.cosh
    g1 = g0 / (2 * a) * (
        t(a * (x + 1)) + t(a * (x - 1)) - t(a * (y + 1)) - t(a * (y - 1))
        + (1 / np.sinh(2 * a)) * (
            c(a * (x - 1)) / c(a * (x + 1)) + c(a * (x + 1)) / c(a * (x - 1))
            + c(a * (y - 1)) / c(a * (y + 1)) + c(a * (y + 1)) / c(a * (y - 1))))
    rel = max(abs(r.g.coeff(0).real / g0 - 1), abs(r.g.coeff(1).real / g1 - 1))
    worst_g = 0.0
    for k in np.linspace(0.15, 0.9, 5):
        for xx in np.linspace(-0.6, 0.8, 5):
            s = green_exact(bar, xx, -0.7, k, SCFG)
            want = green_closed_ex6(xx, -0.7, s.k, a)
            worst_g = max(worst_g, abs(s.value / want - 1))
    pm, _, _ = zero_energy_modes(bar, TIGHT)
    c1 = math.cosh(2 * a) - a * math.sinh(2 * a)
    c2 = a * math.sinh(2 * a)
    worst_psi = max(abs(pm(0.3) / math.cosh(a * 1.3) - 1),
                    abs(pm(1.7) / (c1 + c2 * 1.7) - 1),
                    abs(pm(-1.5) - 1.0))
    ok = rel < 1e-8 and worst_g < 1e-6 and worst_psi < 1e-8
    verdict(8, ok, f"vanishing-potential route matches the printed order-0/1 "
                   f"forms to 1e-8 ({rel:.1e}); exact solver matches the "
                   f"closed form on a 5x5 grid to 1e-6 ({worst_g:.1e}); "
                   f"zero-energy branches match to 1e-8 ({worst_psi:.1e})")


def test_criterion_09_oracle_integrity():
    free = catalog("free")
    s, diag = green_exact_report(free, 1.2, 0.3, 0.7, SCFG)
    k = diag["k_effective"]
    want = np.exp(1j * k * 0.9) / (2j * k)
    rel_free = abs(s.value / want - 1)
    worst_w, worst_d, worst_s = 0.0, 0.0, 0.0
    cases = [("free", {}, 0.9, -0.4), ("parabolic", {}, 0.9, -0.4),
             ("logcosh", {}, 0.9, -0.4), ("exponential", {}, 0.9, -0.4),
             ("sqrtwell", {}, 0.9, -0.4), ("logstep", {"alpha": 1.5}, 1.5, 0.8)]
    for name, params, x, y in cases:
        m = catalog(name, **params)
        s1, d = green_exact_report(m, x, y, 0.45, SCFG)
        s2, _ = green_exact_report(m, y, x, 0.45, SCFG)
        worst_w = max(worst_w, d["wronskian_variation"])
        worst_d = max(worst_d, abs(d["derivative_jump_defect"] - 1))
        worst_s = max(worst_s, abs(s1.value / s2.value - 1))
    ok = (rel_free < 1e-10 and worst_w < 1e-8 and worst_d < 1e-6
          and worst_s < 1e-8)
    verdict(9, ok, f"free solution to 1e-10 ({rel_free:.1e}); Wronskian "
                   f"constancy {worst_w:.1e} < 1e-8; derivative-jump defect "
                   f"{worst_d:.1e} < 1e-6; exchange symmetry {worst_s:.1e} < 1e-8")


def test_criterion_10_closed_form_cross_checks():
    checks = [
        (tanh_model(), CaseTag.I, (-1, 0), (0.9, -0.4), 1),
        (catalog("exponential"), CaseTag.II, (-1, 0), (0.5, -0.3), 1),
        (neg_exponential_model(), CaseTag.III, (0, 1), (0.7, -0.6), 1),
        (catalog("parabolic"), CaseTag.IV, (-2, 0), (1.2, 1.0), 2),
        (catalog("sqrtwell"), CaseTag.V, (0, 2), (1.0, -0.5), 2),
        (neg_parabolic_model(), CaseTag.VI, (0,), (0.8, -0.3), 0),
    ]
    worst = 0.0
    for model, tag, orders, (x, y), n_top in checks:
        r = green_series(model, x, y, n_top, CFG)
        assert r.case_tag is tag
        for which in orders:
            cf = closed_form_g(model, x, y, tag, which, CFG)
            worst = max(worst, abs(r.g.coeff(which).real / cf - 1))
    verdict(10, worst < 1e-6,
            f"series assembler agrees with every printed closed form across "
            f"the six cases (worst {worst:.2e} <= 1e-6)")


def test_criterion_11_pole_resummation():
    para = catalog("parabolic")
    r = green_series(para, 1.2, 1.0, 2, TIGHT)
    gm2, g0, g2 = (r.g.coeff(n).real for n in (-2, 0, 2))
    k2_est = -g0 / g2
    k_est = math.sqrt(k2_est)
    k_exact = math.sqrt(2.0)
    pole_rel = abs(k_est / k_exact - 1)
    G = green_exact(para, 1.2, 1.0, 1.3, SCFG).value
    plain = r.truncated_sum(1.3)
    mod = pole_resummed(gm2, g0, g2, 1.3)
    closer = abs(mod - G) < abs(plain - G)
    # soft criterion: the [0/1]-style resummation from the order-0/2 pair
    # overshoots the eigenvalue itself (k^2 estimate 2.49, i.e. 24% high);
    # the pole position in wavenumber is within the stated 15%
    ok = pole_rel <= 0.15 and closer
    verdict(11, ok, f"pole estimate k = {k_est:.4f} within 15% of sqrt(2) "
                    f"({100 * pole_rel:.1f}%; in k^2 terms {k2_est:.3f} vs 2); "
                    f"resummation beats the plain truncation at k = 1.3 "
                    f"({abs(mod - G):.3f} < {abs(plain - G):.3f})")


def test_criterion_12_laurent_round_trips():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        kind = trial % 3
        min_order = int(rng.integers(-4, 2))
        n = int(rng.integers(2, 9))
        c = rng.uniform(-2, 2, n)
        c[0] = rng.uniform(0.25, 2.0) * (1 if c[0] >= 0 else -1)
        if kind == 0:
            a = LaurentSeries(min_order, c, trunc=min_order + n - 1)
            inv = ls_invert(a)
            scale = max(1.0, float(np.max(np.abs(inv.coeffs)))) * max(
                1.0, float(np.max(np.abs(a.coeffs))))
            prod = ls_mul(a, inv)
            for j in range(prod.min_order, prod.trunc + 1):
                want = 1.0 if j == 0 else 0.0
                worst = max(worst, abs(prod.coeff(j) - want) / scale)
        elif kind == 1:
            if min_order % 2:
                min_order += 1
            a = LaurentSeries(min_order, c, trunc=min_order + n - 1)
            root = ls_sqrt(a, branch=1)
            scale = max(1.0, float(np.max(np.abs(root.coeffs))) ** 2)
            sq = ls_mul(root, root)
            for j in range(sq.min_order, sq.trunc + 1):
                worst = max(worst, abs(sq.coeff(j) - a.coeff_or_zero(j)) / scale)
        else:
            a = LaurentSeries(0, c, trunc=n - 1)
            back = ls_exp(ls_log(a))
            scale = max(1.0, float(np.max(np.abs(a.coeffs))))
            for j in range(back.min_order, back.trunc + 1):
                worst = max(worst, abs(back.coeff(j) - a.coeff_or_zero(j)) / scale)
    verdict(12, worst < 1e-12,
            f"1000 randomized inversion, square-root and exp/log round trips "
            f"hold to 1e-12 (worst {worst:.2e})")
