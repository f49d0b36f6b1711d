"""Assembly of the small-k Green function expansion.

The reflection-coefficient series at the two positions are combined through
the product representation of the Green function: the expansion of
S(x,k) - 1 at x and y feeds a square root, a reciprocal and an exponential
of integrated coefficients, all performed as truncated Laurent arithmetic
in (ik).  Order bookkeeping in the series type reproduces exactly which
orders the per-case inputs can support, so the achieved order never
overstates what the coefficient data is good for.

The case decides the ingredients: finite-limit sides contribute the
a-family, +infinity sides the b-family, -infinity sides the inverted
(gamma) series; the vanishing-potential route builds two auxiliary
potentials from the zero-energy solutions and runs the same machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ._quad import build_chebfun
from .brackets import BracketKind, BracketSpec, QuadratureConfig, eval_bracket
from .coeffgen import Family, Side, family_coefficients, gamma_coefficients
from .errors import (
    BranchAmbiguity,
    ExceptionalCase,
    NegativeZeroMode,
    NoClosedForm,
    OrderExceedsValidity,
    ZeroLeadingCoefficient,
)
from .laurent import LaurentSeries, ls_exp, ls_invert, ls_mul, ls_sqrt, ls_log
from .potential import (
    CaseTag,
    Decay,
    EndpointClass,
    EndpointKind,
    PotentialModel,
    check_positions,
    classification,
    max_valid_order,
    power_law,
)

#: sign of the leading Green-function coefficient in each case
_LEADING_SIGN = {
    CaseTag.I: +1, CaseTag.II: +1, CaseTag.III: -1,
    CaseTag.IV: -1, CaseTag.V: -1, CaseTag.VI: -1,
}

#: leading order of the Green-function series in each case
_G_MIN_ORDER = {
    CaseTag.I: -1, CaseTag.II: -1, CaseTag.III: 0,
    CaseTag.IV: -2, CaseTag.V: 0, CaseTag.VI: 0,
}


@dataclass
class ExpansionResult:
    case_tag: CaseTag
    x: float
    y: float
    N: int
    g: LaurentSeries
    s_x: LaurentSeries
    s_y: LaurentSeries
    q: Dict[int, float]
    diagnostics: dict = field(default_factory=dict)

    def truncated_sum(self, k, max_order=None) -> complex:
        top = self.N if max_order is None else min(max_order, self.N)
        ik = 1j * complex(k)
        acc = 0.0 + 0.0j
        for n in range(self.g.min_order, top + 1):
            acc += self.g.coeff_or_zero(n) * ik ** n
        return acc

    def to_json_dict(self):
        return {
            "case": self.case_tag.value,
            "x": self.x,
            "y": self.y,
            "order": self.N,
            "g": {str(n): self.g.coeff_or_zero(n).real
                  for n in range(self.g.min_order, self.N + 1)},
            "s_x": {str(n): self.s_x.coeff_or_zero(n).real
                    for n in range(self.s_x.min_order, self.s_x.trunc + 1)},
            "s_y": {str(n): self.s_y.coeff_or_zero(n).real
                    for n in range(self.s_y.min_order, self.s_y.trunc + 1)},
            "q": {str(n): v for n, v in sorted(self.q.items())},
            "diagnostics": self.diagnostics,
        }


#: the coefficient family behind each end of the interval, by case:
#: finite-limit sides take the a-family, +infinity sides the b-family and
#: -infinity sides the b~-family, through its gamma series.  Both the
#: series assembly and the ``--show-terms`` listing read this table.
CASE_FAMILIES = {
    CaseTag.I: ((Family.A, Side.RIGHT), (Family.A, Side.LEFT)),
    CaseTag.II: ((Family.A, Side.RIGHT), (Family.B, Side.LEFT)),
    CaseTag.III: ((Family.A, Side.RIGHT), (Family.BTILDE, Side.LEFT)),
    CaseTag.IV: ((Family.B, Side.RIGHT), (Family.B, Side.LEFT)),
    CaseTag.V: ((Family.B, Side.RIGHT), (Family.BTILDE, Side.LEFT)),
    CaseTag.VI: ((Family.BTILDE, Side.RIGHT), (Family.BTILDE, Side.LEFT)),
}

#: lowest s-order each family feeds; only the a-family feeds even orders
_LOWEST_ORDER = {Family.A: 0, Family.B: 1, Family.BTILDE: -1}


def family_orders(family: Family, top: int) -> range:
    """The s-orders up to ``top`` that a coefficient family feeds."""
    return range(_LOWEST_ORDER[family], top + 1, 1 if family is Family.A else 2)


def _s_min(case: CaseTag) -> int:
    return min(_LOWEST_ORDER[f] for f, _ in CASE_FAMILIES[case])


def _odd_only(case: CaseTag) -> bool:
    """Whether every even s-order vanishes (no side takes the a-family)."""
    return all(f is not Family.A for f, _ in CASE_FAMILIES[case])


def _needed_s_order(case: CaseTag, n_target: int) -> int:
    # G through order N takes the s-series N - (leading G order) orders
    # past its own lowest order
    m = _s_min(case) + n_target - _G_MIN_ORDER[case]
    if _odd_only(case) and m >= 1 and m % 2 == 0:
        m += 1
    return m


def _summed(fns):
    """The sum of coefficient functions, added in order onto zeros."""
    def s(z):
        acc = np.zeros_like(z)
        for fn in fns:
            acc = acc + fn(z)
        return acc
    return s


def _integral(fn, a: float, b: float, breakpoints, cfg: QuadratureConfig) -> float:
    """Oriented integral of ``fn`` from ``a`` to ``b``; zero when a == b."""
    if a == b:
        return 0.0
    lo, hi = min(a, b), max(a, b)
    fit = build_chebfun(fn, [lo, hi] + [p for p in breakpoints if lo < p < hi],
                        rel_tol=cfg.rel_tol, abs_floor=cfg.abs_tol,
                        max_depth=cfg.max_depth)
    return fit.integral() if a < b else -fit.integral()


class _SeriesEngine:
    """The series pipeline shared by both expansion routes.

    ``fns`` maps an order of S(x,k) - 1 to its coefficient function s_n(z);
    the orders from the case's lowest through ``top`` that it lacks are
    identically zero.  The case also fixes whether the series is odd-only
    (and so knows the order after ``top``) and the sign of G.
    """

    def __init__(self, fns, case: CaseTag, top: int, breakpoints,
                 cfg: QuadratureConfig):
        self.fns = fns
        self.case = case
        self.lo = _s_min(case)
        self.top = top
        self.odd_only = _odd_only(case)
        self.breakpoints = breakpoints
        self.cfg = cfg

    def series_at(self, z: float) -> LaurentSeries:
        zz = np.array([float(z)])
        coeffs = [self.fns[n](zz)[0] if n in self.fns else 0.0
                  for n in range(self.lo, self.top + 1)]
        trunc = self.top
        if self.odd_only:
            # the next even coefficient is identically zero
            coeffs.append(0.0)
            trunc += 1
        if not coeffs:
            # asked below the case's lowest order: zero, known through top
            return LaurentSeries.zero(trunc=trunc)
        return LaurentSeries(self.lo, coeffs, trunc=trunc)

    def q_dict(self, y: float, x: float,
               exact: Optional[Dict[int, float]] = None) -> Dict[int, float]:
        """q_n = -integral_y^x s_{n-1} for every available order; ``exact``
        holds the orders known in closed form."""
        out = {} if exact is None else dict(exact)
        for n in range(self.lo, self.top + 1):
            if n + 1 not in out:
                out[n + 1] = (_integral(self.fns[n], x, y, self.breakpoints, self.cfg)
                              if n in self.fns else 0.0)
        if self.odd_only:
            out[self.top + 2] = 0.0
        return out

    def expansion(self, x: float, y: float, N: int,
                  exact: Optional[Dict[int, float]] = None):
        """(s_x, s_y, q, real part of G, worst imaginary part, achieved order)."""
        sx = self.series_at(x)
        sy = self.series_at(y)
        q = self.q_dict(y, x, exact)
        g = _assemble_g(sx, sy, _q_series(q), self.case)
        imag_worst = max(g.max_imag(), sx.max_imag(), sy.max_imag())
        g = g.real_part_series()
        return sx, sy, q, g, imag_worst, min(N, g.trunc)


def _case_engine(model: PotentialModel, case: CaseTag, cfg: QuadratureConfig,
                 lo: float, hi: float, s_top: int) -> _SeriesEngine:
    """The classified route's engine for positions in [lo, hi]."""
    parts = {}
    for family, side in CASE_FAMILIES[case]:
        fns = (gamma_coefficients(model, cfg, lo, hi, side, s_top)
               if family is Family.BTILDE else
               family_coefficients(model, cfg, lo, hi, family, side, s_top))
        for n, fn in fns.items():
            parts.setdefault(n, []).append(fn)
    return _SeriesEngine({n: _summed(fns) for n, fns in parts.items()},
                         case, s_top, model.breakpoints, cfg)


def _oriented(model: PotentialModel, x: float, y: float):
    """(case, reflected, model, x, y): the model in its classified
    orientation and the positions, ordered x >= y, mapped onto it."""
    check_positions(x, y)
    if x < y:
        x, y = y, x
    case, reflected = classification(model)
    if reflected:
        return case, reflected, model.reflected(), -y, -x
    return case, reflected, model, x, y


def _q_series(q: Dict[int, float]) -> LaurentSeries:
    lo, trunc = min(q), max(q)
    coeffs = [q.get(n, 0.0) for n in range(lo, trunc + 1)]
    return LaurentSeries(lo, coeffs, trunc=trunc)


def _assemble_g(sx: LaurentSeries, sy: LaurentSeries, qser: LaurentSeries,
                case: CaseTag) -> LaurentSeries:
    one_minus_sx = -sx
    one_minus_sy = -sy
    prod = ls_mul(one_minus_sx, one_minus_sy)
    root = ls_sqrt(prod, branch=1)
    denom = ls_mul(LaurentSeries.monomial(2.0, 1), root)
    g = ls_mul(ls_invert(denom), ls_exp(qser))
    lead = g.coeff(g.val) if g.val is not None else 0.0
    if abs(lead) < 1e-13:
        raise BranchAmbiguity("leading Green coefficient below tolerance")
    if (lead.real > 0) != (_LEADING_SIGN[case] > 0):
        g = -g
    return g


def s_series(model: PotentialModel, x: float, N: int,
             cfg: QuadratureConfig = QuadratureConfig()) -> LaurentSeries:
    """Coefficients of S(x,k) - 1 through order N at one position."""
    case, _, m, x, _ = _oriented(model, x, x)
    if N > max_valid_order(model):
        raise OrderExceedsValidity(
            f"order {N} exceeds validity {max_valid_order(model)}")
    return _case_engine(m, case, cfg, x, x, N).series_at(x)


def q_values(model: PotentialModel, x: float, y: float, N: int,
             cfg: QuadratureConfig = QuadratureConfig()) -> Dict[int, float]:
    """q_n(x, y) for n up to N + 1 (N is the coefficient order used)."""
    case, _, m, x, y = _oriented(model, x, y)
    if N > max_valid_order(model):
        raise OrderExceedsValidity(
            f"order {N} exceeds validity {max_valid_order(model)}")
    return _case_engine(m, case, cfg, y, x, N).q_dict(y, x)


def green_series(model: PotentialModel, x: float, y: float, N: int,
                 cfg: QuadratureConfig = QuadratureConfig()) -> ExpansionResult:
    """Green-function expansion through order N via the series pipeline."""
    xo, yo = float(x), float(y)
    case, reflected, m, x, y = _oriented(model, x, y)
    validity = max_valid_order(model)
    if N > validity:
        raise OrderExceedsValidity(f"order {N} exceeds validity {validity}")
    if N < _G_MIN_ORDER[case]:
        raise OrderExceedsValidity(
            f"order {N} below the leading order {_G_MIN_ORDER[case]}")
    s_top = _needed_s_order(case, N)
    eng = _case_engine(m, case, cfg, y, x, s_top)
    sx, sy, q, g, imag_worst, achieved = eng.expansion(x, y, N)
    parity_worst = 0.0
    if _odd_only(case):
        scale = max(abs(g.coeff_or_zero(n)) for n in range(g.min_order, g.trunc + 1))
        for n in range(g.min_order, g.trunc + 1):
            if (n - g.min_order) % 2 == 1:
                parity_worst = max(parity_worst, abs(g.coeff_or_zero(n)) / scale)
    return ExpansionResult(
        case_tag=case, x=xo, y=yo, N=achieved,
        g=g.truncated(achieved), s_x=sx, s_y=sy,
        q={n: float(v) for n, v in q.items()},
        diagnostics={
            "validity": validity if validity != math.inf else "unbounded",
            "reflected": reflected,
            "max_imag": imag_worst,
            "odd_parity_residual": parity_worst,
            "s_order_used": s_top,
        },
    )


# -- printed closed forms -------------------------------------------------------


def _limits(model):
    v1 = model.left.limit_value if model.left else None
    v2 = model.right.limit_value if model.right else None
    return v1, v2


def closed_form_g(model: PotentialModel, x: float, y: float,
                  case_tag: CaseTag, which: int,
                  cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Direct evaluation of a printed closed-form coefficient.

    Only the (case, order) pairs with a printed form exist; everything else
    raises NoClosedForm.  Serves as the cross-check oracle for the series
    assembler.
    """
    if x < y:
        x, y = y, x
    inf = math.inf
    pref = float(np.exp(-0.5 * (model.V(x) + model.V(y))))
    v1, v2 = _limits(model)

    def plain(signs, lo, hi):
        return eval_bracket(BracketSpec(BracketKind.PLAIN, signs, lo, hi),
                            model, cfg)

    def angle_l(signs, hi):
        return eval_bracket(BracketSpec(BracketKind.ANGLE_LEFT, signs, -inf, hi),
                            model, cfg)

    def angle_r(signs, lo):
        return eval_bracket(BracketSpec(BracketKind.ANGLE_RIGHT, signs, lo, inf),
                            model, cfg)

    key = (case_tag, which)
    if key == (CaseTag.I, -1):
        return pref / (np.exp(-v1) + np.exp(-v2))
    if key == (CaseTag.I, 0):
        s = (angle_l((-1,), x) + angle_r((-1,), x)
             + angle_l((-1,), y) + angle_r((-1,), y))
        return pref / 2 * (s / (np.exp(-v1) + np.exp(-v2)) ** 2
                           + plain((1,), y, x))
    if key == (CaseTag.II, -1):
        return pref * np.exp(v1)
    if key == (CaseTag.II, 0):
        s = (angle_l((-1,), x) + plain((-1,), x, inf)
             + angle_l((-1,), y) + plain((-1,), y, inf))
        return pref / 2 * (np.exp(2 * v1) * s + plain((1,), y, x))
    if key == (CaseTag.III, 0):
        return -pref * plain((1,), x, inf)
    if key == (CaseTag.III, 1):
        return -pref * np.exp(-v1) * plain((1,), x, inf) * plain((1,), y, inf)
    if key == (CaseTag.IV, -2):
        return -pref / plain((-1,), -inf, inf)
    if key == (CaseTag.IV, 0):
        tot = plain((-1,), -inf, inf)
        s = (plain((-1, -1, 1), -inf, x) + plain((1, -1, -1), x, inf)
             + plain((-1, -1, 1), -inf, y) + plain((1, -1, -1), y, inf))
        return pref * (-s / tot ** 2 + plain((1,), y, x) / 2)
    if key == (CaseTag.V, 0):
        return -pref * plain((1,), x, inf)
    if key == (CaseTag.V, 2):
        ipx = plain((1,), x, inf)
        return pref * ((plain((-1,), -inf, x) * ipx
                        + plain((-1,), -inf, y) * plain((1,), y, x)
                        + plain((-1, 1), y, x)) * ipx
                       + 2 * plain((-1, 1, 1), x, inf))
    if key == (CaseTag.VI, 0):
        return (-pref * plain((1,), -inf, y) * plain((1,), x, inf)
                / plain((1,), -inf, inf))
    raise NoClosedForm(f"no printed closed form for case {case_tag.value}, "
                       f"order {which}")


# -- vanishing-potential route -----------------------------------------------------


def _fp_potential(v, z):
    """-2*log(psi) from psi's values v at the points z; NegativeZeroMode
    names the first z where psi is not positive."""
    bad = v <= 0
    if bad.any():
        raise NegativeZeroMode("zero-energy solution is not positive at "
                               f"z={z[np.argmax(bad)]:g}")
    return -2.0 * np.log(v)


def _aux_model(name, psi, breakpoints, side_of_one):
    """Fokker-Planck potential -2*log(psi) built from a zero-energy solution."""

    def V(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return _fp_potential(psi(z), z)

    def f(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return psi.slope(z) / psi(z)

    if side_of_one == "left":
        left = EndpointClass(EndpointKind.FINITE_LIMIT,
                             Decay("exponential"), 0.0)
        right = EndpointClass(EndpointKind.MINUS_INFINITY, power_law(2.0))
    else:
        left = EndpointClass(EndpointKind.MINUS_INFINITY, power_law(2.0))
        right = EndpointClass(EndpointKind.FINITE_LIMIT,
                              Decay("exponential"), 0.0)
    return PotentialModel(id=name, left=left, right=right, eval_V=V, eval_f=f,
                          discontinuities=breakpoints)


def generic_expansion(model: PotentialModel, x: float, y: float, N: int,
                      cfg: QuadratureConfig = QuadratureConfig()) -> ExpansionResult:
    """Expansion for V_S vanishing at both ends, via zero-energy solutions.

    The two solutions normalized at the two infinities, solved on Chebyshev
    panels to ``cfg.rel_tol``, define a pair of auxiliary potentials; the
    right-going family is evaluated on one and the left-going family on the
    other, which keeps every coefficient finite to all orders the
    underlying decay supports.
    """
    from .oracle import zero_energy_modes

    check_positions(x, y)
    xo, yo = float(x), float(y)
    if x < y:
        x, y = y, x
    psi_m, psi_p, wr = zero_energy_modes(model, cfg)
    # psi and psi' of both solutions at x, y and the midpoint
    pts = np.array([x, y, 0.5 * (x + y)])
    vm, vp = psi_m(pts), psi_p(pts)
    dm, dp = psi_m.slope(pts), psi_p.slope(pts)
    # the largest over the three points: where both solutions vanish at one
    # of them, its scale is rounding noise, as |W| is
    scale = float(np.max(np.abs(vm * dp) + np.abs(dm * vp) + np.abs(vm * vp)))
    if abs(wr) < 1e-8 * scale:
        raise ExceptionalCase(
            "zero-energy solutions are proportional; use the finite-limit "
            "route on the -2*log(psi) potential")

    disc = tuple(model.discontinuities)
    m_minus = _aux_model(model.id + "+down", psi_m, disc, "left")
    m_plus = _aux_model(model.id + "+up", psi_p, disc, "right")

    def s_minus_one(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return -0.5 * wr / (psi_m(z) * psi_p(z))

    s_top = max(N - 1, 0)
    right = family_coefficients(m_minus, cfg, y, x, Family.A, Side.RIGHT, s_top)
    left = family_coefficients(m_plus, cfg, y, x, Family.A, Side.LEFT, s_top)
    fns = {-1: s_minus_one}
    for n in range(0, s_top + 1):
        fns[n] = _summed([right[n], left[n]])
    eng = _SeriesEngine(fns, CaseTag.III, s_top, model.breakpoints, cfg)
    # the auxiliary potentials and drifts at x and y
    (Vmx, Vmy), (Vpx, Vpy) = (_fp_potential(v[:2], pts[:2]) for v in (vm, vp))
    (fmx, fmy), (fpx, fpy) = dm[:2] / vm[:2], dp[:2] / vp[:2]
    # q0 has the closed form from integrating the slopes of the log-solutions
    q0 = 0.25 * float(Vmx - Vmy - Vpx + Vpy)
    sx, sy, q, g, imag_worst, achieved = eng.expansion(x, y, N, exact={0: q0})

    # the printed order-0/1 forms in terms of the zero-energy data
    g0_ref = -math.exp(q0) / math.sqrt((fmx - fpx) * (fmy - fpy))
    diag = {
        "route": "generic",
        "wronskian": wr,
        "max_imag": imag_worst,
        "g0_closed_residual": abs(g.coeff_or_zero(0).real / g0_ref - 1.0),
    }
    if achieved >= 1:
        integ = _integral(lambda z: np.exp(m_minus.V(z)) + np.exp(m_plus.V(z)),
                          y, x, model.breakpoints, cfg)
        g1_ref = 0.5 * (integ
                        + (math.exp(Vmx) + math.exp(Vpx)) / (fmx - fpx)
                        + (math.exp(Vmy) + math.exp(Vpy)) / (fmy - fpy)) \
            * g0_ref
        diag["g1_closed_residual"] = abs(g.coeff_or_zero(1).real / g1_ref - 1.0)
    return ExpansionResult(
        case_tag=CaseTag.III, x=xo, y=yo, N=achieved,
        g=g.truncated(achieved), s_x=sx, s_y=sy,
        q={n: float(v) for n, v in q.items()}, diagnostics=diag)


# -- derived outputs ------------------------------------------------------------


def log_form(result: ExpansionResult):
    """Coefficients p_1.. of the exponent representation of the expansion."""
    g = result.g
    if g.val is None or abs(g.coeff(g.val)) < 1e-13:
        raise ZeroLeadingCoefficient("leading Green coefficient vanishes")
    p = ls_log(g)
    return [p.coeff_or_zero(m).real for m in range(1, p.trunc + 1)]


def pole_resummed(g_m2: float, g_0: float, g_2: float, k) -> complex:
    """Rational resummation reproducing the nearest pole pair from the
    order-0 and order-2 coefficients."""
    if g_0 == 0:
        raise ZeroLeadingCoefficient("order-0 coefficient must be nonzero")
    ik = 1j * complex(k)
    denom = 1.0 - ik * ik * (g_2 / g_0)
    if denom == 0:
        raise ZeroDivisionError("evaluation at the induced pole")
    return g_m2 / (ik * ik) + g_0 / denom
