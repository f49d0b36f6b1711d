"""Symbolic term tables for the expansion coefficients and their evaluation.

Three coefficient families drive every expansion:

* the a-family, for a side where V approaches a finite limit: depth-n angle
  brackets with rational weights built from the sign-sequence product
  P^(m) = prod_j (m - partial_sum_j) * (-sigma_j) at m = Lambda + 1;
* the b-family, for a side where V diverges to +infinity: plain brackets
  over balanced sign sequences weighted by P^(1)/2 (odd orders only);
* the b~-family, the b-family with every potential sign flipped, for a side
  where V diverges to -infinity.  Its reciprocal series yields the gamma
  coefficients through Laurent inversion.

Tables are generated from the product formula for every order; the printed
low-order tables serve as golden tests, not as the source.  Coefficients
stay exact rationals until evaluation.

The expansion evaluates a family as a whole (``family_coefficients``): the
product weight depends on a sign sequence only through the sum of the
signs still to come, so one partial-sum recursion over (level, state)
(``brackets.build_states``) gives every order of a (side, family) with at
most L(L+1)/2 fits for L levels.  ``CoefficientEvaluator`` evaluates a
table term by term, one cumulative chain per sign sequence; it serves the
term tables and is the reference the recursion is tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .brackets import (BracketKind, BracketSpec, QuadratureConfig, build_chain,
                       build_states)
from .errors import BadParameter, InvalidSpec, ZeroLeadingCoefficient
from .laurent import LaurentSeries, ls_invert
from .potential import EndpointKind, PotentialModel

#: generation cap; the term count at the cap is C(10, 5) = 252
ORDER_CAP = 11


class Side(enum.Enum):
    RIGHT = "right"
    LEFT = "left"


class Family(enum.Enum):
    A = "a"
    B = "b"
    BTILDE = "btilde"


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    limit_exponent: int
    kind: Optional[BracketKind]  # None means the empty bracket (== 1)
    signs: tuple


@dataclass(frozen=True)
class TermTable:
    n: int
    side: Side
    family: Family
    terms: tuple
    point_sign: int  # the e^{point_sign * V(x)} factor

    def to_json_dict(self):
        return {
            "order": self.n,
            "side": self.side.value,
            "family": self.family.value,
            "point_factor": f"exp({'+' if self.point_sign > 0 else '-'}V(x))",
            "terms": [
                {
                    "coeff": str(t.coeff),
                    "limit_exponent": t.limit_exponent,
                    "kind": t.kind.value if t.kind else "one",
                    "signs": "".join("+" if s > 0 else "-" for s in t.signs),
                }
                for t in self.terms
            ],
        }


def p_coeff(signs, m: int) -> int:
    """prod_j (m - sum_{i<=j} sigma_i) * (-sigma_j); empty product is 1."""
    acc = 1
    partial = 0
    for s in signs:
        partial += s
        acc *= (m - partial) * (-s)
        if acc == 0:
            return 0
    return acc


def _check_order(n):
    if n < 0:
        raise BadParameter(f"order {n} < 0")
    if n > ORDER_CAP:
        raise BadParameter(f"order {n} exceeds the generation cap {ORDER_CAP}")


def a_terms(n: int, side: Side) -> TermTable:
    """Coefficient table for the finite-limit family at order n.

    Order 0 is the single constant term -1/2 e^{-V_lim} e^{V(x)}.  For
    n >= 1 the sum runs over all 2^(n-1) sign sequences; sequences with a
    vanishing weight (-1)^Lambda (Lambda+1)/2 P^(Lambda+1) are pruned.
    """
    _check_order(n)
    if n == 0:
        term = Term(Fraction(-1, 2), 1, None, ())
        return TermTable(0, side, Family.A, (term,), +1)
    terms = []
    for seq in product((-1, 1), repeat=n - 1):
        lam = sum(seq)
        p = p_coeff(seq, lam + 1)
        coeff = Fraction((-1 if lam % 2 else 1) * (lam + 1), 2) * p
        if coeff == 0:
            continue
        if side is Side.RIGHT:
            signs = (-1,) + seq
            kind = BracketKind.ANGLE_LEFT
        else:
            signs = tuple(reversed(seq)) + (-1,)
            kind = BracketKind.ANGLE_RIGHT
        terms.append(Term(coeff, lam, kind, signs))
    return TermTable(n, side, Family.A, tuple(terms), +1)


def _balanced_terms(n: int, side: Side, flip: bool) -> tuple:
    terms = []
    for seq in product((-1, 1), repeat=n - 1):
        if sum(seq) != 0:
            continue
        p = p_coeff(seq, 1)
        if p == 0:
            continue
        coeff = Fraction(p, 2)
        if side is Side.RIGHT:
            signs = (-1,) + seq
        else:
            signs = tuple(reversed(seq)) + (-1,)
        if flip:
            signs = tuple(-s for s in signs)
        terms.append(Term(coeff, 0, BracketKind.PLAIN, signs))
    return tuple(terms)


def b_terms(n: int, side: Side) -> TermTable:
    """Divergent-side coefficient table; identically empty for even n."""
    _check_order(n)
    if n % 2 == 0:
        return TermTable(n, side, Family.B, (), +1)
    return TermTable(n, side, Family.B, _balanced_terms(n, side, flip=False), +1)


def btilde_terms(n: int, side: Side) -> TermTable:
    """The b-family with the potential sign flipped (V -> -V)."""
    _check_order(n)
    if n % 2 == 0:
        return TermTable(n, side, Family.BTILDE, (), -1)
    return TermTable(n, side, Family.BTILDE, _balanced_terms(n, side, flip=True), -1)


def term_table(family: Family, n: int, side: Side) -> TermTable:
    if family is Family.A:
        return a_terms(n, side)
    if family is Family.B:
        return b_terms(n, side)
    return btilde_terms(n, side)


def gamma_series(btilde_values: LaurentSeries) -> LaurentSeries:
    """Laurent inverse of 4 * (the odd b~ series).

    The input holds b~_n at a fixed position as the coefficients of (ik)^n
    (zeros at even orders included so their knowledge counts toward the
    truncation).  The output starts at order -1 and has only odd orders.
    """
    if btilde_values.val != 1:
        raise ZeroLeadingCoefficient(
            "the order-1 coefficient must lead the reciprocal series "
            f"(leading order is {btilde_values.val})")
    return ls_invert(4.0 * btilde_values)


def _side_limit(model: PotentialModel, side: Side) -> float:
    """V's finite limit at the end a ``side`` table's brackets start from."""
    ep = model.left if side is Side.RIGHT else model.right
    if ep is None or ep.kind is not EndpointKind.FINITE_LIMIT:
        raise InvalidSpec(
            "finite-limit prefactor requested on a divergent side")
    return ep.limit_value


def family_coefficients(model: PotentialModel, cfg: QuadratureConfig,
                        lo: float, hi: float, family: Family, side: Side,
                        top: int) -> dict:
    """{order: coefficient function} for every order of ``family`` on
    ``side`` through ``top``, from one partial-sum recursion.

    The a-family gives orders 0..top, the b and b~ families the odd orders.
    Each function is vectorized in the position, which ``lo`` and ``hi``
    bound.  The values are those of ``CoefficientEvaluator.coeff_fn`` on
    the family's term tables, up to rounding and quadrature error; orders
    outside the tables' range raise ``BadParameter`` as the tables do.
    """
    a = family is Family.A
    orders = range(0 if a else 1, top + 1, 1 if a else 2)
    for n in orders:
        _check_order(n)
    point_sign = -1 if family is Family.BTILDE else 1
    depth = max(orders, default=0)
    if a:
        limit = _side_limit(model, side)
        kind = (BracketKind.ANGLE_LEFT if side is Side.RIGHT
                else BracketKind.ANGLE_RIGHT)
        # the term weight (-1)^Lambda (Lambda+1)/2 e^{-Lambda V_lim} is the
        # start of state r = Lambda
        starts = {r: (-1) ** r * (r + 1) / 2 * np.exp(-r * limit)
                  for r in range(depth)}
    else:
        # balanced sequences only, each weighted P/2
        kind = BracketKind.PLAIN
        starts = {0: 0.5}
    table = []
    if depth:
        bounds = (-math.inf, hi) if side is Side.RIGHT else (lo, math.inf)
        table = build_states(model, cfg, kind, family is Family.BTILDE,
                             starts, depth, *bounds)

    def coefficient(c, chain):
        def fn(z):
            z = np.asarray(z, dtype=float)
            weight = c if chain is None else c * chain(z)
            return weight * np.exp(point_sign * model.V(z))
        return fn

    return {n: coefficient(-0.5 * np.exp(-limit), None) if n == 0
            else coefficient(*table[n - 1][0])
            for n in orders}


class CoefficientEvaluator:
    """Evaluates term tables against one model, one chain per sign sequence.

    Chains are keyed by bracket kind, sign sequence and side so that the
    series at several positions and the integrals of coefficient functions
    reuse the same quadrature work.  ``lo`` and ``hi`` bound the positions
    that will be requested.  The expansion reads whole families from
    ``family_coefficients``; this evaluator serves single tables
    (``eval_coeff``) and is the reference that recursion is tested against.
    """

    def __init__(self, model: PotentialModel, cfg: QuadratureConfig,
                 lo: float, hi: float):
        self.model = model
        self.cfg = cfg
        self.lo = float(lo)
        self.hi = float(hi)
        self._chains = {}

    def _chain(self, term: Term, side: Side):
        key = (term.kind, term.signs, side)
        if key not in self._chains:
            if side is Side.RIGHT:
                spec = BracketSpec(term.kind, term.signs, -math.inf, self.hi)
                chain = build_chain(spec, self.model, self.cfg, open_anchor=self.hi)
            else:
                spec = BracketSpec(term.kind, term.signs, self.lo, math.inf)
                chain = build_chain(spec, self.model, self.cfg, open_anchor=self.lo)
            self._chains[key] = chain
        return self._chains[key]

    def coeff_fn(self, table: TermTable):
        """The coefficient as a function of position (vectorized)."""
        pieces = []
        for t in table.terms:
            if t.limit_exponent != 0:
                pref = float(t.coeff) * np.exp(
                    -t.limit_exponent * _side_limit(self.model, table.side))
            else:
                pref = float(t.coeff)
            if t.kind is None:
                pieces.append((pref, None))
            else:
                pieces.append((pref, self._chain(t, table.side)))

        def fn(z):
            z = np.asarray(z, dtype=float)
            acc = np.zeros_like(z, dtype=float)
            for pref, chain in pieces:
                acc = acc + (pref if chain is None else pref * chain(z))
            return acc * np.exp(table.point_sign * self.model.V(z))

        return fn

    def value(self, table: TermTable, x: float) -> float:
        return float(self.coeff_fn(table)(np.array([x]))[0])


def eval_coeff(table: TermTable, model: PotentialModel, x: float,
               cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """One-shot evaluation of a coefficient table at position x."""
    ev = CoefficientEvaluator(model, cfg, x, x)
    return ev.value(table, x)
