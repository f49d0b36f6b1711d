"""Truncated Laurent-series arithmetic in the formal variable (ik).

A :class:`LaurentSeries` stores a contiguous window of complex coefficients
starting at ``min_order`` (possibly negative); index ``j`` of ``coeffs``
holds the coefficient of ``(ik)**(min_order + j)``.  ``trunc`` marks the
highest order whose coefficient is reliable.  ``trunc=None`` means the
series is an exact Laurent polynomial: every coefficient outside the stored
window is exactly zero.  Coefficients below ``min_order`` are exact zeros by
convention in either case.

Arithmetic tracks reliability so that results never claim orders the inputs
cannot support: sums are reliable to the smaller of the input truncations,
products to ``min(a.trunc + val(b), b.trunc + val(a))`` where ``val`` is the
order of the first nonzero coefficient, and the series expansions (invert,
sqrt, exp, log) lose the orders that long division genuinely loses.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NegativeOrderExponent,
    OddLeadingOrder,
    UnreliableOrder,
    ZeroLeadingCoefficient,
)

#: absolute tolerance below which a leading coefficient counts as zero
ZERO_TOL = 1e-13

#: relative orders produced when expanding an exact polynomial
DEFAULT_TERMS = 12


def _min_trunc(ta, tb):
    if ta is None:
        return tb
    if tb is None:
        return ta
    return min(ta, tb)


class LaurentSeries:
    """Finite window of (ik)-coefficients with explicit truncation."""

    __slots__ = ("min_order", "coeffs", "trunc")

    def __init__(self, min_order: int, coeffs, trunc: int | None = None):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        min_order = int(min_order)
        nz = np.nonzero(arr)[0]
        if nz.size:
            arr = arr[nz[0]:]
            min_order += int(nz[0])
        else:
            # all-zero window
            if trunc is None:
                self.min_order, self.coeffs, self.trunc = 0, np.zeros(1, complex), None
                return
            self.min_order = int(trunc)
            self.coeffs = np.zeros(1, complex)
            self.trunc = int(trunc)
            return
        if trunc is not None:
            trunc = int(trunc)
            width = trunc - min_order + 1
            if width < 1:
                # nothing reliable survives; a zero series known through trunc
                self.min_order, self.coeffs, self.trunc = trunc, np.zeros(1, complex), trunc
                return
            if width < arr.size:
                arr = arr[:width]
            elif width > arr.size:
                arr = np.concatenate([arr, np.zeros(width - arr.size, complex)])
        self.min_order = min_order
        self.coeffs = arr
        self.trunc = trunc

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, trunc=None) -> "LaurentSeries":
        return cls(0, [value], trunc=trunc)

    @classmethod
    def monomial(cls, value, order: int, trunc=None) -> "LaurentSeries":
        return cls(order, [value], trunc=trunc)

    @classmethod
    def zero(cls, trunc=None) -> "LaurentSeries":
        return cls(0, [0.0], trunc=trunc)

    # -- inspection -----------------------------------------------------------

    @property
    def max_order(self) -> int:
        return self.min_order + len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return self.trunc is None

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    @property
    def val(self):
        """Order of the first nonzero coefficient, or None for a zero series."""
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return None
        return self.min_order + int(nz[0])

    def _eff_val(self) -> int:
        # lowest order that could carry a nonzero coefficient
        v = self.val
        if v is not None:
            return v
        if self.trunc is None:  # exact zero: never contributes
            raise AssertionError("exact zero has no effective valuation")
        return self.trunc + 1

    def coeff(self, order: int) -> complex:
        """Coefficient of (ik)**order; raises beyond the reliable window."""
        if order < self.min_order:
            return 0.0 + 0.0j
        if order <= self.max_order:
            return complex(self.coeffs[order - self.min_order])
        if self.is_exact:
            return 0.0 + 0.0j
        raise UnreliableOrder(
            f"order {order} beyond truncation {self.trunc}")

    def coeff_or_zero(self, order: int) -> complex:
        if not self.is_exact and order > self.trunc:
            return 0.0 + 0.0j
        return self.coeff(order)

    def real_part_series(self) -> "LaurentSeries":
        return LaurentSeries(self.min_order, self.coeffs.real.astype(complex),
                             trunc=self.trunc)

    def max_imag(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag))) if self.coeffs.size else 0.0

    def evaluate(self, ik: complex) -> complex:
        """Sum of the stored window at a numeric value of (ik)."""
        powers = np.arange(self.min_order, self.max_order + 1)
        return complex(np.sum(self.coeffs * np.asarray(ik, complex) ** powers))

    def shifted(self, delta: int) -> "LaurentSeries":
        """Multiply by (ik)**delta (an exact monomial shift)."""
        t = None if self.trunc is None else self.trunc + delta
        return LaurentSeries(self.min_order + delta, self.coeffs, trunc=t)

    def truncated(self, order: int) -> "LaurentSeries":
        """Restrict reliability to ``order`` (must not extend it)."""
        t = order if self.trunc is None else min(self.trunc, order)
        return LaurentSeries(self.min_order, self.coeffs, trunc=t)

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c != 0:
                terms.append(f"{c:.6g}*(ik)^{self.min_order + j}")
        body = " + ".join(terms) if terms else "0"
        tail = "exact" if self.is_exact else f"trunc={self.trunc}"
        return f"LaurentSeries({body}; {tail})"

    # -- ring operations ------------------------------------------------------

    def __neg__(self):
        return LaurentSeries(self.min_order, -self.coeffs, trunc=self.trunc)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.constant(other)
        t = _min_trunc(self.trunc, other.trunc)
        lo = min(self.min_order, other.min_order)
        hi = max(self.max_order, other.max_order) if t is None else t
        if hi < lo:
            return LaurentSeries(lo, [0.0], trunc=t)
        out = np.zeros(hi - lo + 1, complex)
        for s in (self, other):
            a0 = s.min_order - lo
            a1 = min(s.max_order, hi) - lo
            if a1 >= a0:
                out[a0:a1 + 1] += s.coeffs[:a1 - a0 + 1]
        return LaurentSeries(lo, out, trunc=t)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return LaurentSeries(self.min_order,
                                 self.coeffs * complex(other), trunc=self.trunc)
        if (self.is_zero and self.is_exact) or (other.is_zero and other.is_exact):
            return LaurentSeries.zero()
        caps = []
        if self.trunc is not None:
            caps.append(self.trunc + other._eff_val())
        if other.trunc is not None:
            caps.append(other.trunc + self._eff_val())
        t = min(caps) if caps else None
        conv = np.convolve(self.coeffs, other.coeffs)
        return LaurentSeries(self.min_order + other.min_order, conv, trunc=t)

    __rmul__ = __mul__


# -- module-level operations (the public arithmetic surface) ------------------

def ls_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Coefficientwise sum over the common reliable window."""
    return a + b


def ls_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product, truncated at the order the inputs can support."""
    return a * b


def _leading(a: LaurentSeries):
    v = a.val
    if v is None or abs(a.coeffs[0]) < ZERO_TOL:
        raise ZeroLeadingCoefficient(
            "leading coefficient below tolerance "
            f"({0.0 if v is None else abs(a.coeffs[0]):.3e} < {ZERO_TOL:g})")
    return v, complex(a.coeffs[0])


def _target_rel(a: LaurentSeries, lost: int, result_min: int) -> int:
    """Relative length of a series-expansion result.

    ``lost`` is how many orders of reliability the operation destroys
    (e.g. invert loses 2*val); exact inputs give DEFAULT_TERMS relative
    orders.
    """
    if a.trunc is None:
        return DEFAULT_TERMS - 1
    return a.trunc - lost - result_min


def ls_invert(a: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse: ls_mul(a, result) = 1 up to the reliable order."""
    v, c0 = _leading(a)
    if a.is_exact and len(a.coeffs) == 1:
        return LaurentSeries.monomial(1.0 / c0, -v)
    n_rel = _target_rel(a, 2 * v, -v)
    if n_rel < 0:
        return LaurentSeries(-v, [0.0], trunc=-v + n_rel)
    u = np.zeros(n_rel + 1, complex)
    m = min(len(a.coeffs), n_rel + 1)
    u[:m] = a.coeffs[:m] / c0
    b = np.zeros(n_rel + 1, complex)
    b[0] = 1.0 / c0
    for j in range(1, n_rel + 1):
        b[j] = -np.dot(u[1:j + 1], b[j - 1::-1])
    return LaurentSeries(-v, b, trunc=-v + n_rel)


def ls_sqrt(a: LaurentSeries, branch: int = 1) -> LaurentSeries:
    """Square root; ``branch`` (+1/-1) selects the sign of the leading term."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    v, c0 = _leading(a)
    if v % 2 != 0:
        raise OddLeadingOrder(f"leading order {v} is odd")
    lead = branch * np.sqrt(complex(c0))
    if a.is_exact and len(a.coeffs) == 1:
        return LaurentSeries.monomial(lead, v // 2)
    half = v // 2
    n_rel = _target_rel(a, v - half, half)
    if n_rel < 0:
        return LaurentSeries(half, [0.0], trunc=half + n_rel)
    u = np.zeros(n_rel + 1, complex)
    m = min(len(a.coeffs), n_rel + 1)
    u[:m] = a.coeffs[:m] / c0
    s = np.zeros(n_rel + 1, complex)
    s[0] = 1.0
    for j in range(1, n_rel + 1):
        acc = u[j] - np.dot(s[1:j], s[j - 1:0:-1])
        s[j] = acc / 2.0
    return LaurentSeries(half, lead * s, trunc=half + n_rel)


def ls_exp(a: LaurentSeries) -> LaurentSeries:
    """Exponential of a series with min_order >= 0."""
    if a.is_zero:
        t = a.trunc
        return LaurentSeries.constant(1.0, trunc=t)
    v = a.val
    if v < 0:
        raise NegativeOrderExponent(f"cannot exponentiate order {v} < 0")
    c0 = a.coeff_or_zero(0)
    scale = np.exp(c0)
    if a.is_exact and a.max_order == 0:
        return LaurentSeries.constant(scale)
    n_rel = _target_rel(a, 0, 0)
    if n_rel < 0:
        return LaurentSeries(0, [0.0], trunc=n_rel)
    f = np.zeros(n_rel + 1, complex)
    for j in range(1, n_rel + 1):
        f[j] = a.coeff_or_zero(j)
    b = np.zeros(n_rel + 1, complex)
    b[0] = 1.0
    for m in range(1, n_rel + 1):
        b[m] = np.dot(np.arange(1, m + 1) * f[1:m + 1], b[m - 1::-1]) / m
    return LaurentSeries(0, scale * b, trunc=n_rel)


def ls_log(a: LaurentSeries) -> LaurentSeries:
    """Logarithm after factoring out the leading power of (ik).

    ls_exp(ls_log(a)) reproduces ``a * (ik)**(-val)``; the constant term of
    the result is log of the leading coefficient.
    """
    v, c0 = _leading(a)
    if a.is_exact and len(a.coeffs) == 1:
        return LaurentSeries.constant(np.log(complex(c0)))
    n_rel = _target_rel(a, v, 0)
    if n_rel < 0:
        return LaurentSeries(0, [0.0], trunc=n_rel)
    u = np.zeros(n_rel + 1, complex)
    m = min(len(a.coeffs), n_rel + 1)
    u[:m] = a.coeffs[:m] / c0
    l = np.zeros(n_rel + 1, complex)
    l[0] = np.log(complex(c0))
    for j in range(1, n_rel + 1):
        acc = u[j]
        for i in range(1, j):
            acc -= (i / j) * l[i] * u[j - i]
        l[j] = acc
    return LaurentSeries(0, l, trunc=n_rel)
