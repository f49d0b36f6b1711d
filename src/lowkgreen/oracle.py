"""Independent reference values for the Green function.

The exact Green function is computed by solving the second-order equation
psi'' = (V_S - k^2) psi for complex wavenumber from both spatial ends: the
solution decaying (or outgoing) at +infinity meets the one decaying at
-infinity and their Wronskian normalizes the product.  Boundary data at the
cutoff come from the phase-integral series of the decaying or outgoing
ray's log-derivative, u_0 + u_1 + u_2 + u_3.  A decaying or finite-limit
end is cut at the first rung of a geometric ladder where the first term the
data leave out, |u_4/u_0|, is below ``boundary_tol``; where the computed
terms do not decrease, the data stop at u_2 and |u_2/u_0| is the test.
Confining and zero-edge ends take the second-order data, u_0 + u_1 + u_2.
This keeps cutoffs modest even for slowly decaying tails.

Every solution, the oracle's and the zero-energy modes of the
vanishing-potential route alike, comes from one march (``_march``): the
equation is solved as a Volterra equation on 17-node Chebyshev panels by
spectral integration (Greengard, SIAM J. Numer. Anal. 28, 1991), each panel
one linear solve per wavenumber, and a panel is halved while the trailing
Chebyshev coefficients of psi or psi' exceed the tolerance (the oracle's
``ode_rel_tol``) times that function's largest.  One matrix product, the
node values of psi and psi' stacked for every active wavenumber times the
DCT-I matrix ``CHEB_TRANSFORM``, gives all those coefficients.  V_S is
evaluated once per panel attempt, at its nodes, for every wavenumber the
panel carries, and it is taken from inside the panel, never from across the
breakpoint a segment ends on.  Every request takes one path: a grid of k
runs one sweep per side, inward from the outermost cutoff, which each k
enters at its own cutoff; a single sample is the grid of one k.

A real k is solved as it is, on the real axis; one whose square is a
finite limit of V_S (a threshold) is refused.

Also here: closed-form exact Green functions for the square-barrier and
log-step catalog models, a direct ascending-series Bessel evaluation, the
zero-energy solutions used by the vanishing-potential route (the march at
k = 0, to the quadrature tolerance), and the log-log fitter that measures
how the truncation error scales with k.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from ._quad import (_NODES, CHEB_TRANSFORM, CUMULATIVE, PiecewiseChebFun,
                    cheb_coeffs)
from .brackets import QuadratureConfig
from .errors import (
    BesselNonconvergence,
    DegenerateFit,
    InvalidSpec,
    LowkGreenError,
    NonconvergedODE,
    ToleranceNotMet,
    UnsupportedAsymptotics,
    WronskianDegenerate,
)
from .potential import PotentialModel, check_positions


@dataclass(frozen=True)
class GreenSample:
    x: float
    y: float
    k: complex
    value: complex


#: points from y to x at which the two sides' Wronskian is compared
CHECK_POINTS = 5


@dataclass(frozen=True)
class SolverConfig:
    cutoff_left: Optional[float] = None
    cutoff_right: Optional[float] = None
    # the march's panel tail tolerance; a positive ode_rel_tol below
    # RTOL_FLOOR (100 machine epsilons) is taken as RTOL_FLOOR
    ode_rel_tol: float = 1e-10
    boundary_tol: float = 1e-9
    #: not a field: a real k is solved on the real axis.  bench/gate.py
    #: reads it; the benchmark's next revision (ROADMAP item 7) drops the
    #: read and this constant
    epsilon_imag: ClassVar[float] = 0.0

    def __post_init__(self):
        # NaN fails every comparison, so it must not pass as in range: a
        # NaN tolerance halves every panel to the depth cap
        for name in ("ode_rel_tol", "boundary_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidSpec(
                    f"{name} must be finite and positive (got {value})")


#: the smallest panel tail tolerance, 100 machine epsilons: a smaller one
#: is taken as this
RTOL_FLOOR = 100 * sys.float_info.epsilon
#: halvings of a sweep segment after which a panel that still fails the
#: tail test is refused
MAX_DEPTH = 40


# -- boundary data -------------------------------------------------------------


def _vs_derivs(model, z, h):
    """V_S and its first four derivatives at z from one five-point stencil
    of spacing h."""
    vm2, vm1, v0, vp1, vp2 = model.VS(z + np.arange(-2, 3) * h).tolist()
    d1 = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * h)
    d2 = (-vm2 + 16 * vm1 - 30 * v0 + 16 * vp1 - vp2) / (12 * h * h)
    d3 = (-vm2 + 2 * vm1 - 2 * vp1 + vp2) / (2 * h * h * h)
    d4 = (vm2 - 4 * vm1 + 6 * v0 - 4 * vp1 + vp2) / (h * h * h * h)
    return v0, d1, d2, d3, d4


def _sqrt_upper(q: complex) -> complex:
    s = cmath.sqrt(q)
    if s.imag < 0:
        s = -s
    return s


#: the stencil step, relative to max(1, |z|), of V_S''' and V_S'''': the
#: step at which the fourth difference's rounding, eps |V_S| / h^4, meets
#: its truncation, h^2 |V_S^(6)|.  At 1e-4 rounding swamps V_S'''' on
#: power tails (it read 0.0 for 7.0e-10 on sqrtwell at z = 59)
WIDE_STEP = sys.float_info.epsilon ** (1 / 6)


def _phase_series(model, z: float, k2: complex, side: str):
    """The phase-integral log-derivative u_0 + u_1 + ... of the
    outgoing/decaying ray at z, in q = k^2 - V_S, as (second-order data,
    boundary data, boundary error).

    Where the computed terms decrease, |u_4| <= |u_3| <= |u_2|, the
    boundary data carry the series through u_3 and their error is the
    first term left out, |u_4/u_0|.  Elsewhere the series is not asymptotic
    (an exponential end at small k), or rounding swamps the stencil's
    higher derivatives (V_S near a nonzero limit), and the boundary data
    are the second-order data, with error |u_2/u_0|."""
    scale = max(1.0, abs(z))
    v0, d1, d2, _, _ = _vs_derivs(model, z, 1e-4 * scale)
    _, _, _, d3, d4 = _vs_derivs(model, z, WIDE_STEP * scale)
    q = k2 - v0
    qp, qpp, q3, q4 = -d1, -d2, -d3, -d4
    s = _sqrt_upper(q)
    # u_2 and u_4 are +-i times these, with the sign of u_0 = +-i*s
    corr = -qpp / (8.0 * q * s) + 5.0 * qp * qp / (32.0 * q * q * s)
    # u_3 and u_4 in the ratios q^(n)/q, so that they overflow no sooner
    # than u_2 does
    a, b, c, d = qp / q, qpp / q, q3 / q, q4 / q
    u3 = (4.0 * c - 18.0 * a * b + 15.0 * a * a * a) / (64.0 * q)
    corr4 = (64.0 * d - 448.0 * a * c - 304.0 * b * b + 1768.0 * a * a * b
             - 1105.0 * a * a * a * a) / (2048.0 * q * s)
    if side == "right":
        ld = 1j * s - qp / (4.0 * q) + 1j * corr
    else:
        ld = -1j * s - qp / (4.0 * q) - 1j * corr
    lead = max(abs(s), 1e-300)
    if abs(corr4) <= abs(u3) <= abs(corr):
        return ld, ld + u3, abs(corr4) / lead
    return ld, ld, abs(corr) / lead


#: steps of the confining march whose V_S values are taken in one call (the
#: last block may evaluate up to MARCH_BLOCK - 1 points past the cutoff)
MARCH_BLOCK = 8


def _confining_cutoff(model, start: float, k2: complex, side: str) -> float:
    """March outward in steps of 0.25, at most 100000 of them, until the
    under-barrier suppression reaches e^-40."""
    sgn = 1.0 if side == "right" else -1.0
    z = start
    phase = 0.0
    prev = 0.0
    for _ in range(100000 // MARCH_BLOCK):
        zs = []
        for _ in range(MARCH_BLOCK):
            z += sgn * 0.25
            zs.append(z)
        for zi, vs in zip(zs, model.VS(np.array(zs)).tolist()):
            val = math.sqrt(max(vs - abs(k2), 0.0))
            phase += 0.25 * 0.5 * (val + prev)
            prev = val
            if phase > 40.0 and vs > abs(k2) + 1.0:
                return zi
    raise NonconvergedODE("failed to find a confining cutoff")


def _auto_cutoff(model, inner: float, k2: complex, side: str,
                 cfg: SolverConfig):
    """(cutoff, boundary data, boundary error): where the outer boundary
    data are imposed, the log-derivative imposed there, and the
    phase-integral term it leaves out (None on confining and zero-edge
    ends, which impose the second-order data).

    A decaying or finite-limit end takes the first rung of a geometric
    ladder where ``_phase_series``' boundary error is below
    ``boundary_tol``."""
    sgn = 1.0 if side == "right" else -1.0
    vs_lim = model.vs_limit_right if side == "right" else model.vs_limit_left
    if math.isinf(vs_lim):
        if vs_lim < 0:
            raise UnsupportedAsymptotics("V_S -> -infinity is outside scope")
        cut = _confining_cutoff(model, inner, k2, side)
        return cut, _phase_series(model, cut, k2, side)[0], None
    zero_edge = model.vs_zero_above if side == "right" else model.vs_zero_below
    if zero_edge is not None:
        if math.isinf(zero_edge):
            cut = inner
        # start safely inside the exactly-zero region, clear of the edge
        elif side == "right":
            cut = max(inner, zero_edge) + 0.5
        else:
            cut = min(inner, zero_edge) - 0.5
        return cut, _phase_series(model, cut, k2, side)[0], None
    x = inner + sgn * 1.0
    for _ in range(200):
        q = k2 - vs_lim - (float(model.VS(np.array([x]))[0]) - vs_lim)
        if abs(q) > 0.2 * max(abs(k2 - vs_lim), 1e-12):
            _, ld, error = _phase_series(model, x, k2, side)
            if error < cfg.boundary_tol:
                return x, ld, error
        x = inner + sgn * (abs(x - inner) * 1.5)
    raise NonconvergedODE(f"no usable {side} cutoff found")


# -- the Chebyshev-panel march ------------------------------------------------

#: the double integral from t = -1 at the Lobatto nodes
_CUMULATIVE2 = CUMULATIVE @ CUMULATIVE
#: what every panel attempt uses: the nodes shifted to t + 1 = 0 at the
#: panel's start, the identity, and CUMULATIVE's transpose laid out in rows
_T1 = _NODES + 1.0
_EYE = np.eye(_NODES.size)
_CUMULATIVE_T = np.ascontiguousarray(CUMULATIVE.T)


def _march_panel(model, k2s, a, b, psi_a, dpsi_a):
    """psi and psi' at the Lobatto nodes of the panel from a to b (t = -1
    at a), one row per k^2 of ``k2s``, from their values at a.

    psi'' = (V_S - k^2) psi is the Volterra equation
    psi(z) = psi_a + psi'_a (z - a) + integral_a^z (z - s) (V_S - k^2) psi ds,
    and on the nodes the double integral is h^2 Q^2 with h = (b - a)/2, so
    psi is one linear solve per k (Greengard, SIAM J. Numer. Anal. 28,
    1991), all of them one batched solve.  V_S is taken one ulp inside the
    panel: a segment ends on a breakpoint of V_S, and its last node would
    otherwise take V_S from across the discontinuity."""
    h = 0.5 * (b - a)
    lo, hi = sorted((math.nextafter(a, b), math.nextafter(b, a)))
    q = model.VS(np.clip(a + h * _T1, lo, hi)) - k2s[:, None]
    # the right-hand sides as a (k, 17, 1) stack, which numpy 1.24 and 2.x
    # both read as k vectors
    rhs = psi_a[:, None] + dpsi_a[:, None] * h * _T1
    lhs = _EYE - (h * h) * _CUMULATIVE2 * q[:, None, :]
    psi = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    return psi, dpsi_a[:, None] + h * ((q * psi) @ _CUMULATIVE_T)


def _march(model, k2s, a, b, psi, dpsi, rel_tol, max_depth):
    """The solutions of psi'' = (V_S - k^2) psi from (psi, psi') at a to b,
    one per k^2 of ``k2s``: yields (end, psi, psi', V_S points) for each
    accepted panel in march order, with node values as ``_march_panel``
    gives them and the points of the panel's rejected attempts counted.

    The first panel reaches b; a panel is halved while, for any k, the
    larger modulus of the two trailing Chebyshev coefficients of psi or of
    psi' exceeds ``rel_tol`` times the largest modulus of that function's
    coefficients (a NaN fails), and one that fails at ``max_depth`` raises
    ToleranceNotMet.  Unlike ``build_chebfun`` the threshold has no
    absolute floor and no probe points check the panel.  psi' is tested too
    because the Wronskian and the drift psi'/psi are read from it."""
    here, points = a, 0
    # the ends still to reach from here, with their depths, nearest last
    pending = [(b, 0)]
    while pending:
        end, depth = pending[-1]
        p, d = _march_panel(model, k2s, here, end, psi, dpsi)
        points += p.shape[-1]
        # the series of psi and psi' of every k, one row each; the modulus
        # of a complex coefficient is the hypot of its two parts
        coef = np.abs(np.concatenate((p, d)) @ CHEB_TRANSFORM)
        if not np.all(np.max(coef[:, -2:], axis=1)
                      <= rel_tol * np.max(coef, axis=1)):
            if depth == max_depth:
                raise ToleranceNotMet(
                    f"psi'' = (V_S - k^2) psi unresolved at depth {depth} "
                    f"on [{min(here, end):g}, {max(here, end):g}]")
            pending[-1] = (end, depth + 1)
            pending.append((0.5 * (here + end), depth + 1))
            continue
        pending.pop()
        yield end, p, d, points
        here, psi, dpsi, points = end, p[:, 0], d[:, 0], 0


class _Segment(NamedTuple):
    """What ``solve_ivp`` returns: psi and psi' at the segment's end, shaped
    (2, k), and the V_S points its march took."""

    y: np.ndarray
    nfev: int


def solve_ivp(model, span, k2s, psi, dpsi, cfg):
    """The march of one sweep segment, from span[0] to span[1], of every
    k^2 of ``k2s`` from (psi, psi') at span[0], to the panel tail tolerance
    ``cfg.ode_rel_tol``; raises NonconvergedODE where a panel is still
    unresolved ``MAX_DEPTH`` halvings below the segment."""
    nfev = 0
    try:
        for _, p, d, points in _march(model, k2s, *span, psi, dpsi,
                                      max(cfg.ode_rel_tol, RTOL_FLOOR),
                                      MAX_DEPTH):
            nfev += points
    except ToleranceNotMet as exc:
        raise NonconvergedODE(str(exc)) from None
    return _Segment(np.array([p[:, 0], d[:, 0]]), nfev)


# -- two-sided solutions ------------------------------------------------------


class _Solution:
    """One-directional solution at its record points, with per-record log
    scale factors, and the V_S points of every march it took part in."""

    def __init__(self):
        self.records = {}  # z -> (psi, dpsi, logscale)
        self.nfev = 0

    def add(self, z, psi, dpsi, logscale):
        self.records[float(z)] = (psi, dpsi, logscale)

    def get(self, z):
        return self.records[float(z)]


class _Span:
    """What the samples at one (x, y) share whatever k is: the ordered
    ends, the Wronskian check points, V_S's breakpoints and delta weights,
    and the stops of an integration."""

    def __init__(self, model, x, y):
        check_positions(x, y)
        self.xi, self.yi = xi, yi = (x, y) if x >= y else (y, x)
        self.jump_map = {d.x0: d.delta_weight for d in model.discontinuities
                         if d.delta_weight != 0.0}
        self.breaks = breaks = sorted(set(model.breakpoints))
        checks = [float(c) for c in np.linspace(yi, xi, CHECK_POINTS)] \
            if xi > yi else [yi]
        # consistent one-sided derivatives at the record points
        self.checks = [c + 1e-9 if c in breaks else c for c in checks]
        self.mid = self.checks[len(self.checks) // 2]

    def stops(self, a, b):
        """The record points and breakpoints from a to b, in that order."""
        pts = {b, self.mid, self.xi, self.yi}
        pts.update(c for c in self.checks)
        pts.update(br for br in self.breaks if min(a, b) < br < max(a, b))
        keep = [p for p in pts if min(a, b) <= p <= max(a, b)]
        return sorted(keep, reverse=bool(a > b))

    def cutoffs(self, model, k2, cfg):
        """(left end, right end), each as ``_auto_cutoff`` gives it."""
        right = self._end(model, k2, cfg.cutoff_right, self.xi, "right", cfg)
        left = self._end(model, k2, cfg.cutoff_left, self.yi, "left", cfg)
        return left, right

    @staticmethod
    def _end(model, k2, cutoff, edge, side, cfg):
        """The end beyond ``edge`` on ``side``: ``_auto_cutoff``'s, or the
        config's ``cutoff`` (moved out to ``edge`` where it falls inside),
        with ``_phase_series``' boundary data and error."""
        if cutoff is None:
            inner = edge + 0.5 if side == "right" else edge - 0.5
            return _auto_cutoff(model, inner, k2, side, cfg)
        cut = max(cutoff, edge) if side == "right" else min(cutoff, edge)
        return (cut,) + _phase_series(model, cut, k2, side)[1:]


def _integrate_grid_side(model, k2s, sides, span, end, cfg, side):
    """One _Solution per wavenumber, from its end of ``sides`` (cutoff,
    boundary data, boundary error) to ``end``, by one sweep inward from the
    outermost cutoff.  The sweep's stops are the span's stops from there to
    ``end`` plus every cutoff.

    A wavenumber enters the sweep at its own cutoff as the pair
    (psi, psi') = (1, ld), ld its boundary data there.  Between two stops
    every active wavenumber is carried by the same panels, one
    ``solve_ivp`` segment.  psi' jumps by a delta's weight times psi where
    one of V_S is crossed, and a pair beyond 1e+-50 is renormalized into
    its own log scale.
    """
    down = side == "right"
    k2s = np.asarray(k2s)
    n = len(sides)
    sols = [_Solution() for _ in sides]
    cuts = [cut for cut, _, _ in sides]
    stops = set(span.stops(max(cuts) if down else min(cuts), end))
    stops.update(cuts)
    psi, dpsi = np.ones(n, complex), np.zeros(n, complex)
    logscale = np.zeros(n)
    active = []
    here = None
    for target in sorted(stops, reverse=down):
        if active:
            res = solve_ivp(model, (here, target), k2s[active], psi[active],
                            dpsi[active], cfg)
            p, d = res.y
            if target in span.jump_map:
                w = span.jump_map[target]
                d = d - w * p if down else d + w * p
            m = np.maximum(np.abs(p), np.abs(d))
            m = np.where((m > 1e50) | ((0 < m) & (m < 1e-50)), m, 1.0)
            psi[active], dpsi[active] = p / m, d / m
            logscale[active] += np.log(m)
            for i in active:
                sols[i].nfev += res.nfev
        here = target
        for i, (cut, ld, _) in enumerate(sides):
            if cut == here:
                active.append(i)
                psi[i], dpsi[i] = 1.0, ld
        for i in active:
            sols[i].add(here, psi[i], dpsi[i], logscale[i])
    return sols


def _wronskian(left_rec, right_rec):
    (lp, lq, ls), (rp, rq, rs) = left_rec, right_rec
    return (lp * rq - lq * rp), ls + rs


def _physical_k(model, k):
    """k as a complex number on the physical sheet; a real k stays on the
    real axis.  A real k whose square is a finite limit of V_S is refused:
    there the outer solution has no wavenumber left, and its boundary data
    and the sample are meaningless."""
    if k == 0:
        raise WronskianDegenerate("k = 0 is the expansion point, not a sample")
    k = complex(k)
    if not cmath.isfinite(k):
        raise InvalidSpec(f"wavenumbers must be finite (k={k})")
    if k.imag < 0:
        raise UnsupportedAsymptotics("Im k < 0 is outside the physical sheet")
    if k.imag == 0:
        for end, limit in (("-infinity", model.vs_limit_left),
                           ("+infinity", model.vs_limit_right)):
            if k.real * k.real == limit:
                raise UnsupportedAsymptotics(
                    f"real k = {k.real:g} is at the threshold "
                    f"k^2 = V_S({end}) = {limit:g}")
    return k


def _green_from(span, x, y, k, left, right, left_end, right_end):
    """(sample, diagnostics) from the two sides' solutions at the span's
    record points and the ends they started from; raises
    WronskianDegenerate where they are nearly proportional."""
    mid, xi, yi = span.mid, span.xi, span.yi
    w_mid, w_mid_log = _wronskian(left.get(mid), right.get(mid))
    lp, _, ls = left.get(yi)
    rp, _, rs = right.get(xi)
    lm, lq, lsm = left.get(mid)
    rm, rq, rsm = right.get(mid)
    degeneracy = abs(lm * rq) + abs(lq * rm)
    if abs(w_mid) < 1e-10 * max(degeneracy, 1e-300):
        raise WronskianDegenerate(
            "the two solutions are nearly proportional (k at or near an "
            "eigenvalue or half-bound state)")

    g = (lp * rp / w_mid) * cmath.exp(ls + rs - w_mid_log)

    w_vals = []
    for c in span.checks:
        wv, wl = _wronskian(left.get(c), right.get(c))
        w_vals.append((wv, wl))
    w_ref = w_vals[len(w_vals) // 2]
    var = 0.0
    for wv, wl in w_vals:
        ratio = (wv / w_ref[0]) * cmath.exp(wl - w_ref[1])
        var = max(var, abs(ratio - 1.0))

    wy, wyl = _wronskian(left.get(yi), right.get(yi))
    defect = abs((wy / w_mid) * cmath.exp(wyl - w_mid_log))

    diag = {
        "k_effective": k,
        "cutoff_left": left_end[0],
        "cutoff_right": right_end[0],
        "boundary_error_left": left_end[2],
        "boundary_error_right": right_end[2],
        "wronskian_variation": var,
        "wronskian_condition": abs(w_mid) / degeneracy,
        "derivative_jump_defect": defect,
        "rhs_evals": left.nfev + right.nfev,
    }
    return GreenSample(x=float(x), y=float(y), k=k, value=g), diag


def _solve_green(model, x, y, k, cfg: SolverConfig):
    """(sample, diagnostics) at one k: the grid of that k alone."""
    reports, error = _solve_grid(model, x, y, [k], cfg)
    if error is not None:
        raise error
    return reports[0]


def _each_k(model, x, y, ks, cfg):
    """(reports, error): ``_solve_green`` over ks up to the first that
    raises, and what it raised (None if none did)."""
    reports = []
    for k in ks:
        try:
            reports.append(_solve_green(model, x, y, k, cfg))
        except LowkGreenError as exc:
            return reports, exc
    return reports, None


def _grid_reports(model, x, y, ks, cfg):
    """(reports, error) as ``_each_k`` gives them; one k is its single
    sample."""
    if len(ks) == 1:
        return _each_k(model, x, y, ks, cfg)
    return _solve_grid(model, x, y, ks, cfg)


def _solve_grid(model, x, y, ks, cfg):
    """(reports, error) as ``_each_k`` gives them, with the wavenumbers
    ``ks`` marched by one sweep per side."""
    span = _Span(model, x, y)
    setups, error = [], None
    for k in ks:
        try:
            k = _physical_k(model, k)
            setups.append((k,) + span.cutoffs(model, k * k, cfg))
        except LowkGreenError as exc:
            error = exc
            break
    if not setups:
        return [], error
    k_used, left_ends, right_ends = zip(*setups)
    k2s = [k * k for k in k_used]
    try:
        rights = _integrate_grid_side(model, k2s, right_ends, span,
                                      span.yi, cfg, "right")
        lefts = _integrate_grid_side(model, k2s, left_ends, span,
                                     span.xi, cfg, "left")
    except NonconvergedODE as exc:
        if len(ks) == 1:
            return [], exc
        # which wavenumber the march failed on is the per-k loop's to say
        reports, failed = _each_k(model, x, y, ks[:len(setups)], cfg)
        return reports, failed or error
    reports = []
    for k, left_end, right_end, left, right in zip(
            k_used, left_ends, right_ends, lefts, rights):
        try:
            reports.append(_green_from(span, x, y, k, left, right,
                                       left_end, right_end))
        except WronskianDegenerate as exc:
            return reports, exc
    return reports, error


def green_exact(model: PotentialModel, x: float, y: float, k,
                cfg: SolverConfig = SolverConfig()) -> GreenSample:
    """Exact Green function sample by a two-sided march.

    A real k is solved on the real axis; G(k + i*epsilon) is the sample at
    the complex k.  At or next to a pole of G, such as a bound state, the
    two sides' solutions are nearly proportional and WronskianDegenerate
    is raised.
    """
    return green_exact_report(model, x, y, k, cfg)[0]


def green_exact_report(model, x, y, k, cfg: SolverConfig = SolverConfig()):
    """(sample, diagnostics) variant of green_exact."""
    return green_exact_grid(model, x, y, [k], cfg)[0]


def green_exact_grid(model, x, y, ks, cfg: SolverConfig = SolverConfig()):
    """[(sample, diagnostics)] over the wavenumbers ``ks``, raising what
    the per-k loop of green_exact would raise first.

    The wavenumbers are marched by one sweep per side, inward from the
    outermost cutoff: each k enters at its own cutoff, and every k active
    between two stops is carried by the same panels, each accepted when
    every k passes its tail test.  One k takes the same path, so its
    sample is the single sample.  Each k's diagnostics report the cutoffs
    of its single sample, and ``rhs_evals`` counts the V_S points of every
    segment that k took part in.
    """
    reports, error = _grid_reports(model, x, y, ks, cfg)
    if error is not None:
        raise error
    return reports


# -- closed forms ----------------------------------------------------------------


def bessel_j(nu: float, z) -> complex:
    """Ascending-series Bessel function of real order.

    Valid at desk scale (|z| <= 30); ``nu`` may be any real number that is
    not a negative integer.
    """
    z = complex(z)
    if abs(z) > 30.0:
        raise BesselNonconvergence("ascending series restricted to |z| <= 30")
    if z == 0:
        return 1.0 + 0.0j if nu == 0 else 0.0 + 0.0j
    half = z / 2.0
    try:
        term = half ** nu / math.gamma(nu + 1.0)
    except ValueError as exc:
        raise BesselNonconvergence(f"order {nu}: {exc}") from None
    acc = term
    m = 0
    while True:
        m += 1
        term = term * (-(half * half)) / (m * (nu + m))
        acc += term
        if abs(term) <= 1e-16 * max(abs(acc), 1e-300):
            return acc
        if m > 400:
            raise BesselNonconvergence("series did not converge in 400 terms")


def green_closed_ex6(x: float, y: float, k, a: float) -> complex:
    """Exact Green function of the square barrier of height a^2 on |z| < 1,
    for -1 < y <= x < 1.

    With p = sqrt(a^2 - k^2) and S(t) = sinh(pt)/p, which is t at p = 0,
    G = -[cosh pA - ik S(A)][cosh pB - ik S(B)]
        / [(p^2 - k^2) S(2) - 2ik cosh 2p], A = 1 - x, B = 1 + y,
    finite at k = a."""
    k = complex(k)
    p = cmath.sqrt(a * a - k * k)

    def sinh_over_p(t):
        return cmath.sinh(p * t) / p if p else t

    def edge(t):
        return cmath.cosh(p * t) - 1j * k * sinh_over_p(t)

    den = (p * p - k * k) * sinh_over_p(2) - 2j * k * cmath.cosh(2 * p)
    return -edge(1 - x) * edge(1 + y) / den


def green_closed_ex5(x: float, y: float, k, alpha: float) -> complex:
    """Exact Green function of the log-step model for y < 1 < x, k > 0."""
    k = complex(k)
    nu = (1.0 + alpha) / 2.0
    e = cmath.exp(1j * math.pi * nu)
    num = (math.sqrt(x) * (bessel_j(nu, k * x) - e * bessel_j(-nu, k * x))
           * cmath.exp(-1j * k * (y - 1.0)))
    den = k * (bessel_j(nu - 1, k) + 1j * bessel_j(nu, k)
               + e * (bessel_j(1 - nu, k) - 1j * bessel_j(-nu, k)))
    return num / den


# -- zero-energy solutions ---------------------------------------------------------


def _zero_mode_cutoff(model, side: str) -> float:
    edge = model.vs_zero_above if side == "right" else model.vs_zero_below
    if edge is not None and not math.isinf(edge):
        return edge
    z = 1.0 if side == "right" else -1.0
    for _ in range(200):
        if abs(float(model.VS(np.array([z]))[0])) < 1e-12:
            return z
        z *= 1.5
    raise NonconvergedODE(f"V_S does not approach zero toward {side}")


class ZeroMode:
    """A zero-energy solution: psi and psi' on Chebyshev panels inside
    (lo, hi), and from each end outward, where V_S vanishes, the straight
    line through that end's (psi, psi'), so that the normalized end reads
    (1, 0) exactly."""

    def __init__(self, psi: PiecewiseChebFun, dpsi: PiecewiseChebFun,
                 lo_end, hi_end):
        self.psi, self.dpsi = psi, dpsi
        self.lo, self.hi = psi.lo, psi.hi
        self.lo_end, self.hi_end = lo_end, hi_end

    def __call__(self, z):
        """psi at z, a float or an array."""
        z = np.asarray(z, dtype=float)
        (p0, d0), (p1, d1) = self.lo_end, self.hi_end
        return self._read(self.psi, z, p0 + d0 * (z - self.lo),
                          p1 + d1 * (z - self.hi))

    def slope(self, z):
        """psi' at z, a float or an array."""
        z = np.asarray(z, dtype=float)
        return self._read(self.dpsi, z, self.lo_end[1], self.hi_end[1])

    def _read(self, fun, z, below, above):
        out = np.where(z <= self.lo, below,
                       np.where(z >= self.hi, above, fun(z)))
        return float(out) if z.ndim == 0 else out


def _zero_mode(model, start, end, stops, jumps, cfg) -> ZeroMode:
    """The zero-energy solution with (psi, psi') = (1, 0) at ``start``,
    marched at k = 0 to ``end`` through ``stops`` (in march order), to
    ``cfg.rel_tol`` and ``cfg.max_depth``, psi' jumping by a delta's
    weight times psi where one is crossed.  From each stop the first panel
    reaches the next stop."""
    step = 1 if end > start else -1
    zero = np.zeros(1)
    psi_a, dpsi_a = np.ones(1), np.zeros(1)
    edges, psis, dpsis = [start], [], []
    for target in stops + [end]:
        for b, psi, dpsi, _ in _march(model, zero, edges[-1], target, psi_a,
                                      dpsi_a, cfg.rel_tol, cfg.max_depth):
            edges.append(b)
            # node values in increasing z, as PiecewiseChebFun holds them
            psis.append(psi[0, ::step])
            dpsis.append(dpsi[0, ::step])
        psi_a, dpsi_a = psi[:, 0], dpsi[:, 0]
        if target in jumps:
            dpsi_a = dpsi_a + step * jumps[target] * psi_a
    ends = ((1.0, 0.0), (float(psi_a[0]), float(dpsi_a[0])))[::step]
    edges, psis, dpsis = edges[::step], psis[::step], dpsis[::step]
    return ZeroMode(PiecewiseChebFun(edges, cheb_coeffs(np.array(psis))),
                    PiecewiseChebFun(edges, cheb_coeffs(np.array(dpsis))),
                    *ends)


def zero_energy_modes(model: PotentialModel,
                      cfg: QuadratureConfig = QuadratureConfig()):
    """(psi_minus, psi_plus, wronskian): the k = 0 solutions normalized to 1
    at -infinity and +infinity respectively, as ZeroMode, solved on
    Chebyshev panels between the cutoffs to ``cfg.rel_tol``."""
    x_r = _zero_mode_cutoff(model, "right")
    x_l = _zero_mode_cutoff(model, "left")
    jumps = {d.x0: d.delta_weight for d in model.discontinuities
             if d.delta_weight != 0.0}
    interior = sorted(b for b in set(model.breakpoints) if x_l < b < x_r)
    pm = _zero_mode(model, x_l, x_r, interior, jumps, cfg)
    pp = _zero_mode(model, x_r, x_l, interior[::-1], jumps, cfg)
    zm = 0.5 * (x_l + x_r)
    wr = pm(zm) * pp.slope(zm) - pm.slope(zm) * pp(zm)
    return pm, pp, wr


# -- truncation-error scaling -------------------------------------------------------


def remainder_scaling_fit(model: PotentialModel, x: float, y: float, N: int,
                          k_grid, cfg: SolverConfig = SolverConfig(),
                          quad_cfg=None):
    """Least-squares slope of log|G_exact - truncated sum| against log k."""
    from .assembler import green_series

    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size < 3:
        raise DegenerateFit("need at least three k points")
    res = green_series(model, x, y, N,
                       quad_cfg if quad_cfg is not None else QuadratureConfig())
    reports, error = _grid_reports(model, x, y, k_grid, cfg)
    resid = []
    for k, (sample, _) in zip(k_grid, reports):
        approx = res.g.evaluate(1j * sample.k)
        r = abs(sample.value - approx)
        if r < 1e-13 * max(1.0, abs(sample.value)):
            raise DegenerateFit(
                f"residual at k={k:g} is below the oracle noise floor")
        resid.append(r)
    if error is not None:
        raise error
    slope = float(np.polyfit(np.log(k_grid), np.log(resid), 1)[0])
    return slope
