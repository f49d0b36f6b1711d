"""Independent reference values for the Green function.

The exact Green function is computed by integrating the second-order
equation for complex wavenumber from both spatial ends: the solution
decaying (or outgoing) at +infinity meets the one decaying at -infinity
and their Wronskian normalizes the product.  Boundary data at the cutoff
comes from a second-order phase-integral approximation of the decaying or
outgoing ray, which keeps cutoffs modest even for slowly decaying tails.
On such tails only the log-derivative of the solution is integrated (one
Riccati component) from the cutoff in to where the solution has structure.
Every solve runs DOP853's tableau under scipy's step-size controller and
takes stock DOP853's steps, with values within the ODE tolerance: V_S is
evaluated once per step at all of the step's stage abscissae, the stages
are combined in plain Python floats, and V_S is taken from inside each
segment, never from across the breakpoint a segment ends on.  Every
request takes one path: a grid of k runs one sweep per side, inward from
the outermost cutoff, which each k enters at its own cutoff (as its
Riccati component where it has a switch point) and in which it becomes a
linear pair at its switch point; a single sample is the grid of one k.
Only the stepper depends on the number of k active in a segment: one k
combines its stages in plain Python floats, several combine theirs with
numpy.

Also here: closed-form exact Green functions for the square-barrier and
log-step catalog models, a direct ascending-series Bessel evaluation, the
zero-energy solutions used by the vanishing-potential route, and the
log-log fitter that measures how the truncation error scales with k.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

from .errors import (
    BesselNonconvergence,
    DegenerateFit,
    InvalidSpec,
    LowkGreenError,
    NonconvergedODE,
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


@dataclass(frozen=True)
class SolverConfig:
    cutoff_left: Optional[float] = None
    cutoff_right: Optional[float] = None
    ode_rel_tol: float = 1e-10
    ode_abs_tol: float = 1e-13
    epsilon_imag: float = 1e-8
    boundary_tol: float = 1e-9
    verify_epsilon: bool = False
    check_points: int = 5


# -- boundary data -------------------------------------------------------------

#: phase-integral quality (second-order correction over the leading term)
#: below which the outgoing/decaying ray has no structure left to resolve:
#: outward of the first ladder rung that reaches it, only the log-derivative
#: of the solution is integrated
RICCATI_SWITCH_QUALITY = 1e-2


def _vs_derivs(model, z, h):
    vm2, vm1, v0, vp1, vp2 = model.VS(z + np.arange(-2, 3) * h).tolist()
    d1 = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * h)
    d2 = (-vm2 + 16 * vm1 - 30 * v0 + 16 * vp1 - vp2) / (12 * h * h)
    return v0, d1, d2


def _sqrt_upper(q: complex) -> complex:
    s = cmath.sqrt(q)
    if s.imag < 0:
        s = -s
    return s


def _phase_logderiv(model, z: float, k2: complex, side: str):
    """Log-derivative of the outgoing/decaying ray at z, with its own
    second-order correction magnitude as a quality measure."""
    h = 1e-4 * max(1.0, abs(z))
    v0, d1, d2 = _vs_derivs(model, z, h)
    q = k2 - v0
    qp, qpp = -d1, -d2
    s = _sqrt_upper(q)
    corr = -qpp / (8.0 * q * s) + 5.0 * qp * qp / (32.0 * q * q * s)
    if side == "right":
        ld = 1j * s - qp / (4.0 * q) + 1j * corr
    else:
        ld = -1j * s - qp / (4.0 * q) - 1j * corr
    return ld, abs(corr) / max(abs(s), 1e-300)


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
                 cfg: SolverConfig) -> Tuple[float, Optional[float]]:
    """(cutoff, switch): where the outer boundary data are imposed, and the
    point inward of which the linear ODE takes over from the Riccati tail
    (None where the whole side is integrated linearly)."""
    sgn = 1.0 if side == "right" else -1.0
    vs_lim = model.vs_limit_right if side == "right" else model.vs_limit_left
    if math.isinf(vs_lim):
        if vs_lim < 0:
            raise UnsupportedAsymptotics("V_S -> -infinity is outside scope")
        return _confining_cutoff(model, inner, k2, side), None
    zero_edge = model.vs_zero_above if side == "right" else model.vs_zero_below
    if zero_edge is not None and math.isinf(zero_edge):
        return inner, None
    if zero_edge is not None:
        # start safely inside the exactly-zero region, clear of the edge
        if side == "right":
            return max(inner, zero_edge) + 0.5, None
        return min(inner, zero_edge) - 0.5, None
    x = inner + sgn * 1.0
    switch = None
    for _ in range(200):
        q = k2 - vs_lim - (float(model.VS(np.array([x]))[0]) - vs_lim)
        if abs(q) > 0.2 * max(abs(k2 - vs_lim), 1e-12):
            _, quality = _phase_logderiv(model, x, k2, side)
            if switch is None and quality < RICCATI_SWITCH_QUALITY:
                switch = x
            if quality < cfg.boundary_tol:
                return x, (switch if switch != x else None)
        x = inner + sgn * (abs(x - inner) * 1.5)
    raise NonconvergedODE(f"no usable {side} cutoff found")


# -- stage-batched integration ----------------------------------------------------


def _nonzero(row):
    """((index, weight), ...) of a tableau row's nonzero entries, as Python
    floats: a zero weight adds nothing to a stage sum."""
    return tuple((j, w) for j, w in enumerate(row.tolist()) if w != 0.0)


class _StageDOP853(DOP853):
    """scipy's DOP853 for y' = stage(coeff(t), y), where the coefficient
    depends on t alone: each attempted step evaluates ``coeff`` once, at
    all twelve of its stage abscissae, then combines the stages in plain
    Python floats under scipy's step-size controller.  The tableau, the
    controller, the steps and ``nfev`` are those of ``method="DOP853"`` on
    the scalar ``fun``, which the base class still calls for f0, the first
    step and dense output.  The values agree within the ODE tolerance, not
    bit for bit: numpy may fuse multiply-adds that Python rounds twice.
    ``_solve`` hands it a ``coeff`` that takes V_S from inside the segment.
    """

    #: stage abscissae of a step, in units of h from its start
    NODES = np.append(DOP853.C[1:], 1.0)
    #: nonzero weights of stages 1..11 (A), of the solution (B) and of the
    #: two error estimators (E5, E3)
    A_ROWS = tuple(_nonzero(row) for row in DOP853.A[1:])
    B_TERMS = _nonzero(DOP853.B)
    E5_TERMS = _nonzero(DOP853.E5)
    E3_TERMS = _nonzero(DOP853.E3)

    def __init__(self, fun, t0, y0, t_bound, *, coeff, stage, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.coeff = coeff
        self.stage = stage
        # per-component tolerances as Python floats
        self.atol_list = np.broadcast_to(self.atol, (self.n,)).tolist()
        self.rtol_list = np.broadcast_to(self.rtol, (self.n,)).tolist()

    def _load(self, y):
        """The state array in the form ``_rk_step`` takes."""
        return y.tolist()

    def _rk_step(self, t, y, h):
        """One step of size h from the list state y: (y_new, stages), with
        the 13 stage rows as lists, also written into ``self.K``."""
        q = self.coeff(t + self.NODES * h).tolist()
        stage = self.stage
        comps = range(self.n)
        K = [self.f.tolist()]
        for row, qs in zip(self.A_ROWS, q):
            z = []
            for i in comps:
                acc = 0.0
                for j, w in row:
                    acc += K[j][i] * w
                z.append(y[i] + acc * h)
            K.append(stage(qs, z))
        y_new = []
        for i in comps:
            acc = 0.0
            for j, w in self.B_TERMS:
                acc += K[j][i] * w
            y_new.append(y[i] + h * acc)
        K.append(stage(q[-1], y_new))
        self.K[:] = K
        self.nfev += self.n_stages
        return y_new, K

    def _scale(self, y, y_new):
        return [a + max(abs(v), abs(w)) * r for a, r, v, w
                in zip(self.atol_list, self.rtol_list, y, y_new)]

    def _estimate_error_norm(self, K, h, scale):
        # DOP853._estimate_error_norm on the stage lists
        err5 = err3 = 0.0
        for i, sc in enumerate(scale):
            e5 = e3 = 0.0
            for j, w in self.E5_TERMS:
                e5 += K[j][i] * w
            for j, w in self.E3_TERMS:
                e3 += K[j][i] * w
            e5 /= sc
            e3 /= sc
            err5 += e5.real * e5.real + e5.imag * e5.imag
            err3 += e3.real * e3.real + e3.imag * e3.imag
        if err5 == 0 and err3 == 0:
            return 0.0
        return abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * len(scale))

    def _step_impl(self):
        # RungeKutta._step_impl, with self._rk_step for rk_step
        t = self.t
        y = self._load(self.y)
        direction = float(self.direction)
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = float(self.h_abs)

        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            y_new, K = self._rk_step(t, y, h)
            scale = self._scale(y, y_new)
            error_norm = self._estimate_error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** self.error_exponent)
                step_rejected = True

        self.h_previous = h
        self.y_old = self.y
        self.t = t_new
        self.y = np.array(y_new, dtype=self.y.dtype)
        self.h_abs = h_abs
        self.f = np.array(K[-1], dtype=self.y.dtype)
        return True, None


class _GridDOP853(_StageDOP853):
    """_StageDOP853 on the flat state [u_1..u_R, psi_1..psi_L,
    psi'_1..psi'_L] of R + L wavenumbers that share V_S: the first R carry
    only their log-derivative u (``riccati`` = R), the other L their
    (psi, psi') pair.  ``coeff`` gives V_S - k^2 as a (nodes, R + L) array
    in that order.  The stages are combined with numpy, as scipy's
    ``rk_step`` does.  The error norm is the largest of the wavenumbers'
    own DOP853 norms, over their 1 or 2 components, so no wavenumber is
    integrated more loosely than it would be alone; the RMS over the whole
    state would loosen the worst one by up to sqrt(R + 2L).
    """

    def __init__(self, fun, t0, y0, t_bound, *, riccati=0, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        pairs = (self.n - riccati) // 2
        self.split = (riccati, riccati + pairs)
        # each wavenumber's number of components
        self.width = np.repeat([1.0, 2.0], [riccati, pairs]) if riccati \
            else 2.0

    def _load(self, y):
        return y

    def _rk_step(self, t, y, h):
        q = self.coeff(t + self.NODES * h)
        stage = self.stage
        K = self.K
        K[0] = self.f
        for s, (a, qs) in enumerate(zip(self.A[1:], q), start=1):
            K[s] = stage(qs, y + np.dot(K[:s].T, a[:s]) * h)
        y_new = y + h * np.dot(K[:-1].T, self.B)
        K[-1] = stage(q[-1], y_new)
        self.nfev += self.n_stages
        return y_new, K

    def _scale(self, y, y_new):
        return self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol

    def _per_k(self, squares):
        """Sums of ``squares`` over each wavenumber's components."""
        r, m = self.split
        pairs = squares[r:m] + squares[m:]
        return np.concatenate((squares[:r], pairs)) if r else pairs

    def _estimate_error_norm(self, K, h, scale):
        # DOP853._estimate_error_norm of each wavenumber's u or (psi, psi')
        err5 = np.abs(np.dot(K.T, self.E5) / scale)
        err3 = np.abs(np.dot(K.T, self.E3) / scale)
        err5 = self._per_k(err5 * err5)
        err3 = self._per_k(err3 * err3)
        denom = err5 + 0.01 * err3
        with np.errstate(invalid="ignore", divide="ignore"):
            norms = np.where(denom == 0, 0.0,
                             err5 / np.sqrt(denom * self.width))
        # a NaN state stays NaN here, so the controller rejects the step
        return abs(h) * float(norms.max())


def _riccati(q, u):
    return [q - u[0] * u[0]]


def _linear(q, s):
    return [s[1], q * s[0]]


def _linear_grid(q, s):
    """_linear for the flat state of len(q) wavenumbers."""
    n = q.size
    return np.concatenate((s[n:], q * s[:n]))


def _grid_stage(riccati):
    """The stage of _GridDOP853's flat state whose first ``riccati``
    wavenumbers carry u: _riccati for those, _linear for the rest."""
    if not riccati:
        return _linear_grid

    def stage(q, s):
        n = q.size
        u = s[:riccati]
        return np.concatenate((q[:riccati] - u * u, s[n:],
                               q[riccati:] * s[riccati:n]))

    return stage


def _solve(coeff, stage, span, state, cfg, method=_StageDOP853, **options):
    """``solve_ivp`` of y' = stage(coeff(t), y) over ``span`` by ``method``
    (_StageDOP853 or _GridDOP853); raises NonconvergedODE when the solver
    fails.

    ``coeff`` is taken one ulp inside the span: a segment ends at a
    breakpoint of V_S, and a step's last node (and f0, and dense output)
    would otherwise take V_S from across the discontinuity."""
    lo, hi = sorted((math.nextafter(span[0], span[1]),
                     math.nextafter(span[1], span[0])))

    def inside(ts):
        return coeff(ts.clip(lo, hi))

    def fun(t, y):
        return stage(inside(np.array([t]))[0], y)

    res = solve_ivp(fun, span, state, method=method, coeff=inside,
                    stage=stage, rtol=cfg.ode_rel_tol, atol=cfg.ode_abs_tol,
                    **options)
    if not res.success:
        raise NonconvergedODE(res.message)
    return res


# -- segmented complex integration ----------------------------------------------


class _Solution:
    """One-directional solution with per-record log scale factors, the
    Riccati tail's switch point (None without one) and the ODE work of
    every solve it took part in."""

    def __init__(self, switch=None):
        self.records = {}  # z -> (psi, dpsi, logscale)
        self.switch = switch
        self.nfev = 0

    def add(self, z, psi, dpsi, logscale):
        self.records[float(z)] = (psi, dpsi, logscale)

    def get(self, z):
        return self.records[float(z)]


class _Span:
    """What the samples at one (x, y) share whatever k is: the ordered
    ends, the Wronskian check points, V_S's breakpoints and delta weights,
    and the stops of an integration."""

    def __init__(self, model, x, y, cfg):
        check_positions(x, y)
        self.xi, self.yi = xi, yi = (x, y) if x >= y else (y, x)
        self.jump_map = {d.x0: d.delta_weight for d in model.discontinuities
                         if d.delta_weight != 0.0}
        self.breaks = breaks = sorted(set(model.breakpoints))
        checks = [float(c) for c in np.linspace(yi, xi, cfg.check_points)] \
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
        """((cutoff, switch) on the left, the same on the right)."""
        x_r, sw_r = (cfg.cutoff_right, None) \
            if cfg.cutoff_right is not None else \
            _auto_cutoff(model, self.xi + 0.5, k2, "right", cfg)
        x_l, sw_l = (cfg.cutoff_left, None) \
            if cfg.cutoff_left is not None else \
            _auto_cutoff(model, self.yi - 0.5, k2, "left", cfg)
        return (min(x_l, self.yi), sw_l), (max(x_r, self.xi), sw_r)


def _integrate_grid_side(model, k2s, sides, span, end, cfg, side):
    """One _Solution per wavenumber, from its (cutoff, switch) of ``sides``
    to ``end``, by one sweep inward from the outermost cutoff.  The
    sweep's stops are the span's stops from there to ``end`` plus every
    cutoff and switch point.

    A wavenumber enters the sweep at its own cutoff with the
    phase-integral log-derivative ld there: as the pair (psi, psi') =
    (1, ld) where it has no switch point, or else as the log-derivative
    u = psi'/psi alone, through the Riccati equation
    u' = (V_S - k^2) - u^2, and at its switch point as the pair (1, u).
    G does not depend on the normalization of either side's solution, so
    this is exact; inward, the Riccati equation is neutral for an outgoing
    wave and damping for a decaying one.  Between two stops every active
    wavenumber takes the same steps: one alone is stepped by _StageDOP853
    in plain floats, as a single sample is, several by _GridDOP853.  A
    delta of V_S shifts u by its weight, or psi' by its weight times psi,
    where it is crossed, and a pair beyond 1e+-50 is renormalized into its
    own log scale.
    """
    down = side == "right"
    n = len(k2s)
    sols = [_Solution(switch) for _, switch in sides]
    cuts = [cut for cut, _ in sides]
    stops = set(span.stops(max(cuts) if down else min(cuts), end))
    stops.update(cuts)
    stops.update(switch for _, switch in sides if switch is not None)
    # u while a wavenumber is in ``ric``, (psi, psi', logscale) in ``lin``
    u, psi, dpsi, logscale = [None] * n, [None] * n, [None] * n, [0.0] * n
    ric, lin = [], []
    here = None
    for target in sorted(stops, reverse=down):
        if ric or lin:
            active = ric + lin
            res = _solve_active(
                model, [k2s[i] for i in active], len(ric),
                [u[i] for i in ric] + [psi[i] for i in lin]
                + [dpsi[i] for i in lin], (here, target), cfg)
            y = list(res.y[:, -1])
            r, na = len(ric), len(active)
            for i, v in zip(ric, y[:r]):
                u[i] = v
            for i, p, d in zip(lin, y[r:na], y[na:]):
                psi[i], dpsi[i] = p, d
            for i in active:
                sols[i].nfev += res.nfev
            if target in span.jump_map:
                w = span.jump_map[target]
                for i in ric:
                    u[i] = u[i] - w if down else u[i] + w
                for i in lin:
                    # crossing a delta of V_S: psi' jumps by weight * psi
                    p, d = psi[i], dpsi[i]
                    dpsi[i] = d - w * p if down else d + w * p
            for i in lin:
                p, d = psi[i], dpsi[i]
                m = max(abs(p), abs(d))
                if m > 1e50 or (0 < m < 1e-50):
                    psi[i], dpsi[i] = p / m, d / m
                    logscale[i] += math.log(m)
        here = target
        for i in [i for i in ric if sides[i][1] == here]:
            ric.remove(i)
            lin.append(i)
            psi[i], dpsi[i] = 1.0 + 0.0j, u[i]
        for i, (cut, switch) in enumerate(sides):
            if cut == here:
                ld, _ = _phase_logderiv(model, cut, k2s[i], side)
                if switch is None:
                    lin.append(i)
                    psi[i], dpsi[i] = 1.0 + 0.0j, ld
                else:
                    ric.append(i)
                    u[i] = ld
        for i in lin:
            sols[i].add(here, psi[i], dpsi[i], logscale[i])
    return sols


def _solve_active(model, k2s, riccati, state, span, cfg):
    """``_solve`` over ``span`` of the wavenumbers ``k2s`` (squared) in
    ``state`` order, the first ``riccati`` of them carrying u: one alone
    in the plain-float stepper, several as one _GridDOP853 system."""
    if len(k2s) == 1:
        (k2,) = k2s

        def vs_minus_k2(ts):
            return model.VS(ts) - k2

        return _solve(vs_minus_k2, _riccati if riccati else _linear, span,
                      state, cfg)
    k2a = np.array(k2s)

    def coeff(ts):
        return model.VS(ts)[:, None] - k2a

    return _solve(coeff, _grid_stage(riccati), span, state, cfg, _GridDOP853,
                  riccati=riccati)


def _wronskian(left_rec, right_rec):
    (lp, lq, ls), (rp, rq, rs) = left_rec, right_rec
    return (lp * rq - lq * rp), ls + rs


def _physical_k(k, cfg):
    """(k, epsilon used): k on the physical sheet, a real k promoted to
    k + i*epsilon."""
    if k == 0:
        raise WronskianDegenerate("k = 0 is the expansion point, not a sample")
    k = complex(k)
    if not cmath.isfinite(k):
        raise InvalidSpec(f"wavenumbers must be finite (k={k})")
    eps_used = 0.0
    if k.imag < 0:
        raise UnsupportedAsymptotics("Im k < 0 is outside the physical sheet")
    if k.imag == 0:
        eps_used = cfg.epsilon_imag
        k = complex(k.real, eps_used)
    return k, eps_used


def _green_from(span, x, y, k, eps_used, left, right, x_l, x_r):
    """(sample, diagnostics) from the two sides' solutions at the span's
    record points; raises WronskianDegenerate where they are nearly
    proportional."""
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
        "epsilon_imag": eps_used,
        "cutoff_left": x_l,
        "cutoff_right": x_r,
        "wronskian_variation": var,
        "wronskian_condition": abs(w_mid) / degeneracy,
        "derivative_jump_defect": defect,
        "tail_switch_left": left.switch,
        "tail_switch_right": right.switch,
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
    ``ks`` integrated as one system per side."""
    span = _Span(model, x, y, cfg)
    setups, error = [], None
    for k in ks:
        try:
            k, eps_used = _physical_k(k, cfg)
            setups.append((k, eps_used) + span.cutoffs(model, k * k, cfg))
        except LowkGreenError as exc:
            error = exc
            break
    if not setups:
        return [], error
    k_used, eps_used, left_ends, right_ends = zip(*setups)
    k2s = [k * k for k in k_used]
    try:
        rights = _integrate_grid_side(model, k2s, right_ends, span,
                                      span.yi, cfg, "right")
        lefts = _integrate_grid_side(model, k2s, left_ends, span,
                                     span.xi, cfg, "left")
    except NonconvergedODE as exc:
        if len(ks) == 1:
            return [], exc
        # which wavenumber the solver failed on is the per-k loop's to say
        reports, failed = _each_k(model, x, y, ks[:len(setups)], cfg)
        return reports, failed or error
    reports = []
    for k, eps, (x_l, _), (x_r, _), left, right in zip(
            k_used, eps_used, left_ends, right_ends, lefts, rights):
        try:
            reports.append(_green_from(span, x, y, k, eps, left, right,
                                       x_l, x_r))
        except WronskianDegenerate as exc:
            return reports, exc
    return reports, error


def _verified_grid(model, x, y, ks, cfg):
    """(reports, error) for ks in grid order, with ``verify_epsilon``'s
    repeat at epsilon/10 for every real k that was solved."""
    reports, error = _grid_reports(model, x, y, ks, cfg)
    if not cfg.verify_epsilon:
        return reports, error
    real = [i for i in range(len(reports)) if complex(ks[i]).imag == 0]
    tighter = dataclasses.replace(cfg, epsilon_imag=cfg.epsilon_imag / 10,
                                  verify_epsilon=False)
    again, again_error = _grid_reports(model, x, y, [ks[i] for i in real],
                                       tighter)
    for j, i in enumerate(real):
        if j == len(again):
            return reports[:i], again_error
        value = reports[i][0].value
        rel = abs(value - again[j][0].value) / max(abs(value), 1e-300)
        if rel > 1e-6:
            return reports[:i], WronskianDegenerate(
                f"epsilon sensitivity {rel:.2e}: k is too close to a pole")
    return reports, error


def green_exact(model: PotentialModel, x: float, y: float, k,
                cfg: SolverConfig = SolverConfig()) -> GreenSample:
    """Exact Green function sample by two-sided integration.

    Real k is promoted to k + i*epsilon; ``verify_epsilon`` repeats the
    computation at epsilon/10 and raises when the two disagree (which
    signals a nearby pole or an unresolved limit).
    """
    return green_exact_report(model, x, y, k, cfg)[0]


def green_exact_report(model, x, y, k, cfg: SolverConfig = SolverConfig()):
    """(sample, diagnostics) variant of green_exact."""
    return green_exact_grid(model, x, y, [k], cfg)[0]


def green_exact_grid(model, x, y, ks, cfg: SolverConfig = SolverConfig()):
    """[(sample, diagnostics)] over the wavenumbers ``ks``, with
    green_exact's ``verify_epsilon`` check, raising what the per-k loop of
    green_exact would raise first.

    The wavenumbers are integrated by one sweep per side, inward from the
    outermost cutoff: each k enters at its own cutoff, carrying only its
    log-derivative down to its switch point where it has one, and every
    k active between two stops takes the same steps.  One k takes the
    same path with the plain-float stepper, so its sample is the single
    sample.  Each k's diagnostics report the cutoffs and tail switches
    of its single sample, and ``rhs_evals`` counts the evaluations of
    every solve that k took part in.
    """
    reports, error = _verified_grid(model, x, y, ks, cfg)
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
    for -1 < y <= x < 1."""
    k = complex(k)
    p = cmath.sqrt(a * a - k * k)
    num = (((p - 1j * k) * cmath.exp(p * (1 - x))
            + (p + 1j * k) * cmath.exp(-p * (1 - x)))
           * ((p + 1j * k) * cmath.exp(-p * (1 + y))
              + (p - 1j * k) * cmath.exp(p * (1 + y))))
    den = -4.0 * p * ((p * p - k * k) * cmath.sinh(2 * p)
                      - 2j * p * k * cmath.cosh(2 * p))
    return num / den


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


def zero_energy_modes(model: PotentialModel, cfg: SolverConfig = SolverConfig()):
    """(psi_minus, psi_plus, wronskian): the k = 0 solutions normalized to 1
    at -infinity and +infinity respectively, evaluable anywhere."""
    x_r = _zero_mode_cutoff(model, "right")
    x_l = _zero_mode_cutoff(model, "left")
    jump_map = {d.x0: d.delta_weight for d in model.discontinuities
                if d.delta_weight != 0.0}
    interior = sorted(b for b in set(model.breakpoints) if x_l < b < x_r)

    def build(start, end):
        stops = interior if start < end else list(reversed(interior))
        segs = []
        here, state = start, np.array([1.0, 0.0])
        for target in stops + [end]:
            res = _solve(model.VS, _linear, (here, target), state, cfg,
                         dense_output=True)
            segs.append((min(here, target), max(here, target), res.sol))
            state = np.array([res.y[0][-1], res.y[1][-1]])
            here = target
            if here in jump_map:
                w = jump_map[here]
                state[1] += (w if start < end else -w) * state[0]
        return segs, state

    segs_minus, end_minus = build(x_l, x_r)
    segs_plus, end_plus = build(x_r, x_l)

    def make_eval(segs, start, start_state, end, end_state):
        def value_and_slope(z):
            if (z - start) * (end - start) <= 0:  # beyond the start side
                return start_state[0] + start_state[1] * (z - start), start_state[1]
            if (z - end) * (end - start) >= 0:
                return end_state[0] + end_state[1] * (z - end), end_state[1]
            for a, b, s in segs:
                if a <= z <= b:
                    v = s(z)
                    return v[0], v[1]
            raise AssertionError("unreachable")

        return value_and_slope

    pm = make_eval(segs_minus, x_l, np.array([1.0, 0.0]), x_r, end_minus)
    pp = make_eval(segs_plus, x_r, np.array([1.0, 0.0]), x_l, end_plus)
    zm = 0.5 * (x_l + x_r)
    vm, dm = pm(zm)
    vp, dp = pp(zm)
    wr = vm * dp - dm * vp

    def psi_minus(z):
        return pm(float(z))[0]

    def psi_plus(z):
        return pp(float(z))[0]

    psi_minus.value_and_slope = pm
    psi_plus.value_and_slope = pp
    return psi_minus, psi_plus, float(wr)


# -- truncation-error scaling -------------------------------------------------------


def remainder_scaling_fit(model: PotentialModel, x: float, y: float, N: int,
                          k_grid, cfg: SolverConfig = SolverConfig(),
                          quad_cfg=None):
    """Least-squares slope of log|G_exact - truncated sum| against log k."""
    from .assembler import green_series
    from .brackets import QuadratureConfig

    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size < 3:
        raise DegenerateFit("need at least three k points")
    res = green_series(model, x, y, N,
                       quad_cfg if quad_cfg is not None else QuadratureConfig())
    reports, error = _verified_grid(model, x, y, k_grid, cfg)
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
