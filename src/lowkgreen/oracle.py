"""Independent reference values for the Green function.

The exact Green function is computed by integrating the second-order
equation for complex wavenumber from both spatial ends: the solution
decaying (or outgoing) at +infinity meets the one decaying at -infinity
and their Wronskian normalizes the product.  Boundary data at the cutoff
come from the phase-integral series of the decaying or outgoing ray's
log-derivative, u_0 + u_1 + u_2 + u_3.  A decaying or finite-limit end is
cut at the first rung of a geometric ladder where the first term the data
leave out, |u_4/u_0|, is below ``boundary_tol``; where the computed terms do
not decrease, the data stop at u_2 and |u_2/u_0| is the test.  Confining
and zero-edge ends take the second-order data, u_0 + u_1 + u_2.  This keeps
cutoffs modest even for slowly decaying tails.  On such tails only the
log-derivative of the solution is integrated (one Riccati component) from
the cutoff in to where the solution has structure.
Every solve runs the module's own DOP853 driver, ``solve_ivp``: the
Dormand-Prince 8(5,3) tableau, started by the Hairer-Norsett-Wanner
initial-step formula and stepped under their step-size controller.  These
are the tables, formulas and constants of scipy's
``solve_ivp(method="DOP853")``, the reference the tests check the driver
against; the package itself does not import scipy.  V_S is
evaluated once per step at all of the step's stage abscissae, and it is
taken from inside each segment, never from across the breakpoint a
segment ends on.  Every request takes one path: a grid of k runs one
sweep per side, inward from the outermost cutoff, which each k enters at
its own cutoff (as its Riccati component where it has a switch point) and
in which it becomes a linear pair at its switch point; a single sample is
the grid of one k.  Only the stepper depends on the number of k active in
a segment: one k combines its stages in plain Python floats, several
combine theirs with numpy.

A real k is solved as it is, on the real axis; one whose square is a
finite limit of V_S (a threshold) is refused.

Also here: closed-form exact Green functions for the square-barrier and
log-step catalog models, a direct ascending-series Bessel evaluation, the
zero-energy solutions used by the vanishing-potential route, and the
log-log fitter that measures how the truncation error scales with k.  The
zero-energy solutions take no ODE step: psi'' = V_S psi is solved as a
Volterra equation on Chebyshev panels, by spectral integration, to the
quadrature tolerance.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ._quad import _NODES, CUMULATIVE, PiecewiseChebFun, cheb_coeffs
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


#: the ODE's absolute tolerance
ODE_ABS_TOL = 1e-13
#: points from y to x at which the two sides' Wronskian is compared
CHECK_POINTS = 5


@dataclass(frozen=True)
class SolverConfig:
    cutoff_left: Optional[float] = None
    cutoff_right: Optional[float] = None
    # a positive ode_rel_tol below RTOL_FLOOR (100 machine epsilons) is
    # taken as RTOL_FLOOR
    ode_rel_tol: float = 1e-10
    boundary_tol: float = 1e-9
    #: not a field: a real k is solved on the real axis.  bench/gate.py
    #: reads it; the benchmark's next revision (ROADMAP item 7) drops the
    #: read and this constant
    epsilon_imag: ClassVar[float] = 0.0

    def __post_init__(self):
        # NaN fails every comparison, so it must not pass as in range: a
        # NaN tolerance makes the step size NaN
        for name in ("ode_rel_tol", "boundary_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidSpec(
                    f"{name} must be finite and positive (got {value})")


# -- boundary data -------------------------------------------------------------

#: phase-integral quality (second-order correction over the leading term)
#: below which the outgoing/decaying ray has no structure left to resolve:
#: outward of the first ladder rung that reaches it, only the log-derivative
#: of the solution is integrated
RICCATI_SWITCH_QUALITY = 1e-2


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
    |u_2/u_0|, boundary data, boundary error).

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
    quality = abs(corr) / lead
    if abs(corr4) <= abs(u3) <= abs(corr):
        return ld, quality, ld + u3, abs(corr4) / lead
    return ld, quality, ld, quality


def _phase_logderiv(model, z: float, k2: complex, side: str):
    """(boundary data, boundary error) of ``_phase_series`` at z."""
    _, _, ld, error = _phase_series(model, z, k2, side)
    return ld, error


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
    """(cutoff, switch, boundary data, boundary error): where the outer
    boundary data are imposed, the point inward of which the linear ODE
    takes over from the Riccati tail (None where the whole side is
    integrated linearly), the log-derivative imposed there, and the
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
        return cut, None, _phase_series(model, cut, k2, side)[0], None
    zero_edge = model.vs_zero_above if side == "right" else model.vs_zero_below
    if zero_edge is not None:
        if math.isinf(zero_edge):
            cut = inner
        # start safely inside the exactly-zero region, clear of the edge
        elif side == "right":
            cut = max(inner, zero_edge) + 0.5
        else:
            cut = min(inner, zero_edge) - 0.5
        return cut, None, _phase_series(model, cut, k2, side)[0], None
    x = inner + sgn * 1.0
    switch = None
    for _ in range(200):
        q = k2 - vs_lim - (float(model.VS(np.array([x]))[0]) - vs_lim)
        if abs(q) > 0.2 * max(abs(k2 - vs_lim), 1e-12):
            _, quality, ld, error = _phase_series(model, x, k2, side)
            if switch is None and quality < RICCATI_SWITCH_QUALITY:
                switch = x
            if error < cfg.boundary_tol:
                return x, (switch if switch != x else None), ld, error
        x = inner + sgn * (abs(x - inner) * 1.5)
    raise NonconvergedODE(f"no usable {side} cutoff found")


# -- DOP853 ---------------------------------------------------------------------
#
# Dormand & Prince's 8(5,3) pair, as in Hairer's dop853.f (Hairer, Norsett
# & Wanner, "Solving Ordinary Differential Equations I", Sec. II.10), with
# the coefficients written as scipy's DOP853 carries them, so that the
# tables agree bit for bit.


def _table(shape, rows):
    """A zero array of ``shape`` with the entries {row: {column: value}}."""
    out = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


#: stages of a step
N_STAGES = 12

#: stage abscissae of a step
C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0])

_A = _table((N_STAGES + 1, N_STAGES), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    # the solution weights B
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
})

#: stage coefficients and solution weights of a step
A = _A[:N_STAGES]
B = _A[N_STAGES]
#: the two error estimators, over the 12 stages and f at the step's end
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= (0.244094488188976377952755905512,
                   0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1)
E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
               -0.1225156446376204440720569753e+1,
               -0.4957589496572501915214079952,
               0.1664377182454986536961530415e+1,
               -0.3503288487499736816886487290,
               0.3341791187130174790297318841,
               0.8192320648511571246570742613e-1,
               -0.2235530786388629525884427845e-1,
               0.0])
#: step-size controller: the safety factor and the bounds on one change
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
#: the step scales as the error norm to this power (error estimator of
#: order 7)
ERROR_EXPONENT = -1 / 8
#: the smallest relative tolerance, 100 machine epsilons: a smaller one is
#: taken as this
RTOL_FLOOR = 100 * sys.float_info.epsilon

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
NAN_STEP = "The step size is NaN."
REACHED_END = "The solver successfully reached the end of the integration interval."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _nonzero(row):
    """((index, weight), ...) of a tableau row's nonzero entries, as Python
    floats: a zero weight adds nothing to a stage sum."""
    return tuple((j, w) for j, w in enumerate(row.tolist()) if w != 0.0)


class _StageDOP853:
    """DOP853 for y' = stage(coeff(t), y), where the coefficient depends on
    t alone: each attempted step evaluates ``coeff`` once, at all twelve
    of its stage abscissae, then combines the stages in plain Python
    floats.  The scalar ``fun`` (the same right-hand side) gives f0 and
    the initial-step probe, one point at a time.  It takes as many steps
    as stock DOP853 on ``fun``, for the same ``nfev``, and ends within the
    ODE tolerance of it, but not bit for bit: numpy may fuse multiply-adds
    that Python rounds twice, and the error estimate's cancellation
    carries that into the step sizes.  ``_solve`` hands it a ``coeff``
    that takes V_S from inside the segment.
    """

    #: stage abscissae of a step, in units of h from its start
    NODES = np.append(C[1:], 1.0)
    #: nonzero weights of stages 1..11 (A), of the solution (B) and of the
    #: two error estimators (E5, E3)
    A_ROWS = tuple(_nonzero(row) for row in A[1:])
    B_TERMS = _nonzero(B)
    E5_TERMS = _nonzero(E5)
    E3_TERMS = _nonzero(E3)

    def __init__(self, fun, t0, y0, t_bound, *, coeff, stage, rtol, atol):
        self.fun, self.coeff, self.stage = fun, coeff, stage
        y0 = np.asarray(y0)
        self.dtype = complex if np.iscomplexobj(y0) else float
        self.t, self.y, self.t_bound = t0, y0.astype(self.dtype), t_bound
        self.direction = -1.0 if t_bound < t0 else 1.0
        self.n = self.y.size
        self.rtol, self.atol = max(rtol, RTOL_FLOOR), atol
        # per-component tolerances as Python floats
        self.atol_list = [float(atol)] * self.n
        self.rtol_list = [float(self.rtol)] * self.n
        self.nfev = 0
        self.f = self._eval(t0, self.y)
        self.h_abs = self._initial_step()
        self.status = "running"

    def _eval(self, t, y):
        """``fun`` at one point, counted in ``nfev``."""
        self.nfev += 1
        return np.asarray(self.fun(t, y), dtype=self.dtype)

    def _initial_step(self):
        """|h| of the first step: Hairer, Norsett & Wanner's estimate from
        f0 and one explicit Euler probe, at most the whole interval."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * self.direction * f0
        f1 = self._eval(t0 + h0 * self.direction, y1)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
        return min(100 * h0, h1, interval_length)

    def step(self):
        """One accepted step; ``status`` becomes "finished" at ``t_bound``,
        or "failed" with the reason returned."""
        if self.t == self.t_bound:
            self.status = "finished"
            return None
        success, message = self._step_impl()
        if not success:
            self.status = "failed"
            return message
        if self.direction * (self.t - self.t_bound) >= 0:
            self.status = "finished"
        return None

    def _load(self, y):
        """The state array in the form ``_rk_step`` takes."""
        return y.tolist()

    def _rk_step(self, t, y, h):
        """One step of size h from the list state y: (y_new, stages), with
        the 13 stage rows as lists."""
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
        self.nfev += N_STAGES
        return y_new, K

    def _scale(self, y, y_new):
        return [a + max(abs(v), abs(w)) * r for a, r, v, w
                in zip(self.atol_list, self.rtol_list, y, y_new)]

    def _estimate_error_norm(self, K, h, scale):
        # DOP853's RMS norm of the 5th-order estimate, corrected by the 3rd
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
        """(success, message): attempts from ``h_abs`` until one is
        accepted, each rejection shrinking the step."""
        t = self.t
        y = self._load(self.y)
        direction = self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(float(self.h_abs), min_step)
        if math.isnan(h_abs):
            return False, NAN_STEP

        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, TOO_SMALL_STEP
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
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** ERROR_EXPONENT)
                step_rejected = True

        self.t = t_new
        self.y = np.array(y_new, dtype=self.dtype)
        self.h_abs = h_abs
        self.f = np.array(K[-1], dtype=self.dtype)
        return True, None


class _GridDOP853(_StageDOP853):
    """_StageDOP853 on the flat state [u_1..u_R, psi_1..psi_L,
    psi'_1..psi'_L] of R + L wavenumbers that share V_S: the first R carry
    only their log-derivative u (``riccati`` = R), the other L their
    (psi, psi') pair.  ``coeff`` gives V_S - k^2 as a (nodes, R + L) array
    in that order.  The stages are combined with numpy, as stock DOP853
    combines them.  The error norm is the largest of the wavenumbers' own
    DOP853 norms, over their 1 or 2 components, so no wavenumber is
    integrated more loosely than it would be alone; the RMS over the whole
    state would loosen the worst one by up to sqrt(R + 2L).
    """

    def __init__(self, fun, t0, y0, t_bound, *, riccati=0, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        # the 13 stages of a step, f at its end last
        self.K = np.empty((N_STAGES + 1, self.n), dtype=self.dtype)
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
        for s, (a, qs) in enumerate(zip(A[1:], q), start=1):
            K[s] = stage(qs, y + np.dot(K[:s].T, a[:s]) * h)
        y_new = y + h * np.dot(K[:-1].T, B)
        K[-1] = stage(q[-1], y_new)
        self.nfev += N_STAGES
        return y_new, K

    def _scale(self, y, y_new):
        return self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol

    def _per_k(self, squares):
        """Sums of ``squares`` over each wavenumber's components."""
        r, m = self.split
        pairs = squares[r:m] + squares[m:]
        return np.concatenate((squares[:r], pairs)) if r else pairs

    def _estimate_error_norm(self, K, h, scale):
        # DOP853's norm of each wavenumber's u or (psi, psi')
        err5 = np.abs(np.dot(K.T, E5) / scale)
        err3 = np.abs(np.dot(K.T, E3) / scale)
        err5 = self._per_k(err5 * err5)
        err3 = self._per_k(err3 * err3)
        denom = err5 + 0.01 * err3
        with np.errstate(invalid="ignore", divide="ignore"):
            norms = np.where(denom == 0, 0.0,
                             err5 / np.sqrt(denom * self.width))
        # a NaN state stays NaN here, so the controller rejects the step
        return abs(h) * float(norms.max())


@dataclass
class _Solve:
    """What ``solve_ivp`` returns: the accepted times and states (one
    column per time), the right-hand-side evaluations, and whether and
    why the solve ended."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def solve_ivp(fun, t_span, y0, method=_StageDOP853, **options):
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] by ``method``
    (_StageDOP853 or _GridDOP853, which take their ``coeff``, ``stage``,
    ``rtol`` and ``atol`` from ``options``), stepping until the end is
    reached or a step fails."""
    t0, tf = map(float, t_span)
    solver = method(fun, t0, y0, tf, **options)
    ts, ys = [t0], [solver.y]
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            break
        ts.append(solver.t)
        ys.append(solver.y)
    success = solver.status == "finished"
    return _Solve(t=np.array(ts), y=np.vstack(ys).T, nfev=solver.nfev,
                  success=success, message=REACHED_END if success else message)


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
    breakpoint of V_S, and a step's last node (and f0) would otherwise
    take V_S from across the discontinuity."""
    lo, hi = sorted((math.nextafter(span[0], span[1]),
                     math.nextafter(span[1], span[0])))

    def inside(ts):
        return coeff(ts.clip(lo, hi))

    def fun(t, y):
        return stage(inside(np.array([t]))[0], y)

    res = solve_ivp(fun, span, state, method=method, coeff=inside,
                    stage=stage, rtol=cfg.ode_rel_tol, atol=ODE_ABS_TOL,
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
        with ``_phase_logderiv``'s data and no switch."""
        if cutoff is None:
            inner = edge + 0.5 if side == "right" else edge - 0.5
            return _auto_cutoff(model, inner, k2, side, cfg)
        cut = max(cutoff, edge) if side == "right" else min(cutoff, edge)
        return (cut, None) + _phase_logderiv(model, cut, k2, side)


def _integrate_grid_side(model, k2s, sides, span, end, cfg, side):
    """One _Solution per wavenumber, from its end of ``sides`` (cutoff,
    switch, boundary data, boundary error) to ``end``, by one sweep inward
    from the outermost cutoff.  The sweep's stops are the span's stops from
    there to ``end`` plus every cutoff and switch point.

    A wavenumber enters the sweep at its own cutoff with its boundary data,
    the phase-integral log-derivative ld there: as the pair (psi, psi') =
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
    sols = [_Solution(switch) for _, switch, _, _ in sides]
    cuts = [cut for cut, _, _, _ in sides]
    stops = set(span.stops(max(cuts) if down else min(cuts), end))
    stops.update(cuts)
    stops.update(switch for _, switch, _, _ in sides if switch is not None)
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
        for i, (cut, switch, ld, _) in enumerate(sides):
            if cut == here:
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
        "boundary_error_left": left_end[3],
        "boundary_error_right": right_end[3],
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
        # which wavenumber the solver failed on is the per-k loop's to say
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
    """Exact Green function sample by two-sided integration.

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

    The wavenumbers are integrated by one sweep per side, inward from the
    outermost cutoff: each k enters at its own cutoff, carrying only its
    log-derivative down to its switch point where it has one, and every
    k active between two stops takes the same steps.  One k takes the
    same path with the plain-float stepper, so its sample is the single
    sample.  Each k's diagnostics report the cutoffs and tail switches
    of its single sample, and ``rhs_evals`` counts the evaluations of
    every solve that k took part in.
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


#: the double integral from t = -1 at the Lobatto nodes
_CUMULATIVE2 = CUMULATIVE @ CUMULATIVE


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


def _zero_mode_panel(model, a, b, psi_a, dpsi_a):
    """psi and psi' at the Lobatto nodes of the panel from a to b (t = -1
    at a), from their values at a.

    psi'' = V_S psi is the Volterra equation
    psi(z) = psi_a + psi'_a (z - a) + integral_a^z (z - s) V_S(s) psi(s) ds,
    and on the nodes the double integral is h^2 Q^2 with h = (b - a)/2, so
    psi is one linear solve (Greengard, SIAM J. Numer. Anal. 28, 1991).
    V_S is taken one ulp inside the panel, as ``_solve`` takes it."""
    h = 0.5 * (b - a)
    t1 = _NODES + 1.0
    lo, hi = sorted((math.nextafter(a, b), math.nextafter(b, a)))
    vs = model.VS(np.clip(a + h * t1, lo, hi))
    psi = np.linalg.solve(np.eye(t1.size) - (h * h) * _CUMULATIVE2 * vs,
                          psi_a + dpsi_a * h * t1)
    return psi, dpsi_a + h * (CUMULATIVE @ (vs * psi))


def _zero_mode(model, start, end, stops, jumps, cfg) -> ZeroMode:
    """The zero-energy solution with (psi, psi') = (1, 0) at ``start``,
    marched to ``end`` through ``stops`` (in march order), psi' jumping by
    a delta's weight times psi where one is crossed.

    From each stop the first panel reaches the next stop; a panel is
    halved while the trailing Chebyshev coefficients of psi or of psi'
    exceed ``cfg.rel_tol`` times that function's largest, the tail test of
    ``build_chebfun``, and one that fails at ``cfg.max_depth`` raises
    ToleranceNotMet.  psi' is tested too because the drift psi'/psi is
    read from its panels."""
    step = 1 if end > start else -1
    here, psi_a, dpsi_a = start, 1.0, 0.0
    edges, psis, dpsis = [start], [], []
    for target in stops + [end]:
        # the ends still to reach from here, with their depths, nearest last
        pending = [(target, 0)]
        while pending:
            b, depth = pending[-1]
            psi, dpsi = _zero_mode_panel(model, here, b, psi_a, dpsi_a)
            coef = np.abs(cheb_coeffs(np.array([psi, dpsi])))
            if not np.all(np.max(coef[:, -2:], axis=1)
                          <= cfg.rel_tol * np.max(coef, axis=1)):
                if depth == cfg.max_depth:
                    raise ToleranceNotMet(
                        f"zero-energy solution unresolved at depth {depth} "
                        f"on [{min(here, b):g}, {max(here, b):g}]")
                pending[-1] = (b, depth + 1)
                pending.append((0.5 * (here + b), depth + 1))
                continue
            pending.pop()
            edges.append(b)
            # node values in increasing z, as PiecewiseChebFun holds them
            psis.append(psi[::step])
            dpsis.append(dpsi[::step])
            here, psi_a, dpsi_a = b, psi[0], dpsi[0]
        if here in jumps:
            dpsi_a += step * jumps[here] * psi_a
    ends = ((1.0, 0.0), (float(psi_a), float(dpsi_a)))[::step]
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
