"""The array-native Chebyshev core against a per-panel reference.

The reference below is the per-panel form of the same algorithm: a
depth-first recursive fit that samples one panel per call, and a loop of
``chebval`` calls, one per panel.  The array core must pick the same
panels, sample the same points and agree on every value.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from lowkgreen._quad import (
    _NODES,
    CHEB_TRANSFORM,
    PiecewiseChebFun,
    build_chebfun,
    cheb_coeffs,
)
from lowkgreen.errors import ToleranceNotMet


# -- reference: one panel at a time ----------------------------------------------


def ref_call(edges, coefs, z):
    z = np.asarray(z, dtype=float)
    zz = np.clip(np.atleast_1d(z), edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, zz, side="right") - 1, 0, len(coefs) - 1)
    out = np.empty_like(zz)
    for i in np.unique(idx):
        sel = idx == i
        a, b = edges[i], edges[i + 1]
        out[sel] = C.chebval((2.0 * zz[sel] - a - b) / (b - a), coefs[i])
    return float(out[0]) if z.ndim == 0 else out


def ref_antiderivative(edges, coefs, from_right):
    locals_, totals = [], []
    for coef, w in zip(coefs, np.diff(edges)):
        ic = C.chebint(coef) * (0.5 * w)
        lo, hi = C.chebval(-1.0, ic), C.chebval(1.0, ic)
        jc = -ic if from_right else ic.copy()
        jc[0] -= C.chebval(1.0 if from_right else -1.0, jc)
        locals_.append(jc)
        totals.append(hi - lo)
    totals = np.asarray(totals)
    if from_right:
        offsets = np.concatenate([np.cumsum(totals[::-1])[::-1], [0.0]])[1:]
    else:
        offsets = np.concatenate([[0.0], np.cumsum(totals)])[:-1]
    out = []
    for jc, off in zip(locals_, offsets):
        jc = jc.copy()
        jc[0] += off
        out.append(jc)
    return out


def ref_build(f, edges, rel_tol=1e-12, abs_floor=0.0, max_depth=40):
    """Depth-first per-panel refinement: (edges, coefs, fit_residual).

    A probe point that rejects a panel is handed to the child that holds
    it, which samples it again once its own tail passes."""
    edges = np.asarray(sorted(set(float(e) for e in edges)), dtype=float)
    out_edges, out_coefs, unconverged = [edges[0]], [], []

    def coefficients(a, b):
        x = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
        vals = np.asarray(f(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ToleranceNotMet("not finite")
        return cheb_coeffs(vals)

    # the initial panels' coefficients fix the scale the stall rule reads
    first = [coefficients(a, b) for a, b in zip(edges[:-1], edges[1:])]
    vscale = max(max(float(np.max(np.abs(c))) for c in first), abs_floor)
    tiny = np.finfo(float).tiny

    def fit(a, b, depth, prev_tail, stalls, suspects, coef=None):
        if coef is None:
            coef = coefficients(a, b)
        scale = float(np.max(np.abs(coef)))
        tail = float(np.max(np.abs(coef[-2:])))
        degenerate = (b - a) <= 1e-14 * max(1.0, abs(a), abs(b))
        floor = max(rel_tol * scale, tiny)
        ok = tail <= floor or degenerate
        if ok and not degenerate and suspects:
            # the probe points that rejected an ancestor, sampled again
            z = np.array(suspects)
            vals = np.asarray(f(z), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ToleranceNotMet("not finite")
            t = (2.0 * z - a - b) / (b - a)
            resid = float(np.max(np.abs(vals - C.chebval(t, coef))))
            ok = resid <= 10.0 * floor
            tail = max(tail, resid / 10.0)
        failed = []
        if ok and not degenerate and scale > 0.0:
            tprobe = np.array([-0.5219, 0.3874])
            zprobe = 0.5 * (a + b) + 0.5 * (b - a) * tprobe
            miss = np.abs(np.asarray(f(zprobe), dtype=float)
                          - C.chebval(tprobe, coef))
            resid = float(np.max(miss))
            ok = resid <= 10.0 * floor
            tail = max(tail, resid / 10.0)
            failed = list(zprobe[miss > 10.0 * floor])
        stalls = stalls + 1 if tail > 0.3 * prev_tail else 0
        stalled = stalls >= 2 and tail <= 1e3 * rel_tol * vscale
        if ok or depth >= max_depth or stalled:
            if not ok:
                unconverged.append(tail)
            out_edges.append(b)
            out_coefs.append(coef)
            return
        mid = 0.5 * (a + b)
        held = suspects + failed
        fit(a, mid, depth + 1, tail, stalls, [z for z in held if z < mid])
        fit(mid, b, depth + 1, tail, stalls, [z for z in held if z >= mid])

    for a, b, coef in zip(edges[:-1], edges[1:], first):
        fit(a, b, 0, math.inf, 0, [], coef)
    resid = rel_tol
    if unconverged:
        scale = max(max(float(np.max(np.abs(c))) for c in out_coefs), abs_floor)
        worst = max(unconverged) / scale
        if worst > 1e3 * rel_tol:
            raise ToleranceNotMet("max depth")
        resid = max(rel_tol, worst)
    return np.asarray(out_edges), out_coefs, resid


# -- integrands --------------------------------------------------------------------


def recording(f):
    """``f`` plus the list of every point it was sampled at."""
    seen = []

    def g(z):
        seen.append(np.array(z, dtype=float).ravel())
        return f(z)
    return g, seen


def _exp_chain():
    """Level 2 of an exponential-potential chain: exp(+V) times the
    right-anchored integral of exp(-V), which underflows toward the cut."""
    edges = [0.0, 1.0, 3.0, 5.0]
    inner = build_chebfun(lambda z: np.exp(-np.exp(z)), edges, rel_tol=1e-10 / 6)
    prev = inner.antiderivative(from_right=True)
    return lambda z: np.exp(np.exp(z)) * prev(z), edges, {"rel_tol": 1e-10 / 6}


CASES = {
    # smooth, several initial panels
    "smooth": (lambda z: np.exp(np.sin(3.0 * z)) / (1.0 + z * z),
               [-2.0, -0.5, 0.3, 2.5], {}),
    # a Gaussian tail: probe rejections, then subnormal panels accepted at
    # the smallest normal double
    "underflowing_tail": (lambda z: np.exp(-z * z), [0.0, 1.0, 3.0, 7.0, 15.0, 31.0],
                          {"rel_tol": 1e-10 / 6}),
    # a narrow peak: its tail shrinks slowly while the panels are too wide
    # for it, and they are split on until it is resolved
    "gaussian_peak": (lambda z: np.exp(-3000.0 * (z - 0.123) ** 2), [0.0, 1.0], {}),
    # subnormal at every node, with a normal-sized bump on a probe point:
    # the probe check still splits the panel, and the children sample that
    # point again until a panel resolves the bump.  Its exponent carries a
    # rounding of 2e9 |z - 0.6937| ulp, above 1e-12 of the value on the
    # bump's flanks, and generation 0 saw only the 1e-310 floor as its
    # scale, so at the default rel_tol the fit is refused (see
    # TestSubnormalPanels); 1e-10 is above that noise
    "subnormal_guard": (lambda z: 1e-310 + np.exp(-1e9 * (z - 0.6937) ** 2),
                        [0.0, 1.0], {"rel_tol": 1e-10}),
    "chain_level": _exp_chain(),
    # a kink on a declared breakpoint, next to a degenerate panel
    "breakpoint": (lambda z: np.abs(z - 0.25) + np.sin(z),
                   [-1.0, 0.25, 0.25 + 2e-15, 1.0], {}),
    # noise far below the scale: the tail stalls and the panels are accepted
    "noise_floor": (lambda z: np.exp(-z) + 1e-11 * np.sin(1e5 * z), [0.0, 1.0], {}),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    f, edges, kw = CASES[request.param]
    new_f, new_pts = recording(f)
    ref_f, ref_pts = recording(f)
    fun = build_chebfun(new_f, edges, **kw)
    ref = ref_build(ref_f, edges, **kw)
    return fun, ref, new_pts, ref_pts


def panel_scale(coefs):
    return np.max(np.abs(np.asarray(coefs)), axis=1, keepdims=True)


class TestAgainstReference:
    def test_same_panels_and_sample_points(self, case):
        fun, (edges, coefs, resid), new_pts, ref_pts = case
        assert np.array_equal(fun.edges, edges)
        assert fun.coefs.shape == (len(edges) - 1, 17)
        assert fun.fit_residual == resid
        assert np.array_equal(np.sort(np.concatenate(new_pts)),
                              np.sort(np.concatenate(ref_pts)))

    def test_coefficients(self, case):
        fun, (edges, coefs, _), _, _ = case
        assert np.all(np.abs(fun.coefs - coefs) <= 1e-14 * panel_scale(coefs))

    def test_evaluation(self, case):
        fun, (edges, coefs, _), _, _ = case
        z = np.linspace(edges[0] - 0.5, edges[-1] + 0.5, 2001)
        z = np.concatenate([z, edges])
        tol = 1e-14 * np.max(panel_scale(coefs))
        assert np.all(np.abs(fun(z) - ref_call(edges, coefs, z)) <= tol)

    @pytest.mark.parametrize("from_right", [False, True])
    def test_antiderivative(self, case, from_right):
        fun, (edges, coefs, _), _, _ = case
        anti = fun.antiderivative(from_right=from_right)
        ref = ref_antiderivative(edges, coefs, from_right)
        assert anti.coefs.shape == (len(edges) - 1, 18)
        assert np.array_equal(anti.edges, edges)
        assert np.all(np.abs(anti.coefs - ref) <= 1e-14 * panel_scale(ref))
        z = np.linspace(edges[0], edges[-1], 1001)
        tol = 1e-14 * np.max(panel_scale(ref))
        assert np.all(np.abs(anti(z) - ref_call(edges, ref, z)) <= tol)
        anchor = edges[-1] if from_right else edges[0]
        assert abs(anti(anchor)) <= tol

    def test_integral(self, case):
        fun, (edges, coefs, _), _, _ = case
        k = np.arange(0, 17, 2)
        ref = sum(0.5 * w * float(np.sum(2.0 * c[k] / (1.0 - k * k)))
                  for c, w in zip(coefs, np.diff(edges)))
        assert fun.integral() == ref


class TestSubnormalPanels:
    def test_underflowing_tail_stops_at_the_smallest_normal_double(self):
        # panels whose values are subnormal used to be halved to the depth
        # cap: 3,237 panels here
        f, edges, kw = CASES["underflowing_tail"]
        assert len(build_chebfun(f, edges, **kw).coefs) < 200

    def test_probe_still_splits_a_subnormal_panel(self):
        f, edges, kw = CASES["subnormal_guard"]
        assert len(build_chebfun(f, edges, **kw).coefs) > 1

    def test_children_sample_the_failed_probe_again(self):
        # the probe at z = 0.6937 rejects [0, 1], and no node or probe of
        # either half falls on the bump: without the point handed down, the
        # halves are accepted and the integral is the 1e-310 floor
        f, edges, _ = CASES["subnormal_guard"]
        exact = math.sqrt(math.pi / 1e9)
        try:
            value = build_chebfun(f, edges).integral()
        except ToleranceNotMet:
            pass
        else:
            assert abs(value - exact) <= 1e-10 * exact
        for kw in ({"rel_tol": 1e-10}, {"abs_floor": 1.0}):
            value = build_chebfun(f, edges, **kw).integral()
            assert abs(value - exact) <= 1e-10 * exact


class TestChebTransform:
    """CHEB_TRANSFORM, the DCT-I as a matrix, against ``cheb_coeffs``."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_reproduces_cheb_coeffs(self, dtype):
        rng = np.random.default_rng(28)
        values = rng.standard_normal((64, 17)) * np.logspace(-300, 300, 64)[:, None]
        if dtype is complex:
            values = values + 1j * rng.standard_normal(values.shape) * values
            ref = cheb_coeffs(values.real) + 1j * cheb_coeffs(values.imag)
        else:
            ref = cheb_coeffs(values)
        got = values @ CHEB_TRANSFORM
        assert got.dtype == values.dtype
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - ref) <= 4 * eps * panel_scale(np.abs(ref)))


# -- checks and their exception classes -----------------------------------------


class TestFailures:
    def test_non_finite_integrand(self):
        with pytest.raises(ToleranceNotMet, match="not finite"):
            build_chebfun(lambda z: np.where(z > 0.7, np.inf, 1.0), [0.0, 1.0])

    def test_non_finite_after_refinement(self):
        # finite on the first nodes, infinite on a node of a child panel
        f = lambda z: np.where(np.abs(z - 0.125) < 1e-3, np.nan, np.abs(z - 0.4))
        with pytest.raises(ToleranceNotMet, match="not finite"):
            build_chebfun(f, [0.0, 1.0])

    def test_max_depth_residual(self):
        step = lambda z: np.where(z < 1.0 / 3.0, 0.0, 1.0)
        with pytest.raises(ToleranceNotMet, match="max depth"):
            build_chebfun(step, [0.0, 1.0], max_depth=5)

    def test_stalled_refinement_matches_reference(self):
        # a narrow peak: the tail shrinks slowly while the panels are still
        # too wide; far above the global noise level a stall does not stop
        # them, so the peak is resolved rather than failing the residual check
        f, edges, _ = CASES["gaussian_peak"]
        exact = math.sqrt(math.pi / 3000.0) * 0.5 * (
            math.erf(math.sqrt(3000.0) * 0.877) + math.erf(math.sqrt(3000.0) * 0.123))
        for rel_tol in (1e-8, 1e-10, 1e-12):
            new_f, new_pts = recording(f)
            ref_f, ref_pts = recording(f)
            fun = build_chebfun(new_f, edges, rel_tol=rel_tol)
            ref_edges, _, resid = ref_build(ref_f, edges, rel_tol=rel_tol)
            assert np.array_equal(fun.edges, ref_edges)
            assert fun.fit_residual == resid == rel_tol
            assert np.array_equal(np.sort(np.concatenate(new_pts)),
                                  np.sort(np.concatenate(ref_pts)))
            assert abs(fun.integral() - exact) <= 1e-15

    @pytest.mark.parametrize("f,rel_tol", [
        (np.exp, 1e-20),
        (lambda z: np.exp(-z) * (1.0 + 1e-6 * np.sin(1e13 * z)), 1e-12),
    ], ids=["below_rounding", "noisy"])
    def test_refinement_that_cannot_converge_is_refused(self, f, rel_tol):
        # the tails stall above the global noise level, so only the panel
        # budget stops the halving
        with pytest.raises(ToleranceNotMet, match="more than 65536 panels"):
            build_chebfun(f, [0.0, 1.0], rel_tol=rel_tol)

    def test_tolerated_noise_sets_residual(self):
        f, edges, kw = CASES["noise_floor"]
        fun = build_chebfun(f, edges, **kw)
        assert 1e-12 < fun.fit_residual < 1e-9

    @pytest.mark.parametrize("edges", [[], [1.0], [1.0, 1.0]])
    def test_too_few_edges(self, edges):
        with pytest.raises(ValueError):
            build_chebfun(np.cos, edges)


# -- the evaluation interface -------------------------------------------------------


class TestCall:
    fun = build_chebfun(np.cos, [0.0, 0.5, 2.0])

    def test_scalar(self):
        out = self.fun(1.25)
        assert isinstance(out, float)
        assert abs(out - math.cos(1.25)) < 1e-14
        assert isinstance(self.fun(np.float64(0.2)), float)

    def test_one_dimensional(self):
        z = np.linspace(0.0, 2.0, 37)
        out = self.fun(z)
        assert out.shape == z.shape
        assert np.max(np.abs(out - np.cos(z))) < 1e-14

    def test_two_dimensional(self):
        z = np.linspace(0.0, 2.0, 12).reshape(3, 4)
        out = self.fun(z)
        assert out.shape == (3, 4)
        assert np.array_equal(out, self.fun(z.ravel()).reshape(3, 4))

    def test_empty(self):
        out = self.fun(np.array([]))
        assert out.shape == (0,)
        assert self.fun(np.zeros((0, 3))).shape == (0, 3)

    def test_constant_extension(self):
        assert self.fun(-3.0) == self.fun(0.0)
        assert self.fun(7.0) == self.fun(2.0)
        assert np.array_equal(self.fun(np.array([-1.0, 9.0])),
                              self.fun(np.array([0.0, 2.0])))

    def test_point_on_an_edge_belongs_to_the_panel_on_its_right(self):
        step = PiecewiseChebFun([0.0, 1.0, 2.0], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert np.array_equal(step(np.array([0.0, 0.5, 1.0, 2.0])), [1.0, 1.0, 2.0, 2.0])

    def test_fit_residual_is_a_constructor_argument(self):
        plain = PiecewiseChebFun(self.fun.edges, self.fun.coefs)
        assert plain.fit_residual == 0.0
        assert PiecewiseChebFun(self.fun.edges, self.fun.coefs, 3e-9).fit_residual == 3e-9
