"""Piecewise Chebyshev representation with adaptive panel refinement.

A function is held as arrays: ``edges`` of shape (panels + 1,) and
``coefs`` of shape (panels, m), where row i is the Chebyshev series of the
function on [edges[i], edges[i+1]] mapped to [-1, 1].  Fits have m = 17
(degree 16, Chebyshev-Lobatto nodes); antiderivatives have m = 18.
Evaluation locates every point's panel with one ``searchsorted`` and runs
one Clenshaw recurrence over all points; antiderivatives integrate every
panel with one ``chebint`` along the coefficient axis.  Antiderivatives of
the interpolant are exact and evaluable anywhere, which is what lets nested
ordered integrals be computed one cumulative pass at a time.  Two constant
17x17 matrices act on node values: ``CHEB_TRANSFORM``, the DCT-I, turns a
stack of node-value rows, real or complex, into their Chebyshev series in
one product, and ``CUMULATIVE`` integrates them from the panel's left end.

``build_chebfun`` refines breadth-first: every panel still pending at one
depth is sampled in a single call of the integrand and transformed in a
single DCT-I.  A panel is split when its trailing Chebyshev coefficients
fail to fall below the requested tolerance relative to the panel scale,
or when two probe points off the nodes disagree with the interpolant.  A
probe point that disagrees is sampled again by the child that holds it,
and by that child's children, until a panel holding it is accepted, so a
feature only a probe saw is not lost when its panel splits.
Both thresholds are floored at the smallest normal double: below it a
value has no relative precision left, and halving the panel cannot help.
A panel whose tail stops shrinking is accepted as rounding noise only
where that tail is already small against generation 0's scale (the
largest coefficient of the initial panels); elsewhere it is
under-resolved and is split further.  So a decision reads the panel
itself (its ends, depth, parent tail, stall count and the probe points
handed down to it) and one number fixed before any panel is split, never
its neighbours or the order in which panels are visited, and the
breadth-first pass keeps exactly the leaves, and the sample points, of a
depth-first recursion.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import ToleranceNotMet

DEGREE = 16
# Lobatto nodes cos(pi*j/n), j = 0..n (descending 1 -> -1)
_NODES = np.cos(np.pi * np.arange(DEGREE + 1) / DEGREE)
# off-node points guarding against deceptive node agreement
_PROBES = np.array([-0.5219, 0.3874])
# the smallest normal double: the least acceptance threshold of a panel
_TINY = np.finfo(float).tiny
# a residual within this factor of rel_tol times the global scale is
# rounding noise: a stalled panel may stop there, and a fit may close there
_NOISE_FACTOR = 1e3
# a fit that needs more panels than this is not converging: its integrand
# is noisier than rel_tol allows, or rel_tol is below double precision
_MAX_PANELS = 1 << 16


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the Lobatto nodes (DCT-I).

    The transform runs along the last axis, so a (panels, n + 1) array of
    samples gives one coefficient row per panel.
    """
    n = values.shape[-1] - 1
    ext = np.concatenate([values, values[..., -2:0:-1]], axis=-1)
    c = np.fft.rfft(ext, axis=-1).real / n
    c[..., 0] *= 0.5
    c[..., n] *= 0.5
    return c[..., : n + 1]


#: the DCT-I as a matrix: row i of values @ CHEB_TRANSFORM is the
#: Chebyshev series of row i of the node values, as ``cheb_coeffs`` gives it
#: up to rounding (a complex stack transforms its two parts at once)
CHEB_TRANSFORM = cheb_coeffs(np.eye(DEGREE + 1))
#: the cumulative integral from t = -1 at the Lobatto nodes: row i of
#: CUMULATIVE @ values is the integral from -1 to _NODES[i] of the
#: interpolant of the values (``chebint`` of the cardinal functions)
CUMULATIVE = _cheb.chebval(
    _NODES, _cheb.chebint(CHEB_TRANSFORM, lbnd=-1, axis=1).T).T


def _clenshaw(coefs: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``chebval`` at each t[i] with the coefficients ``coefs[rows[i]]``.

    The same recurrence, in the same order, as numpy's ``chebval``; the
    coefficients are gathered one column at a time, so memory stays
    proportional to the number of points.
    """
    m = coefs.shape[1]
    x2 = 2 * t
    c0 = coefs[rows, m - 2]
    c1 = coefs[rows, m - 1]
    for i in range(3, m + 1):
        tmp = c0
        c0 = coefs[rows, m - i] - c1
        c1 = tmp + c1 * x2
    return c0 + c1 * t


def _sample(f, a, b, t):
    """``f`` at the points t (on [-1, 1]) of every panel [a, b], one call."""
    x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * t
    return _finite(np.asarray(f(x.ravel()), dtype=float).reshape(x.shape), a, b)


def _finite(vals, a, b):
    """``vals``, one row per panel [a, b]; raises where a row is not finite."""
    bad = ~np.all(np.isfinite(vals), axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ToleranceNotMet(
            f"integrand is not finite on [{a[i]:g}, {b[i]:g}] "
            "(weight overflow; tail cut too deep?)")
    return vals


class PiecewiseChebFun:
    """A function stored as Chebyshev coefficients on contiguous panels."""

    def __init__(self, edges, coefs, fit_residual: float = 0.0):
        self.edges = np.asarray(edges, dtype=float)
        self.coefs = np.asarray(coefs, dtype=float)
        self.fit_residual = fit_residual

    @property
    def lo(self):
        return self.edges[0]

    @property
    def hi(self):
        return self.edges[-1]

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        # constant extension outside the domain
        zc = np.clip(z.ravel(), self.lo, self.hi)
        idx = np.clip(np.searchsorted(self.edges, zc, side="right") - 1,
                      0, len(self.coefs) - 1)
        a, b = self.edges[idx], self.edges[idx + 1]
        out = _clenshaw(self.coefs, idx, (2.0 * zc - a - b) / (b - a))
        return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def antiderivative(self, from_right: bool = False) -> "PiecewiseChebFun":
        """Cumulative integral vanishing at the left (or right) domain end.

        Offsets are accumulated from the anchored end so that values near it
        stay accurate relative to the local scale (no global cancellation).
        """
        ic = _cheb.chebint(self.coefs, axis=1) * (0.5 * np.diff(self.edges))[:, None]
        left = _cheb.chebval(-1.0, ic.T)
        right = _cheb.chebval(1.0, ic.T)
        totals = right - left
        if not from_right:
            # each panel's integral from its own left end
            ic[:, 0] -= left
            offsets = np.concatenate([[0.0], np.cumsum(totals)])[:-1]
        else:
            # each panel's integral up to its own right end; chebval is odd
            # in the coefficients, so -right is exactly its value for -ic
            ic = -ic
            ic[:, 0] += right
            offsets = np.concatenate([np.cumsum(totals[::-1])[::-1], [0.0]])[1:]
        ic[:, 0] += offsets
        return PiecewiseChebFun(self.edges, ic)

    def integral(self) -> float:
        k = np.arange(0, DEGREE + 1, 2)
        t = 2.0 * self.coefs[:, k] / (1.0 - k * k)
        # a panel's nine terms are added in the order np.sum adds nine
        # values (eight pairwise, then the ninth) and the panels left to
        # right, so the value equals a panel-at-a-time sum bit for bit
        p = (((t[:, 0] + t[:, 1]) + (t[:, 2] + t[:, 3]))
             + ((t[:, 4] + t[:, 5]) + (t[:, 6] + t[:, 7]))) + t[:, 8]
        return float(sum((0.5 * np.diff(self.edges) * p).tolist()))


def _recheck(f, a, b, coef, floor, ok, degenerate, tail, suspects):
    """Sample each suspect point again in the pending panel that holds it,
    where that panel has passed its tail test, and reject the panel (in
    ``ok``, raising ``tail`` as a probe does) where its interpolant misses
    the sample.  Returns the suspects that some pending panel still holds:
    a point leaves once a panel holding it is accepted.

    The pending panels are disjoint and in increasing order, so one
    ``searchsorted`` finds the panel of every point."""
    held = np.searchsorted(a, suspects, side="right") - 1
    inside = (held >= 0) & (suspects <= b[np.maximum(held, 0)])
    suspects, held = suspects[inside], held[inside]
    check = ok[held] & ~degenerate[held]
    if check.any():
        rows, pts = held[check], suspects[check]
        vals = _finite(np.asarray(f(pts), dtype=float)[:, None],
                       a[rows], b[rows])[:, 0]
        t = (2.0 * pts - a[rows] - b[rows]) / (b[rows] - a[rows])
        miss = np.abs(vals - _clenshaw(coef, rows, t))
        resid = np.zeros(a.size)
        np.maximum.at(resid, rows, miss)
        # rows repeats a panel that holds several points; each write is alike
        ok[rows] = resid[rows] <= 10.0 * floor[rows]
        tail[rows] = np.maximum(tail[rows], resid[rows] / 10.0)
    return suspects


def build_chebfun(f, edges, rel_tol=1e-12, abs_floor=0.0, max_depth=40) -> PiecewiseChebFun:
    """Adaptively fit ``f`` on [edges[0], edges[-1]] with mandatory breakpoints.

    ``f`` must act elementwise on a 1-D array of points.  Panels that fail
    to converge are tolerated if, after the whole domain is fitted, their
    residual is negligible against the global scale (this is what rounding
    noise near breakpoints and deep tails looks like).  That scale is the
    largest coefficient of the fit, but at least ``abs_floor``.  Every
    panel is refined against its own scale (floored at the smallest normal
    double), and a panel whose tail stalls stops early only where that tail
    is within ``_NOISE_FACTOR * rel_tol`` of the largest generation-0
    coefficient, again at least ``abs_floor``.  A fit that would need more
    than ``_MAX_PANELS`` panels raises ``ToleranceNotMet``.
    """
    edges = np.asarray(sorted(set(float(e) for e in edges)), dtype=float)
    if len(edges) < 2:
        raise ValueError("need at least two edges")
    # the pending panels of one refinement generation, all at one depth
    a, b = edges[:-1], edges[1:]
    prev_tail = np.full(len(a), math.inf)
    stalls = np.zeros(len(a), dtype=int)
    leaves_a, leaves_b, leaves_coef, unconverged = [], [], [], []
    # the probe points that rejected a panel, in increasing order
    suspects = np.empty(0)
    leaves = depth = 0
    while a.size:
        coef = cheb_coeffs(_sample(f, a, b, _NODES))
        scale = np.max(np.abs(coef), axis=1)
        if depth == 0:
            noise = _NOISE_FACTOR * rel_tol * max(float(np.max(scale)), abs_floor)
        tail = np.max(np.abs(coef[:, -2:]), axis=1)
        degenerate = (b - a) <= 1e-14 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        floor = np.maximum(rel_tol * scale, _TINY)
        ok = (tail <= floor) | degenerate
        if suspects.size:
            suspects = _recheck(f, a, b, coef, floor, ok, degenerate, tail,
                                suspects)
        probe = np.flatnonzero(ok & ~degenerate & (scale > 0.0))
        if probe.size:
            # guard against deceptive node agreement
            rows = np.repeat(probe, len(_PROBES))
            fit = _clenshaw(coef, rows, np.tile(_PROBES, probe.size))
            miss = np.abs(_sample(f, a[probe], b[probe], _PROBES)
                          - fit.reshape(-1, len(_PROBES)))
            resid = np.max(miss, axis=1)
            ok[probe] = resid <= 10.0 * floor[probe]
            tail[probe] = np.maximum(tail[probe], resid / 10.0)
            failed = miss > 10.0 * floor[probe][:, None]
            if failed.any():
                # the same points as _sample's, for the children to sample
                at = (0.5 * (a + b)[probe][:, None]
                      + 0.5 * (b - a)[probe][:, None] * _PROBES)
                suspects = np.union1d(suspects, at[failed])
        # rounding noise does not improve under subdivision while smooth
        # structure improves spectrally, so a tail that shrinks by less than
        # a factor of ~3 per split has hit the double-precision floor of the
        # sampled values, provided that tail is small against the global
        # scale; a larger one belongs to a panel still too wide for a
        # narrow feature
        stalls = np.where(tail > 0.3 * prev_tail, stalls + 1, 0)
        done = ok | (depth >= max_depth) | ((stalls >= 2) & (tail <= noise))
        leaves_a.append(a[done])
        leaves_b.append(b[done])
        leaves_coef.append(coef[done])
        unconverged.append(tail[done & ~ok])
        split = ~done
        pending = a.size
        a, b = a[split], b[split]
        leaves += pending - a.size
        if leaves + 2 * a.size > _MAX_PANELS:
            raise ToleranceNotMet(
                f"panel refinement needs more than {_MAX_PANELS} panels")
        mid = 0.5 * (a + b)
        a, b = (np.column_stack([a, mid]).ravel(),
                np.column_stack([mid, b]).ravel())
        prev_tail = np.repeat(tail[split], 2)
        stalls = np.repeat(stalls[split], 2)
        depth += 1

    lefts, rights = np.concatenate(leaves_a), np.concatenate(leaves_b)
    order = np.lexsort((rights, lefts))
    out_edges = np.concatenate([edges[:1], rights[order]])
    coefs = np.concatenate(leaves_coef)[order]
    unconverged = np.concatenate(unconverged)
    fit_residual = rel_tol
    if unconverged.size:
        global_scale = max(float(np.max(np.abs(coefs))), abs_floor)
        worst = float(np.max(unconverged)) / global_scale
        if worst > _NOISE_FACTOR * rel_tol:
            raise ToleranceNotMet(
                f"panel refinement hit max depth with residual {worst:.2e}")
        fit_residual = max(rel_tol, worst)
    return PiecewiseChebFun(out_edges, coefs, fit_residual=fit_residual)
