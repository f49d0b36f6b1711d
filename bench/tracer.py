"""Span tracing of lowkgreen's layers, installed from outside the library.

Each layer entry point is wrapped where it is looked up (a module global or
a class attribute), so a call made through that name opens a span: name,
start, end, parent span and request id.  Spans stay in memory and are
written out once, when the run ends.

Two entry points are called tens of thousands of times per request: the
potential evaluations (``PotentialModel.V``/``VS``/``f``) and piecewise
Chebyshev evaluation (``PiecewiseChebFun.__call__``).  They are leaves, so
their calls are folded into one aggregate record per (parent span, name)
holding the call count, the seconds and the points evaluated.  Self times
are exact either way: spans nest strictly in one thread, so the time a span's
children cover is the sum of their durations.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import lowkgreen
from lowkgreen import _quad, assembler, brackets, cli, coeffgen, oracle, potential

_now = time.perf_counter

#: summed statistics that are totals over a pass
SUMS = (
    "quad.fit_calls", "quad.fit_self_s", "quad.panels", "quad.integrand_points",
    "quad.eval_calls", "quad.eval_self_s", "quad.antideriv_self_s",
    "brackets.chains", "brackets.chain_levels", "brackets.level_panels",
    "brackets.self_s",
    "coeffgen.terms_requested", "coeffgen.chain_builds", "coeffgen.self_s",
    "assembler.requests", "assembler.q_fit_calls", "assembler.self_s",
    "laurent.ops", "laurent.self_s",
    "cli.commands", "cli.bytes_out", "cli.self_s",
    "oracle.samples", "oracle.ode_solves", "oracle.rhs_evals", "oracle.ode_s",
    "oracle.self_s",
    "potential.calls", "potential.points", "potential.self_s",
)
#: extrema over a pass: name -> (reducer, value when nothing was seen)
EXTREMA = {
    "quad.min_panel_width": (min, float("inf")),
    "oracle.max_cutoff": (max, 0.0),
    "oracle.wronskian_variation_max": (max, 0.0),
}

#: every per-layer metric with its unit, in report order
UNITS = {
    "quad.fit_calls": "count", "quad.fit_self_s": "s", "quad.panels": "count",
    "quad.integrand_points": "count", "quad.min_panel_width": "length",
    "quad.eval_calls": "count", "quad.eval_self_s": "s",
    "quad.antideriv_self_s": "s",
    "brackets.chains": "count", "brackets.chain_levels": "count",
    "brackets.panels_per_level": "panels/level", "brackets.self_s": "s",
    "coeffgen.terms_requested": "count", "coeffgen.chain_reuse_ratio": "ratio",
    "coeffgen.self_s": "s",
    "assembler.requests": "count", "assembler.q_fit_calls": "count",
    "assembler.self_s": "s",
    "laurent.ops": "count", "laurent.self_s": "s",
    "cli.commands": "count", "cli.bytes_out": "bytes", "cli.self_s": "s",
    "oracle.samples": "count", "oracle.ode_solves": "count",
    "oracle.rhs_evals": "count", "oracle.ode_s": "s", "oracle.self_s": "s",
    "oracle.max_cutoff": "length", "oracle.wronskian_variation_max": "ratio",
    "potential.calls": "count", "potential.points": "count",
    "potential.points_per_call": "points/call", "potential.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span recorder plus the per-pass statistics derived from the spans."""

    def __init__(self):
        self.t0 = _now()
        self.spans = []        # [name, start, end, parent, request]
        self.leaves = {}       # (parent, name) -> [calls, seconds, points, request]
        self.stack = []        # [span index, start, child seconds]
        self.request = -1
        self.stats = dict.fromkeys(SUMS, 0.0)
        self.extrema = {k: v[1] for k, v in EXTREMA.items()}
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        start = _now()
        self.spans.append([name, start, None, parent, self.request])
        self.stack.append([idx, start, 0.0])

    def _close(self, self_key):
        idx, start, child = self.stack.pop()
        end = _now()
        self.spans[idx][2] = end
        dur = end - start
        self.stats[self_key] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def _leaf(self, name, dur, points):
        parent = self.stack[-1][0] if self.stack else -1
        if self.stack:
            self.stack[-1][2] += dur
        rec = self.leaves.get((parent, name))
        if rec is None:
            self.leaves[(parent, name)] = [1, dur, points, self.request]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += points

    def _extreme(self, key, value):
        self.extrema[key] = EXTREMA[key][0](self.extrema[key], value)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _span(self, name, self_key, counts=(), after=None):
        """Wrapper factory: one span per call, optional post-processing."""
        def make(orig):
            def wrapped(*args, **kwargs):
                for key in counts:
                    self.stats[key] += 1
                self._open(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    dur = self._close(self_key)
                if after is not None:
                    after(out, args, dur)
                return out
            return wrapped
        return make

    def __enter__(self):
        st = self.stats

        def fit(site, count_key):
            def make(orig):
                span = self._span(f"{site}.build_chebfun", "quad.fit_self_s",
                                  ("quad.fit_calls", count_key), after=fit_done)(orig)

                def wrapped(f, *args, **kwargs):
                    def counted(z):
                        st["quad.integrand_points"] += np.size(z)
                        return f(z)
                    fun = span(counted, *args, **kwargs)
                    if site == "brackets":
                        st["brackets.level_panels"] += len(fun.edges) - 1
                    return fun
                return wrapped
            return make

        def fit_done(fun, args, dur):
            st["quad.panels"] += len(fun.edges) - 1
            self._extreme("quad.min_panel_width", float(np.min(np.diff(fun.edges))))

        def sample_done(out, args, dur):
            st["oracle.samples"] += 1
            self._extreme("oracle.wronskian_variation_max",
                          float(out[1]["wronskian_variation"]))

        def ode_done(res, args, dur):
            st["oracle.ode_solves"] += 1
            st["oracle.rhs_evals"] += res.nfev
            st["oracle.ode_s"] += dur
            self._extreme("oracle.max_cutoff", float(max(abs(t) for t in args[1])))

        def command_done(rc, args, dur):
            # cli.main runs under the caller's stdout capture
            st["cli.bytes_out"] += len(sys.stdout.getvalue().encode())

        def leaf(name, count_key, self_key, points_key=None):
            def make(orig):
                def wrapped(obj, z, *args):
                    t = _now()
                    out = orig(obj, z, *args)
                    dur = _now() - t
                    n = np.size(z)
                    st[count_key] += 1
                    st[self_key] += dur
                    if points_key:
                        st[points_key] += n
                    self._leaf(name, dur, n)
                    return out
                return wrapped
            return make

        def coeff_fn(orig):
            span = self._span("CoefficientEvaluator.coeff_fn", "coeffgen.self_s")(orig)

            def wrapped(*args, **kwargs):
                return self._span("coeffgen.coeff_eval", "coeffgen.self_s")(
                    span(*args, **kwargs))
            return wrapped

        # quad: chain-level fits and q-fits are told apart by lookup site
        self._patch(brackets, "build_chebfun", fit("brackets", "brackets.chain_levels"))
        self._patch(assembler, "build_chebfun", fit("assembler", "assembler.q_fit_calls"))
        self._patch(_quad.PiecewiseChebFun, "__call__",
                    leaf("PiecewiseChebFun.__call__", "quad.eval_calls", "quad.eval_self_s"))
        self._patch(_quad.PiecewiseChebFun, "antiderivative",
                    self._span("PiecewiseChebFun.antiderivative",
                               "quad.antideriv_self_s"))
        # brackets; builds looked up by coeffgen are its chain-cache misses
        for owner, site in ((coeffgen, "coeffgen"), (brackets, "brackets"), (cli, "cli")):
            counts = ("brackets.chains",)
            if owner is coeffgen:
                counts += ("coeffgen.chain_builds",)
            self._patch(owner, "build_chain", self._span(
                f"{site}.build_chain", "brackets.self_s", counts))
        # coeffgen
        self._patch(coeffgen.CoefficientEvaluator, "_chain",
                    self._span("CoefficientEvaluator._chain", "coeffgen.self_s",
                               ("coeffgen.terms_requested",)))
        self._patch(coeffgen.CoefficientEvaluator, "coeff_fn", coeff_fn)
        # laurent
        for name in ("ls_exp", "ls_invert", "ls_log", "ls_mul", "ls_sqrt"):
            self._patch(assembler, name, self._span(
                f"assembler.{name}", "laurent.self_s", ("laurent.ops",)))
        self._patch(coeffgen, "ls_invert", self._span(
            "coeffgen.ls_invert", "laurent.self_s", ("laurent.ops",)))
        # assembler: the public names and the names cli/oracle look up
        for owner, site in ((lowkgreen, "lowkgreen"), (assembler, "assembler")):
            for name in ("green_series", "generic_expansion"):
                self._patch(owner, name, self._span(
                    f"{site}.{name}", "assembler.self_s", ("assembler.requests",)))
        # oracle
        self._patch(oracle, "_solve_green", self._span(
            "oracle._solve_green", "oracle.self_s", after=sample_done))
        self._patch(oracle, "solve_ivp", self._span(
            "oracle.solve_ivp", "oracle.self_s", after=ode_done))
        self._patch(oracle, "zero_energy_modes", self._span(
            "oracle.zero_energy_modes", "oracle.self_s"))
        self._patch(lowkgreen, "green_exact_report", self._span(
            "lowkgreen.green_exact_report", "oracle.self_s"))
        # potential
        for name in ("V", "VS", "f"):
            self._patch(potential.PotentialModel, name,
                        leaf(f"PotentialModel.{name}", "potential.calls",
                             "potential.self_s", "potential.points"))
        # cli
        self._patch(cli, "main", self._span("cli.main", "cli.self_s", ("cli.commands",),
                                                 after=command_done))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    # -- per-pass statistics ---------------------------------------------------

    def begin_pass(self):
        self._mark = dict(self.stats)
        self.extrema = {k: v[1] for k, v in EXTREMA.items()}

    def end_pass(self):
        """(sums, extrema) of the pass since ``begin_pass``."""
        sums = {k: self.stats[k] - self._mark[k] for k in SUMS}
        return sums, dict(self.extrema)

    def write(self, path):
        """Write every span and leaf aggregate as JSON lines (times relative
        to the tracer's creation, in seconds)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "request": req}) + "\n")
            for (parent, name), (count, secs, points, req) in self.leaves.items():
                fh.write(json.dumps({
                    "name": name, "parent": parent, "request": req,
                    "calls": count, "seconds": secs, "points": points}) + "\n")


def layer_metrics(first, passes, overhead_ratio):
    """Per-layer metrics from ``end_pass`` results.

    Counts, widths and ratios come from ``first``, the first traced pass,
    whose inputs depend only on the seed, so they repeat exactly.  Times
    (keys ending in ``_s``) are means over ``passes``.
    """
    sums, ext = first
    out = {}
    for key in SUMS:
        if key.endswith("_s"):
            out[key] = sum(p[0][key] for p in passes) / len(passes)
        else:
            out[key] = sums[key]
    # an extremum nothing contributed to reads 0
    out.update({k: (v if np.isfinite(v) else 0.0) for k, v in ext.items()})
    levels = sums["brackets.chain_levels"]
    out["brackets.panels_per_level"] = sums["brackets.level_panels"] / levels if levels else 0.0
    lookups = sums["coeffgen.terms_requested"]
    out["coeffgen.chain_reuse_ratio"] = (
        1.0 - sums["coeffgen.chain_builds"] / lookups if lookups else 0.0)
    calls = sums["potential.calls"]
    out["potential.points_per_call"] = sums["potential.points"] / calls if calls else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    for helper in ("brackets.level_panels", "coeffgen.chain_builds"):
        del out[helper]
    return out
