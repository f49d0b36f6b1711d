"""Inputs and request mixes of the lowkgreen benchmark workloads.

A workload is a list of operations per pass.  Pass ``i`` of a run with seed
``s`` draws its inputs from ``numpy.random.default_rng([s, i])``, so the same
seed gives the same inputs, and every pass asks new questions: a cache that
outlives one call can only help where a pass repeats a request itself.

Every operation goes through the public API (``lowkgreen.green_series``,
``lowkgreen.generic_expansion``, ``lowkgreen.green_exact_report``,
``lowkgreen.cli.main``), looked up at call time so the tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lowkgreen
from lowkgreen import cli
from lowkgreen.potential import EXPONENTIAL, EndpointClass, EndpointKind

import gate

WORKLOADS = ("expand_deep", "oracle_sweep", "user_session")

#: the operation kind whose median latency each workload reports
REQUEST_KIND = {"expand_deep": "expand", "oracle_sweep": "sample",
                "user_session": "command"}


@dataclass
class Op:
    """One request: ``call()`` returns the output ``check(output)`` judges
    and ``render(output)`` turns into the bytes compared across passes."""

    kind: str                 # expand | sample | command
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    render: Callable[[object], str]


def neg_exponential():
    """Case III: V = -e^z, finite limit on the left, -infinity on the right."""
    return lowkgreen.custom_model(
        "neg-exponential", lambda z: -np.exp(z), lambda z: 0.5 * np.exp(z),
        left=EndpointClass(EndpointKind.FINITE_LIMIT, EXPONENTIAL, 0.0),
        right=EndpointClass(EndpointKind.MINUS_INFINITY, EXPONENTIAL),
        eval_VS=lambda z: 0.25 * np.exp(2 * z) + 0.5 * np.exp(z),
        vs_limit_left=0.0, vs_limit_right=math.inf)


def build_models():
    """Every model the workloads use; building them is part of set-up."""
    cat = lowkgreen.catalog
    return {
        "parabolic": cat("parabolic"),
        "logcosh": cat("logcosh"),
        "neg-exponential": neg_exponential(),
        "sqrtwell": cat("sqrtwell"),
        "logstep": cat("logstep", alpha=1.5),
        "barrier": cat("barrier", a=1.0),
    }


# -- rendering -------------------------------------------------------------------


def _f(v):
    return "%.17g" % v


def render_expansion(res):
    g = res.g
    parts = [res.case_tag.value, str(res.N)]
    parts += [_f(g.coeff_or_zero(n).real) for n in range(g.min_order, res.N + 1)]
    parts += [_f(v) for _, v in sorted(res.q.items())]
    return " ".join(parts)


def render_sample(out):
    sample, diag = out
    return " ".join(_f(v) for v in (sample.value.real, sample.value.imag,
                                    diag["wronskian_variation"]))


def render_command(out):
    rc, text = out
    return f"{rc}\n{text}"


def run_command(argv):
    """``lowkgreen.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


# -- operation builders ----------------------------------------------------------


def expand_op(models, name, x, y, n, orders):
    model = models[name]
    return Op("expand", f"green_series {name} N={n} x={x:.4f} y={y:.4f}",
              lambda: lowkgreen.green_series(model, x, y, n),
              lambda res: gate.check_expansion(model, res, orders),
              render_expansion)


def sample_op(models, name, x, y, k, reference=None):
    model = models[name]
    return Op("sample", f"green_exact_report {name} k={k:.5f} x={x:.4f} y={y:.4f}",
              lambda: lowkgreen.green_exact_report(model, x, y, k),
              lambda out: gate.check_sample(out, reference),
              render_sample)


def command_op(argv, check):
    return Op("command", "lowkgreen " + " ".join(argv),
              lambda: run_command(argv), check, render_command)


def _num(v):
    return f"{v:.6f}"


#: half-width of the position jitter; the cost of some requests jumps by
#: tens of percent between nearby positions (panel refinement), so wider
#: draws would swamp the run-to-run spread
POSITION_JITTER = 0.05
#: half-width of the k jitter, in log k
K_JITTER = 0.03
# The oracle picks power-tail cutoffs from a geometric ladder, so the cost of
# a sqrtwell or logstep sample jumps (by up to 1.45x) where k crosses a rung:
# about every 35% in k for sqrtwell and every 50% for logstep.  Their grid
# points sit near the geometric middle of a rung, at least 15% from either
# end, so the jitter never crosses one.
SQRTWELL_K = (0.00592, 0.0199, 0.0672, 0.226, 0.755)
LOGSTEP_K = (0.00573, 0.0086, 0.0193, 0.029, 0.0653, 0.0978, 0.22, 0.329, 0.737)


def _jitter(rng, centre, half=POSITION_JITTER):
    return float(centre + rng.uniform(-half, half))


def _k_grid(rng, base):
    """``base`` with each point moved by up to 3% in log k."""
    base = np.asarray(base)
    return [float(k) for k in base * np.exp(rng.uniform(-K_JITTER, K_JITTER, base.size))]


# -- workloads -------------------------------------------------------------------


def expand_deep(models, rng):
    """Deep expansions: chain building in brackets and _quad dominates."""
    px, py = _jitter(rng, 1.2), _jitter(rng, 1.0)
    lx, ly = _jitter(rng, 1.5), _jitter(rng, 0.4)
    # y stays at 0: the cost of this request swings between 0.1 s and 9 s
    # with y (tail panels refined into rounding noise), and at y = 0 the
    # refinement shows in full.
    nx = _jitter(rng, 0.45)
    bx, by, bk = _jitter(rng, 0.5), _jitter(rng, -0.3), _jitter(rng, 0.5)
    upper = _jitter(rng, 0.3, 0.2)
    return [
        expand_op(models, "parabolic", px, py, 4, (-2, 0)),
        expand_op(models, "logcosh", lx, ly, 4, (-2, 0)),
        expand_op(models, "neg-exponential", nx, 0.0, 1, (0, 1)),
        # probes (under 1% of a pass) so that every layer reports a time
        sample_op(models, "barrier", bx, by, bk, gate.barrier_reference(bx, by)),
        command_op(["brackets", "parabolic", "--plain", "-", "--lower", "-inf",
                    "--upper", _num(upper)],
                   gate.check_gauss_bracket(float(_num(upper)))),
    ]


def oracle_sweep(models, rng):
    """Exact Green samples one k per call: ODE solves and V_S dominate."""
    sx, sy = _jitter(rng, 1.0), _jitter(rng, -0.5)
    lx, ly = _jitter(rng, 1.5), _jitter(rng, 0.8)
    px, py = _jitter(rng, 1.2), _jitter(rng, 1.0)
    bx, by = _jitter(rng, 0.5), _jitter(rng, -0.3)
    gx, gy = _jitter(rng, 0.5), _jitter(rng, -0.5)
    log_grid = np.geomspace(0.005, 1.0, 5)
    ops = [sample_op(models, "sqrtwell", sx, sy, k) for k in _k_grid(rng, SQRTWELL_K)]
    # logstep gets the most points so the median sample lies inside one model
    ops += [sample_op(models, "logstep", lx, ly, k, gate.logstep_reference(lx, ly))
            for k in _k_grid(rng, LOGSTEP_K)]
    ops += [sample_op(models, "parabolic", px, py, k) for k in _k_grid(rng, log_grid)]
    ops += [sample_op(models, "barrier", bx, by, k, gate.barrier_reference(bx, by))
            for k in _k_grid(rng, log_grid)]
    barrier = models["barrier"]
    # probes (under 1% of a pass) so that every layer reports a time
    ops.append(Op("expand", f"generic_expansion barrier N=2 x={gx:.4f} y={gy:.4f}",
                  lambda: lowkgreen.generic_expansion(barrier, gx, gy, 2),
                  gate.check_generic, render_expansion))
    ops.append(command_op(
        ["oracle", "barrier", "--a", "1", "--x", _num(bx), "--y", _num(by),
         "--k-start", "0.1", "--k-stop", "0.9", "--k-count", "2"],
        gate.check_oracle_table(gate.barrier_reference(float(_num(bx)),
                                                       float(_num(by))))))
    return ops


def user_session(models, rng):
    """The README's command lines, run in-process one after another."""
    d = {key: _num(_jitter(rng, c)) for key, c in (
        ("fx", 1.2), ("fy", 0.3), ("ex", 0.5), ("ey", -0.3), ("sx", 1.0),
        ("sy", -0.5), ("px", 1.2), ("py", 1.0), ("bx", 0.5), ("by", -0.5),
        ("cx", 0.5), ("cy", 0.0), ("lx", 1.5), ("ly", 0.8))}
    expand = gate.check_expand_command
    return [
        command_op(["expand", "free", "--x", d["fx"], "--y", d["fy"], "--order", "2"],
                   expand),
        command_op(["expand", "exponential", "--x", d["ex"], "--y", d["ey"],
                    "--order", "1"], expand),
        command_op(["expand", "sqrtwell", "--x", d["sx"], "--y", d["sy"],
                    "--order", "2"], expand),
        command_op(["expand", "parabolic", "--x", d["px"], "--y", d["py"],
                    "--order", "2", "--show-terms"], expand),
        command_op(["expand", "barrier", "--a", "1", "--x", d["bx"], "--y", d["by"],
                    "--generic", "--order", "1"], expand),
        # the same (model, x, y, N) expansion as the parabolic expand above
        command_op(["compare", "parabolic", "--x", d["px"], "--y", d["py"],
                    "--order", "2", "--k-start", "0.05", "--k-stop", "1.2",
                    "--k-count", "40"], gate.check_exit_code),
        # order 1: exponential at order 2 spends ~21 s in one bracket
        command_op(["compare", "exponential", "--x", d["cx"], "--y", d["cy"],
                    "--order", "1", "--k-start", "0.1", "--k-stop", "0.5",
                    "--k-count", "20", "--log-form"], gate.check_exit_code),
        command_op(["scaling", "logstep", "--alpha", "1.5", "--order", "0",
                    "--x", d["lx"], "--y", d["ly"], "--k-start", "0.001",
                    "--k-stop", "0.1", "--k-count", "9"], gate.check_scaling),
        command_op(["brackets", "parabolic", "--plain", "-", "--lower", "-inf",
                    "--upper", "inf"], gate.check_gauss_bracket(math.inf)),
    ]


_BUILDERS = {"expand_deep": expand_deep, "oracle_sweep": oracle_sweep,
             "user_session": user_session}


def pass_ops(workload, models, seed, index):
    """The operations of pass ``index`` of a run with this seed."""
    return _BUILDERS[workload](models, np.random.default_rng([seed, index]))
