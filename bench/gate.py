"""Correctness checks on benchmark outputs.

Each check returns a list of failure descriptions (empty when the output is
correct).  The references do not depend on how the library computes its
results: printed closed forms evaluated as direct brackets, the parabolic
s_1 in closed form, the barrier and log-step Green functions in closed form,
the Gaussian integral, and the constancy of the Wronskian.
"""

from __future__ import annotations

import json
import math

import lowkgreen
from lowkgreen import green_closed_ex5, green_closed_ex6

#: relative tolerance of a coefficient or sample against its reference
REL_TOL = 1e-6
#: bound on the relative Wronskian variation across the check points; the
#: worst case in the workloads is log-step at k = 0.005 (about 1.3e-7)
WRONSKIAN_MAX = 1e-6
#: tolerance of the parabolic s_1 and the Gaussian integral
EXACT_TOL = 1e-8


def _rel(got, want):
    return abs(got / want - 1.0) if want != 0 else abs(got)


def check_expansion(model, res, orders):
    """Printed closed forms at ``orders``; for the parabolic model also
    s_1(z) = sqrt(pi)/2 * exp(z^2) at both positions."""
    bad = []
    for n in orders:
        want = lowkgreen.closed_form_g(model, res.x, res.y, res.case_tag, n)
        r = _rel(res.g.coeff(n).real, want)
        if not r <= REL_TOL:
            bad.append(f"g_{n} closed-form residual {r:.3e}")
    if model.id == "parabolic":
        for z, s in ((max(res.x, res.y), res.s_x), (min(res.x, res.y), res.s_y)):
            r = _rel(s.coeff(1).real, 0.5 * math.sqrt(math.pi) * math.exp(z * z))
            if not r <= EXACT_TOL:
                bad.append(f"s_1({z:g}) residual {r:.3e}")
    return bad


def check_generic(res):
    """Vanishing-potential route: the printed order-0/1 forms in terms of
    the zero-energy solutions."""
    bad = []
    for key in ("g0_closed_residual", "g1_closed_residual"):
        r = res.diagnostics.get(key)
        if r is None or not r <= REL_TOL:
            bad.append(f"{key} {r}")
    return bad


def barrier_reference(x, y):
    return lambda k: green_closed_ex6(x, y, k, 1.0)


def logstep_reference(x, y):
    return lambda k: green_closed_ex5(x, y, k, 1.5)


def check_sample(out, reference=None):
    sample, diag = out
    bad = []
    var = diag["wronskian_variation"]
    if not var <= WRONSKIAN_MAX:
        bad.append(f"Wronskian variation {var:.3e}")
    if reference is not None:
        r = _rel(sample.value, reference(sample.k))
        if not r <= REL_TOL:
            bad.append(f"closed-form residual {r:.3e}")
    return bad


# -- command outputs -------------------------------------------------------------


def check_exit_code(out):
    rc, text = out
    return [] if rc == 0 else [f"exit code {rc}: {text[-200:]}"]


def _payload(out):
    """The JSON object a structured command printed."""
    return json.loads(out[1])


def check_expand_command(out):
    bad = check_exit_code(out)
    if bad:
        return bad
    payload = _payload(out)
    residuals = payload.get("closed_form_residuals")
    if residuals is None:  # vanishing-potential route
        residuals = {k: v for k, v in payload["diagnostics"].items()
                     if k.endswith("_closed_residual")}
    if not residuals:
        return ["no closed-form residuals reported"]
    return [f"residual {k} = {v}" for k, v in residuals.items()
            if not v <= REL_TOL]


def check_scaling(out):
    bad = check_exit_code(out)
    if not bad and _payload(out).get("consistent") is not True:
        bad.append(f"scaling slope inconsistent: {out[1]}")
    return bad


def check_gauss_bracket(upper):
    """``brackets parabolic --plain -`` from -inf to ``upper`` is
    sqrt(pi)/2 * (1 + erf(upper))."""
    want = 0.5 * math.sqrt(math.pi) * (1.0 + math.erf(upper))

    def check(out):
        bad = check_exit_code(out)
        if not bad:
            r = _rel(_payload(out)["value"], want)
            if not r <= EXACT_TOL:
                bad.append(f"bracket residual {r:.3e}")
        return bad
    return check


def check_oracle_table(reference):
    """``oracle`` CSV rows (k, re, im) against a closed form at k + i*eps
    (the solver's default epsilon)."""
    eps = lowkgreen.SolverConfig().epsilon_imag

    def check(out):
        bad = check_exit_code(out)
        if bad:
            return bad
        rows = [line.split(",") for line in out[1].splitlines()[2:]]
        for k, re_, im in rows:
            want = reference(complex(float(k), eps))
            r = _rel(complex(float(re_), float(im)), want)
            if not r <= REL_TOL:
                bad.append(f"oracle row k={k} residual {r:.3e}")
        return bad or ([] if rows else ["empty oracle table"])
    return check


def check_ops(ops, outputs):
    """Number of failed operations (raised, or any check failed) and the
    descriptions of the failures."""
    failed, failures = 0, []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            msgs = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                msgs = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure
                msgs = [f"check raised {type(exc).__name__}: {exc}"]
        failed += bool(msgs)
        failures += [f"{op.label}: {msg}" for msg in msgs]
    return failed, failures
