"""Command-line front end: expansions, comparisons, brackets, scaling fits.

Structured results are emitted as JSON, per-k tables as CSV with a comment
line carrying the resolved case and validity.  All numeric output uses 17
significant digits so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import assembler, oracle
from .brackets import BracketKind, BracketSpec, QuadratureConfig, build_chain, chain_value
from .coeffgen import term_table
from .errors import LowkGreenError, NumericalError, UsageError
from .potential import catalog, catalog_names, classification, max_valid_order

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def fmt(v) -> str:
    return "%.17g" % float(v)


def _k_grid(args):
    if args.k_count < 1:
        raise UsageError("k grid needs at least one point")
    for flag, value in (("--k-start", args.k_start), ("--k-stop", args.k_stop)):
        if not math.isfinite(value):
            raise UsageError(f"wavenumbers must be finite ({flag} {value})")
    if args.k_start <= 0 or args.k_stop <= 0:
        raise UsageError("k grid must be positive")
    if args.k_count == 1:
        return np.array([args.k_start])
    if args.k_spacing == "log":
        return np.geomspace(args.k_start, args.k_stop, args.k_count)
    return np.linspace(args.k_start, args.k_stop, args.k_count)


def _model(args):
    name = args.potential
    params = {}
    if name == "logstep":
        params["alpha"] = args.alpha
    if name == "barrier":
        params["a"] = args.a
    return catalog(name, **params)


def _quad_cfg(args) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                            truncation_tail_tol=args.tail_tol)


def _solver_cfg(args) -> oracle.SolverConfig:
    return oracle.SolverConfig(ode_rel_tol=args.ode_tol)


def _case_comment(model, result=None):
    try:
        case, _ = classification(model)
        tag = case.value
        validity = max_valid_order(model)
        validity = "unbounded" if validity == math.inf else str(validity)
    except LowkGreenError:
        tag, validity = "generic", "see-route"
    if result is not None:
        tag = result.case_tag.value
    return f"# model={model.id} case={tag} validity={validity}"


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_structured(args, payload, comment=None):
    """Structured results default to JSON; --format csv flattens them."""
    if (args.format or "json") == "json":
        _emit(args, json.dumps(payload, indent=2, default=str) + "\n")
        return
    buf = io.StringIO()
    if comment:
        buf.write(comment + "\n")
    buf.write("key,value\n")

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for kk, vv in obj.items():
                flatten(f"{prefix}.{kk}" if prefix else str(kk), vv)
        elif isinstance(obj, (list, tuple)):
            for i, vv in enumerate(obj):
                flatten(f"{prefix}[{i}]", vv)
        else:
            val = fmt(obj) if isinstance(obj, float) else str(obj)
            buf.write(f"{prefix},{val}\n")

    flatten("", payload)
    _emit(args, buf.getvalue())


def _emit_table(args, comment, columns, rows):
    """Tabular results default to CSV; --format json wraps them."""
    if args.format == "json":
        payload = {"comment": comment.lstrip("# "), "columns": columns,
                   "rows": [[fmt(v) for v in row] for row in rows]}
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return
    buf = io.StringIO()
    buf.write(comment + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(fmt(v) for v in row) + "\n")
    _emit(args, buf.getvalue())


def _expansion(args, model, cfg):
    if args.generic or model.vs_defined_only:
        return assembler.generic_expansion(model, args.x, args.y, args.order,
                                           cfg)
    return assembler.green_series(model, args.x, args.y, args.order, cfg)


def cmd_expand(args) -> int:
    model = _model(args)
    cfg = _quad_cfg(args)
    result = _expansion(args, model, cfg)
    payload = result.to_json_dict()
    if args.show_terms:
        top = max(result.diagnostics.get("s_order_used", args.order), 1)
        # term tables start at order 0; the gamma series' order -1 has none
        payload["terms"] = [
            term_table(f, n, s).to_json_dict()
            for f, s in assembler.CASE_FAMILIES[result.case_tag]
            for n in assembler.family_orders(f, top) if n >= 0
        ]
    if not (args.generic or model.vs_defined_only):
        checks = {}
        for which in (-2, -1, 0, 1, 2):
            try:
                cf = assembler.closed_form_g(model, args.x, args.y,
                                             result.case_tag, which, cfg)
            except LowkGreenError:
                continue
            if result.g.min_order <= which <= result.N:
                got = result.g.coeff_or_zero(which).real
                checks[str(which)] = abs(got / cf - 1.0) if cf else abs(got)
        payload["closed_form_residuals"] = checks
    _emit_structured(args, payload, comment=_case_comment(model, result))
    return 0


def _exact_samples(model, x, y, ks, scfg):
    return [s for s, _ in oracle.green_exact_grid(model, x, y, ks, scfg)]


def cmd_compare(args) -> int:
    model = _model(args)
    cfg = _quad_cfg(args)
    result = _expansion(args, model, cfg)
    ks = _k_grid(args)
    exact = _exact_samples(model, args.x, args.y, ks, _solver_cfg(args))
    orders = [n for n in range(result.g.min_order, result.N + 1)
              if result.g.coeff_or_zero(n) != 0 or n == result.N]
    p = assembler.log_form(result) if args.log_form else None

    cols = ["k", "re_exact", "im_exact"]
    for n in orders:
        cols += [f"re_sum_to_{n}", f"im_sum_to_{n}"]
    cols += ["re_logform", "im_logform"] if p is not None else []
    cols += ["abs_residual"]
    rows = []
    for k, sample in zip(ks, exact):
        g, k_used = sample.value, sample.k
        row = [k, g.real, g.imag]
        for n in orders:
            s = result.truncated_sum(k_used, n)
            row += [s.real, s.imag]
        if p is not None:
            ik = 1j * k_used
            lead = result.g.coeff(result.g.val) * ik ** result.g.val
            expo = sum(pm * ik ** (m + 1) for m, pm in enumerate(p))
            lf = lead * np.exp(expo)
            row += [lf.real, lf.imag]
        row += [abs(g - result.truncated_sum(k_used))]
        rows.append(row)
    _emit_table(args, _case_comment(model, result), cols, rows)
    return 0


def cmd_brackets(args) -> int:
    model = _model(args)
    cfg = _quad_cfg(args)
    picked = [(k, s) for k, s in
              (("plain", args.plain), ("angle_left", args.angle_left),
               ("angle_right", args.angle_right)) if s]
    if len(picked) != 1:
        raise UsageError("give exactly one of --plain/--angle-left/--angle-right")
    kind_name, signs_str = picked[0]
    if signs_str.startswith("signs:"):
        signs_str = signs_str[len("signs:"):]
    try:
        signs = tuple(1 if c == "+" else -1 if c == "-" else None
                      for c in signs_str)
    except Exception:
        signs = (None,)
    if any(s is None for s in signs):
        raise UsageError(f"bad sign string {signs_str!r} (use only + and -)")
    kind = BracketKind(kind_name)
    lower = -math.inf if args.lower in ("-inf", "-INF") else float(args.lower)
    upper = math.inf if args.upper in ("inf", "+inf", "INF") else float(args.upper)
    spec = BracketSpec(kind, signs, lower, upper)
    chain = build_chain(spec, model, cfg)
    value = chain_value(spec, chain)
    payload = {"model": model.id, "kind": kind_name, "signs": signs_str,
               "lower": args.lower, "upper": args.upper,
               "value": value,
               "error_estimate": abs(value) * chain.fit_residual + cfg.abs_tol,
               "rel_tol": cfg.rel_tol}
    _emit_structured(args, payload)
    return 0


def cmd_scaling(args) -> int:
    model = _model(args)
    ks = _k_grid(args)
    if args.k_spacing != "log":
        raise UsageError("scaling fits require a log-spaced k grid")
    slope = oracle.remainder_scaling_fit(model, args.x, args.y, args.order,
                                         ks, _solver_cfg(args), _quad_cfg(args))
    expected = None
    if model.id == "logstep":
        alpha = model.params["alpha"]
        if args.order + 1 < alpha < args.order + 2:
            expected = alpha - 1.0
    payload = {"model": model.id, "order": args.order,
               "k_start": args.k_start, "k_stop": args.k_stop,
               "slope": slope}
    if expected is not None:
        payload["expected_slope"] = expected
        payload["consistent"] = bool(abs(slope - expected) < 0.15)
    _emit_structured(args, payload)
    return 0


def cmd_oracle(args) -> int:
    model = _model(args)
    ks = _k_grid(args)
    samples = _exact_samples(model, args.x, args.y, ks, _solver_cfg(args))
    rows = [[k, s.value.real, s.value.imag] for k, s in zip(ks, samples)]
    _emit_table(args, _case_comment(model), ["k", "re_exact", "im_exact"], rows)
    return 0


def _add_common(p):
    p.add_argument("potential", choices=catalog_names())
    p.add_argument("--alpha", type=float, default=1.5,
                   help="logstep growth parameter")
    p.add_argument("--a", type=float, default=1.0, help="barrier height sqrt")
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--y", type=float, default=-0.5)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=1e-14)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-14)
    p.add_argument("--ode-tol", dest="ode_tol", type=float, default=1e-10)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--config", default=None,
                   help="JSON file supplying any flag; flags override it")


def _add_k_grid(p):
    p.add_argument("--k-start", dest="k_start", type=float, default=0.05)
    p.add_argument("--k-stop", dest="k_stop", type=float, default=1.0)
    p.add_argument("--k-count", dest="k_count", type=int, default=20)
    p.add_argument("--k-spacing", dest="k_spacing",
                   choices=("linear", "log"), default="linear")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lowkgreen",
        description="Small-wavenumber Green function expansions for 1D "
                    "Schrodinger / Fokker-Planck potentials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expansion coefficients at one (x, y)")
    _add_common(p)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--generic", action="store_true",
                   help="use the vanishing-potential route")
    p.add_argument("--show-terms", dest="show_terms", action="store_true")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("compare", help="exact vs truncated sums over a k grid")
    _add_common(p)
    _add_k_grid(p)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--generic", action="store_true")
    p.add_argument("--log-form", dest="log_form", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("brackets", help="evaluate one ordered integral")
    _add_common(p)
    p.add_argument("--plain", default=None)
    p.add_argument("--angle-left", dest="angle_left", default=None)
    p.add_argument("--angle-right", dest="angle_right", default=None)
    p.add_argument("--lower", default="-inf")
    p.add_argument("--upper", default="inf")
    p.set_defaults(fn=cmd_brackets)

    p = sub.add_parser("scaling", help="truncation-error scaling fit")
    _add_common(p)
    _add_k_grid(p)
    p.add_argument("--order", type=int, default=0)
    p.set_defaults(fn=cmd_scaling, k_spacing="log")

    p = sub.add_parser("oracle", help="raw exact Green samples over a k grid")
    _add_common(p)
    _add_k_grid(p)
    p.set_defaults(fn=cmd_oracle)
    return ap


def _apply_config_defaults(ap, argv):
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    subparsers = ap._subparsers._group_actions[0].choices.values()
    dests = {action.dest for sp in subparsers for action in sp._actions}
    unknown = [k for k in data if k.replace("-", "_") not in dests]
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    for sp in subparsers:
        sp.set_defaults(**{k.replace("-", "_"): v for k, v in data.items()})


SIGN_FLAGS = ("--plain", "--angle-left", "--angle-right")


def _value_flags(ap):
    """The option strings of every subcommand's options that take a value."""
    return {flag for sp in ap._subparsers._group_actions[0].choices.values()
            for action in sp._actions if action.nargs != 0
            for flag in action.option_strings}


def _merge_negative_values(argv, value_flags):
    """Let bare negative numbers, -inf and minus-leading sign strings follow
    their value flags (argparse would read them as options otherwise)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in SIGN_FLAGS and i + 1 < len(argv):
            # shield sign strings like "--" from option parsing entirely
            out.append(f"{tok}=signs:{argv[i + 1]}")
            i += 2
            continue
        if tok in value_flags and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    argv = _merge_negative_values(list(argv), _value_flags(ap))
    try:
        _apply_config_defaults(ap, argv)
        args = ap.parse_args(argv)
        if args.rel_tol is None:
            env = os.environ.get("LOWK_GREEN_TOL")
            try:
                args.rel_tol = float(env) if env else 1e-10
            except ValueError:
                raise UsageError(f"LOWK_GREEN_TOL={env!r} is not a number") from None
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LowkGreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
