"""Command-line surface.

Exit codes: 0 success (and zero residual for verify), 1 nonzero residual,
2 usage, parse, or configuration error, or a coefficient past the digit
limit of rendering.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import sys

from .jets import FieldExpr, complex_system, mi_zero
from .kernels import MixedKernelError
from .parser import ParseError, parse_expr
from .poisson import ConditionBViolation, bracket_fn
from .render import (
    DigitLimitError,
    dumps_canonical,
    render_field_expr,
    render_tensor_expr,
    to_json,
)
from .session import ConfigError, SessionConfig, load_config_file
from .star import equation_of_motion, star_fn
from .euler_lagrange import variational_derivative


def _session(args) -> SessionConfig:
    cfg = load_config_file(args.config) if args.config else SessionConfig()
    changes = {}
    dim = getattr(args, "dim", None)
    if dim is not None:
        if dim < 1:
            raise ConfigError("session dimension must be >= 1")
        # keep the declared fields, at the new dimension
        changes["system"] = dataclasses.replace(cfg.system, dim=dim)
    for option, name in (("kernel", "kernel_text"), ("order", "order"),
                         ("seed", "seed")):
        value = getattr(args, option, None)
        if value is not None:
            changes[name] = value
    return dataclasses.replace(cfg, **changes)


def _emit(value, args) -> None:
    """Print a FieldExpr or a TensorExpr, as text or canonical JSON."""
    if args.json:
        print(dumps_canonical(to_json(value)))
    elif isinstance(value, FieldExpr):
        print(render_field_expr(value))
    else:
        print(render_tensor_expr(value))


def _check_field(cfg: SessionConfig, name: str) -> None:
    """Refuse a --field that the session's system does not declare."""
    if name not in cfg.system.sort_names():
        raise ConfigError(f"unknown field {name!r}")


def cmd_bracket(args) -> int:
    cfg = _session(args)
    f = parse_expr(args.f, cfg)
    g = parse_expr(args.g, cfg)
    result = bracket_fn(f, g, cfg.kernel(), cfg.system)
    _emit(result, args)
    return 0


def cmd_star(args) -> int:
    cfg = _session(args)
    f = parse_expr(args.f, cfg)
    g = parse_expr(args.g, cfg)
    series = star_fn(f, g, cfg.kernel(), cfg.system, order=cfg.order)
    if args.json:
        print(dumps_canonical(to_json(series)))
    else:
        # every line is rendered before the first is printed, so a
        # coefficient past the digit limit prints nothing to stdout
        lines = [f"hbar^{k}: {render_tensor_expr(series.coefficient(k))}"
                 for k in sorted(series.terms)]
        if not series.exact:
            lines.append(f"(truncated at order {series.order})")
        for line in lines:
            print(line)
    return 0


def cmd_eom(args) -> int:
    cfg = _session(args)
    H = cfg.hamiltonian()
    _check_field(cfg, args.field)
    field = FieldExpr.jet(args.field, mi_zero(cfg.dim), cfg.dim)
    result = equation_of_motion(H, field, cfg.kernel(), cfg.system)
    _emit(result, args)
    return 0


def cmd_vardiff(args) -> int:
    cfg = _session(args)
    f = parse_expr(args.density, cfg)
    _check_field(cfg, args.field)
    _emit(variational_derivative(f, args.field), args)
    return 0


def cmd_classify(args) -> int:
    cfg = _session(args)
    print(cfg.kernel().classify())
    return 0


def cmd_verify(args) -> int:
    from . import verify as V

    trials = args.trials
    if trials < 1:
        # a suite run that checks nothing must not report PASS
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    cfg = _session(args)
    rng = random.Random(cfg.seed)
    system = complex_system(cfg.dim) if args.pairing == "complex" \
        else cfg.system
    # the config's or --kernel's kernel, else the two defaults
    kernels = V.default_kernels(cfg.dim) if cfg.kernel_text is None \
        else [cfg.kernel()]
    # the suites run once per kernel, each with its share of --trials
    per_kernel = {"jacobi": (V.verify_jacobi, 1), "assoc": (V.verify_assoc, 5),
                  "semiclassical": (V.verify_semiclassical, 1),
                  "closed-forms": (V.verify_closed_forms, 4)}
    suite = args.suite
    if suite in per_kernel:
        run, share = per_kernel[suite]
        reports = [run(system, P, max(1, trials // share), rng)
                   for P in kernels]
    elif suite == "duality":
        reports = [V.verify_duality(system, trials, rng)]
    elif suite == "complex-equiv":
        reports = [V.verify_complex_equiv(cfg.dim, trials, rng)]
    else:  # peierls; argparse's choices admit no other suite
        reports = [V.verify_peierls(drift_tol=max(cfg.tolerance, 1e-10))]
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.ok
    return 0 if ok else 1


# The largest --modes of peierls eval: green_eval allocates arrays of
# 2M+1 modes, and the command prints one line per mode.
MAX_MODES = 10_000


def cmd_peierls_eval(args) -> int:
    for bad, message in (
            (args.modes < 0, "--modes must be >= 0"),
            (args.modes > MAX_MODES, f"--modes must be <= {MAX_MODES}"),
            (not math.isfinite(args.mass), "--mass must be finite"),
            (not math.isfinite(args.time), "--time must be finite")):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 2
    import numpy as np
    from .peierls import green_eval

    try:  # a huge finite mass or time overflows the modes
        with np.errstate(over="raise", invalid="raise"):
            field = green_eval(args.mass, args.time, args.modes)
    except (OverflowError, FloatingPointError):
        print("error: --mass or --time overflows the modes", file=sys.stderr)
        return 2
    if args.json:
        data = {"kind": "spectral", "cutoff": args.modes,
                "data": [[int(k), field.mode(int(k)).real]
                         for k in field.wavenumbers()]}
        print(dumps_canonical(data))
    else:
        for k in field.wavenumbers():
            print(f"{int(k):+d}: {field.mode(int(k)).real:.15g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fieldstar",
        description="Exact symbolic brackets and star products of scalar fields")
    sub = top.add_subparsers(dest="command", required=True)

    # each command takes only the session flags it reads
    def common(p, kernel=True, seed=False, order=False, json=True):
        p.add_argument("--config", help="session config (canonical JSON)")
        p.add_argument("--dim", type=int, help="session dimension")
        if kernel:
            p.add_argument("--kernel", help="kernel text, e.g. 'i*delta'")
        if seed:
            p.add_argument("--seed", type=int, help="random seed")
        if json:
            p.add_argument("--json", action="store_true",
                           help="emit canonical JSON")
        if order:
            p.add_argument("--order", type=int, help="series truncation order")

    p = sub.add_parser("bracket", help="Poisson bracket of two expressions")
    p.add_argument("f")
    p.add_argument("g")
    common(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("star", help="star product of two expressions")
    p.add_argument("f")
    p.add_argument("g")
    common(p, order=True)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("eom", help="Hamiltonian equation of motion")
    p.add_argument("--field", required=True, help="field sort to evolve")
    common(p)
    p.set_defaults(func=cmd_eom)

    p = sub.add_parser("vardiff", help="variational derivative of a density")
    p.add_argument("density")
    p.add_argument("--field", required=True)
    common(p, kernel=False)
    p.set_defaults(func=cmd_vardiff)

    p = sub.add_parser("classify", help="classify a kernel's parity")
    common(p, json=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a zero-residual verification suite")
    p.add_argument("suite", choices=["jacobi", "assoc", "duality",
                                     "semiclassical", "closed-forms",
                                     "complex-equiv", "peierls"])
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--pairing", choices=["real", "complex"], default="real")
    common(p, seed=True, json=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("peierls", help="Green-function numerics")
    psub = p.add_subparsers(dest="peierls_command", required=True)
    pe = psub.add_parser("eval", help="evaluate Green-function modes")
    pe.add_argument("--mass", type=float, default=0.0)
    pe.add_argument("--time", type=float, default=1.0)
    pe.add_argument("--modes", type=int, default=8)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_peierls_eval)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, ConditionBViolation,
            MixedKernelError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
