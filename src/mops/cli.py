"""Command-line front end.

One command per process; everything is deterministic (no randomness
anywhere in the library).  Exit codes: 0 success, 2 domain or syntax
errors, 3 poles and convergence failures.  Output goes to stdout,
diagnostics to stderr.
"""

import argparse
import json
import sys

from . import binom, expect, hypergeom, jack, orthopoly, partitions, symfun
from .errors import ConvergenceError, DomainError, MopsError, PoleError
from .parser import parse_expression, parse_scalar
from .rational import R as R_PARAM
from .rational import read_int, read_real, rf, to_float
from .symfun import GENERIC


def _option(read):
    """argparse type of a numeric option read by ``read``; a refusal exits 2."""

    def parse(text):
        try:
            return read(text, "the value")
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_integer, _real = _option(read_int), _option(read_real)


def _parse_vars(text):
    """argparse type of --vars: 'generic' or 'n' is GENERIC, else an integer."""
    if text in ("generic", "n"):
        return GENERIC
    try:
        return read_int(text, "--vars")
    except DomainError:
        raise argparse.ArgumentTypeError("expects an integer, 'generic' or 'n', got %r" % text) from None


def _parse_point(text):
    try:
        return [read_real(x, "a coordinate") for x in text.split(",") if x.strip() != ""]
    except DomainError:
        raise DomainError("a point is comma-separated numbers, got %r" % text) from None


def _parse_grid(text):
    try:
        start, stop, count = (text or "").split(":")
        start, stop, count = read_real(start, "start"), read_real(stop, "stop"), read_int(count, "the grid count")
    except (ValueError, DomainError):
        raise DomainError("--grid expects start:stop:count, decimal ends and an integer count, got %r" % text) from None
    if count < 2:
        raise DomainError("grid needs at least 2 points")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _emit_symexpr(e, fmt):
    if fmt == "json":
        print(json.dumps(e.to_json(), sort_keys=True))
    else:
        print(e.text())


def _emit_scalar(value, fmt):
    value = rf(value)
    if fmt == "json":
        print(json.dumps(value.to_json(), sort_keys=True))
    else:
        print(value.text())


def _emit_csv(xs, ys):
    print("x,density")
    for x, y in zip(xs, ys):
        print("%.17g,%.17g" % (x, y))


def cmd_jack(args):
    alpha = parse_scalar(args.alpha)
    kappa = partitions.deserialize(args.partition)
    nvars = args.vars
    e = jack.jack_expand(alpha, kappa, args.norm, nvars)
    if args.at is not None:
        value = symfun.eval_numeric(e, _parse_point(args.at))
        print(float(value))
        return
    _emit_symexpr(e, args.format)


def cmd_ortho(args):
    alpha = parse_scalar(args.alpha)
    kappa = partitions.deserialize(args.partition)
    nvars = args.vars
    if args.family == "hermite":
        e = orthopoly.hermite(alpha, kappa, nvars)
    elif args.family == "hermite2":
        e = orthopoly.hermite2(alpha, kappa, nvars)
    elif args.family == "laguerre":
        e = orthopoly.laguerre(alpha, kappa, parse_scalar(args.g), nvars)
    else:
        e = orthopoly.jacobi(
            alpha, kappa, parse_scalar(args.g1), parse_scalar(args.g2), nvars
        )
    _emit_symexpr(e, args.format)


def cmd_gbinomial(args):
    alpha = parse_scalar(args.alpha)
    value = binom.gbinomial(
        alpha, partitions.deserialize(args.kappa), partitions.deserialize(args.sigma)
    )
    _emit_scalar(value, args.format)


def cmd_gsfact(args):
    alpha = parse_scalar(args.alpha)
    value = binom.gsfact(alpha, parse_scalar(args.r), partitions.deserialize(args.partition))
    _emit_scalar(value, args.format)


def cmd_hypergeom(args):
    alpha = parse_scalar(args.alpha)
    upper = [parse_scalar(t) for t in args.upper.split(",") if t.strip()] if args.upper else []
    lower = [parse_scalar(t) for t in args.lower.split(",") if t.strip()] if args.lower else []
    if args.xid:
        xtext, _, m = args.xid.rpartition(":")
        try:
            m = read_int(m, "m")
        except DomainError:
            raise DomainError("--xid expects x:m with an integer m, got %r" % args.xid) from None
        # "x" is accepted as a spelling of the formal series variable
        x = R_PARAM if xtext.strip() == "x" else parse_scalar(xtext)
        arg = ("xid", x, m)
    elif args.x:
        arg = ("vec", _parse_point(args.x))
    else:
        raise DomainError("give --xid x:m or --x x1,x2,...")
    value = hypergeom.ghypergeom(alpha, upper, lower, arg, limit=args.limit, tol=args.tol)
    if args.xid:
        _emit_scalar(value, args.format)
    else:
        # every --x coordinate is a float; an empty point's exact 1 is printed as one too
        print(float(value))


def cmd_convert(args):
    alpha = parse_scalar(args.alpha) if args.alpha else None
    nvars = args.vars
    tree = parse_expression(args.expr)
    what = args.what
    if what == "m2m":
        out = symfun.m2m(tree, nvars)
    elif what == "m2p":
        if nvars is not GENERIC:
            raise DomainError("m2p works for a generic variable count; --vars must be generic or n")
        out = symfun.m2p(tree)
    elif what == "p2m":
        out = symfun.p2m(tree, nvars)
    elif what == "m2jack":
        out = symfun.m2jack(alpha, tree, nvars)
    elif what == "jack2jack":
        out = symfun.jack2jack(alpha, tree, nvars)
    else:
        raise DomainError("unknown conversion %r" % what)
    _emit_symexpr(out, args.format)


def cmd_expect(args):
    alpha = parse_scalar(args.alpha)
    nvars = args.vars
    # every exponent given goes in, for EnsembleSpec to name one missing
    # or one the ensemble does not take
    kwargs = {name: parse_scalar(getattr(args, name)) for name in ("g", "g1", "g2") if getattr(args, name) is not None}
    spec = expect.EnsembleSpec(args.ensemble, alpha, nvars, **kwargs)
    tree = parse_expression(args.expr)
    if args.basis == "monomial":
        value = expect.expect_monomial_expr(spec, tree)
    else:
        value = expect.expect_jack_expr(spec, tree)
    _emit_scalar(value, args.format)


def cmd_eval(args):
    alpha = parse_scalar(args.alpha) if args.alpha else None
    xs = _parse_point(args.at)
    tree = parse_expression(args.expr)
    mono = symfun.expand_to_monomials(alpha, tree, len(xs))
    value = symfun.eval_numeric(mono, xs)
    print(float(value))


# per curve: the density options it reads, and those of them it needs
_DENSITY_OPTIONS = {
    "smallest": (("alpha", "p", "m", "grid"), ("p", "m", "grid")),
    "level": (("beta", "n", "grid", "scaled"), ("beta", "n", "grid")),
    "largest-cdf": (("alpha", "g", "m", "x", "grid", "tol"), ("g", "m")),
}


def cmd_density(args):
    reads, needs = _DENSITY_OPTIONS[args.which]
    given = [name for name in ("alpha", "p", "m", "beta", "n", "g", "x", "grid", "scaled", "tol")
             if getattr(args, name) is not None]
    foreign = ["--" + name for name in given if name not in reads]
    if foreign:
        raise DomainError("density %s does not take %s" % (args.which, ", ".join(foreign)))
    missing = ["--" + name for name in needs if name not in given]
    if missing:
        raise DomainError("density %s needs %s" % (args.which, " and ".join(missing)))
    alpha = parse_scalar(args.alpha) if args.alpha else None
    if args.which == "smallest":
        xs = _parse_grid(args.grid)
        values, mass = hypergeom.smallest_eig_density_normalized(alpha, args.p, args.m, xs)
        if mass < sys.float_info.max:
            text = "%.17g" % to_float(mass)
        else:  # 17 digits of an exact mass past the float range; decimal loads only here
            from decimal import Decimal

            text = format(Decimal(mass.numerator) / mass.denominator, ".17g")
        print("# normalizing mass " + text, file=sys.stderr)
        _emit_csv(xs, values)
    elif args.which == "level":
        xs = _parse_grid(args.grid)
        density = hypergeom.level_density_scaled if args.scaled else hypergeom.level_density
        values = [density(args.beta, args.n, x) for x in xs]
        _emit_csv(xs, values)
    else:  # largest-cdf
        xs = _parse_grid(args.grid) if args.grid else _parse_point(args.x or "")
        if not args.grid and len(xs) != 1:
            raise DomainError("density largest-cdf needs one number --x or a --grid")
        gamma = parse_scalar(args.g)
        tol = 1e-10 if args.tol is None else args.tol
        values = [hypergeom.largest_eig_cdf(alpha, gamma, args.m, x, tol=tol) for x in xs]
        if len(xs) == 1 and not args.grid:
            print(values[0])
        else:
            _emit_csv(xs, values)


def _load_config(path):
    """Settings of a key=value file; default_limit is the only key."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise DomainError("cannot read config file %s: %s" % (path, exc.strerror))
    settings = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise DomainError("config lines must be key=value: %r" % line)
        if key != "default_limit":
            raise DomainError("unknown config key %r; the only key is default_limit" % key)
        settings[key] = read_int(value, "default_limit")
    return settings


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mops",
        description="Jack polynomials, multivariate orthogonal polynomials, "
        "hypergeometric functions of matrix argument, and beta-ensemble "
        "eigenvalue statistics, computed exactly.",
    )
    ap.add_argument(
        "--config",
        help="key=value file; default_limit=N sets the series limit when --limit is absent",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fmt = {"choices": ("text", "json"), "default": "text"}
    nvars = {"default": "generic", "type": _parse_vars, "help": "number of variables, or generic / n"}

    p = sub.add_parser("jack", help="Jack polynomial in the monomial basis")
    p.add_argument("--alpha", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--norm", choices=("C", "J", "P"), default="C")
    p.add_argument("--vars", **nvars)
    p.add_argument("--at", help="evaluate at x1,x2,... instead of printing")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_jack)

    for family in ("hermite", "hermite2", "laguerre", "jacobi"):
        p = sub.add_parser(family, help="%s polynomial in the Jack C basis" % family)
        p.add_argument("--alpha", required=True)
        p.add_argument("--partition", required=True)
        p.add_argument("--vars", **nvars)
        if family == "laguerre":
            p.add_argument("--g", required=True)
        if family == "jacobi":
            p.add_argument("--g1", required=True)
            p.add_argument("--g2", required=True)
        p.add_argument("--format", **fmt)
        p.set_defaults(func=cmd_ortho, family=family)

    p = sub.add_parser("gbinomial", help="generalized binomial coefficient")
    p.add_argument("--alpha", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_gbinomial)

    p = sub.add_parser("gsfact", help="generalized shifted factorial")
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_gsfact)

    p = sub.add_parser("hypergeom", help="hypergeometric function pFq")
    p.add_argument("--alpha", required=True)
    p.add_argument("--upper", default="")
    p.add_argument("--lower", default="")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--xid", help="scalar-identity argument x:m")
    point.add_argument("--x", help="numeric point x1,x2,...")
    p.add_argument("--limit", type=_integer)
    p.add_argument("--tol", type=_real)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_hypergeom)

    p = sub.add_parser("convert", help="basis conversions")
    p.add_argument("--what", required=True, choices=("m2m", "m2p", "p2m", "m2jack", "jack2jack"))
    p.add_argument("--alpha")
    p.add_argument("--expr", required=True)
    p.add_argument("--vars", **nvars)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("expect", help="ensemble expectation of an expression")
    p.add_argument("--ensemble", required=True, choices=("hermite", "laguerre", "jacobi"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--g")
    p.add_argument("--g1")
    p.add_argument("--g2")
    p.add_argument("--vars", **nvars)
    p.add_argument("--expr", required=True)
    p.add_argument("--basis", choices=("jack", "monomial"), default="jack")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("eval", help="numeric value of an expression at a point")
    p.add_argument("--alpha")
    p.add_argument("--expr", required=True)
    p.add_argument("--at", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="eigenvalue-statistics curves (CSV)")
    p.add_argument("which", choices=("smallest", "level", "largest-cdf"))
    p.add_argument("--alpha")
    p.add_argument("--p", type=_integer)
    p.add_argument("--m", type=_integer)
    p.add_argument("--beta", type=_integer)
    p.add_argument("--n", type=_integer)
    p.add_argument("--g")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--x")
    point.add_argument("--grid")
    p.add_argument("--scaled", action="store_true", default=None)
    p.add_argument("--tol", type=_real)
    p.set_defaults(func=cmd_density)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            settings = _load_config(args.config)
            if hasattr(args, "limit") and args.limit is None:
                args.limit = settings.get("default_limit")
        args.func(args)
    except (PoleError, ConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except MopsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
