"""Command-line front end: standard series, extremal solutions, shadows,
classification tables, the weight-enumerator solve, component characters,
Molien series, fusion rings, lattice theta series and orbifold characters.

`run` is check -> call -> render.  The parser, built once per process and
per SVOA_ORDER value, and one block of checks refuse bad input (exit 64)
and an orbifold over budget (exit 1) before any work; one library call
computes the result; the renderer of its type returns the JSON object and a
callable for the text lines, and one write prints the format asked for, so
--format json builds no text.

Exit codes: 0 success, 1 computation error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache, partial

from . import babymonster, extremal, invariants, lattices, modrep, qseries
from .qseries import GRID, QSeries

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(USAGE_EXIT)


def _rational(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid number %r (use p or p/q)" % text)


def _rank(text) -> Fraction:
    c = _rational(text)
    if (2 * c).denominator != 1:
        raise argparse.ArgumentTypeError("rank %s is not half-integral" % c)
    return c


def _order(text) -> int:
    try:
        order = int(text)
    except ValueError:
        order = 0
    if order < 1:
        raise argparse.ArgumentTypeError(
            "invalid order %r (--order or SVOA_ORDER must be an integer >= 1)" % text)
    return order


def _lattice(text) -> lattices.Lattice:
    try:
        return lattices.lattice_catalog(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _constraints(path):
    """The rows of a --constraints file: a JSON list of [i, j, k, value]
    with integer i, j, k and an integer or "p/q" string value."""
    try:
        with open(path) as fh:
            rows = json.load(fh)
    except OSError as exc:
        raise argparse.ArgumentTypeError("cannot read %s: %s" % (path, exc.strerror))
    except ValueError:
        rows = None
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 4 and type(row[3]) in (int, str)
            and all(type(e) is int for e in row[:3]) for row in rows):
        raise argparse.ArgumentTypeError(
            "%s is not a JSON list of [i, j, k, value] rows with integer i, j, "
            "k and an integer or \"p/q\" value" % path)
    return [(tuple(row[:3]), _rational(row[3])) for row in rows]


@cache
def _build_parser(env_order) -> _Parser:
    """The parser, for the SVOA_ORDER value `env_order` (None when unset)."""
    p = _Parser(prog="svoa", description=__doc__.splitlines()[0])
    # every subcommand accepts the global flags too; SUPPRESS keeps an absent
    # one from overriding the value given before the subcommand
    common = _Parser(add_help=False)
    # argparse runs _order on a string default (SVOA_ORDER) only after the
    # arguments, so --help still works with a bad value
    order = qseries.DEFAULT_TRUNC // GRID
    env_order = env_order or order
    for parser, default in ((p, None), (common, argparse.SUPPRESS)):
        parser.add_argument("--format", choices=("text", "json"),
                            default=default or "text")
        parser.add_argument("--order", type=_order, default=default or env_order,
                            help="truncation order in powers of q (default "
                                 "%d, or SVOA_ORDER)" % order)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=partial(_Parser, parents=[common]))

    s = sub.add_parser("series", help="standard q-expansion from the catalog")
    # `choices` is checked after `type`, so chi-half and chi_half both pass
    s.add_argument("name", type=lambda text: text.replace("-", "_"),
                   choices=qseries.standard_names(), metavar="name",
                   help="one of: %s" % ", ".join(qseries.standard_names()))
    s.add_argument("--rank", type=_rank, default=None)
    s.add_argument("--weight", type=_rational, default=None)

    for cmd, text in (("extremal-voa", "extremal character and normal form"),
                      ("extremal-svoa", "extremal character and normal form"),
                      ("shadow", "cusp-1 expansion of an extremal character")):
        sub.add_parser(cmd, help=text).add_argument("--rank", type=_rank, required=True)

    cl = sub.add_parser("classify", help="existence verdicts over a rank range")
    cl.add_argument("--from", dest="cfrom", type=_rank, required=True)
    cl.add_argument("--to", dest="cto", type=_rank, required=True)
    cl.add_argument("--max", dest="cmax", type=_rank, default=Fraction(56))

    mp = sub.add_parser("monster-poly", help="solve the weight enumerator")
    mp.add_argument("--constraints", type=_constraints, default=None,
                    help="JSON file [[i,j,k,\"value\"], ...] overriding the "
                         "default constraint set")

    bb = sub.add_parser("baby", help="component characters of the rank-47/2 theory")
    bb.add_argument("--sector", type=int, choices=(0, 1, 2), default=None)

    mo = sub.add_parser("molien", help="Molien series of the rank-c matrix group")
    mo.add_argument("--rank", type=_rank, required=True)
    mo.add_argument("--deg", type=int, default=48)

    ve = sub.add_parser("verlinde", help="fusion ring from the rank-c S-matrix")
    ve.add_argument("--rank", type=_rank, required=True)

    th = sub.add_parser("theta", help="lattice theta series")
    th.add_argument("--lattice", type=_lattice, required=True,
                    help="one of: %s" % ", ".join(lattices.lattice_names()))

    ob = sub.add_parser("orbifold", help="involution-orbifold character of a lattice theory")
    ob.add_argument("--lattice", type=_lattice, required=True)

    return p


# -- renderers: each gives a result's JSON object and a callable for its text lines


def _series(x: QSeries):
    return x.to_json(), lambda: [str(x)]


def _solution(sol):
    return ({"rank": str(sol.c), "kind": sol.kind, "k": sol.k,
             "a": [str(x) for x in sol.a], "series": sol.series.to_json(),
             "A": {str(n): str(v) for n, v in sorted(sol.A.items())}},
            lambda: ["rank %s  kind %s  k=%d" % (sol.c, sol.kind, sol.k),
                     "a = [%s]" % ", ".join(str(x) for x in sol.a),
                     "character = %s" % sol.series,
                     "A = {%s}" % ", ".join("%s: %s" % (n, v)
                                            for n, v in sorted(sol.A.items()))])


def _shadow(rep):
    return ({"rank": str(rep.c), "s": rep.s, "B": rep.B.to_json(),
             "first_coeff": str(rep.first_coeff),
             "integral": rep.integral, "nonneg": rep.nonneg},
            lambda: ["rank %s  s=%d  B* = %s  integral=%s  nonneg=%s"
                     % (rep.c, rep.s, rep.first_coeff, rep.integral, rep.nonneg),
                     "B (relative to q^(-c/24)) = %s" % rep.B.shift(int(2 * rep.c))])


def _verdict_line(v) -> str:
    detail = {"exists_known": v.name, "ruled_out": ",".join(sorted(v.arguments)),
              "conditional_L": "L"}.get(v.status, "?")
    head = "  ".join("%s q^%s" % (coef, exp)
                     for exp, coef in (v.shadow.head() if v.shadow is not None else ()))
    return "%-6s | %-13s | %-12s | %s" % (v.c, v.status, detail, head)


def _verdicts(verdicts):
    return ([v.to_json() for v in verdicts],
            lambda: ["rank   | status        | detail       | shadow head", "-" * 72]
            + [_verdict_line(v) for v in verdicts])


def _enumerator(P):
    return P.to_json(), lambda: ["%2d %2d %2d  %s" % (*ijk, P.terms[ijk])
                                 for ijk in sorted(P.terms)]


def _sectors(chars):
    return ({str(l): x.to_json() for l, x in chars.items()},
            lambda: ["sector %d: %s" % (l, x) for l, x in chars.items()])


def _molien(order, rho):
    return ({"order": order, "series": rho.to_json()},
            lambda: ["group order %d" % order, "molien = %s" % " + ".join(
                "%s t^%d" % (c, n // GRID) for n, c in rho.coeffs.items())])


def _fusion(F):
    return ({"n": F.n, "N": [[list(r) for r in Ni] for Ni in F.N]},
            lambda: ["M%d x M%d = %s" % (i, j, " + ".join(
                "%s M%d" % (m, k) if m > 1 else "M%d" % k
                for k, m in enumerate(F.N[i][j]) if m) or "0")
                for i in range(F.n) for j in range(i, F.n)])


def run(argv) -> int:
    parser = _build_parser(os.environ.get("SVOA_ORDER"))
    args = parser.parse_args(argv)
    cmd, trunc = args.command, args.order * GRID
    if cmd == "series":
        takes = qseries.SERIES_PARAMS.get(args.name, ())
        flags = {"c": ("--rank", args.rank), "h": ("--weight", args.weight)}
        if any(flags[p][1] is None for p in takes):
            parser.error("series %s needs %s"
                         % (args.name, " and ".join(flags[p][0] for p in takes)))
        for p, (flag, value) in flags.items():
            if value is not None and p not in takes:
                parser.error("series %s takes no %s" % (args.name, flag))
        if args.weight is not None and (args.weight * GRID - 2 * args.rank).denominator != 1:
            parser.error("series %s needs -rank/24 + weight on the 1/48 grid" % args.name)
    if cmd == "classify" and not 0 <= args.cfrom <= args.cto <= args.cmax:
        parser.error("classify needs 0 <= --from <= --to <= --max")
    if cmd == "molien" and args.deg < 0:
        parser.error("molien needs --deg >= 0")
    if cmd == "orbifold":
        if args.lattice.dim % 8:
            parser.error("orbifold needs a lattice whose dimension is a multiple of 8")
        extremal.check_orbifold_work(trunc, args.lattice.dim)

    if cmd == "series":
        out = _series(qseries.standard_series(args.name, trunc, c=args.rank, h=args.weight))
    elif cmd in ("extremal-voa", "extremal-svoa"):
        out = _solution(getattr(extremal, cmd.replace("-", "_"))(args.rank))
    elif cmd == "shadow":
        sol = extremal.extremal_svoa(args.rank)
        out = _shadow(extremal.shadow(sol.c, sol.a, sol.series.trunc))
    elif cmd == "classify":
        out = _verdicts(extremal.classify_range(args.cfrom, args.cto, cmax=args.cmax))
    elif cmd == "monster-poly":
        out = _enumerator(invariants.solve_monster_polynomial(
            args.constraints, verify_published=False) if args.constraints
            else invariants.monster_polynomial())
    elif cmd == "baby":
        sectors = (0, 1, 2) if args.sector is None else (args.sector,)
        # one budget for all the sectors, checked before the first is evaluated
        P = invariants.monster_polynomial()
        invariants.check_evaluation_work(
            [babymonster.marginal_polynomial(P, l) for l in sectors], trunc)
        out = _sectors({l: babymonster.baby_character(l, trunc) for l in sectors})
    elif cmd == "molien":
        T, S = modrep.character_rep(args.rank)
        G = modrep.generate_group([S, T])
        out = _molien(G.order, modrep.molien(G, args.deg))
    elif cmd == "verlinde":
        out = _fusion(modrep.verlinde(modrep.character_rep(args.rank)[1]))
    elif cmd == "theta":
        out = _series(lattices.theta_series(args.lattice, trunc))
    else:  # orbifold
        theta = lattices.theta_series(args.lattice, trunc)
        out = _series(extremal.orbifold_character(theta, args.lattice.dim))

    obj, text = out
    lines = [json.dumps(obj)] if args.format == "json" else text()
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)  # argparse reads sys.argv[1:] when argv is None
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
