"""Command-line front end: standard series, extremal solutions, shadows,
classification tables, the weight-enumerator solve, component characters,
Molien series, fusion rings, lattice theta series and orbifold characters.

Exit codes: 0 success, 1 computation error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

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


def _build_parser() -> _Parser:
    p = _Parser(prog="svoa", description=__doc__.splitlines()[0])
    # every subcommand accepts the global flags too; SUPPRESS keeps an absent
    # one from overriding the value given before the subcommand
    common = _Parser(add_help=False)
    # argparse runs _order on a string default (SVOA_ORDER) only after the
    # arguments, so --help still works with a bad value
    order = qseries.DEFAULT_TRUNC // GRID
    env_order = os.environ.get("SVOA_ORDER") or order
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

    for cmd in ("extremal-voa", "extremal-svoa"):
        e = sub.add_parser(cmd, help="extremal character and normal form")
        e.add_argument("--rank", type=_rank, required=True)

    sh = sub.add_parser("shadow", help="cusp-1 expansion of an extremal character")
    sh.add_argument("--rank", type=_rank, required=True)

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


def _emit_series(x: QSeries, fmt: str):
    if fmt == "json":
        print(json.dumps(x.to_json()))
    else:
        print(str(x))


def _solution_lines(sol):
    return ["rank %s  kind %s  k=%d" % (sol.c, sol.kind, sol.k),
            "a = [%s]" % ", ".join(str(x) for x in sol.a),
            "character = %s" % sol.series,
            "A = {%s}" % ", ".join("%s: %s" % (n, v)
                                   for n, v in sorted(sol.A.items()))]


def _solution_json(sol):
    return {"rank": str(sol.c), "kind": sol.kind, "k": sol.k,
            "a": [str(x) for x in sol.a],
            "series": sol.series.to_json(),
            "A": {str(n): str(v) for n, v in sorted(sol.A.items())}}


def _shadow_json(rep):
    return {"rank": str(rep.c), "s": rep.s, "B": rep.B.to_json(),
            "first_coeff": str(rep.first_coeff),
            "integral": rep.integral, "nonneg": rep.nonneg}


def _verdict_line(v) -> str:
    if v.status == "exists_known":
        detail = v.name
    elif v.status == "ruled_out":
        detail = ",".join(sorted(v.arguments))
    elif v.status == "conditional_L":
        detail = "L"
    else:
        detail = "?"
    head = ""
    if v.shadow is not None:
        head = "  ".join("%s q^%s" % (coef, exp) for exp, coef in v.shadow.head())
    return "%-6s | %-13s | %-12s | %s" % (v.c, v.status, detail, head)


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = args.format
    cmd = args.command
    trunc = args.order * GRID
    if cmd == "series" and args.name == "vacuum" and args.rank is None:
        parser.error("series vacuum needs --rank")
    if cmd == "series" and args.rank is not None and args.name not in (
            "vacuum", "generic_module"):
        parser.error("series %s takes no --rank" % args.name)
    if cmd == "series" and args.weight is not None and args.name != "generic_module":
        parser.error("series %s takes no --weight" % args.name)
    if cmd == "series" and args.name == "generic_module":
        if args.rank is None or args.weight is None:
            parser.error("series generic_module needs --rank and --weight")
        if (args.weight * GRID - 2 * args.rank).denominator != 1:
            parser.error("series generic_module needs -rank/24 + weight on the "
                         "1/48 grid")
    if cmd == "classify" and not 0 <= args.cfrom <= args.cto <= args.cmax:
        parser.error("classify needs 0 <= --from <= --to <= --max")
    if cmd == "molien" and args.deg < 0:
        parser.error("molien needs --deg >= 0")
    if cmd == "orbifold" and args.lattice.dim % 8:
        parser.error("orbifold needs a lattice whose dimension is a multiple of 8")

    if cmd == "series":
        x = qseries.standard_series(args.name, trunc, c=args.rank,
                                    h=args.weight)
        _emit_series(x, fmt)

    elif cmd in ("extremal-voa", "extremal-svoa"):
        sol = getattr(extremal, cmd.replace("-", "_"))(args.rank)
        if fmt == "json":
            print(json.dumps(_solution_json(sol)))
        else:
            print("\n".join(_solution_lines(sol)))

    elif cmd == "shadow":
        rep = extremal.shadow(extremal.extremal_svoa(args.rank))
        if fmt == "json":
            print(json.dumps(_shadow_json(rep)))
        else:
            print("rank %s  s=%d  B* = %s  integral=%s  nonneg=%s"
                  % (rep.c, rep.s, rep.first_coeff, rep.integral, rep.nonneg))
            print("B (relative to q^(-c/24)) = %s"
                  % rep.B.shift(int(2 * rep.c)))

    elif cmd == "classify":
        verdicts = extremal.classify_range(args.cfrom, args.cto, cmax=args.cmax)
        if fmt == "json":
            print(json.dumps([v.to_json() for v in verdicts]))
        else:
            print("rank   | status        | detail       | shadow head")
            print("-" * 72)
            for v in verdicts:
                print(_verdict_line(v))

    elif cmd == "monster-poly":
        if args.constraints:
            P = invariants.solve_monster_polynomial(args.constraints,
                                                    verify_published=False)
        else:
            P = invariants.monster_polynomial()
        if fmt == "json":
            print(json.dumps(P.to_json()))
        else:
            for i, j, k in sorted(P.terms):
                print("%2d %2d %2d  %s" % (i, j, k, P.terms[(i, j, k)]))

    elif cmd == "baby":
        sectors = (args.sector,) if args.sector is not None else (0, 1, 2)
        out = {}
        for l in sectors:
            out[l] = babymonster.baby_character(l, trunc)
        if fmt == "json":
            print(json.dumps({str(l): x.to_json() for l, x in out.items()}))
        else:
            for l, x in out.items():
                print("sector %d: %s" % (l, x))

    elif cmd == "molien":
        T, S = modrep.character_rep(args.rank)
        G = modrep.generate_group([S, T])
        rho = modrep.molien(G, args.deg)
        if fmt == "json":
            print(json.dumps({"order": G.order, "series": rho.to_json()}))
        else:
            print("group order %d" % G.order)
            print("molien = %s" % " + ".join(
                "%s t^%d" % (rho.coeff(GRID * k), k)
                for k in range(args.deg + 1) if rho.coeff(GRID * k)))

    elif cmd == "verlinde":
        T, S = modrep.character_rep(args.rank)
        F = modrep.verlinde(S)
        if fmt == "json":
            print(json.dumps({"n": F.n, "N": [[list(r) for r in Ni] for Ni in F.N]}))
        else:
            for i in range(F.n):
                for j in range(i, F.n):
                    terms = ["%s M%d" % (m, k) if m > 1 else "M%d" % k
                             for k, m in enumerate(F.N[i][j]) if m]
                    print("M%d x M%d = %s" % (i, j, " + ".join(terms) or "0"))

    elif cmd == "theta":
        th = lattices.theta_series(args.lattice, trunc)
        _emit_series(th, fmt)

    elif cmd == "orbifold":
        L = args.lattice
        th = lattices.theta_series(L, trunc)
        x = extremal.orbifold_character(th, L.dim)
        _emit_series(x.truncate(-2 * L.dim + trunc), fmt)

    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except SystemExit:
        raise
    except (ValueError, ZeroDivisionError, RuntimeError, ArithmeticError,
            OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
