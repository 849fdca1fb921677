"""The four workloads, how one item runs, and the exactness oracle.

An item is one CLI invocation of ``svoa.cli.run`` with its stdout
captured, or one public library call where no CLI command reaches the
layer.  Every item's output is checked exactly: against the stored
SHA-256 of the seed commit's stdout, or for the Lagrange-inversion items
against the stored a_r of the linear solve, plus the acceptance spot
values below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import namedtuple
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
LAGRANGE_FILE = os.path.join(HERE, "lagrange.json")

# kind is "cli" (args is the argv of svoa.cli.run) or the name of a
# library function (args are its arguments as strings and ints)
Item = namedtuple("Item", "id kind args")


def _cli(*argv):
    return Item("svoa " + " ".join(argv), "cli", tuple(argv))


def _lagrange(c, r, kind):
    return Item("buermann_alpha(%s, %d, %s)" % (c, r, kind), "buermann_alpha",
                (str(c), r, kind))


def _tables():
    items = [_cli("--format", "json", "classify", "--from", "0", "--to", "56")]
    items += [_cli("--format", "json", "extremal-voa", "--rank", str(c))
              for c in range(8, 73, 8)]
    # 1 <= r <= k: k = floor(c/8) for SVOA ranks, k = floor(c/24) for VOA ranks
    for twice_c in range(16, 113):
        c = Fraction(twice_c, 2)
        items += [_lagrange(c, r, "SVOA") for r in range(1, int(c // 8) + 1)]
    for c in range(24, 73, 8):
        items += [_lagrange(c, r, "VOA") for r in range(1, c // 24 + 1)]
    return items


def _series():
    return [_cli("--format", "json", "--order", order, *cmd) for order, cmd in (
        ("1000", ("series", "j")),
        ("500", ("series", "cbrt_j")),
        ("1000", ("series", "delta")),
        ("1000", ("series", "vacuum", "--rank", "24")),
        ("400", ("series", "j_theta")),
        ("200", ("series", "chi_ising_16")),
        ("60", ("baby",)),
    )]


def _modular():
    items = [_cli("--format", "json", *cmd) for cmd in (
        ("molien", "--rank", "1/2", "--deg", "48"),
        ("molien", "--rank", "2", "--deg", "48"),
        ("verlinde", "--rank", "1/2"),
        ("verlinde", "--rank", "1"),
        ("verlinde", "--rank", "2"),
        ("monster-poly",),
    )]
    return items + [Item("check_invariance()", "check_invariance", ())]


def _theta():
    return [_cli("--format", "json", "--order", order, cmd, "--lattice", name)
            for order, cmd, name in (
                ("3", "theta", "A15+"),
                ("4", "theta", "D12+"),
                ("3", "theta", "E7E7+"),
                ("6", "theta", "E8"),
                ("2", "orbifold", "D16+"),
                ("10", "orbifold", "Leech"),
            )]


WORKLOADS = {"tables": _tables, "series": _series, "modular": _modular,
             "theta": _theta}


def plan(workload, seed):
    """The workload's fixed item set in the order the seed picks."""
    items = WORKLOADS[workload]()
    random.Random(seed).shuffle(items)
    return items


def run_item(item, svoa):
    """Run one item; return (stdout text, error message or None).

    ``svoa`` is the imported package, so the call resolves whatever
    binding is current (the tracer's wrappers while tracing).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if item.kind == "cli":
                code = svoa.cli.run(list(item.args))
            elif item.kind == "buermann_alpha":
                c, r, kind = item.args
                print(svoa.extremal.buermann_alpha(Fraction(c), r, kind))
                code = 0
            elif item.kind == "check_invariance":
                print(svoa.invariants.check_invariance())
                code = 0
            else:
                raise ValueError("unknown item kind %r" % item.kind)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an item that raises is a failed item
            return out.getvalue(), "%s: %s" % (type(exc).__name__, exc)
    if code != 0:
        return out.getvalue(), "exit code %r: %s" % (code, err.getvalue().strip())
    return out.getvalue(), None


# -- the oracle ------------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    """(item id -> stdout digest, item id -> expected buermann_alpha output)."""
    with open(REFERENCE_FILE) as fh:
        digests = json.load(fh)
    with open(LAGRANGE_FILE) as fh:
        a_r = json.load(fh)
    expected = {}
    for kind, rows in a_r.items():
        for c, values in rows.items():
            for r, value in enumerate(values, start=1):
                expected[_lagrange(Fraction(c), r, kind).id] = value + "\n"
    return digests, expected


# Verdict letters of classify 0..56 from the paper's tables 5.4 and 5.5,
# by 2c ranges: E = known example, L = conditional on the rank-8..16
# classification, G = non-integral shadow, GN = also a negative coefficient.
VERDICT_LETTERS = (((0, 16), "E"), ((17, 19), "G"), ((20, 20), "L"),
                   ((21, 21), "G"), ((22, 22), "L"), ((23, 23), "G"),
                   ((24, 24), "E"), ((25, 27), "L"), ((28, 28), "E"),
                   ((29, 29), "L"), ((30, 31), "E"), ((32, 46), "GN"),
                   ((47, 48), "E"), ((49, 63), "G"), ((64, 112), "GN"))


def _letters(verdict):
    status = verdict["status"]
    if status == "exists_known":
        return "E"
    if status == "conditional_L":
        return "L"
    if status == "ruled_out":
        return "".join(sorted(verdict["arguments"]))
    return "?"


def _spot_j(output):
    terms = dict((n, v) for n, v in json.loads(output)["terms"])
    got = [terms.get(n) for n in (-48, 0, 48, 96)]
    if got != ["1", "744", "196884", "21493760"]:
        return "j coefficients %s" % got
    return None


def _spot_molien(output):
    data = json.loads(output)
    t48 = dict((n, v) for n, v in data["series"]["terms"]).get(48 * 48)
    if data["order"] != 1152 or t48 != "7":
        return "group order %s, Molien t^48 coefficient %s" % (data["order"], t48)
    return None


def _spot_enumerator(output):
    n = len(json.loads(output))
    return None if n == 82 else "%d enumerator terms, expected 82" % n


def _spot_classify(output):
    got = {Fraction(v["rank"]) * 2: _letters(v) for v in json.loads(output)}
    want = {Fraction(n): letters for (lo, hi), letters in VERDICT_LETTERS
            for n in range(lo, hi + 1)}
    bad = sorted(n / 2 for n in set(got) | set(want) if got.get(n) != want.get(n))
    return "verdict letters differ at ranks %s" % [str(c) for c in bad] if bad else None


SPOT_CHECKS = {
    _cli("--format", "json", "--order", "1000", "series", "j").id: _spot_j,
    _cli("--format", "json", "molien", "--rank", "1/2", "--deg", "48").id: _spot_molien,
    _cli("--format", "json", "monster-poly").id: _spot_enumerator,
    _cli("--format", "json", "classify", "--from", "0", "--to", "56").id: _spot_classify,
}


def check(item_id, output, reference):
    """None if the output is exactly right, else why it is not."""
    digests, expected = reference
    if item_id in expected:
        if output != expected[item_id]:
            return "got %r, stored a_r is %r" % (output.strip(), expected[item_id].strip())
    elif item_id not in digests:
        return "no stored reference"
    elif digest(output) != digests[item_id]:
        return "stdout digest differs from the stored reference"
    spot = SPOT_CHECKS.get(item_id)
    if spot is not None:
        try:
            return spot(output)
        except (ValueError, KeyError, TypeError) as exc:
            return "spot check could not read the output: %s" % exc
    return None
