"""Write the stored oracle from the current source tree.

    python3 perfbench/make_reference.py

reference.json maps every CLI and check_invariance item to the SHA-256 of
its exact stdout.  lagrange.json holds, for each rank of the Lagrange-
inversion items, the a_1..a_k of the linear solve (extremal_svoa or
extremal_voa), so the benchmark checks buermann_alpha against an
independent route instead of against itself.  Run it only on a commit
whose outputs are known to be right; the stored files are the oracle.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(workloads.HERE), "src"))

import svoa  # noqa: E402
import svoa.cli  # noqa: E402


def main():
    digests, a_r = {}, {"SVOA": {}, "VOA": {}}
    for name in sorted(workloads.WORKLOADS):
        for item in workloads.WORKLOADS[name]():
            if item.kind == "buermann_alpha":
                c, _, kind = item.args
                if c not in a_r[kind]:
                    solve = (svoa.extremal.extremal_svoa if kind == "SVOA"
                             else svoa.extremal.extremal_voa)
                    a_r[kind][c] = [str(a) for a in solve(Fraction(c)).a[1:]]
                continue
            out, err = workloads.run_item(item, svoa)
            if err:
                raise SystemExit("%s failed: %s" % (item.id, err))
            digests[item.id] = workloads.digest(out)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(workloads.LAGRANGE_FILE, "w") as fh:  # one rank per line
        fh.write("{\n%s\n}\n" % ",\n".join(
            " %s: {\n%s\n }" % (json.dumps(kind), ",\n".join(
                "  %s: %s" % (json.dumps(c), json.dumps(v)) for c, v in rows.items()))
            for kind, rows in a_r.items()))
    print("wrote %d digests and %d a_r rows" % (len(digests), sum(map(len, a_r.values()))))


if __name__ == "__main__":
    main()
