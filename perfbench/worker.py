"""One pass over a workload in a fresh interpreter, started by run.py.

Usage: worker.py WORKLOAD SEED MODE [SPANS_PATH], MODE one of setup, plain,
trace.  The worker imports ``svoa`` from the checkout's ``src``, builds the
CLI parser and writes ``ready`` on stdout; the parent times set-up up to
that line.  It then runs the workload's items in the seed's order with
their output captured, and writes one JSON line: the outputs, errors,
per-item and total times, peak RSS and, when tracing, per-layer values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    proto = sys.stdout
    sys.path.insert(0, SRC)
    import svoa
    import svoa.cli
    if not os.path.abspath(svoa.__file__).startswith(SRC + os.sep):
        raise ImportError("svoa was imported from %s, not from %s" % (svoa.__file__, SRC))
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            svoa.cli.run(["--help"])  # builds the parser, as every CLI call does
        except SystemExit:
            pass
    proto.write("ready\n")
    proto.flush()
    if mode == "setup":
        return 0

    import tracing
    import workloads
    items = workloads.plan(workload, seed)
    tracer = tracing.Tracer().install() if mode == "trace" else None
    outputs, errors, seconds = [], [], []
    clock = time.perf_counter
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        out, err = workloads.run_item(item, svoa)
        seconds.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "items": [[item.id, out, err, s] for item, out, err, s
                        in zip(items, outputs, errors, seconds)]}
    if tracer is not None:
        tracer.remove()
        layer = tracer.metrics(wall_s)
        layer["cli.run.bytes_out"] = sum(len(out.encode()) for item, out
                                         in zip(items, outputs) if item.kind == "cli")
        result["layer"] = layer
        result["leftover_wrappers"] = tracing.leftover_wrappers()
        if spans_path:
            tracer.write_spans(spans_path, "%s-seed%d" % (workload, seed))
    json.dump(result, proto)
    proto.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
