"""Benchmark of the svoa CLI and library: four exact workloads.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 28 --trace 0

Each repetition runs the whole workload in a fresh worker interpreter
(worker.py), one at a time, so module-level caches start cold as they do
for every CLI user.  Repetitions continue until ``--seconds`` would be
exceeded (at least MIN_REPS).  Every output is checked exactly against
the stored reference; a wrong, raising or non-zero-exit item is a
failed item.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions): wall_s, setup_s, peak_rss_mb.  With
``--trace 1`` half the time goes to untraced repetitions and half to
traced ones, and the line reports the per-layer metrics.  The full
record, with run metadata and quartiles, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

MIN_REPS = 3
SETUP_SAMPLES = 11        # set-up spawns per run, counting the repetitions'
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed item)."""


def _spawn(workload, seed, mode, spans_path=None):
    """Start one worker; return (setup seconds, its result or None)."""
    env = {k: v for k, v in os.environ.items() if k != "SVOA_ORDER"}
    cmd = [sys.executable, "-E", "-s", WORKER, workload, str(seed), mode]
    if spans_path:
        cmd.append(spans_path)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded %d s" % WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError("worker failed (exit %s): %s" % (proc.returncode, err.strip()[-2000:]))
    result = json.loads(out.splitlines()[-1]) if mode != "setup" else None
    return setup_s, result


def _repeat(workload, seed, mode, until_s, clock_start, min_reps, spans_path=None):
    """Repetitions until the next one would end after ``until_s``; the
    first one writes its spans to ``spans_path``."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(_spawn(workload, seed, mode, None if reps else spans_path))
        now = time.perf_counter()
        per_rep = (now - t0) / len(reps)
        if len(reps) >= min_reps and (now - clock_start) + per_rep > until_s:
            return reps


def _verify(results, reference):
    """(attempted, failed, first failure messages) over worker results."""
    attempted = failed = 0
    messages = []
    for result in results:
        for item_id, output, error, _ in result["items"]:
            attempted += 1
            why = error or workloads.check(item_id, output, reference)
            if why:
                failed += 1
                if len(messages) < 10:
                    messages.append("%s: %s" % (item_id, why))
    return attempted, failed, messages


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        try:
            with open(os.path.join(ROOT, ".git", name)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + name):
                        return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed):
    lines = 0
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return {"git_sha": _git_sha(), "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "seed": seed, "src_lines": lines}


def _summary(values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def run(workload, seed, seconds, trace):
    reference = workloads.load_reference()
    meta = metadata(seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    clock_start = time.perf_counter()
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d%s" % (workload, seed, "-trace" if trace else "")
    record = {"workload": workload, "meta": meta, "seconds": seconds, "trace": trace}

    if not trace:
        reps = _repeat(workload, seed, "plain", seconds, clock_start, MIN_REPS)
        setups = [s for s, _ in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(workload, seed, "setup")[0])
        results = [r for _, r in reps]
        walls = [r["wall_s"] for r in results]
        rss = [r["peak_rss_mb"] for r in results]
        stats = {"wall_s": _summary(walls, "s"),
                 "setup_s": _summary(setups, "s"),
                 "peak_rss_mb": _summary(rss, "MB")}
        metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in stats.items()}
        record["samples"] = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    else:
        plain = _repeat(workload, seed, "plain", seconds / 2, clock_start, 1)
        spans_path = os.path.join(RESULTS, tag + "-spans.json")
        traced = _repeat(workload, seed, "trace", seconds, clock_start, 1, spans_path)
        results = [r for _, r in plain] + [r for _, r in traced]
        layers = [r["layer"] for _, r in traced]
        leftovers = [w for _, r in traced for w in r["leftover_wrappers"]]
        if leftovers:
            raise BenchError("tracer left wrappers bound: %s" % leftovers[:5])
        exact = [k for k in layers[0] if k.endswith(".calls") or k in tracing.DESCRIPTORS]
        drift = [k for k in exact if any(l[k] != layers[0][k] for l in layers)]
        if drift:
            raise BenchError("per-layer counts differ between traced runs: %s" % drift)
        plain_wall = statistics.median(r["wall_s"] for _, r in plain)
        traced_wall = statistics.median(r["wall_s"] for _, r in traced)
        values = {k: (statistics.median(l[k] for l in layers) if k not in exact
                      else layers[0][k]) for k in layers[0]}
        values["trace.overhead_s"] = traced_wall - plain_wall
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.per_layer_names()}
        stats = {"wall_s": _summary([r["wall_s"] for _, r in plain], "s"),
                 "traced_wall_s": _summary([r["wall_s"] for _, r in traced], "s")}
        record["spans"] = os.path.relpath(spans_path, ROOT)

    attempted, failed, messages = _verify(results, reference)
    stats["fail_ratio"] = {"failed": failed, "attempted": attempted,
                           "ratio": failed / attempted, "unit": "ratio"}
    item_s = {}
    for r in results:
        for item_id, _, _, s in r["items"]:
            item_s.setdefault(item_id, []).append(s)
    record.update(stats=stats, metrics=metrics, failures=messages,
                  item_median_s={k: statistics.median(v) for k, v in sorted(item_s.items())})
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, s in stats.items():
        if name == "fail_ratio":
            print("%-14s %d/%d = %.6g" % (name, failed, attempted, s["ratio"]))
        else:
            print("%-14s median %.6g %s  q1 %.6g  q3 %.6g  n=%d"
                  % (name, s["median"], s["unit"], s["q1"], s["q3"], s["n"]))
    for m in messages:
        print("FAILED " + m, file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "svoa", "__init__.py")):
        print("error: no svoa source under %s" % SRC, file=sys.stderr)
        return 2
    try:
        line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
