"""Self-tests of the benchmark (about two minutes on two cores).

    python3 perfbench/selftest.py

They check that the tracer restores every binding it wrapped, that
traced and untraced outputs are byte-identical, that every per-layer
count and descriptor repeats exactly across traced runs and seeds, that
a corrupted stored reference or a wrong spot value counts as a failed
item, and that the benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

import svoa  # noqa: E402
import svoa.cli  # noqa: E402

# one cheap item per layer group, run in-process
CHEAP_ITEMS = [
    workloads.Item("svoa --format json verlinde --rank 1", "cli",
                   ("--format", "json", "verlinde", "--rank", "1")),
    workloads.Item("svoa --format json --order 20 series j", "cli",
                   ("--format", "json", "--order", "20", "series", "j")),
    workloads.Item("svoa --format json classify --from 8 --to 10", "cli",
                   ("--format", "json", "classify", "--from", "8", "--to", "10")),
    workloads.Item("svoa --format json --order 3 orbifold --lattice E8", "cli",
                   ("--format", "json", "--order", "3", "orbifold", "--lattice", "E8")),
    workloads.Item("svoa --format json --order 2 baby", "cli",
                   ("--format", "json", "--order", "2", "baby")),
    workloads.Item("buermann_alpha(16, 2, SVOA)", "buermann_alpha", ("16", 2, "SVOA")),
]


def _bindings():
    """Every attribute of every svoa module and class, by identity."""
    out = {}
    for m in tracing._svoa_modules():
        for owner in [m] + [v for v in vars(m).values() if isinstance(v, type)]:
            for attr, value in vars(owner).items():
                out[(m.__name__, getattr(owner, "__qualname__", ""), attr)] = id(value)
    return out


class InProcess(unittest.TestCase):
    def test_wrappers_removed_and_outputs_identical(self):
        plain = [workloads.run_item(item, svoa) for item in CHEAP_ITEMS]
        before = _bindings()  # after the plain run has filled module caches
        tracer = tracing.Tracer().install()
        self.assertTrue(tracing.leftover_wrappers())
        try:
            traced = [workloads.run_item(item, svoa) for item in CHEAP_ITEMS]
        finally:
            tracer.remove()
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertEqual(_bindings(), before)
        self.assertEqual(traced, plain)
        self.assertTrue(all(err is None for _, err in plain))
        # by-name imports were wrapped too: baby reaches evaluate_at_characters
        # through babymonster's own binding, buermann_alpha reaches inv
        # through the QSeries class
        for key in ("invariants.evaluate", "lattices.theta_series",
                    "extremal.orbifold_character", "extremal.classify",
                    "extremal.buermann_alpha", "qseries.inv", "cyclo.mul",
                    "modrep.verlinde", "babymonster.baby_character"):
            self.assertGreater(tracer.calls[key], 0, key)

    def test_plan_is_seeded_and_fixed(self):
        for name in workloads.WORKLOADS:
            a, b, c = (workloads.plan(name, s) for s in (1, 1, 2))
            self.assertEqual(a, b)
            self.assertEqual(sorted(a), sorted(c))
            self.assertEqual(len(set(a)), len(a), "an item appears twice")

    def test_every_item_has_a_reference(self):
        reference = workloads.load_reference()
        for name in workloads.WORKLOADS:
            for item in workloads.WORKLOADS[name]():
                self.assertTrue(item.id in reference[0] or item.id in reference[1],
                                item.id)

    def test_spot_checks_fire_independently_of_digests(self):
        j = workloads._cli("--format", "json", "--order", "1000", "series", "j")
        out, err = workloads.run_item(
            workloads._cli("--format", "json", "--order", "3", "series", "j"), svoa)
        self.assertIsNone(err)
        bad = out.replace('"744"', '"745"')
        forged = ({j.id: workloads.digest(bad)}, {})
        self.assertIn("j coefficients", workloads.check(j.id, bad, forged))
        self.assertIsNone(workloads.check(j.id, out, ({j.id: workloads.digest(out)}, {})))


class Workers(unittest.TestCase):
    """Real workers: one untraced run and three traced runs per workload."""

    @classmethod
    def setUpClass(cls):
        cls.plain, cls.traced = {}, {}
        for name in sorted(workloads.WORKLOADS):
            cls.plain[name] = run._spawn(name, 1, "plain")[1]
            cls.traced[name] = [run._spawn(name, seed, "trace")[1] for seed in (1, 1, 2)]

    def test_traced_outputs_identical_to_untraced(self):
        for name, plain in self.plain.items():
            want = {item_id: out for item_id, out, _, _ in plain["items"]}
            for traced in self.traced[name]:
                got = {item_id: out for item_id, out, _, _ in traced["items"]}
                self.assertEqual(got, want, name)

    def test_counts_and_descriptors_repeat(self):
        for name, runs in self.traced.items():
            first = runs[0]["layer"]
            exact = [k for k in first if k.endswith(".calls") or k in tracing.DESCRIPTORS]
            self.assertEqual(len(exact), len(tracing.TARGETS) + len(tracing.DESCRIPTORS))
            for other in runs[1:]:
                self.assertEqual({k: other["layer"][k] for k in exact},
                                 {k: first[k] for k in exact}, name)
            self.assertEqual(runs[0]["leftover_wrappers"], [])

    def test_per_layer_names_complete(self):
        names = {n for n, _ in tracing.per_layer_names()}
        for runs in self.traced.values():
            self.assertEqual(set(runs[0]["layer"]) | {"trace.overhead_s"}, names)
        self.assertLessEqual(len(names), 128)

    def test_seed_outputs_pass_and_corruption_fails(self):
        reference = workloads.load_reference()
        results = list(self.plain.values())
        attempted, failed, _ = run._verify(results, reference)
        self.assertEqual((attempted > 0, failed), (True, 0))
        digests, expected = reference
        victim = sorted(digests)[0]
        corrupt = (dict(digests, **{victim: "0" * 64}), expected)
        self.assertEqual(run._verify(results, corrupt)[1], 1)
        lagrange = sorted(expected)[0]
        corrupt = (digests, dict(expected, **{lagrange: "0\n"}))
        self.assertEqual(run._verify(results, corrupt)[1], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_source(self):
        os.makedirs(run.RESULTS, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tables",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
