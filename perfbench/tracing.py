"""Per-layer spans and counters, recorded from outside the library.

A ``Tracer`` wraps the public functions and methods listed in TARGETS.
It patches every binding a caller resolves: the class attribute and its
aliases (``QSeries.__rmul__`` is ``__mul__``), and every ``svoa`` module
attribute that holds the function (``extremal`` imports ``vacuum`` and
``chi_half`` by name, ``babymonster`` imports ``evaluate_at_characters``).
``remove`` puts every original back.

Spans (name, start, end, parent, item) are kept in flat arrays in memory
and written out when the run ends.  A span's self time is its duration
minus the time covered by its child spans; the time spent in descriptor
hooks is charged to no span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

MARK = "_perfbench_original"


def _bits(x):
    """Largest numerator or denominator bit length of a coefficient."""
    if isinstance(x, int):
        return x.bit_length()
    num = getattr(x, "num", None)
    if num is not None:  # Cyclo: integer vector over a common denominator
        return max(max(v.bit_length() for v in num), x.den.bit_length())
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _series_bits(tracer, series):
    top = max((_bits(c) for c in series.coeffs.values()), default=0)
    if top > tracer.counters["qseries.coeff_bits_max"]:
        tracer.counters["qseries.coeff_bits_max"] = top


def _qseries_mul(tracer, args, result):
    a, b = args
    tracer.counters["qseries.mul.terms_in"] += len(a.coeffs) + len(getattr(b, "coeffs", (b,)))
    _series_bits(tracer, result)


def _qseries_inv(tracer, args, result):
    a = args[0]
    tracer.counters["qseries.inv.span"] += a.trunc - a.lead
    _series_bits(tracer, result)


def _qseries_result(tracer, args, result):
    _series_bits(tracer, result)


def _group_elements(tracer, args, result):
    tracer.counters["modrep.generate_group.elements"] += result.order


def _theta_vectors(tracer, args, result):
    tracer.counters["lattices.theta_series.vectors"] += sum(result.coeffs.values())


# metric prefix, svoa module, function or Class.method, descriptor hook
TARGETS = (
    ("cyclo.mul", "cyclo", "Cyclo.__mul__", None),
    ("cyclo.add", "cyclo", "Cyclo.__add__", None),
    ("cyclo.inv", "cyclo", "Cyclo.inv", None),
    ("qseries.mul", "qseries", "QSeries.__mul__", _qseries_mul),
    ("qseries.inv", "qseries", "QSeries.inv", _qseries_inv),
    ("qseries.pow", "qseries", "QSeries.__pow__", _qseries_result),
    ("qseries.pow_rational", "qseries", "QSeries.pow_rational", _qseries_result),
    ("modrep.matmul", "modrep", "CycMatrix.__mul__", None),
    ("modrep.generate_group", "modrep", "generate_group", _group_elements),
    ("modrep.molien", "modrep", "molien", None),
    ("modrep.character_rep", "modrep", "character_rep", None),
    ("modrep.verlinde", "modrep", "verlinde", None),
    ("invariants.poly_act", "invariants", "poly_act", None),
    ("invariants.polymul", "invariants", "MultiPoly.__mul__", None),
    ("invariants.solve", "invariants", "solve_monster_polynomial", None),
    ("invariants.evaluate", "invariants", "evaluate_at_characters", None),
    ("babymonster.baby_character", "babymonster", "baby_character", None),
    ("extremal.classify", "extremal", "classify", None),
    ("extremal.extremal_svoa", "extremal", "extremal_svoa", None),
    ("extremal.extremal_voa", "extremal", "extremal_voa", None),
    ("extremal.shadow", "extremal", "shadow", None),
    ("extremal.buermann_alpha", "extremal", "buermann_alpha", None),
    ("extremal.orbifold_character", "extremal", "orbifold_character", None),
    ("lattices.theta_series", "lattices", "theta_series", _theta_vectors),
    ("lattices.lattice_catalog", "lattices", "lattice_catalog", None),
    ("cli.run", "cli", "run", None),
)

# descriptors recorded by the hooks above, plus the one the worker adds
DESCRIPTORS = ("qseries.mul.terms_in", "qseries.inv.span", "qseries.coeff_bits_max",
               "modrep.generate_group.elements", "lattices.theta_series.vectors",
               "cli.run.bytes_out")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for key, _, _, _ in TARGETS:
        names += [(key + ".calls", "count"), (key + ".self_s", "s")]
    names += [(d, "bits" if d.endswith("bits_max") else
               "bytes" if d.endswith("bytes_out") else "count") for d in DESCRIPTORS]
    names += [("trace.overhead_s", "s"), ("trace.coverage", "ratio")]
    return names


def _svoa_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "svoa" or name.startswith("svoa.")]


class Tracer:
    """Spans and counters for one run; install, run items, remove."""

    def __init__(self):
        self.keys = [key for key, _, _, _ in TARGETS]
        self.calls = dict.fromkeys(self.keys, 0)
        self.self_s = dict.fromkeys(self.keys, 0.0)
        self.counters = dict.fromkeys(DESCRIPTORS, 0)
        self.top_s = 0.0          # time inside spans that have no parent
        self.item = -1            # index of the item being run (the request id)
        self.starts, self.ends = array("d"), array("d")
        self.names, self.parents, self.items = array("i"), array("i"), array("i")
        self._stack = []          # [span index, child time] per open span
        self._patched = []        # (owner, attribute, original)

    def _wrap(self, key, fn, hook):
        kid = self.keys.index(key)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        starts, ends, names, parents, items = (self.starts, self.ends, self.names,
                                               self.parents, self.items)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(kid)
            parents.append(stack[-1][0] if stack else -1)
            items.append(tracer.item)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                duration = end - start
                calls[key] += 1
                self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_s += duration
            if hook is not None:
                h0 = clock()
                hook(tracer, args, result)
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        """Wrap every target binding in the loaded ``svoa`` modules."""
        modules = _svoa_modules()
        by_name = {m.__name__: m for m in modules}
        for key, modname, qualname, hook in TARGETS:
            owner = by_name["svoa." + modname]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owners = [getattr(owner, cls_name)]
                original = vars(owners[0])[attr]
            else:
                owners = modules
                original = getattr(owner, qualname)
            wrapper = self._wrap(key, original, hook)
            for o in owners:
                for attr, value in list(vars(o).items()):
                    if value is original:
                        setattr(o, attr, wrapper)
                        self._patched.append((o, attr, original))
        return self

    def remove(self):
        """Restore every original binding."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s):
        """Per-layer values of this run (trace.overhead_s is left to the caller)."""
        out = {}
        for key in self.keys:
            out[key + ".calls"] = self.calls[key]
            out[key + ".self_s"] = self.self_s[key]
        out.update(self.counters)
        out["trace.coverage"] = self.top_s / wall_s
        return out

    def write_spans(self, path, run_id):
        """Spans as columns; times in ns from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        data = {"run": run_id, "names": self.keys,
                "name": self.names.tolist(), "parent": self.parents.tolist(),
                "item": self.items.tolist(),
                "start_ns": [round((s - t0) * 1e9) for s in self.starts],
                "end_ns": [round((e - t0) * 1e9) for e in self.ends]}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def leftover_wrappers():
    """(owner, attribute) of every tracer wrapper still bound in ``svoa``."""
    found = []
    for m in _svoa_modules():
        for owner in [m] + [v for v in vars(m).values() if isinstance(v, type)]:
            for attr, value in vars(owner).items():
                if hasattr(value, MARK):
                    found.append((owner.__name__, attr))
    return found
