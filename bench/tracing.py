"""Spans around the calls into each wazz module, recorded from outside it.

`Tracer.install` replaces each function named in `TRACED` by a timing
wrapper on every `wazz.*` module attribute that refers to it, because the
modules bind imported names locally (`zigzag` holds its own reference to
`separating_word`, `gauge`, ...).  Per-element helpers (`vdot`, `Mat.apply`)
are left alone: a wrapper there would cost more than the work it times.

A span is (op id, parent span, function, start, end, result size).  Spans are
kept in memory and written once, at the end.  A span's self time is its
duration minus the durations of its direct children; children of one span
never overlap, as the benchmark runs one thread.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from time import perf_counter

Spec = namedtuple("Spec", "time calls count size group")


def _no_size(result):
    return None


def _vrep_size(v):
    return len(v.points) + len(v.directions)


def _middle_generators(z):
    return len(z.nodes[len(z.nodes) // 2].generators)


# (module, function) -> where its self time, calls and result size go.  A call
# and its size count once per entry into a group: a `solve` that calls `rref`
# is one linalg call, a `simplex_restriction` that runs `dd_h_to_v` is one DD.
TRACED = {
    ("automata", "parse_automaton"): Spec("formats.parse_ms", None, None, _no_size, "parse"),
    ("zigzag", "parse_zigzag"): Spec("formats.parse_ms", None, None, _no_size, "parse"),
    ("zigzag", "zigzag_to_text"): Spec("formats.print_ms", None, "formats.witness_bytes",
                                       lambda text: len(text.encode("utf-8")), "print"),
    ("automata", "pair_submodule"): Spec("automata.pair_submodule_ms", None,
                                         "automata.closure_dim",
                                         lambda r: len(r[0]), "pair"),
    ("automata", "separating_word"): Spec("automata.separating_word_ms",
                                          "automata.separating_word_calls", None,
                                          _no_size, "word"),
    ("linalg", "closure_under_maps"): Spec("linalg.closure_ms", "linalg.calls", None,
                                           _no_size, "linalg"),
    ("linalg", "hnf"): Spec("linalg.hnf_ms", "linalg.calls", None, _no_size, "linalg"),
    ("linalg", "hnf_with_transform"): Spec("linalg.hnf_ms", "linalg.calls", None,
                                           _no_size, "linalg"),
    ("linalg", "rref"): Spec("linalg.rref_solve_ms", "linalg.calls", None, _no_size, "linalg"),
    ("linalg", "solve"): Spec("linalg.rref_solve_ms", "linalg.calls", None, _no_size, "linalg"),
    ("linalg", "kernel_basis"): Spec("linalg.rref_solve_ms", "linalg.calls", None,
                                     _no_size, "linalg"),
    ("hilbert", "nat_restriction"): Spec("hilbert.restriction_ms", "hilbert.calls",
                                         "hilbert.generators", len, "hilbert"),
    ("hilbert", "qplus_restriction_by_scaling"): Spec("hilbert.restriction_ms",
                                                      "hilbert.calls",
                                                      "hilbert.generators", len,
                                                      "hilbert"),
    ("polyhedra", "dd_h_to_v"): Spec("polyhedra.dd_ms", "polyhedra.dd_calls",
                                     "polyhedra.dd_outputs", _vrep_size, "dd"),
    ("polyhedra", "dd_v_to_h"): Spec("polyhedra.dd_ms", "polyhedra.dd_calls",
                                     "polyhedra.dd_outputs",
                                     lambda h: len(h.ineqs), "dd"),
    ("polyhedra", "cone_restriction"): Spec("polyhedra.dd_ms", "polyhedra.dd_calls",
                                            "polyhedra.dd_outputs", len, "dd"),
    ("polyhedra", "simplex_restriction"): Spec("polyhedra.dd_ms", "polyhedra.dd_calls",
                                               "polyhedra.dd_outputs",
                                               lambda p: len(p.generators), "dd"),
    ("polyhedra", "gauge"): Spec("polyhedra.gauge_ms", "polyhedra.gauge_calls", None,
                                 _no_size, "gauge"),
    ("polyhedra", "cone_member"): Spec("polyhedra.cone_member_ms",
                                       "polyhedra.cone_member_calls", None, _no_size,
                                       "cone_member"),
    ("polyhedra", "lp_feasible"): Spec("polyhedra.lp_ms", "polyhedra.lp_calls", None,
                                       _no_size, "lp"),
    ("pca", "reduce_invariant_set"): Spec("pca.reduce_ms", None, None, _no_size, "reduce"),
    ("pca", "pyramid_extension"): Spec("pca.pyramid_ms", "pca.pyramid_calls", None,
                                       _no_size, "pyramid"),
    ("zigzag", "cubic_zigzag"): Spec("zigzag.build_self_ms", None, "zigzag.middle_generators",
                                     _middle_generators, "build"),
    ("zigzag", "ghat_zigzag"): Spec("zigzag.build_self_ms", None, "zigzag.middle_generators",
                                    _middle_generators, "build"),
    ("zigzag", "verify_zigzag"): Spec("zigzag.verify_self_ms", None, "zigzag.verify_checks",
                                      lambda report: len(report.checks), "verify"),
}

ROOT = ("cli", "main")
ROOT_SPEC = Spec("cli.self_ms", None, None, _no_size, "cli")


def layer_metrics():
    """Every metric the traced run reports, in a fixed order."""
    names = [ROOT_SPEC.time]
    for spec in TRACED.values():
        for name in (spec.time, spec.calls, spec.count):
            if name is not None and name not in names:
                names.append(name)
    return names


def layer_of(metric):
    return metric.split(".", 1)[0]


class Tracer:
    """Spans of the ops run through `call_root` while installed."""

    def __init__(self):
        self.keys = [ROOT] + list(TRACED)
        self.specs = [ROOT_SPEC] + list(TRACED.values())
        self.spans = []  # [op, parent, key index, start, end, size]
        self._stack = []
        self._op = -1
        self._patched = []

    def _wrap(self, index, fn):
        spans, stack, size_of = self.spans, self._stack, self.specs[index].size

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [self._op, stack[-1] if stack else -1, index, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[5] = size_of(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a `wazz` module refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wazz" or name.startswith("wazz."))]
        for index, (module, name) in enumerate(TRACED, start=1):
            original = getattr(sys.modules["wazz." + module], name)
            wrapper = self._wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def call_root(self, op_id, fn, *args):
        """Run one op as the root span `cli.main`; all its spans share op_id."""
        self._op = op_id
        return self._wrap(0, fn)(*args)

    def summary(self, slowness):
        """Self time (ms), calls and result sizes per layer metric.  Each
        span's self time is divided by `slowness(op id)`."""
        totals = dict.fromkeys(layer_metrics(), 0)
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (op, parent, index, start, end, size) in enumerate(self.spans):
            spec = self.specs[index]
            totals[spec.time] += (end - start - child[sid]) * 1000 / slowness(op)
            if parent >= 0 and self.specs[self.spans[parent][2]].group == spec.group:
                continue
            if spec.calls:
                totals[spec.calls] += 1
            if spec.count and size is not None:
                totals[spec.count] += size
        return totals

    def write(self, fh, meta):
        """Write the spans as one JSON line."""
        names = [f"{m}.{f}" for m, f in self.keys]
        json.dump(dict(meta, functions=names,
                       fields=["op", "parent", "function", "start_s", "end_s", "size"],
                       spans=self.spans), fh, separators=(",", ":"))
        fh.write("\n")
