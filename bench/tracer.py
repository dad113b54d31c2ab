"""Span tracing of quadfold's public functions, from outside the library.

`Tracer.install()` replaces each traced function at every module attribute
that holds it (so `quadfold.foldability.solve_at_crease`, the name
`certify` and `propagate` look up, is swapped together with
`quadfold.vertex.solve_at_crease`), which captures the calls nested inside
`certify`, `sweep` and `stitch`.  `uninstall()` puts the originals back.

Each call records one span: name, start, end, parent span, and whether it
raised.  Spans stay in flat in-memory arrays until `aggregate()` turns them
into per-name totals at the end of the run; self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, function) -> span name.  Several functions may share one name,
# which then reports their combined calls and time.
TRACED = {
    ("vertex", "classify"): "vertex.classify",
    ("vertex", "fold_interval"): "vertex.fold_interval",
    ("vertex", "solve_on_branch"): "vertex.solve_on_branch",
    ("vertex", "solve_at_crease"): "vertex.solve_at_crease",
    ("units", "validate_unit"): "units.validate_unit",
    ("units", "solve_ff_unit"): "units.design",
    ("units", "identical_vertex_unit"): "units.design",
    ("units", "make_flatfoldable_basic_unit"): "units.design",
    ("units", "make_straightline_unit"): "units.design",
    ("pattern", "stitch"): "pattern.stitch",
    ("foldability", "certify"): "foldability.certify",
    ("foldability", "propagate"): "foldability.propagate",
    ("realize", "realize"): "realize.realize",
    ("realize", "sweep"): "realize.sweep",
    ("realize", "loop_closure_residual"): "realize.loop_closure_residual",
    ("foldio", "export_fold"): "foldio.export",
    ("foldio", "fold_dumps"): "foldio.export",
    ("foldio", "export_obj"): "foldio.export",
    ("foldio", "import_fold"): "foldio.import_fold",
}

_ROOT = -1


class Tracer:
    def __init__(self):
        self.names = sorted(set(TRACED.values()))
        self._name_id = {n: k for k, n in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.export_bytes = 0
        self.validated_units = set()
        self._stack = [_ROOT]
        self._op = 0
        self._swapped = []

    def begin_op(self, index: int):
        self._op = index

    def _wrap(self, fn, name: str):
        nid = self._name_id[name]
        counts_bytes = name == "foldio.export"
        keeps_unit = name == "units.validate_unit"
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1])
            self.failed.append(0)
            self.end.append(0.0)
            if keeps_unit:
                self.validated_units.add((self._op, args[0]))
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if counts_bytes and isinstance(out, str):
                self.export_bytes += len(out.encode())
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every traced function at each quadfold module attribute
        bound to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "quadfold" or key.startswith("quadfold.")]
        for (mod_name, fn_name), span in TRACED.items():
            original = getattr(sys.modules["quadfold." + mod_name], fn_name)
            wrapper = self._wrap(original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._swapped.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, failed calls, total and self seconds, and
        the number of calls made inside a `foldability.certify` span."""
        n = len(self.start)
        child_time = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p != _ROOT:
                child_time[p] += self.end[k] - self.start[k]
        certify_id = self._name_id["foldability.certify"]
        in_certify = [False] * n
        for k in range(n):  # parents precede their children
            p = self.parent[k]
            if p != _ROOT:
                in_certify[k] = in_certify[p] or self.span_name[p] == certify_id
        out = {name: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0,
                      "in_certify": 0} for name in self.names}
        for k in range(n):
            row = out[self.names[self.span_name[k]]]
            dur = self.end[k] - self.start[k]
            row["calls"] += 1
            row["failed"] += self.failed[k]
            row["total_s"] += dur
            row["self_s"] += dur - child_time[k]
            row["in_certify"] += in_certify[k]
        return out
