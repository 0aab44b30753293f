"""Span recorder that wraps the public functions of every hyperseries module.

Spans are recorded from outside the program: each wrapped function opens a
span (name, start, end, parent span, request id) when it is called and closes
it when it returns.  Spans are kept in flat arrays in memory and analysed at
the end of a run.  A span's self time is its duration minus the part covered
by its child spans; on one thread children nest inside their parent and do
not overlap, so the covered part is the sum of the children's durations.

Private kernels (``_sum_block``, ``_limit_point``, ``_lattice_holds``,
``_even_moment``) are not wrapped: their time is self time of the public
function that called them.  Modules import names with ``from .x import y``,
so a wrapper replaces every module-level binding of the original function,
otherwise internal calls would bypass the span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter

#: Modules whose public functions are wrapped; each is a layer.
LAYERS = ("netexpr", "numerics", "nets", "series", "algebra", "graf",
          "corpus", "config", "report", "cli")

#: Methods that are public entry points of their layer.
METHODS = (("nets", "GenNum", "from_expr", "nets.from_expr"),
           ("graf", "DerivativeNet", "eval_deriv", "graf.eval_deriv"),
           ("report", "Report", "to_json", "report.to_json"))

#: Spans whose descendant ``leq_with_slack`` calls are counted as comparisons.
COMPARISON_OWNERS = ("series.check_weak_moderate", "graf.graf_check")
COMPARISON = "numerics.leq_with_slack"


class Tracer:
    """Records spans in flat arrays; one recorder per process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.request = -1
        self.coeff_reads = 0
        self._cells = set()
        self._families = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counting_accessor(self, acc, family_key):
        """Wrap a coefficient accessor so each read and each distinct
        (family, grid, gauge, precision, n, grid index) cell is counted."""
        fam = self._families.setdefault(family_key, len(self._families))
        cells = self._cells

        def read(n, i):
            self.coeff_reads += 1
            cells.add((fam, n, i))
            return acc(n, i)

        return read

    def dump(self, path) -> None:
        """Write the spans: a JSON header line (names, count), then the
        name, parent, request, start and end arrays in native binary."""
        columns = (self.span_name, self.span_parent, self.span_request,
                   self.span_start, self.span_end)
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.span_name),
                      "columns": ["name:i", "parent:i", "request:i",
                                  "start:d", "end:d"]}
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in columns:
                column.tofile(handle)

    def analyse(self) -> dict:
        return analyse_spans(self.names, self.span_name, self.span_parent,
                             self.span_start, self.span_end,
                             extra={"series.coeff_reads": self.coeff_reads,
                                    "series.coeff_distinct": len(self._cells)})


def analyse_spans(names, span_name, span_parent, span_start, span_end,
                  extra=None) -> dict:
    """Per-name calls and self time, plus comparison counts.

    Parents are opened before their children, so one forward pass over the
    span ids sees every parent before any of its children.
    """
    count = len(span_name)
    covered = array("d", bytes(8 * count))
    for sid in range(count):
        parent = span_parent[sid]
        if parent >= 0:
            covered[parent] += span_end[sid] - span_start[sid]
    calls = Counter()
    self_time = Counter()
    for sid in range(count):
        name = names[span_name[sid]]
        calls[name] += 1
        self_time[name] += span_end[sid] - span_start[sid] - covered[sid]
    owner_ids = {names.index(o): o for o in COMPARISON_OWNERS if o in names}
    comparisons = Counter()
    if owner_ids and COMPARISON in names:
        target = names.index(COMPARISON)
        inside = {nid: bytearray(count) for nid in owner_ids}
        for sid in range(count):
            parent = span_parent[sid]
            if parent < 0:
                continue
            for nid, flags in inside.items():
                if flags[parent] or span_name[parent] == nid:
                    flags[sid] = 1
                    if span_name[sid] == target:
                        comparisons[owner_ids[nid]] += 1
    out = {"spans": count, "calls": dict(calls), "self_s": dict(self_time),
           "comparisons": dict(comparisons)}
    out.update(extra or {})
    return out


def merge(parts) -> dict:
    """Sum analyses from several processes (one per CLI child)."""
    tables = ("calls", "self_s", "comparisons")
    out = {key: Counter() for key in tables}
    out.update({"spans": 0, "series.coeff_reads": 0, "series.coeff_distinct": 0})
    for part in parts:
        for key in tables:
            out[key].update(part[key])
        for key in ("spans", "series.coeff_reads", "series.coeff_distinct"):
            out[key] += part[key]
    for key in tables:
        out[key] = dict(out[key])
    return out


def _family_key(coeffs, grid, rho):
    """What a coefficient table would be keyed by: the family's content (its
    expression tree or rows), the grid points, the precision and the gauge.
    Built from plain attributes, so it calls no traced function."""
    content = coeffs.expr if coeffs.expr is not None else coeffs.rows
    return content, coeffs.n_max, grid.points, grid.precision, rho.expr


def install(tracer: Tracer) -> None:
    """Wrap every public function of the hyperseries modules, the public
    methods in METHODS, and ``mpmath.quad``, in place."""
    import mpmath
    package = importlib.import_module("hyperseries")
    modules = {layer: importlib.import_module("hyperseries." + layer)
               for layer in LAYERS}
    # the acceptance battery is no layer, but it imports names from them
    holders = [package, importlib.import_module("hyperseries.acceptance")] \
        + list(modules.values())
    for layer, module in modules.items():
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            if name == "coeff_accessor":
                wrapped = tracer.wrap(layer + "." + name,
                                      _counting(tracer, fn))
            else:
                wrapped = tracer.wrap(layer + "." + name, fn)
            for holder in holders:
                if vars(holder).get(name) is fn:
                    setattr(holder, name, wrapped)
    for layer, cls_name, method, span in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = inspect.getattr_static(cls, method)
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(span, raw))
    mpmath.quad = tracer.wrap("mpmath.quad", mpmath.quad)


def _counting(tracer, coeff_accessor):
    def accessor(coeffs, grid, rho):
        acc = coeff_accessor(coeffs, grid, rho)
        return tracer.counting_accessor(acc, _family_key(coeffs, grid, rho))
    return accessor
