"""Span tracing of the spwebs layers, installed from outside the package.

Each public function of a layer module is replaced by a wrapper that
records one span: name, start, end, parent span and op id.  To catch
calls through ``from .x import f`` bindings, every attribute of every
loaded ``spwebs.*`` module that *is* the function is rebound.  The
``__init__`` of PlanarGraph, HMatrix and SkewMatrix is wrapped on the
class.  A name that no longer exists is skipped, and the metrics that
need it are reported as absent.

Spans stay in memory (compact arrays) until the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("planar", "connections", "webs", "traces", "linalg", "rings",
          "theorems", "rand", "cli")
CLASS_INITS = (("planar", "PlanarGraph"), ("theorems", "HMatrix"),
               ("linalg", "SkewMatrix"))

PF = "linalg.pf_eliminate"
SKEW = "linalg.SkewMatrix.__init__"
HBUILD = "theorems.HMatrix.__init__"
GRAPH = "planar.PlanarGraph.__init__"
EXACT_DIV = "rings.exact_div_scalar"
ENUM_WEBS = "webs.enumerate_multiwebs"
ENUM_DIMERS = "webs.enumerate_dimers"
CLI_MAIN = "cli.main"


def entry_class(a):
    """Ring of a matrix's entries: poly, float, integral or rational.
    Kasteleyn H mixes int and Fraction(k, 1) entries: that is integral."""
    entries = list(np.asarray(a, dtype=object).flat)
    kinds = {type(x).__name__ for x in entries}
    if "Poly" in kinds:
        return "poly"
    if "float" in kinds:
        return "float"
    if all(getattr(x, "denominator", 1) == 1 for x in entries):
        return "integral"
    return "rational"


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts = {}
        self.pf_classes = {"integral": 0, "rational": 0, "poly": 0, "float": 0}
        self.pf_dim_max = 0
        self.present = set()
        self._undo = []

    def _name_id(self, label):
        if label not in self.ids:
            self.ids[label] = len(self.names)
            self.names.append(label)
        return self.ids[label]

    def span(self, label):
        """Open a span; returns a closer to call with no arguments."""
        sid = self._open(self._name_id(label))

        def close():
            self._close(sid)
        return close

    def _open(self, nid):
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, label, fn, after=None):
        nid = self._name_id(label)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after(self, label):
        """Counters read from a call's arguments and result."""
        if label == PF:
            def pf(args, result):
                a = np.asarray(args[0], dtype=object)
                self.pf_classes[entry_class(a)] += 1
                self.pf_dim_max = max(self.pf_dim_max, a.shape[0])
            return pf
        if label in (ENUM_WEBS, ENUM_DIMERS):
            def enum(args, result):
                self._count(label, len(result))
            return enum
        if label.startswith("traces.trace_"):
            def engine(args, result):
                web = next((a for a in args if hasattr(a, "mult")), None)
                if web is not None:
                    self._count("webs.split_edges", sum(web.mult.values()))
                if result != 0:
                    self._count("traces.nonzero", 1)
            return engine
        if label == CLI_MAIN:
            def exit_code(args, result):
                if result != 0:
                    self._count("cli.nonzero_exit", 1)
            return exit_code
        return None

    def _count(self, key, k):
        self.counts[key] = self.counts.get(key, 0) + k

    def install(self):
        """Wrap every public function of every layer module."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "spwebs" or name.startswith("spwebs."))]
        for layer in LAYERS:
            mod = sys.modules.get("spwebs." + layer)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                label = "%s.%s" % (layer, attr)
                wrapper = self._wrap(label, fn, self._after(label))
                self.present.add(label)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, fn))
        for layer, cls_name in CLASS_INITS:
            cls = getattr(sys.modules.get("spwebs." + layer), cls_name, None)
            if cls is None or "__init__" not in vars(cls):
                continue
            label = "%s.%s.__init__" % (layer, cls_name)
            orig = vars(cls)["__init__"]
            setattr(cls, "__init__", self._wrap(label, orig))
            self.present.add(label)
            self._undo.append((cls, "__init__", orig))

    def uninstall(self):
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo = []

    # -- metrics ----------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: start, end, name id, parent, op id."""
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32))

    def self_times(self):
        start, end, name, parent, ops = self.arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur, dur - child

    def metrics(self):
        """Per-layer metrics; a metric whose source is gone is left out."""
        start, end, name, parent, ops = self.arrays()
        dur, own = self.self_times()
        layer = np.array([lab.split(".")[0] for lab in self.names] or [""],
                         dtype=object)[name]
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        def spans_of(label):
            return name == self.ids.get(label, -1)

        def present(prefix):
            return any(p.startswith(prefix) for p in self.present)

        for lay in LAYERS:
            if present(lay + "."):
                mask = layer == lay
                put(lay + ".self_s", float(own[mask].sum()), "s")
                put(lay + ".calls", int(mask.sum()), "count")
        if ENUM_WEBS in self.present:
            put("webs.multiwebs", self.counts.get(ENUM_WEBS, 0), "count")
        if ENUM_DIMERS in self.present:
            put("webs.dimers", self.counts.get(ENUM_DIMERS, 0), "count")
        if present("traces.trace_"):
            engine_ids = [i for lab, i in self.ids.items()
                          if lab.startswith("traces.trace_")]
            engines = np.isin(name, engine_ids)
            calls = int(engines.sum())
            put("webs.split_edges", self.counts.get("webs.split_edges", 0), "count")
            put("traces.nonzero_ratio",
                self.counts.get("traces.nonzero", 0) / calls if calls else 0.0,
                "ratio")
            put("traces.max_s", float(dur[engines].max()) if calls else 0.0, "s")
        if PF in self.present:
            pf = spans_of(PF)
            put("linalg.pf_calls", int(pf.sum()), "count")
            put("linalg.pf_s", float(dur[pf].sum()), "s")
            put("linalg.pf_dim_max", self.pf_dim_max, "count")
            for cls, k in self.pf_classes.items():
                put("linalg.pf_%s_calls" % cls, k, "count")
        if SKEW in self.present:
            put("linalg.skew_check_s", float(dur[spans_of(SKEW)].sum()), "s")
        if EXACT_DIV in self.present:
            div = spans_of(EXACT_DIV)
            put("rings.exact_div_calls", int(div.sum()), "count")
            put("rings.exact_div_s", float(dur[div].sum()), "s")
        if HBUILD in self.present:
            h = spans_of(HBUILD)
            skew_in_h = spans_of(SKEW) & np.isin(parent, np.flatnonzero(h))
            put("theorems.h_assembly_s",
                float(dur[h].sum() - dur[skew_in_h].sum()), "s")
        if GRAPH in self.present:
            put("planar.graphs_built", int(spans_of(GRAPH).sum()), "count")
        if CLI_MAIN in self.present:
            put("cli.nonzero_exit", self.counts.get("cli.nonzero_exit", 0), "count")
        return out

    def by_kind(self, kinds):
        """Self time per (op kind, layer); kinds[i] is the kind of op i."""
        start, end, name, parent, ops = self.arrays()
        _, own = self.self_times()
        layer_names = sorted({lab.split(".")[0] for lab in self.names})
        layer_of = np.array([layer_names.index(lab.split(".")[0])
                             for lab in self.names], dtype=np.int64)
        kind_names = sorted(set(kinds))
        kind_of = np.array([kind_names.index(k) for k in kinds], dtype=np.int64)
        keep = ops >= 0
        key = kind_of[ops[keep]] * len(layer_names) + layer_of[name[keep]]
        sums = np.bincount(key, weights=own[keep],
                           minlength=len(kind_names) * len(layer_names))
        return {k: {lay: float(sums[i * len(layer_names) + j])
                    for j, lay in enumerate(layer_names)
                    if sums[i * len(layer_names) + j]}
                for i, k in enumerate(kind_names)}

    def save(self, path):
        start, end, name, parent, ops = self.arrays()
        np.savez(path, names=np.array(self.names), start=start, end=end,
                 name=name, parent=parent, op=ops)
