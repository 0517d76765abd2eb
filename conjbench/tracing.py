"""Span tracing of conjlab's public callables, from outside the package.

The tracer replaces each traced function in every conjlab module
namespace that holds it (``hnf_solve`` lives in both ``conjugacy`` and
``quotients``, ``g_mul`` in four modules), and each traced method on its
class, with one wrapper that records a span: name, start, end and the
span that was open when it was entered. Spans stay in memory as packed
arrays and are written out once, at the end of the run. Self time is a
span's duration minus the time covered by its direct child spans.

Nothing under ``src/`` is edited; the wrappers call the original objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import time
from array import array

# (metric prefix, defining module, attribute path) for every traced callable
TRACED = (
    ("nilpotent.d_mul", "nilpotent", "d_mul"),
    ("nilpotent.d_inv", "nilpotent", "d_inv"),
    ("nilpotent.phi_shift", "nilpotent", "phi_shift"),
    ("nilpotent.is_identity_d", "nilpotent", "is_identity_d"),
    ("extension.g_mul", "extension", "g_mul"),
    ("extension.g_conj", "extension", "g_conj"),
    ("extension.parse_word", "extension", "parse_word"),
    ("conjugacy.conjugacy_decide", "conjugacy", "conjugacy_decide"),
    ("conjugacy.conj_mod_C", "conjugacy", "conj_mod_C"),
    ("conjugacy.solve_twisted_abelian", "conjugacy", "solve_twisted_abelian"),
    ("conjugacy.solve_twisted_derived", "conjugacy", "solve_twisted_derived"),
    ("conjugacy.solve_commutator_equation", "conjugacy",
     "solve_commutator_equation"),
    ("conjugacy.hnf_solve", "conjugacy", "hnf_solve"),
    ("sepfunc.at_least", "sepfunc", "SeparabilityFunction.at_least"),
    ("sepfunc.value", "sepfunc", "SeparabilityFunction.value"),
    ("quotients.make_spec", "quotients", "make_spec"),
    ("quotients.required_c_modulus", "quotients", "required_c_modulus"),
    ("quotients.FoldedQuotient.__init__", "quotients", "FoldedQuotient.__init__"),
    ("quotients.FoldedQuotient.image_is_trivial", "quotients",
     "FoldedQuotient.image_is_trivial"),
    ("quotients.FoldedQuotient.image", "quotients", "FoldedQuotient.image"),
    ("quotients.FoldedQuotient.mul", "quotients", "FoldedQuotient.mul"),
    ("quotients.FoldedQuotient.inv", "quotients", "FoldedQuotient.inv"),
    ("quotients.FoldedQuotient.rotate", "quotients", "FoldedQuotient.rotate"),
    ("quotients.finite_conjugate", "quotients", "finite_conjugate"),
    ("quotients.quotient_conjugate_exact", "quotients",
     "quotient_conjugate_exact"),
    ("search.spec_stream", "search", "spec_stream"),
    ("search.mckinsey_search", "search", "mckinsey_search"),
    ("search.rf_witness_order", "search", "rf_witness_order"),
)

# metrics beside the call/self-time pairs, with their units; every
# workload reports all of them
EXTRA = (
    ("conjugacy.hnf_solve.rows", "count"),
    ("conjugacy.hnf_solve.cols", "count"),
    ("sepfunc.at_least.steps", "count"),
    ("sepfunc.value.steps", "count"),
    ("search.quotients_tested", "count"),
    ("search.conjugators_tested", "count"),
    ("search.route_exhaustive", "count"),
    ("search.route_exact", "count"),
    ("search.separations_per_spec", "1/spec"),
    ("trace.overhead_s", "s"),
)

# spans kept for the written trace; aggregates keep counting past this
MAX_SPANS = 4_000_000


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, _, _ in TRACED:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_ms", "ms")]
    return out + list(EXTRA)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self._stack: list = []      # [span index, name id, start ns, child ns]
        self.calls: list = []
        self.self_ns: list = []
        self.by_parent: dict = {}   # (name id, parent name id) -> calls
        self.counts: dict = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def add(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, nid: int):
        if len(self.span_name) < MAX_SPANS:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            idx = -1
            self.dropped += 1
        start = time.perf_counter_ns()
        if idx >= 0:
            self.span_start[idx] = start
        self._stack.append([idx, nid, start, 0])

    def close(self):
        end = time.perf_counter_ns()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.span_end[idx] = end
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        parent_nid = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent_nid = self._stack[-1][1]
        key = (nid, parent_nid)
        self.by_parent[key] = self.by_parent.get(key, 0) + 1

    def calls_from(self, name: str, parent: str) -> int:
        key = (self._ids.get(name, -2), self._ids.get(parent, -2))
        return self.by_parent.get(key, 0)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close()

    # ------------------------------------------------------------ install

    def _wrapper(self, prefix: str, fn):
        nid = self.name_id(prefix)
        tracer = self

        if prefix == "conjugacy.hnf_solve":
            def before(args, kwargs):
                rows = args[0].rows
                tracer.add("conjugacy.hnf_solve.rows", len(rows))
                tracer.add("conjugacy.hnf_solve.cols",
                           len(rows[0]) if rows else 0)
        else:
            before = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
        return traced

    def _query_wrapper(self, prefix: str, with_steps: str):
        """Replacement for SeparabilityFunction.value / at_least: the base
        methods return the first item of the *_with_steps result; this
        does the same and also sums the step count."""
        nid = self.name_id(prefix)
        tracer = self
        steps_key = f"{prefix}.steps"

        def query(obj, *args):
            tracer.open(nid)
            try:
                result, steps = getattr(obj, with_steps)(*args)
            finally:
                tracer.close()
            tracer.add(steps_key, steps)
            return result
        query.__name__ = prefix.rsplit(".", 1)[1]
        return query

    def install(self, package):
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        for prefix, mod_name, attr in TRACED:
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                if cls_name == "SeparabilityFunction":
                    for sub in _subclasses(cls):
                        if meth in vars(sub):
                            raise RuntimeError(
                                f"{sub.__name__} overrides {meth}; "
                                "the step-counting wrapper would miss it")
                    setattr(cls, meth,
                            self._query_wrapper(prefix, f"{meth}_with_steps"))
                else:
                    setattr(cls, meth, self._wrapper(prefix, vars(cls)[meth]))
                continue
            original = getattr(home, attr)
            wrapped = self._wrapper(prefix, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    # ------------------------------------------------------------ output

    def layer_metrics(self) -> dict:
        out = {}
        for prefix, _, _ in TRACED:
            nid = self._ids.get(prefix)
            out[f"{prefix}.calls"] = self.calls[nid] if nid is not None else 0
            out[f"{prefix}.self_ms"] = (self.self_ns[nid] / 1e6
                                        if nid is not None else 0.0)
        for key, _ in EXTRA:
            if key in self.counts:
                out[key] = self.counts[key]
        return out

    def write(self, stem):
        """Spans as four packed native-endian arrays (name id int32,
        parent span int32, start ns int64, end ns int64) in
        ``<stem>.spans``, described by ``<stem>.spans.json``."""
        with open(f"{stem}.spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"names": self.names, "count": len(self.span_name),
                "dropped": self.dropped,
                "layout": ["name:int32", "parent:int32",
                           "start_ns:int64", "end_ns:int64"]}
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(meta, fh)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
