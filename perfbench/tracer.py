"""Outside-in tracing of the ``ordinfluence`` modules.

``Tracer.install`` replaces every public function in every ``ordinfluence``
module namespace that binds it with a wrapper that records a span (name,
start, end, parent span, op id).  A function bound in two namespaces (for
example ``symmetrize`` in ``exact`` and ``funcspec``) gets one wrapper per
binding, so a call is traced whichever name it goes through.  A span is
named after the module that defines the function and the name it is bound
under, e.g. ``exact.symmetrize`` or ``backends.lovasz_eval_batch``.  A few
methods are wrapped at class level, and scipy's ``quad`` as ``closedforms``
binds it.  Names that no longer exist are listed in ``absent``.

Spans live in flat arrays while the program runs; ``summarize`` turns them
into per-op counters and self times after the run.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

MODULES = ("cli", "api", "funcspec", "exact", "projection", "lovasz",
           "closedforms", "montecarlo", "backends", "report", "errors")

# (module, class, attribute, span name, payload)
METHODS = (
    ("montecarlo", "Evaluator", "__call__", "montecarlo.Evaluator.__call__", "rows"),
    ("exact", "OrderStatPolynomial", "__mul__", "exact.poly_mul", None),
    ("exact", "OrderStatPolynomial", "__rmul__", "exact.poly_mul", None),
    ("report", "ReportDocument", "render", "report.render", None),
)

# Payloads recorded per span, computed after the span's end time is taken.
PAYLOADS = {
    "exact.symmetrize": lambda args, result: len(result.terms),
    "lovasz.mobius": lambda args, result: sum(1 for v in result.values if v != 0),
    "backends.lovasz_eval_batch": lambda args, result: len(args[1]),
    "rows": lambda args, result: len(args[1]),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.payload = {}
        self.absent = []
        self.current_op = -1
        self._stack = []
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, payload=None):
        nid = self._id(name)
        measure = PAYLOADS.get(payload or name)
        stack, clock = self._stack, time.perf_counter
        start, end, names, parent, op = self.start, self.end, self.name, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                try:
                    self.payload[idx] = measure(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the traced function changed shape; keep the span
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package; returns self.  Call ``uninstall`` to undo."""
        namespaces = []
        for short in MODULES:
            try:
                namespaces.append((short, importlib.import_module("ordinfluence." + short)))
            except ImportError:
                self.absent.append("ordinfluence." + short)
        namespaces.append(("", importlib.import_module("ordinfluence")))
        for short, mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("ordinfluence.")):
                    continue
                defining = obj.__module__.rsplit(".", 1)[1]
                self._set(mod, attr, self.wrap("%s.%s" % (defining, attr), obj))
        wrapped = {}
        for modname, cls_name, attr, span, payload in METHODS:
            mod = dict(namespaces).get(modname)
            cls = getattr(mod, cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                self.absent.append(span + " (%s.%s)" % (cls_name, attr))
                continue
            if fn not in wrapped:
                wrapped[fn] = self.wrap(span, fn, payload)
            self._set(cls, attr, wrapped[fn])
        self._wrap_spec_evaluators(dict(namespaces).get("funcspec"))
        self._wrap_quad(dict(namespaces).get("closedforms"))
        return self

    def _wrap_spec_evaluators(self, funcspec):
        base = getattr(funcspec, "FunctionSpec", None)
        if base is None:
            self.absent.append("funcspec.evaluator (FunctionSpec)")
            return
        for cls in [base] + _subclasses(base):
            fn = cls.__dict__.get("evaluator")
            if isinstance(fn, types.FunctionType):
                self._set(cls, "evaluator", self.wrap("funcspec.evaluator", fn))

    def _wrap_quad(self, closedforms):
        integrate = getattr(closedforms, "integrate", None)
        if integrate is None or not hasattr(integrate, "quad"):
            self.absent.append("closedforms.quad (closedforms.integrate)")
            return
        self._set(closedforms, "integrate",
                  _ModuleProxy(integrate, quad=self.wrap("closedforms.quad", integrate.quad)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy()}

    def save(self, path):
        """Write every span: name ids index ``names``; parent -1 is a root."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class _ModuleProxy:
    """A module with some attributes replaced, the rest looked up in it."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def summarize(tracer: Tracer, n_ops: int) -> list:
    """Per op: {span name: [calls, inclusive s, self s, payload sum]}."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros(len(dur))
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    payload = np.zeros(len(dur))
    if tracer.payload:
        idx = np.fromiter(tracer.payload.keys(), dtype=np.int64)
        payload[idx] = np.fromiter(tracer.payload.values(), dtype=np.float64)
    out = [dict() for _ in range(n_ops)]
    key = a["op"].astype(np.int64) * len(tracer.names) + a["name"]
    valid = a["op"] >= 0
    uniq, inv = np.unique(key[valid], return_inverse=True)
    stats = [np.bincount(inv, weights=w, minlength=len(uniq))
             for w in (np.ones(valid.sum()), dur[valid], self_s[valid], payload[valid])]
    for i, k in enumerate(uniq):
        op_idx, name_id = divmod(int(k), len(tracer.names))
        out[op_idx][tracer.names[name_id]] = [float(s[i]) for s in stats]
    return out
