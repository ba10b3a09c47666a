"""Spans around calls into each module of the package, installed from outside.

Every public function and public method of each module is wrapped, and so
is every function one module imports from another (such as `bounds.mul_t`
or `laws.subgroup_closure`), in the importing module's namespace. Each call
is timed on a stack, so self time (duration minus the time of wrapped
calls below it) and call counts are exact per function. Spans (name,
start, end, parent) are kept in memory for all calls except the
per-element operations in HOT, whose millions of calls are only counted;
they are written out when the traced run ends.
"""

import inspect
import json
import sys
import time
from array import array

PACKAGE = "anaburnside"
MODULES = ("words", "towers", "catalog", "config", "bounds", "analyzer", "cli",
           "engine", "engine.build", "engine.perm", "engine.indexed",
           "engine.structure", "engine.laws")
# Per-element and scalar operations, by method or Class.method name:
# counted and timed, not kept as spans.
HOT = frozenset({"Permutation.__init__", "is_prime_power", "GaloisField.add",
                 "GaloisField.mul", "mul", "inv", "conjugate", "identity", "contains", "order_of",
                 "index_of", "index_of_row", "perm_of", "to_local", "coset_of",
                 "split", "join", "label", "__mul__", "inverse", "is_identity",
                 "mul_t", "pow_t", "exp_t", "ln_t", "big_E", "cmp_t", "close_t",
                 "tower", "from_real", "to_real", "is_zero", "is_one",
                 "render_tower", "parse_tower", "_add_t", "order", "is_empty",
                 "make"})
SPAN_CAP = 400_000


def short_module(name):
    """anaburnside.engine.laws -> laws; anaburnside.towers -> towers."""
    return name.split(".")[-1]


class Tracer:
    def __init__(self):
        self.names = []          # qualified name per id, e.g. "indexed.PermIndexedGroup.mul"
        self.modules = []        # short module name per id
        self.calls = []
        self.self_s = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        # frame: [stored span index or -1, time of wrapped calls below]
        self._stack = [[-1, 0.0]]
        self._undo = []
        self._wrapped = {}

    # -- wrapping --

    def _wrapper(self, fn, qualname, module):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        nid = len(self.names)
        self.names.append(qualname)
        self.modules.append(module)
        self.calls.append(0)
        self.self_s.append(0.0)
        store = (qualname.rsplit(".", 1)[-1] not in HOT
                 and qualname.split(".", 1)[-1] not in HOT)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = -1
            if store:
                if len(s_name) < SPAN_CAP:
                    sid = len(s_name)
                    s_name.append(nid)
                    s_parent.append(parent[0])
                    s_start.append(0.0)
                    s_end.append(0.0)
                else:
                    tracer.spans_dropped += 1
            frame = [sid if sid >= 0 else parent[0], 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                parent[1] += dur
                if sid >= 0:
                    s_start[sid] = t0
                    s_end[sid] = t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        self._wrapped[key] = traced
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: sys.modules["%s.%s" % (PACKAGE, m)] for m in MODULES}
        own = {}
        for short, mod in mods.items():
            label = short_module(short)
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    own[id(value)] = self._wrapper(value, "%s.%s" % (label, attr), label)
                    self._set(mod, attr, own[id(value)])
                elif inspect.isclass(value) and value.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._wrap_class(value, label)
        # names a module imports from another module of the package
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__module__ == mod.__name__:
                    continue
                if not value.__module__.startswith(PACKAGE + "."):
                    continue
                if id(value) not in own:
                    label = short_module(value.__module__)
                    own[id(value)] = self._wrapper(value, "%s.%s" % (label, attr), label)
                self._set(mod, attr, own[id(value)])

    def _wrap_class(self, cls, label):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__mul__", "__init__"):
                continue
            if attr == "__init__" and label not in ("perm", "indexed"):
                continue
            qual = "%s.%s.%s" % (label, cls.__name__, attr)
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrapper(raw.__func__, qual, label)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrapper(raw, qual, label))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --

    def self_by_module(self):
        out = {}
        for module, s in zip(self.modules, self.self_s):
            out[module] = out.get(module, 0.0) + s
        return out

    def summary(self):
        return {"self_s": self.self_by_module(),
                "calls": {n: c for n, c in zip(self.names, self.calls) if c},
                "function_self_s": {n: s for n, s in zip(self.names, self.self_s) if s}}

    def write(self, path):
        """Spans as [name id, parent span, start, end] plus the aggregates."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[n, p, round(s - t0, 9), round(e - t0, 9)]
                                 for n, p, s, e in zip(self.span_name, self.span_parent,
                                                       self.span_start, self.span_end)],
                       "spans_dropped": self.spans_dropped,
                       "summary": self.summary()}, fh, separators=(",", ":"))


def merge_summaries(summaries):
    """Sum self times and call counts of several traced processes."""
    self_s, calls = {}, {}
    for s in summaries:
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
    return {"self_s": self_s, "calls": calls}


def count(summary, module, method):
    return sum(c for name, c in summary["calls"].items()
               if name.split(".")[0] == module and name.rsplit(".", 1)[-1] == method)

