"""Span tracing of arcdiag's public functions, installed from outside.

`Tracer.install` replaces every public function of the listed modules
with a wrapper, both on the defining module and wherever another arcdiag
module (or the package itself) imported it by name.  Each call records a
span: function id, parent span, start and end.  Generator functions get
one span per resume, so a generator's spans hold only the time spent
inside it, and its consumers' time stays with the consumers.  Spans stay
in four arrays until `summary` folds them into per-function figures and
`write` saves them.

A span's self time is its duration minus the durations of its direct
children.  Time a wrapper spends outside its own clock readings lands in
the parent's self time; that is the tracing overhead the README reports.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array

MODULES = ("perms", "arcs", "diagrams", "congruences", "counting", "textforms", "render", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []  # invocations; a generator counts once, not per resume
        self.yields: list[int] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.originals: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.yields.append(0)
        return len(self.names) - 1

    def _wrap_function(self, fn, label):
        fid_arr, par_arr, start_arr, end_arr = self.fn, self.parent, self.start, self.end
        stack, calls, clock = self.stack, self.calls, time.perf_counter
        ids: dict[str, int] = {}

        def fid_for(args) -> int:
            name = label(args)
            if name not in ids:
                ids[name] = self._id(name)
            return ids[name]

        def traced(*args, **kwargs):
            fid = fid_for(args)
            calls[fid] += 1
            sid = len(fid_arr)
            fid_arr.append(fid)
            par_arr.append(stack[-1])
            start_arr.append(0.0)
            end_arr.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_arr[sid] = t0
                end_arr[sid] = t1

        return traced

    def _wrap_generator(self, fn, label):
        fid_arr, par_arr, start_arr, end_arr = self.fn, self.parent, self.start, self.end
        stack, calls, yields, clock = self.stack, self.calls, self.yields, time.perf_counter
        fid = self._id(label(()))

        def resume(gen):
            while True:
                sid = len(fid_arr)
                fid_arr.append(fid)
                par_arr.append(stack[-1])
                start_arr.append(0.0)
                end_arr.append(0.0)
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    start_arr[sid] = t0
                    end_arr[sid] = t1
                yields[fid] += 1
                yield item

        def traced(*args, **kwargs):
            calls[fid] += 1
            return resume(fn(*args, **kwargs))

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each module in MODULES."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in MODULES}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                base = f"{short}.{attr}"
                if fn is getattr(module, "export_dot", None):
                    # one function, two exports with unrelated costs
                    label = lambda args, base=base: f"{base}_{args[0] if args else 'unknown'}"
                else:
                    label = lambda args, base=base: base
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._wrap_generator(fn, label)
                else:
                    wrapped = self._wrap_function(fn, label)
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self.originals.append((ns, other, fn))
                            setattr(ns, other, wrapped)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self.originals):
            setattr(ns, attr, fn)
        self.originals.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, yields, spans and self seconds."""
        fid_arr, par_arr, start_arr, end_arr = self.fn, self.parent, self.start, self.end
        if len(self.stack) != 1:
            raise RuntimeError("summary taken while spans are still open")
        dur = array("d", (e - s for s, e in zip(start_arr, end_arr)))
        self_time = array("d", dur)
        for sid, p in enumerate(par_arr):
            if p >= 0:
                self_time[p] -= dur[sid]
        k = len(self.names)
        self_s, spans = [0.0] * k, [0] * k
        for sid, f in enumerate(fid_arr):
            spans[f] += 1
            self_s[f] += self_time[sid]
        return {
            name: {"calls": self.calls[f], "yields": self.yields[f], "spans": spans[f], "self_s": self_s[f]}
            for f, name in enumerate(self.names)
        }

    def top_level_seconds(self) -> float:
        return sum(e - s for p, s, e in zip(self.parent, self.start, self.end) if p < 0)

    def parent_names(self, name: str) -> dict[str, int]:
        """How many spans of `name` sit directly under each parent function."""
        fids = {f for f, n in enumerate(self.names) if n == name}
        out: dict[str, int] = {}
        for sid, f in enumerate(self.fn):
            if f in fids:
                p = self.parent[sid]
                key = self.names[self.fn[p]] if p >= 0 else ""
                out[key] = out.get(key, 0) + 1
        return out

    def write(self, path: str, summary: dict) -> None:
        """Spans as a gzip of the four arrays, after a JSON header line."""
        header = {"names": self.names, "spans": len(self.end), "summary": summary,
                  "layout": "int32 fn, int32 parent, float64 start, float64 end"}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
