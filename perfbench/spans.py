"""Span tracing installed around ncfps from outside the package.

`Tracer.install` replaces every public function of each ncfps module, and
every method of each public class, with a wrapper that records a span: name,
start, end, parent span and the job it belongs to.  The wrappers are swapped
in only while a traced job runs, so untraced jobs call the library directly.
Spans are folded into per-name totals as they close (calls, total time, self
time = duration minus the time covered by child spans); the first `keep`
raw spans are also kept for the trace file.
"""

import importlib
import inspect
import sys
import time

MODULES = ("words", "rings", "series", "bases", "automata", "linalg", "diffring", "chen", "exprs", "cli")

# Methods whose wrapping would only measure the wrapper or break the class.
_SKIP_METHODS = {"__setattr__", "__repr__", "__getattribute__", "__init_subclass__", "__class_getitem__", "__iter__"}


class Frame:
    __slots__ = ("sid", "name", "start", "child", "notes")

    def __init__(self, sid, name, start):
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0.0
        self.notes = None


class Tracer:
    def __init__(self, keep=20000):
        self.stack = []
        self.totals = {}  # name -> [calls, total seconds, self seconds]
        self.spans = []  # (sid, parent sid, job, name, start, end) of the first `keep` spans
        self.keep = keep
        self.job = None
        self._next = 0
        self._patches = []
        self.hooks = {}  # name -> fn(tracer, frame, parent frame, args, result, seconds)

    # -- recording

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            tracer._next += 1
            frame = Frame(tracer._next, name, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child += dur
                tot = tracer.totals.get(name)
                if tot is None:
                    tot = tracer.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame.child
                if len(tracer.spans) < tracer.keep:
                    tracer.spans.append((frame.sid, parent.sid if parent else None, tracer.job, name, frame.start, end))
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(tracer, frame, parent, args, result, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation

    def build(self, package="ncfps"):
        """Work out every (owner, attribute, original, wrapper) to swap."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper, so every binding gets the same wrapper
        patches = []
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    patches += self._class_patches(short, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # rebind every module-level reference to a wrapped function, so calls
        # through `from .x import f` aliases are traced too
        for mod in [sys.modules[package]] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        self._patches = patches

    def _class_patches(self, short, cls):
        out = []
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP_METHODS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                out.append((cls, attr, raw, type(raw)(self._wrap(name, raw.__func__))))
            elif inspect.isfunction(raw):
                out.append((cls, attr, raw, self._wrap(name, raw)))
        return out

    def __enter__(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)
        self.stack.clear()
        return False

    # -- reading

    def self_time(self, predicate):
        return sum(t[2] for n, t in self.totals.items() if predicate(n))

    def call_count(self, predicate):
        return sum(t[0] for n, t in self.totals.items() if predicate(n))

    def report(self):
        return {
            "totals": {n: {"calls": t[0], "total_s": t[1], "self_s": t[2]} for n, t in sorted(self.totals.items())},
            "spans": [
                {"id": s, "parent": p, "job": j, "name": n, "start": a, "end": b} for s, p, j, n, a, b in self.spans
            ],
        }
