"""In-memory span tracer that instruments msrisk from outside the package.

`Tracer.install()` replaces every public function bound at each msrisk
module namespace with a wrapper that records one span per call (name,
start, end, parent span, run id, whether it raised).  The same wrapper
object is bound wherever the original was bound, because `corisk` and
`attribution` import `mixture_quantile` and friends by name.  `MvtParams`
constructions are counted through its `__post_init__`.  `uninstall()` puts
every original object back.

Spans stay in memory until `write_jsonl()`; `layer_stats()` derives per-run
self time (span duration minus the duration of its direct children) and
call/failure counts per span name.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "run", "failed", "info")

    def __init__(self, span_id, parent, name, run):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.start = self.end = 0.0
        self.failed = False
        self.info = None


def span_name(fn) -> str:
    """`<module>.<qualname>` with the leading `msrisk.` dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def public_functions(module, package="msrisk"):
    """(attribute, function) pairs of public package functions bound in module."""
    for attr, value in sorted(vars(module).items()):
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and (value.__module__ or "").split(".")[0] == package
        ):
            yield attr, value


class Tracer:
    """Span recorder for one benchmark process.

    modules : module objects whose public function bindings are wrapped
    counted : classes whose `__post_init__` calls are counted per run
    probes  : span name -> fn(bound_arguments, result) returning a value
              stored on the span (e.g. an iteration count or a cache key)
    """

    def __init__(self, modules, counted=(), probes=None):
        self.modules = list(modules)
        self.counted = list(counted)
        self.probes = dict(probes or {})
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.modules:
            for attr, fn in public_functions(module):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        for cls in self.counted:
            original = cls.__dict__["__post_init__"]
            self._saved.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._count(cls, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn):
        name = span_name(fn)
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, self.run)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.info = probe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _count(self, cls, original):
        key = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__qualname__}.inits"
        counts = self.counts

        @functools.wraps(original)
        def counted(obj):
            counts[(key, self.run)] += 1
            return original(obj)

        return counted

    # -- derived numbers -------------------------------------------------

    def layer_stats(self, run):
        """Per span name for one run: calls, failed, self_s, total_s, infos."""
        spans = [s for s in self.spans if s.run == run]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        stats = {}
        for s in spans:
            row = stats.setdefault(
                s.name,
                {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0, "infos": []},
            )
            duration = s.end - s.start
            row["calls"] += 1
            row["failed"] += int(s.failed)
            row["self_s"] += duration - child_time[s.id]
            row["total_s"] += duration
            if s.info is not None:
                row["infos"].append(s.info)
        return stats

    def run_counts(self, run):
        return {key: n for (key, r), n in self.counts.items() if r == run}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "run": s.run,
                    "failed": s.failed, "info": s.info,
                }) + "\n")
