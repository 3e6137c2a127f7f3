"""In-memory span tracer that wraps module attributes from the outside.

The program is not modified: a span is recorded only around a call that
goes through a module attribute the tracer has replaced, so the wrapped
name must be looked up on that module at call time (as `sampler` does
with `build_embedded_ising` and `cli` with `margin_model_run`). Each
span is [name, start, end, parent, root]; spans stay in a list until
the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT_PREFIX = "bench."


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # "module.attr" with nothing to wrap
        self.count_errors: set[str] = set()  # span names whose counter failed
        self._stack: list[int] = []
        self._targets: list[tuple] = []  # (module, attr, wrapper, original)

    def add(self, module, attr: str, name: str, count=None) -> bool:
        """Register `module.attr` to be traced as span `name`.

        `count(counters, args, kwargs)` may add to named counters on each
        call. A missing or non-callable attribute is recorded in
        `missing` instead of raising.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return False
        self._targets.append((module, attr, self._wrapper(original, name, count), original))
        return True

    def wrapped_names(self) -> set[str]:
        return {wrapper.span_name for _, _, wrapper, _ in self._targets}

    def _wrapper(self, original, name, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        errors = self.count_errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                try:
                    count(counters, args, kwargs)
                except (TypeError, ValueError, IndexError, AttributeError, KeyError):
                    errors.add(name)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, spans[parent][4] if stack else len(spans)]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.span_name = name
        return wrapper

    def install(self):
        for module, attr, wrapper, _ in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, _, original in self._targets:
            setattr(module, attr, original)

    def call_root(self, name: str, fn):
        """Call `fn()` as root span `bench.<name>`; return (result, span index)."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        index = len(self.spans)
        return self._wrapper(fn, ROOT_PREFIX + name, None)(), index

    def reset_counters(self):
        self.counters.clear()

    def summarize(self, root_index: int) -> dict:
        """Inclusive time, self time and call count per span name under one root."""
        child = defaultdict(float)
        members = [i for i in range(root_index, len(self.spans))
                   if self.spans[i][4] == root_index]
        for i in members:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i in members:
            name, start, end, _, _ = self.spans[i]
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        return {"total": dict(total), "self": dict(self_time), "calls": dict(calls)}

    def to_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p, _ in self.spans]
