"""Per-layer spans, recorded from outside concnas.

``Tracer.install`` replaces each layer function in every concnas module
that holds it (``concnas.sweep.concurrency_score``,
``concnas.score.partition``, ...) with a wrapper that records calls,
total time and self time (the span minus the spans of wrapped calls made
inside it), then hands the result to an optional hook that reads counts
from it.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List

# (module, function) of every layer entry point the benchmark times
LAYER_FUNCTIONS = (
    ("randgraph", "generate"),
    ("dagify", "orient"),
    ("archmodel", "elaborate"),
    ("hypart", "build_hypergraph"),
    ("hypart", "partition"),
    ("score", "concurrency_score"),
    ("deploy", "group_chains"),
    ("deploy", "place_greedy"),
    ("deploy", "simulate"),
    ("sweep", "run_sample"),
    ("sweep", "summarize"),
    ("sweep", "write_rows_csv"),
)


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, hooks: Dict[str, Callable] | None = None):
        """``hooks`` maps a label such as ``hypart.partition`` to a callable
        taking (result, positional argument values)."""
        self.spans: Dict[str, Span] = {label: Span() for label in (f"{m}.{f}" for m, f in LAYER_FUNCTIONS)}
        self.hooks = hooks or {}
        self._stack: List[List[float]] = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "concnas"]
        for mod_name, attr in LAYER_FUNCTIONS:
            fn = getattr(sys.modules.get(f"concnas.{mod_name}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    def _wrap(self, label: str, fn: Callable) -> Callable:
        span = self.spans[label]
        hook = self.hooks.get(label)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.total += dt
                span.self_time += dt - children[0]
            if hook is not None:
                t1 = perf_counter()
                hook(result, list(signature.bind(*args, **kwargs).arguments.values()))
                if stack:  # the hook's time is not the caller's self time
                    stack[-1][0] += perf_counter() - t1
            return result

        return wrapper
