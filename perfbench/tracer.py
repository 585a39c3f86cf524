"""Spans and counters recorded from outside the program.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name wherever an edgex module imported it, so calls between
modules (``extension`` calling ``coloring.demand_list_color``) and inside a
module (``coloring.demand_list_color`` calling ``exact_list_color``) all pass
through a span. Only the open spans are kept, on a stack: the span below a
span is its parent, and a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("graph", "families", "coloring", "extension", "oracle")
# O(1) helpers called per edge: a span would cost more than the body, and
# their callers' self time would mostly measure the tracer.
UNTRACED = {"graph.canonical_edge", "graph.adjacent_edges"}


class Tracer:
    def __init__(self):
        self.calls = {}  # span name -> number of spans
        self.self_s = {}  # span name -> summed self time
        self.counters = {"coloring.short_lists": 0}
        self.stack = []  # open spans: [summed duration of their child spans]

    def install(self):
        """Wrap the layer modules' public functions; returns an undo callable."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"edgex.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                originals[fn] = self.wrap(name, fn)
        hosts = [m for key, m in sys.modules.items() if key == "edgex" or key.startswith("edgex.")]
        rebound = []
        for module in hosts:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, value))

        def undo():
            for module, attr, value in rebound:
                setattr(module, attr, value)

        return undo

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
            if hook is not None:
                hook_start = clock()
                hook(self, result)
                if stack:  # keep the hook out of the caller's self time
                    stack[-1][0] += clock() - hook_start
            return result

        return traced

    def end_op(self):
        # a deadline can land between a span's start and its bookkeeping
        self.stack.clear()

    def self_time(self, prefix):
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))


def _count_short_lists(tracer, reduced):
    """Residual edges whose list is shorter than the residual max degree."""
    residual = reduced.base_residual
    delta = max((len(ns) for ns in residual.adjacency), default=0)
    tracer.counters["coloring.short_lists"] += sum(
        1 for colors in reduced.lists.lists.values() if len(colors) < delta
    )


HOOKS = {"extension.reduce_instance": _count_short_lists}
