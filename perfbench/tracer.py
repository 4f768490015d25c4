"""Module-boundary spans for ``distill_lab``, recorded from outside the package.

Every public module-level function of every ``distill_lab`` module is wrapped
in every module namespace where it is bound: ``from .denoiser import
cfg_predict`` copies the binding into ``distill`` and ``latentops``, so
wrapping ``denoiser.cfg_predict`` alone would miss every objective call.

A call opens a span only when it crosses from one module (the layer) into
another; calls that stay inside a module run straight through. Spans are
aggregated by module, never by function name, so replacing one function by
another keeps every layer metric. A layer's self time is the length of its
spans minus the spans of other layers nested inside them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time


PACKAGE = "distill_lab"
# Layers whose functions take a file path first; the size of that file after
# each entry is added to ``Tracer.file_bytes``.
FILE_LAYERS = frozenset({"flatfile"})


class Tracer:
    """Wraps the package's public functions while installed; spans stay in memory."""

    def __init__(self):
        # (span_id, parent_id, layer, function, start, end), appended on close,
        # so every child precedes its parent.
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.file_bytes = 0
        self._stack: list[tuple[str, int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0
        self.file_bytes = 0

    def _modules(self) -> dict[str, object]:
        return {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }

    def install(self) -> None:
        """Patch every binding of every public function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        targets = {}
        for name, mod in modules.items():
            if name == PACKAGE:
                continue
            layer = name.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == name
                        and not attr.startswith("_")):
                    targets[id(value)] = (value, layer)
        wrappers = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit)
                setattr(mod, attr, wrappers[id(value)])
                self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, fn, layer: str):
        stack = self._stack
        spans = self.spans
        name = fn.__name__
        counts_bytes = layer in FILE_LAYERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            stack.append((layer, span_id))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, layer, name, start, end))
                if counts_bytes and args and isinstance(args[0], (str, os.PathLike)):
                    if os.path.isfile(args[0]):
                        self.file_bytes += os.path.getsize(args[0])

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``entries`` (spans opened) and ``self_s``."""
        child_time: dict[int, float] = {}
        totals: dict[str, dict[str, float]] = {}
        for span_id, parent, layer, _, start, end in self.spans:
            duration = end - start
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + duration
            entry = totals.setdefault(layer, {"entries": 0, "self_s": 0.0})
            entry["entries"] += 1
            entry["self_s"] += duration - child_time.pop(span_id, 0.0)
        return totals
