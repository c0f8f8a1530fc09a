"""Per-layer spans and counts for the traced run, recorded from outside.

Tracer.install() wraps the public functions listed in LAYERS, in the module
that defines each one and in every jjwafer module that imported it, so calls
made inside the package (report.analyze -> breakdown.detect_breakdown) pass
through the wrapper too.  Spans stay in memory; the run writes them out when
it ends.  A span's self time is its duration minus that of its child spans,
which run in the same thread one after another.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = {
    "synthetic": ("generate_wafer",),
    "dataset": ("dumps_text", "dumps_json", "save_dataset", "loads_text",
                "loads_json", "cap_wafer_map", "ramp_traces", "iv_curves",
                "resistance_records"),
    "capacitance": ("wafer_statistics", "fit_capacitance_per_area"),
    "iv_analysis": ("fit_k_from_dt",),
    "resistance": ("decompose_resistances",),
    "breakdown": ("detect_breakdown", "weibull_transform", "fit_weibull_shape",
                  "find_transition"),
    "report": ("analyze", "render_text", "render_json", "export_wafer_grid"),
}
LAYER_FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    phase: str
    thread: int
    start: float
    end: float = 0.0
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in
                   ("jjwafer", "jjwafer.cli", *(f"jjwafer.{m}" for m in LAYERS))]
        for name in LAYER_FUNCTIONS:
            home, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"jjwafer.{home}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), stack[-1].id if stack else None, name,
                        self.op, self.phase, threading.get_ident(),
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def op_spans(self, op: int, phase: str) -> list[Span]:
        return [s for s in self.spans if s.op == op and s.phase == phase]

    @staticmethod
    def self_times(spans: list[Span]) -> dict[str, float]:
        """Summed self time per function name."""
        in_children: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                in_children[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += s.end - s.start - in_children[s.id]
        return out
