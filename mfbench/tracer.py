"""Span tracing of moneyflow from outside the package.

The tracer replaces public functions of the ``moneyflow`` modules with
wrappers that record one span per call: name, start, end and the index of the
enclosing span. A name bound elsewhere with ``from .x import y`` is replaced
in every module that holds it, so a call through any import path is seen.
``remove`` puts every original back. Nothing under ``src/`` is edited.

Random draws are too frequent and too cheap for spans: their wrappers only
keep the arguments, so the draw cost can be timed afterwards in a tight loop.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

# (module, attribute) pairs; an attribute "Class.method" names a method.
SPAN_TARGETS: tuple[tuple[str, str], ...] = (
    ("scenario", "load_scenario"),
    ("network", "build_network"),
    ("network", "NetworkState.clone"),
    ("engine", "run"),
    ("engine", "update_agent"),
    ("engine", "settle_all"),
    ("engine", "event_trace"),
    ("recorder", "run_record"),
    ("recorder", "write_record"),
    ("recorder", "read_record"),
    ("recorder", "verify_record"),
    ("retrieval", "fit"),
    ("retrieval", "retrace"),
    ("retrieval", "reproduction_error"),
    ("anticipation", "simulate_candidate"),
    ("anticipation", "robustness_score"),
    ("anticipation", "score_candidates"),
    ("anticipation", "divergence"),
    ("cli", "run_cli"),
)
# Spans of these names keep their call's arguments and result for the layer
# metrics that are read off the outputs (event kinds, fit results, shocks).
KEEP_CALLS = frozenset({"engine.run", "engine.update_agent", "engine.event_trace",
                        "recorder.write_record", "retrieval.fit",
                        "anticipation.simulate_candidate"})
DRAW_TARGETS: tuple[tuple[str, str], ...] = (
    ("rng", "exponential"),
    ("rng", "unit"),
    ("rng", "below"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    call: tuple | None = None  # (args, kwargs, result) for names in KEEP_CALLS

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    The program is sequential, so children of one span never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _package_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "moneyflow" or name.startswith("moneyflow."))]


class Tracer:
    """Installs span and draw wrappers into the imported ``moneyflow`` package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.draws: list[tuple[Callable, tuple]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget recorded spans and draws; the wrappers stay installed."""
        self.spans.clear()
        self.draws.clear()
        self._stack.clear()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for module, attr in SPAN_TARGETS:
            name = f"{module}.{attr.split('.')[-1]}"
            self._replace(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for module, attr in DRAW_TARGETS:
            self._replace(module, attr, self._draw_wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _replace(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner = importlib.import_module(f"moneyflow.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in KEEP_CALLS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                span.call = (args, kwargs, result)
            return result

        return wrapper

    def _draw_wrapper(self, fn: Callable) -> Callable:
        draws = self.draws

        @functools.wraps(fn)
        def wrapper(*args):
            draws.append((fn, args))
            return fn(*args)

        return wrapper


def draw_ns(draws: Sequence[tuple[Callable, tuple]], repeats: int = 5) -> float:
    """Nanoseconds per draw, replaying the recorded arguments in a tight loop.

    The median over `repeats` passes is reported; 0.0 when nothing was drawn.
    """
    if not draws:
        return 0.0
    passes = []
    for _ in range(repeats):
        start = time.perf_counter()
        for fn, args in draws:
            fn(*args)
        passes.append(time.perf_counter() - start)
    passes.sort()
    return passes[len(passes) // 2] / len(draws) * 1e9


@contextmanager
def counting_pools() -> Iterator[list[int]]:
    """Count process pools opened while the block runs; yields a one-item list."""
    original = concurrent.futures.ProcessPoolExecutor
    opened = [0]

    class CountingPool(original):
        def __init__(self, *args, **kwargs):
            opened[0] += 1
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountingPool
    try:
        yield opened
    finally:
        concurrent.futures.ProcessPoolExecutor = original
