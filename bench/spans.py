"""In-memory spans and counters recorded from outside the program.

A `Tracer` wraps functions by replacing module attributes, so the program
itself is not edited: every module that holds a reference to the original
function (including names imported with ``from x import f``) gets the
wrapper, and `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """``fn`` inside a span; hooks see the bound call arguments.

        Hooks run after the span closes, so counting is not charged to the
        layer being measured.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    error = exc
                else:
                    error = None
            if on_result is not None or on_error is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if error is None and on_result is not None:
                    on_result(self.counters, result, bound.arguments)
                if error is not None and on_error is not None:
                    on_error(self.counters, error, bound.arguments)
            if error is not None:
                raise error
            return result

        return wrapper

    def patch(self, modules, owner, attr: str, name: str, on_result=None,
              on_error=None) -> int:
        """Replace ``owner.attr`` wherever it appears in ``modules``.

        Returns how many module attributes were replaced.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, on_result, on_error)
        replaced = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))
                    replaced += 1
        return replaced

    def restore(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def busy(spans: list[Span], names) -> float:
    """Time spent inside spans named in ``names``, counting nested ones once."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += span.duration
    return total


def nesting_problems(spans: list[Span], tolerance: float = 1e-9) -> list[str]:
    """Children that leave their parent's interval or overlap a sibling.

    When there are none, a span's children plus its self time account for
    its whole duration.
    """
    problems = []
    last_end: dict[int | None, float] = {}
    for i, span in enumerate(spans):
        if not span.end >= span.start:
            problems.append(f"span {i} ({span.name}) has no valid end")
            continue
        if span.parent is not None:
            parent = spans[span.parent]
            if span.start < parent.start - tolerance or span.end > parent.end + tolerance:
                problems.append(f"span {i} ({span.name}) leaves parent {parent.name}")
        if span.start < last_end.get(span.parent, -float("inf")) - tolerance:
            problems.append(f"span {i} ({span.name}) overlaps its previous sibling")
        last_end[span.parent] = span.end
    return problems
