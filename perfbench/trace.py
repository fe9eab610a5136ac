"""In-memory spans and attribute wrapping, from outside the program.

A ``Tracer`` keeps spans (name, start, end, parent, run id) in a list and
writes them out once, when the run ends. ``wrap_attributes`` replaces
module or class attributes with timing wrappers for the length of a
``with`` block and restores the originals afterwards, so the program's
own code is never edited.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

now_ns = time.perf_counter_ns


@dataclass
class Span:
    span_id: int
    name: str
    start: int          # perf_counter_ns
    end: int | None
    parent: int | None  # span_id of the enclosing span
    run_id: str
    step: int | None = None  # id of the training-step span this ran inside

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.step: Span | None = None

    def open(self, name: str, start: int | None = None) -> Span:
        span = Span(
            span_id=len(self.spans), name=name,
            start=now_ns() if start is None else start, end=None,
            parent=self._stack[-1].span_id if self._stack else None,
            run_id=self.run_id,
            step=self.step.span_id if self.step is not None else None,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now_ns()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed while {top.name} is open")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def write(self, path: Path, extra: dict | None = None) -> None:
        doc = dict(extra or {})
        doc["run_id"] = self.run_id
        doc["spans"] = [
            {"id": s.span_id, "name": s.name, "start_ns": s.start,
             "end_ns": s.end, "parent": s.parent, "run_id": s.run_id}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of every closed span: its duration minus the part of
    its interval that its child spans cover (overlaps counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and s.end is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, int] = {}
    for s in spans:
        if s.end is None:
            continue
        covered = 0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


Wrapper = Callable[[Callable], Callable]


@contextmanager
def wrap_attributes(targets: list[tuple[Any, str, Wrapper]],
                    missing: set[str] | None = None) -> Iterator[None]:
    """Install make_wrapper(original) as owner.name for each target.

    A target whose attribute does not exist raises AttributeError, or,
    when a ``missing`` set is given, is skipped and its dotted name added
    to the set, so a run can report what it could not trace.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, name, make_wrapper in targets:
            original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
            if original is None:
                dotted = f"{getattr(owner, '__name__', owner)}.{name}"
                if missing is None:
                    raise AttributeError(f"cannot wrap {dotted}: no such attribute")
                missing.add(dotted)
                continue
            saved.append((owner, name, original))
            setattr(owner, name, make_wrapper(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
