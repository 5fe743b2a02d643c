"""Parent/child spans on the simulated clock: the request-lifecycle trace.

The serving plane resolves every admitted request through a small state
machine (``submit -> admission -> queued -> fused -> drain -> retry ->
complete/error``).  :class:`SpanTracer` records that lifecycle as a tree
of :class:`Span` objects stamped on the server's
:class:`~repro.serve.policy.SimulatedClock`, so a chaos replay yields a
fully deterministic trace: same seeds, same spans, same timestamps.

Spans cross function boundaries (a request span opens at ``submit`` and
closes when the drain loop resolves it), so the primary API is explicit
:meth:`SpanTracer.begin` / :meth:`SpanTracer.finish` with an explicit
parent.  :meth:`SpanTracer.span` is the context-manager convenience for
code-shaped scopes (implicit parent via a stack).

:meth:`SpanTracer.validate` asserts structural integrity -- every parent
exists and every finished child lies inside its finished parent's
interval -- which the test suite runs over recorded serve traces.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed, attributed node of the request-lifecycle tree."""

    span_id: int
    name: str
    start: float
    parent_id: int | None = None
    end: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span duration in simulated seconds (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class SpanTracer:
    """Records spans against a clock object exposing ``now()``.

    ``clock`` may be ``None`` (timestamps then default to 0.0 unless
    passed explicitly via ``at=``); the serving plane installs its
    simulated clock when an :class:`~repro.obs.Observability` object is
    attached to a server.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _now(self, at: float | None) -> float:
        if at is not None:
            return float(at)
        if self.clock is not None:
            return float(self.clock.now())
        return 0.0

    def begin(self, name: str, *, parent: Span | None = None,
              at: float | None = None, **attributes) -> Span:
        """Open a span; the caller keeps the handle and finishes it later."""
        if parent is None and self._stack:
            parent_id: int | None = self._stack[-1]
        else:
            parent_id = None if parent is None else parent.span_id
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=self._now(at),
            parent_id=parent_id,
            attributes=dict(attributes),
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, *, at: float | None = None,
               **attributes) -> Span:
        """Close a span, merging any final attributes (e.g. the outcome)."""
        span.end = self._now(at)
        if attributes:
            span.attributes.update(attributes)
        return span

    def event(self, name: str, *, parent: Span | None = None,
              at: float | None = None, **attributes) -> Span:
        """A zero-duration span (instantaneous lifecycle transitions)."""
        span = self.begin(name, parent=parent, at=at, **attributes)
        return self.finish(span, at=span.start)

    @contextmanager
    def span(self, name: str, *, at: float | None = None,
             **attributes) -> Iterator[Span]:
        """Context-manager form with implicit parenting via a stack."""
        opened = self.begin(name, at=at, **attributes)
        self._stack.append(opened.span_id)
        try:
            yield opened
        finally:
            self._stack.pop()
            if opened.end is None:
                self.finish(opened)

    # -- views ---------------------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def validate(self) -> None:
        """Assert structural integrity of the recorded span tree.

        Checks: span ids are dense and ordered, parents exist and were
        opened no later than their children, and every finished child's
        interval lies within its finished parent's interval.
        """
        for index, span in enumerate(self.spans):
            if span.span_id != index:
                raise AssertionError(
                    f"span id {span.span_id} at position {index}: ids must "
                    f"be dense and ordered"
                )
            if span.parent_id is None:
                continue
            if not 0 <= span.parent_id < index:
                raise AssertionError(
                    f"span {span.span_id} ({span.name!r}) references "
                    f"parent {span.parent_id}, which does not precede it"
                )
            parent = self.spans[span.parent_id]
            if span.start < parent.start:
                raise AssertionError(
                    f"span {span.span_id} ({span.name!r}) starts at "
                    f"{span.start} before its parent {parent.name!r} "
                    f"at {parent.start}"
                )
            if (span.end is not None and parent.end is not None
                    and span.end > parent.end):
                raise AssertionError(
                    f"span {span.span_id} ({span.name!r}) ends at "
                    f"{span.end} after its parent {parent.name!r} "
                    f"at {parent.end}"
                )


__all__ = ["Span", "SpanTracer"]
