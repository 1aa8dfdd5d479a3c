"""Spans from outside: time calls into the program's public functions.

The program under test carries no span code of its own yet, so the
ledger attributes time to layers by replacing a public function or
method with a timing wrapper for the length of one traced repetition and
putting the original back afterwards.  Nothing here is installed during
end-to-end timing.

A span is inclusive: time inside ``Engine.run`` contains the time inside
``Memory.read`` calls it makes.  Each reading also contains one clock
read (about 50 ns here), which matters only for the hottest spans
(``Memory.read``, ``Sandbox.step``); compare them across commits, not
against each other.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "Span"]

_INHERITED = object()


class Span:
    """Accumulated calls into one named boundary."""

    __slots__ = ("calls", "total_ns", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.total_ns = 0
        self.samples: Optional[List[int]] = [] if keep_samples else None

    def add(self, elapsed_ns: int) -> None:
        self.calls += 1
        self.total_ns += elapsed_ns
        if self.samples is not None:
            self.samples.append(elapsed_ns)


class Recorder:
    """Installs timing wrappers and remembers how to undo them."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installing ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`.

        ``owner`` is a class or a module.  The original is looked up in
        the owner's own namespace, so a method inherited from a base
        class is wrapped on the subclass only and restored by deletion.
        """
        # Restoring must put back the namespace's own entry (a
        # staticmethod stays a staticmethod), which getattr would unwrap.
        entry = vars(owner).get(attr, _INHERITED)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, entry))

    def time(
        self,
        span: str,
        owner: Any,
        attr: str,
        keep_samples: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` into the span named ``span``.

        Several targets may share one span name (``Memory.read``,
        ``.write`` and ``.rmw`` all feed ``sim.memory``).  A coroutine
        function is timed from call to completion, waits included.
        """
        record = self.spans.get(span)
        if record is None:
            record = self.spans[span] = Span(keep_samples)
        add = record.add

        def make(original: Any) -> Any:
            if inspect.iscoroutinefunction(original):

                @functools.wraps(original)
                async def timed_async(*args: Any, **kwargs: Any) -> Any:
                    started = perf_counter_ns()
                    try:
                        return await original(*args, **kwargs)
                    finally:
                        add(perf_counter_ns() - started)

                return timed_async

            @functools.wraps(original)
            def timed(*args: Any, **kwargs: Any) -> Any:
                started = perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    add(perf_counter_ns() - started)

            return timed

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, entry = self._undo.pop()
            if entry is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, entry)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- reading -------------------------------------------------------------

    def calls(self, span: str) -> int:
        record = self.spans.get(span)
        return record.calls if record is not None else 0

    def seconds(self, span: str) -> float:
        record = self.spans.get(span)
        return record.total_ns / 1e9 if record is not None else 0.0

    def mean_us(self, span: str) -> float:
        record = self.spans.get(span)
        if record is None or not record.calls:
            return 0.0
        return record.total_ns / record.calls / 1e3

    def samples_us(self, span: str) -> List[float]:
        """Ascending per-call durations in µs (spans kept with samples)."""
        record = self.spans.get(span)
        if record is None or not record.samples:
            return []
        return sorted(ns / 1e3 for ns in record.samples)
