"""In-memory spans around calls into the program's layers.

The traced run wraps layer entry points (module functions and class
methods) with :meth:`Spans.wrap`; each call records one span with its
parent, so a layer's *self* time is its span time minus its child
spans.  Spans live in memory and are summarised once, after the run.
Span names are ``<layer>.<what>``; the layer is the first segment.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: the layers the summary reports, in print order
LAYERS = (
    "serve", "parallel", "cache", "core", "mappers", "solvers", "bench",
)


class Spans:
    """A span stack plus the finished spans of one traced run."""

    def __init__(self) -> None:
        # finished spans: [name, start_ns, end_ns, child_ns, tag]
        self.done: list[list[Any]] = []
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, tag: Any = None) -> Iterator[None]:
        rec = [name, time.perf_counter_ns(), 0, 0, tag]
        self._stack.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            if self._stack:
                self._stack[-1][3] += rec[2] - rec[1]
            self.done.append(rec)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        tag: Callable[..., Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` may be a function of the call's positional arguments;
        ``tag(result, *args)`` may attach a value to the span (e.g.
        whether a cache lookup hit).  :meth:`restore` undoes every
        wrap.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        done = self.done
        naming = name if callable(name) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = naming(*args) if naming is not None else name
            rec = [label, time.perf_counter_ns(), 0, 0, None]
            stack.append(rec)
            try:
                result = original(*args, **kwargs)
                if tag is not None:
                    rec[4] = tag(result, *args)
                return result
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][3] += rec[2] - rec[1]
                done.append(rec)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ------------------------------------------------------
    def named(self, name: str) -> list[list[Any]]:
        return [s for s in self.done if s[0] == name]

    def mean_us(self, name: str, where: Callable[[Any], bool] | None = None) -> float:
        """Mean inclusive microseconds per call (0 when never called)."""
        recs = [
            s for s in self.named(name) if where is None or where(s[4])
        ]
        if not recs:
            return 0.0
        return sum(s[2] - s[1] for s in recs) / len(recs) / 1e3

    def total_ms(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.named(name)) / 1e6

    def self_ms(self, name: str) -> float:
        return sum(s[2] - s[1] - s[3] for s in self.named(name)) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer, over every span below the root."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, start, end, child, _tag in self.done:
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (end - start - child) / 1e6
        return out
