"""The hybrid span clock: monotonic durations on a wall-clock anchor.

Tracing needs two things from time that no single stdlib clock gives:

- **durations** must come from a monotonic source (``perf_counter``),
  immune to NTP steps, so stage latencies are trustworthy;
- **timestamps** must be wall-clock seconds since the epoch, so a span
  (or an OpenMetrics exemplar) can say *when* a slow request happened,
  not just how long it took.

:class:`HybridClock` provides both by anchoring one ``time.time()``
epoch reading to one ``perf_counter()`` reading at construction:
``wall_of(mono)`` maps any monotonic instant to wall-clock seconds with
monotonic-grade precision and one syscall per *clock*, not per span.

Determinism guarantees are untouched because the clock is injectable:
anything that stamps wall-clock times accepts a clock argument, tests
pass a :class:`FrozenClock` (advanced manually), and every wall-clock
metric stays in ``*_seconds`` families, which
:meth:`~repro.obs.metrics.MetricsRegistry.deterministic_snapshot`
already excludes.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["HybridClock", "FrozenClock", "default_clock"]


class HybridClock:
    """Wall-clock timestamps derived from a monotonic source.

    Args:
        epoch: wall-clock seconds corresponding to ``anchor`` (defaults
            to ``time.time()`` now).
        anchor: the monotonic reading taken at ``epoch`` (defaults to
            ``time.perf_counter()`` now).
    """

    __slots__ = ("_epoch", "_anchor")

    def __init__(
        self,
        epoch: Optional[float] = None,
        anchor: Optional[float] = None,
    ) -> None:
        self._anchor = time.perf_counter() if anchor is None else anchor
        self._epoch = time.time() if epoch is None else epoch

    @property
    def epoch(self) -> float:
        """The wall-clock seconds this clock anchored at."""
        return self._epoch

    def monotonic(self) -> float:
        """A monotonic instant (``perf_counter``) — subtract two for a
        duration."""
        return time.perf_counter()

    def wall_of(self, mono: float) -> float:
        """Map a :meth:`monotonic` instant to wall-clock epoch seconds."""
        return self._epoch + (mono - self._anchor)

    def now(self) -> float:
        """Current wall-clock epoch seconds (via the monotonic anchor)."""
        return self.wall_of(self.monotonic())


class FrozenClock(HybridClock):
    """A deterministic clock for tests: time moves only via :meth:`advance`.

    ``monotonic()`` returns an internal counter starting at ``start``
    (wall-clock epoch seconds), and ``wall_of`` is the identity on that
    counter, so frozen spans get byte-stable timestamps and durations.
    """

    __slots__ = ("_t",)

    def __init__(self, start: float = 1_700_000_000.0) -> None:
        super().__init__(epoch=start, anchor=start)
        self._t = start

    def monotonic(self) -> float:
        """The frozen instant (advances only via :meth:`advance`)."""
        return self._t

    def advance(self, seconds: float) -> float:
        """Move frozen time forward; returns the new instant."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._t += seconds
        return self._t


# The process-wide clock, shared by every site that stamps wall-clock
# times without an explicitly injected one.
_DEFAULT = HybridClock()


def default_clock() -> HybridClock:
    """The process-wide clock used when none is injected."""
    return _DEFAULT
