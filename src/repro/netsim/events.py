"""Discrete-event scheduler with a virtual clock.

Everything in the reproduction runs on virtual time: hosts, censors, and
retransmission timers all schedule callbacks here, and experiments advance
the clock by draining the event heap. No wall-clock time is ever consulted,
which keeps every trial fully deterministic.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

__all__ = ["Scheduler", "Timer"]


class Timer:
    """Handle for a scheduled callback that can be cancelled."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the associated callback from firing."""
        self.cancelled = True


class Scheduler:
    """A minimal discrete-event loop ordered by (time, insertion order).

    The insertion-order tiebreak guarantees FIFO delivery for events
    scheduled at the same virtual instant, which in turn preserves packet
    ordering on links with a constant per-hop delay.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Back to time zero with nothing queued (a reused trial world)."""
        self._queue: List[Tuple[float, int, Optional[Timer], Callable, tuple]] = []
        self._counter = 0
        self.now = 0.0
        #: Set by :meth:`run` when it stopped at ``max_events`` with an
        #: event still due: the run was cut short, not finished.
        self.exhausted = False

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        timer = Timer()
        heapq.heappush(
            self._queue, (self.now + delay, self._counter, timer, callback, ())
        )
        self._counter += 1
        return timer

    def schedule_at(self, when: float, callback: Callable, args: tuple = ()) -> None:
        """Schedule an uncancellable callback at absolute time ``when``.

        The hot-path variant used by the network's packet walk: no
        :class:`Timer` allocation, and ``args`` are applied at dispatch
        so call sites avoid building a closure per packet-hop. Every
        entry is a 5-tuple ``(when, counter, timer, callback, args)``;
        the unique counter in slot 1 guarantees heap comparisons never
        reach the mixed-type tail.
        """
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (when, self._counter, None, callback, args))
        self._counter += 1

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Drain the event queue, advancing virtual time.

        Args:
            until: Stop once the next event would fire after this time
                (events at exactly ``until`` still run). ``None`` drains
                the queue completely.
            max_events: Safety valve against runaway event loops. When
                it stops the loop with an event still due by ``until``,
                :attr:`exhausted` is set.

        Returns:
            The number of events executed.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        limit = until if until is not None else math.inf
        while queue and executed < max_events:
            entry = queue[0]
            when = entry[0]
            if when > limit:
                break
            pop(queue)
            timer = entry[2]
            if timer is not None and timer.cancelled:
                continue
            # Never earlier than now: scheduling into the past is refused.
            self.now = when
            entry[3](*entry[4])
            executed += 1
        self.exhausted = executed >= max_events and self._event_due(limit)
        if until is not None and (not queue or queue[0][0] > until):
            self.now = max(self.now, until)
        return executed

    def _event_due(self, limit: float) -> bool:
        """Whether an uncancelled event is queued at or before ``limit``."""
        return any(
            entry[0] <= limit and (entry[2] is None or not entry[2].cancelled)
            for entry in self._queue
        )

    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)
