"""Tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Scheduler
from repro.netsim.flows import FlowScheduler


class TestScheduling:
    def test_runs_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.schedule(2.0, lambda: order.append("b"))
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(3.0, lambda: order.append("c"))
        sched.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_same_instant(self):
        sched = Scheduler()
        order = []
        for i in range(10):
            sched.schedule(1.0, lambda i=i: order.append(i))
        sched.run()
        assert order == list(range(10))

    def test_clock_advances(self):
        sched = Scheduler()
        times = []
        sched.schedule(0.5, lambda: times.append(sched.now))
        sched.schedule(1.5, lambda: times.append(sched.now))
        sched.run()
        assert times == [0.5, 1.5]

    def test_until_bound(self):
        sched = Scheduler()
        ran = []
        sched.schedule(1.0, lambda: ran.append(1))
        sched.schedule(5.0, lambda: ran.append(5))
        sched.run(until=2.0)
        assert ran == [1]
        assert sched.now == 2.0
        sched.run()
        assert ran == [1, 5]

    def test_nested_scheduling(self):
        sched = Scheduler()
        seen = []

        def first():
            seen.append("first")
            sched.schedule(1.0, lambda: seen.append("second"))

        sched.schedule(1.0, first)
        sched.run()
        assert seen == ["first", "second"]
        assert sched.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().schedule(-1, lambda: None)


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sched = Scheduler()
        ran = []
        timer = sched.schedule(1.0, lambda: ran.append(1))
        timer.cancel()
        sched.run()
        assert ran == []

    def test_cancel_mid_run(self):
        sched = Scheduler()
        ran = []
        later = sched.schedule(2.0, lambda: ran.append("later"))
        sched.schedule(1.0, lambda: later.cancel())
        sched.run()
        assert ran == []


class TestOrderingProperty:
    """Event ordering is stable: time-sorted, FIFO within a timestamp,
    regardless of how schedule()/schedule_at()/cancel() interleave."""

    # A few coarse timestamps so thousands of timers collide per instant.
    _timestamps = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.5])

    @given(st.lists(_timestamps, min_size=1000, max_size=1500), st.random_module())
    @settings(max_examples=10, deadline=None)
    def test_fifo_within_timestamp_at_scale(self, whens, rnd):
        import random as _random

        sched = Scheduler()
        fired = []
        cancelled = set()
        rng = _random.Random(rnd.seed)
        for index, when in enumerate(whens):
            # Interleave the two scheduling APIs and sprinkle cancels.
            if index % 3 == 0:
                sched.schedule_at(when, fired.append, (index,))
            else:
                timer = sched.schedule(when, lambda i=index: fired.append(i))
                if rng.random() < 0.1:
                    timer.cancel()
                    cancelled.add(index)
        sched.run()

        expected = [
            index
            for when, index in sorted(
                ((when, index) for index, when in enumerate(whens)),
                key=lambda pair: (pair[0], pair[1]),
            )
            if index not in cancelled
        ]
        assert fired == expected

    @given(st.lists(_timestamps, min_size=1000, max_size=1200))
    @settings(max_examples=5, deadline=None)
    def test_flow_scheduler_orders_identically(self, whens):
        """FlowScheduler's 6-tuple entries sort exactly like the base
        scheduler's — the single-flow-equivalence prerequisite."""
        base, flows = Scheduler(), FlowScheduler()
        base_order, flow_order = [], []
        for index, when in enumerate(whens):
            base.schedule(when, lambda i=index: base_order.append(i))
            flows.schedule(when, lambda i=index: flow_order.append(i))
        base.run()
        flows.run()
        assert flow_order == base_order

    def test_nested_same_instant_events_run_after_queued(self):
        """An event scheduled at the current instant runs behind every
        event already queued for that instant (the deadline-bounce rule)."""
        sched = Scheduler()
        order = []
        sched.schedule(1.0, lambda: (order.append("first"),
                                     sched.schedule_at(1.0, order.append, ("bounced",))))
        sched.schedule(1.0, lambda: order.append("second"))
        sched.run()
        assert order == ["first", "second", "bounced"]


class TestSafety:
    def test_max_events_bounds_runaway(self):
        sched = Scheduler()

        def loop():
            sched.schedule(0.1, loop)

        sched.schedule(0.1, loop)
        executed = sched.run(max_events=50)
        assert executed == 50
        assert sched.exhausted

    def test_exhausted_only_when_an_event_is_still_due(self):
        sched = Scheduler()
        for delay in (1.0, 2.0, 3.0):
            sched.schedule(delay, lambda: None)
        # Exactly drained: the limit was reached but nothing is left.
        assert sched.run(until=2.0, max_events=2) == 2
        assert not sched.exhausted
        sched.schedule(0.5, lambda: None).cancel()
        # Only a cancelled event is due by ``until``: not cut short.
        assert sched.run(until=2.7, max_events=0) == 0
        assert not sched.exhausted
        assert sched.run(until=3.0, max_events=0) == 0
        assert sched.exhausted
        assert sched.run(until=3.0) == 1
        assert not sched.exhausted

    def test_flow_scheduler_reports_exhaustion(self):
        sched = FlowScheduler()

        def loop():
            sched.schedule(0.1, loop)

        sched.schedule(0.1, loop)
        assert sched.run(max_events=20) == 20
        assert sched.exhausted

    def test_pending_counts_queue(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        assert sched.pending() == 2
