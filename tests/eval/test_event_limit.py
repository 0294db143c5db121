"""A trial cut short by the scheduler's event limit says so.

``Scheduler.run`` stops at ``max_events`` as a safety valve against
runaway event loops. A trial that hits it must not be scored from the
half-run state it reached: it reports outcome ``"event_limit"``, never
succeeds, is counted under that outcome in
``repro_trial_outcomes_total`` and, with a run log active, has its trace
tail flight-dumped.
"""

import json

from repro.eval.runner import OUTCOME_EVENT_LIMIT, Trial
from repro.netsim import Network
from repro.obs.metrics import collecting
from repro.obs.runlog import RunLog, activate
from repro.runtime import TrialSpec


def _limit_events(monkeypatch, limit):
    run = Network.run

    def limited(self, until=None, max_events=1_000_000):
        return run(self, until=until, max_events=min(max_events, limit))

    monkeypatch.setattr(Network, "run", limited)


def test_trial_reports_event_limit(monkeypatch):
    # Without the limit this trial succeeds (no censor, clean path).
    assert Trial(None, "http", seed=3).run().succeeded
    _limit_events(monkeypatch, 5)
    trial = Trial(None, "http", seed=3)
    result = trial.run()
    assert trial.scheduler.exhausted
    assert result.outcome == OUTCOME_EVENT_LIMIT
    assert not result.succeeded
    assert "5 events" in result.detail


def test_event_limit_is_counted(monkeypatch):
    _limit_events(monkeypatch, 5)
    with collecting() as registry:
        result = TrialSpec.build("china", "http", seed=3).run()
    assert result.outcome == OUTCOME_EVENT_LIMIT
    assert registry.value(
        "repro_trial_outcomes_total",
        country="china", protocol="http", outcome="event_limit", succeeded=False,
    ) == 1


def test_finished_trial_is_not_exhausted():
    trial = Trial("china", "http", seed=3)
    trial.run()
    assert not trial.scheduler.exhausted


def test_event_limit_is_flight_dumped(monkeypatch):
    """With a run log active, the valve firing dumps the trace tail."""

    _limit_events(monkeypatch, 5)
    log = RunLog()
    spec = TrialSpec.build("china", "http", seed=3)
    with activate(log):
        result = spec.run()
    assert result.outcome == OUTCOME_EVENT_LIMIT
    assert log.anomalies == 1
    (dump,) = [json.loads(line) for line in log.lines(wall_clock=lambda: 0.0)]
    assert dump["event"] == "flight_dump"
    assert dump["reason"] == "event limit"
    assert dump["spec"] == spec.spec_hash()
    assert dump["detail"] == result.detail
    assert dump["events"]  # the tail of the captured trace


def test_finished_trial_is_not_flight_dumped():
    log = RunLog()
    with activate(log):
        TrialSpec.build("china", "http", seed=3).run()
    assert log.anomalies == 0
    assert list(log.lines()) == []
