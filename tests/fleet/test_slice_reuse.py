"""Differential harness: re-armed world slices against dedicated trials.

A fleet world recycles each flow's slice (streams, client host, censor,
padded chain, network) into a free list per ``(country, client_os)``
cohort and re-arms it for the cohort's next flow. The one-flow worlds of
the single-flow-equivalence suite never reach that path, so this suite
runs a traced world of many overlapping flows in which most cohorts
recycle, and checks every flow against a dedicated ``Trial`` plus
``install_per_client`` for the same plan, with the trial's clock started
at the flow's arrival (fleet traces carry absolute virtual time).

The mix includes russia/https, whose ``stall`` strategy is stateful, so
a template shared across flows would leak stall counts between them.
"""

from __future__ import annotations

from repro import fastpath
from repro.deploy import install_per_client
from repro.eval.runner import Trial
from repro.fleet import (
    FleetMixEntry,
    FleetSpec,
    FleetWorld,
    derive_flow_rngs,
    fleet_selector,
)

#: Flows arrive 2 s apart and live 40 s each, so about 20 overlap and
#: every cohort's early slices come back for its later flows.
SPEC = FleetSpec(
    clients=48,
    seed=5,
    spacing=2.0,
    trace="full",
    mix=(
        FleetMixEntry("china", "http", "ubuntu-18.04.1", 2.0),
        FleetMixEntry("china", "dns", "centos-7", 1.0),
        FleetMixEntry("russia", "https", "windows-10-enterprise-17134", 2.0),
        FleetMixEntry("iran", "https", "macos-10.15", 1.0),
        FleetMixEntry(None, "http", "ubuntu-18.04.1", 1.0),
    ),
)


def dedicated_record(plan):
    """The record a dedicated world for ``plan`` yields, built like the
    single-flow suite's ``run_trial_baseline``."""
    rngs = derive_flow_rngs(plan.seed)
    trial = Trial(
        plan.country,
        plan.protocol,
        None,
        seed=plan.seed,
        client_ip=plan.client_ip,
        client_os=plan.client_os,
        capture_trace=True,
    )
    selector = fleet_selector()
    engine = install_per_client(trial.server_host, selector, plan.protocol, rngs.strategy)
    completed = []
    trial.client_app.on_complete = lambda outcome: completed.append(trial.scheduler.now)
    # Start the dedicated clock at the flow's arrival, then run to the
    # same inclusive horizon the fleet freezes the verdict at.
    trial.scheduler.now = plan.arrival
    trial.client_app.start()
    trial.network.run(until=plan.arrival + plan.max_time)
    app = trial.client_app
    return {
        "outcome": app.outcome or "timeout",
        "succeeded": app.succeeded,
        "censored": trial.censor.censorship_events > 0 if trial.censor else False,
        "strategy": (
            selector.table.get((plan.country, plan.protocol))
            if engine.chose_strategy(plan.client_ip)
            else None
        ),
        "latency": round(completed[0] - plan.arrival, 9) if completed else None,
        "trace_digest": trial.network.trace.digest(),
    }


def cohort_sizes(plans):
    sizes = {}
    for plan in plans:
        key = (plan.country, plan.client_os)
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def test_every_flow_matches_a_dedicated_trial():
    """Under the ambient fast-path setting, re-armed or not, each flow's
    record and trace digest equal a dedicated trial's."""
    world = FleetWorld(SPEC)
    records = world.run()
    assert len(records) == SPEC.clients
    for plan, record in zip(world.plans, records):
        expected = dedicated_record(plan)
        got = {key: record[key] for key in expected}
        assert got == expected, f"flow {plan.index} ({plan.label()})"


def test_world_reuses_slices(monkeypatch):
    """With the fast path on, recycled slices serve later flows of their
    cohort — the stateful russia/https cohort and china among them — and
    the records equal a world that builds every slice afresh."""
    monkeypatch.setattr(fastpath, "_ENABLED", True)  # restored at teardown
    world = FleetWorld(SPEC)
    records = world.run()
    assert world.slices_built < SPEC.clients
    # Every flow has recycled, so each cohort's slices are all free now.
    built = {key: len(free) for key, free in world._free_slices.items()}
    assert sum(built.values()) == world.slices_built
    sizes = cohort_sizes(world.plans)
    for key in (("russia", "windows-10-enterprise-17134"), ("china", "ubuntu-18.04.1")):
        assert built[key] < sizes[key], key
        # ... and the cohort also has flows live at once, on distinct slices.
        assert built[key] > 1, key

    with fastpath.disabled():
        fresh = FleetWorld(SPEC)
        fresh_records = fresh.run()
    assert fresh.slices_built == SPEC.clients
    assert records == fresh_records
