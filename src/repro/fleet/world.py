"""The long-lived fleet world: one deployed server, many client flows.

A :class:`FleetWorld` holds a single :class:`~repro.netsim.flows.FlowScheduler`
driving one shared, strategy-deploying server host and an arrival stream
of per-flow world slices. Each admitted flow gets exactly the topology a
:class:`~repro.eval.runner.Trial` would have built — its own client host,
censor instance, padded middlebox chain, and per-flow trace — wired to
the *shared* server through a :class:`~repro.netsim.flows.FlowRouter`.

Single-flow equivalence is the design invariant: for a world with one
flow arriving at t=0, every event (timestamps, RNG draws, trace lines)
is bit-identical to ``Trial(...)`` plus ``install_per_client`` on its
server. The pieces that make that hold with *many* flows:

- per-flow RNG streams (:func:`derive_flow_rngs`) replicate the trial's
  seed derivation, including the server host's construction-time
  ephemeral-port draw, so sharing one server host costs no draws;
- the shared server host's passive endpoints draw from the owning
  flow's server stream (``Host.flow_rng_provider``), and the per-client
  strategy engine applies each flow's strategy with that flow's
  strategy stream (``PerClientEngine.rng_provider``);
- a flow's verdict freezes at ``arrival + max_time`` via a deadline
  event re-queued behind every already-scheduled event at that instant
  — the exact inclusive-``until`` semantics of ``Trial.run`` — after
  which the flow is closed: its remaining events are skipped (a trial
  would never have run them) and its state recycles at quiescence.

Recycling on FIN/RST/timeout: endpoints leave the shared server's demux
table as they close (pruning the server apps' connection lists), and at
flow quiescence the router entry, engine decisions, and packet-arena
lease are all returned.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional

from .. import fastpath as _fastpath
from ..censors.registry import PROTOCOLS, workload_for
from ..deploy import GeoStrategySelector, PerClientEngine
from ..eval.runner import (
    DEFAULT_CENSOR_HOP,
    DEFAULT_SERVER_HOP,
    SERVER_IP,
    make_censor,
)
from ..netsim import Middlebox, Network, NullTrace, RingTrace, Trace
from ..netsim.flows import FlowHandle, FlowRouter, FlowScheduler
from ..obs.metrics import Counter, Histogram
from ..packets.pool import PacketArena
from ..runtime.seeds import fleet_stream_seed
from ..tcpstack import Host, SERVER_PERSONALITY, personality
from .spec import COUNTRY_PREFIXES, FleetSpec, FlowPlan

__all__ = ["FleetWorld", "FlowRngs", "derive_flow_rngs", "fleet_selector"]

#: Terminal flow verdicts, labelled like the rest of the repro metrics.
_FLEET_FLOWS = Counter(
    "repro_fleet_flows_total",
    "Fleet flows finalized, by country, protocol, and outcome",
    ("country", "protocol", "outcome"),
)
_FLEET_RECYCLED = Counter(
    "repro_fleet_recycled_total",
    "Fleet flows fully recycled (router/engine/lease state returned)",
)
_FLEET_LATENCY = Histogram(
    "repro_fleet_flow_latency_seconds",
    "Virtual seconds from flow arrival to its terminal app outcome",
    ("country",),
    buckets=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0),
)


class FlowRngs(NamedTuple):
    """The four per-flow RNG streams, in a trial's derivation order."""

    censor: random.Random
    client: random.Random
    server: random.Random
    strategy: random.Random


def derive_flow_rngs(flow_seed: int) -> FlowRngs:
    """Replicate ``Trial``'s per-seed RNG stream derivation exactly.

    A trial seeds ``random.Random(seed)`` and splits censor, client,
    server, and strategy streams off it in that order. Fleet flows use
    the same split so a flow with trial seed ``s`` draws the same
    numbers, in the same order, as ``Trial(seed=s)`` would.
    """
    base = random.Random(flow_seed)
    return FlowRngs(
        censor=random.Random(base.randrange(1 << 30)),
        client=random.Random(base.randrange(1 << 30)),
        server=random.Random(base.randrange(1 << 30)),
        strategy=random.Random(base.randrange(1 << 30)),
    )


def fleet_selector() -> GeoStrategySelector:
    """The deployed server's geolocation table for the fleet prefixes."""
    selector = GeoStrategySelector()
    for country, prefix in COUNTRY_PREFIXES.items():
        if country is not None:
            selector.add_prefix(f"{prefix}.0.0/16", country)
    return selector


class _LiveFlow:
    """Mutable state of one admitted, not-yet-recycled flow."""

    __slots__ = (
        "plan",
        "handle",
        "server_rng",
        "strategy_rng",
        "client_host",
        "censor",
        "network",
        "client_app",
        "outcome_time",
    )

    def __init__(self, plan: FlowPlan, handle: FlowHandle) -> None:
        self.plan = plan
        self.handle = handle
        self.server_rng: Optional[random.Random] = None
        self.strategy_rng: Optional[random.Random] = None
        self.client_host: Optional[Host] = None
        self.censor = None
        self.network: Optional[Network] = None
        self.client_app = None
        self.outcome_time: Optional[float] = None


class FleetWorld:
    """One serving world: shared server + an arrival stream of flows.

    Build with a :class:`FleetSpec` (optionally overriding the plan
    list, e.g. to simulate a shard of a larger run — arrivals keep their
    global times, which is what makes sharding byte-identical), then
    :meth:`run` to completion. Per-flow verdict records come back sorted
    by global flow index, so they are invariant to event interleaving.
    """

    def __init__(
        self,
        spec: FleetSpec,
        plans: Optional[List[FlowPlan]] = None,
        selector: Optional[GeoStrategySelector] = None,
        on_flow_done: Optional[Callable[["FleetWorld", dict], None]] = None,
        keep_traces: bool = False,
    ) -> None:
        self.spec = spec
        self.plans = list(plans) if plans is not None else spec.flow_plans()
        self.on_flow_done = on_flow_done
        self.keep_traces = keep_traces

        self.scheduler = FlowScheduler()
        self.arena = PacketArena(max_free=2048)
        self._use_leases = spec.trace == "none" and _fastpath.enabled()

        # The deployed server. Its own RNG stream is domain-separated
        # from every flow seed and is only consumed at construction (the
        # ephemeral-port draw); all serving randomness comes from the
        # per-flow streams below.
        self.server_host = Host(
            "server",
            SERVER_IP,
            self.scheduler,
            random.Random(fleet_stream_seed(spec.seed, 2)),
            SERVER_PERSONALITY,
        )
        self.router = FlowRouter(self.scheduler, self.server_host)
        self.server_host.attach(self.router)
        self.server_host.flow_rng_provider = self._server_rng_for
        self.server_host.on_endpoint_closed = self._endpoint_closed

        self.selector = selector if selector is not None else fleet_selector()
        protocols = spec.protocols()
        port_protocols = {PROTOCOLS[p].port: p for p in protocols}
        self.engine = PerClientEngine(
            self.selector,
            protocols[0],
            rng_provider=self._strategy_rng_for,
            port_protocols=port_protocols,
        )
        self.server_host.inbound_filters.append(self.engine.inbound_filter)
        self.server_host.outbound_filters.append(self.engine.outbound_filter)

        self.server_apps = {}
        for protocol in protocols:
            port = PROTOCOLS[protocol].port
            app = PROTOCOLS[protocol].server(self.server_host, port)
            app.install()
            self.server_apps[port] = app

        self._flows: Dict[str, _LiveFlow] = {}
        self._next_plan = 0
        self.records: List[dict] = []
        self.traces: Dict[int, Trace] = {}
        self.admitted = 0
        self.recycled = 0

    # ------------------------------------------------------------------
    # Shared-host hooks

    def _server_rng_for(self, key) -> Optional[random.Random]:
        """Per-flow server stream for a passive open (keyed by client ip)."""
        flow = self._flows.get(key[0])
        return flow.server_rng if flow is not None else None

    def _strategy_rng_for(self, client_ip: str) -> random.Random:
        """Per-flow strategy stream for the per-client engine."""
        flow = self._flows.get(client_ip)
        if flow is not None and flow.strategy_rng is not None:
            return flow.strategy_rng
        return self.engine.rng  # stray packet after recycle; never drawn in practice

    def _endpoint_closed(self, endpoint) -> None:
        """Prune recycled connections from the owning server app."""
        app = self.server_apps.get(endpoint.local_port)
        if app is not None:
            forget = getattr(app, "forget_connection", None)
            if forget is not None:
                forget(endpoint)

    # ------------------------------------------------------------------
    # Flow lifecycle

    def _make_trace(self) -> Trace:
        if self.spec.trace == "full":
            return Trace()
        if self.spec.trace == "ring":
            return RingTrace(self.spec.ring_events)
        return NullTrace()

    def _schedule_next_arrival(self) -> None:
        """Queue the next plan's admission (keeps the heap open-ended)."""
        if self._next_plan >= len(self.plans):
            return
        plan = self.plans[self._next_plan]
        self._next_plan += 1
        handle = FlowHandle(
            plan.index,
            plan.client_ip,
            trace=self._make_trace(),
            arena=self.arena.lease() if self._use_leases else None,
        )
        self.scheduler.schedule_at_in(
            handle, plan.arrival, self._admit, (plan, handle)
        )

    def _admit(self, plan: FlowPlan, handle: FlowHandle) -> None:
        """Build the flow's world slice (runs bound to the flow)."""
        self._schedule_next_arrival()

        rngs = derive_flow_rngs(plan.seed)
        client_host = Host(
            "client",
            plan.client_ip,
            self.scheduler,
            rngs.client,
            personality(plan.client_os),
        )
        censor = make_censor(plan.country, rngs.censor)
        middleboxes: List[Middlebox] = [
            Middlebox() for _ in range(DEFAULT_CENSOR_HOP - 1)
        ]
        if censor is not None:
            middleboxes.append(censor)
        while len(middleboxes) < DEFAULT_SERVER_HOP - 1:
            middleboxes.append(Middlebox())
        network = Network(
            self.scheduler,
            client_host,
            self.server_host,
            middleboxes,
            trace=handle.trace,
        )
        client_host.attach(network)
        self.router.register(plan.client_ip, network)
        # Mirror the server-host construction draw a dedicated trial
        # makes: Host.__init__ consumes randrange(1000) for its ephemeral
        # port base. The shared server host was built long ago, so the
        # flow's server stream performs the draw here instead.
        rngs.server.randrange(1000)

        flow = _LiveFlow(plan, handle)
        flow.server_rng = rngs.server
        flow.strategy_rng = rngs.strategy
        flow.client_host = client_host
        flow.censor = censor
        flow.network = network
        self._flows[plan.client_ip] = flow

        params = workload_for(plan.country, plan.protocol)
        if plan.protocol == "dns":
            params.setdefault("tries", 3)
        apps = PROTOCOLS[plan.protocol]
        client_app = apps.client(client_host, SERVER_IP, apps.port, **params)
        client_app.on_complete = lambda outcome: self._note_complete(flow)
        flow.client_app = client_app
        self.admitted += 1

        client_app.start()
        # The flow's verdict deadline — identical to Trial.run's
        # ``network.run(until=max_time)`` horizon, relative to arrival.
        self.scheduler.schedule(plan.max_time, lambda: self._deadline(flow))

    def _note_complete(self, flow: _LiveFlow) -> None:
        if flow.outcome_time is None:
            flow.outcome_time = self.scheduler.now

    def _deadline(self, flow: _LiveFlow) -> None:
        """Re-queue finalization behind this instant's remaining events.

        ``Trial.run(until=T)`` executes every event at exactly ``T``
        before reading the verdict. The deadline timer was scheduled at
        admission, so it sorts *before* same-instant events scheduled
        later; bouncing once through the queue runs after all of them
        (nothing in the simulator schedules at zero delay, so no new
        same-instant events can appear behind the bounce).
        """
        self.scheduler.schedule_at(self.scheduler.now, self._finalize, (flow,))

    def _finalize(self, flow: _LiveFlow) -> None:
        """Freeze the verdict, record the flow, and begin recycling."""
        plan = flow.plan
        app = flow.client_app
        outcome = app.outcome or "timeout"
        country = plan.country or "none"
        strategy_hit = any(
            decision is not None
            for key, decision in self.engine.decisions.items()
            if key[0] == plan.client_ip
        )
        latency = (
            flow.outcome_time - plan.arrival
            if flow.outcome_time is not None
            else None
        )
        record = {
            "flow": plan.index,
            "client_ip": plan.client_ip,
            "country": country,
            "protocol": plan.protocol,
            "client_os": plan.client_os,
            "arrival": round(plan.arrival, 9),
            "outcome": outcome,
            "succeeded": app.succeeded,
            "censored": (
                flow.censor.censorship_events > 0 if flow.censor is not None else False
            ),
            "strategy": (
                self.selector.table.get((plan.country, plan.protocol))
                if strategy_hit
                else None
            ),
            "latency": round(latency, 9) if latency is not None else None,
            "trace_digest": (
                flow.handle.trace.digest() if self.spec.trace == "full" else None
            ),
        }
        self.records.append(record)
        _FLEET_FLOWS.inc(country=country, protocol=plan.protocol, outcome=outcome)
        if latency is not None:
            _FLEET_LATENCY.observe(latency, country=country)
        if self.keep_traces:
            self.traces[plan.index] = flow.handle.trace

        # Close the flow: its clock has ended. Remaining scheduled events
        # are skipped by the FlowScheduler (a dedicated trial would never
        # have run them), and quiescence triggers full recycling.
        handle = flow.handle
        handle.closed = True
        handle.on_quiescent = self._recycle
        for endpoint in self.server_host.endpoints():
            if endpoint.remote_ip == plan.client_ip:
                endpoint._teardown()
        if self.on_flow_done is not None:
            self.on_flow_done(self, record)

    def _recycle(self, handle: FlowHandle) -> None:
        """Return all per-flow state once the last flow event drained."""
        flow = self._flows.pop(handle.client_ip, None)
        self.router.unregister(handle.client_ip)
        self.engine.forget_client(handle.client_ip)
        if handle.arena is not None:
            handle.arena.reclaim()
            handle.arena = None
        if flow is not None:
            flow.network = None
            flow.client_host = None
            flow.client_app = None
        self.recycled += 1
        _FLEET_RECYCLED.inc()

    # ------------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Flows admitted but not yet recycled."""
        return len(self._flows)

    def run(self) -> List[dict]:
        """Drive the world to quiescence; per-flow records by flow index.

        The event cap scales with the plan count (a single trial needs
        at most a few thousand events; the generous per-flow budget only
        guards against a runaway loop).
        """
        self._schedule_next_arrival()
        cap = max(1_000_000, 20_000 * len(self.plans))
        self.scheduler.run(until=None, max_events=cap)
        if len(self.records) != len(self.plans):  # pragma: no cover
            raise RuntimeError(
                f"fleet run incomplete: {len(self.records)} of "
                f"{len(self.plans)} flows finalized (event cap {cap})"
            )
        self.records.sort(key=lambda record: record["flow"])
        return self.records
