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
table (and the flow's endpoint index) as they close, and at flow
quiescence the router entry, engine decisions, and packet-arena
lease are all returned. The slice itself — streams, client host, censor,
padded chain and network — goes back to a free list per ``(country,
client_os)`` cohort, and the next flow of that cohort re-arms it the way
:meth:`~repro.eval.runner.Trial.rearm` re-arms a trial world: streams
reseeded in place, the client host readdressed and reset, every box
reset, the flow's trace installed. Only the client app, the flow handle
and the trace are built per flow. With the fast path off every flow
builds its slice afresh, the reference the reuse is checked against.

Per-flow bookkeeping is O(1): the engine indexes its decisions and the
world indexes the server endpoints by client address, so finalizing or
recycling a flow never looks at another flow's state.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .. import fastpath as _fastpath
from ..censors.registry import PROTOCOLS, workload_for
from ..deploy import GeoStrategySelector, PerClientEngine
from ..eval.runner import (
    DEFAULT_CENSOR_HOP,
    DEFAULT_SERVER_HOP,
    SERVER_IP,
    _new_stream,
    make_censor,
)
from ..netsim import Middlebox, Network, NullTrace, RingTrace, Trace
from ..netsim.flows import FlowHandle, FlowRouter, FlowScheduler
from ..obs.metrics import Counter, Histogram
from ..packets.pool import PacketArena
from ..runtime.seeds import fleet_stream_seed
from ..tcpstack import Host, SERVER_PERSONALITY, TCPEndpoint, personality
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


def _seed_flow_rngs(rngs: FlowRngs, base: random.Random, flow_seed: int) -> None:
    """Seed ``rngs`` in place from ``flow_seed``, in derivation order."""
    base.seed(flow_seed)
    for stream in rngs:
        stream.seed(base.randrange(1 << 30))


def derive_flow_rngs(flow_seed: int) -> FlowRngs:
    """Replicate ``Trial``'s per-seed RNG stream derivation exactly.

    A trial seeds ``random.Random(seed)`` and splits censor, client,
    server, and strategy streams off it in that order. Fleet flows use
    the same split so a flow with trial seed ``s`` draws the same
    numbers, in the same order, as ``Trial(seed=s)`` would.
    """
    rngs = FlowRngs(_new_stream(), _new_stream(), _new_stream(), _new_stream())
    _seed_flow_rngs(rngs, _new_stream(), flow_seed)
    return rngs


def fleet_selector() -> GeoStrategySelector:
    """The deployed server's geolocation table for the fleet prefixes."""
    selector = GeoStrategySelector()
    for country, prefix in COUNTRY_PREFIXES.items():
        if country is not None:
            selector.add_prefix(f"{prefix}.0.0/16", country)
    return selector


class _Slice:
    """One flow's world: RNG streams, client host, censor, chain, network.

    Everything in it depends only on the cohort ``(country, client_os)``
    once the streams are seeded, so a recycled slice serves any later
    flow of its cohort: :meth:`rearm` puts it into exactly the state a
    fresh build for that flow would have, in the same draw order.
    """

    __slots__ = ("base", "rngs", "client_host", "censor", "network")

    def __init__(
        self, scheduler: FlowScheduler, server_host: Host, plan: FlowPlan, trace: Trace
    ) -> None:
        self.base = _new_stream()
        self.rngs = FlowRngs(_new_stream(), _new_stream(), _new_stream(), _new_stream())
        _seed_flow_rngs(self.rngs, self.base, plan.seed)
        self.client_host = Host(
            "client",
            plan.client_ip,
            scheduler,
            self.rngs.client,
            personality(plan.client_os),
        )
        self.censor = make_censor(plan.country, self.rngs.censor)
        middleboxes: List[Middlebox] = [
            Middlebox() for _ in range(DEFAULT_CENSOR_HOP - 1)
        ]
        if self.censor is not None:
            middleboxes.append(self.censor)
        while len(middleboxes) < DEFAULT_SERVER_HOP - 1:
            middleboxes.append(Middlebox())
        self.network = Network(
            scheduler, self.client_host, server_host, middleboxes, trace=trace
        )
        self.client_host.attach(self.network)

    def rearm(self, plan: FlowPlan, trace: Trace) -> None:
        """Re-arm this recycled slice for ``plan`` (same cohort)."""
        _seed_flow_rngs(self.rngs, self.base, plan.seed)
        self.client_host.ip = plan.client_ip
        self.client_host.reset()
        for box in self.network.middleboxes:
            box.reset()
        self.network.trace = trace


class _LiveFlow:
    """Mutable state of one admitted, not-yet-recycled flow."""

    __slots__ = ("plan", "handle", "slice", "client_app", "server_endpoints", "outcome_time")

    def __init__(self, plan: FlowPlan, handle: FlowHandle, world_slice: _Slice) -> None:
        self.plan = plan
        self.handle = handle
        self.slice = world_slice
        self.client_app = None
        #: The shared server's open endpoints for this client, by
        #: ``(remote_port, local_port)``, in the server host's order.
        self.server_endpoints: Dict[Tuple[int, int], TCPEndpoint] = {}
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
        # Recycled slices per (country, client_os) cohort; the fast path
        # off builds every flow's slice afresh instead.
        self._reuse_slices = _fastpath.enabled()
        self._free_slices: Dict[tuple, List[_Slice]] = {}
        self.slices_built = 0

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
        self.server_host.accept_hooks.append(self._endpoint_opened)
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

        for protocol in protocols:
            apps = PROTOCOLS[protocol]
            apps.server(self.server_host, apps.port).install()

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
        return flow.slice.rngs.server if flow is not None else None

    def _strategy_rng_for(self, client_ip: str) -> random.Random:
        """Per-flow strategy stream for the per-client engine."""
        flow = self._flows.get(client_ip)
        if flow is not None:
            return flow.slice.rngs.strategy
        return self.engine.rng  # stray packet after recycle; never drawn in practice

    def _endpoint_opened(self, endpoint) -> None:
        """Index a passive open under its client's flow."""
        flow = self._flows.get(endpoint.remote_ip)
        if flow is not None:
            flow.server_endpoints[endpoint.remote_port, endpoint.local_port] = endpoint

    def _endpoint_closed(self, endpoint) -> None:
        """Drop a closed passive open from its client's flow index."""
        flow = self._flows.get(endpoint.remote_ip)
        if flow is not None:
            flow.server_endpoints.pop((endpoint.remote_port, endpoint.local_port), None)

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
        """Re-arm a recycled slice for the flow, or build one (bound to the flow)."""
        self._schedule_next_arrival()

        free = self._free_slices.get((plan.country, plan.client_os))
        if free:
            world_slice = free.pop()
            world_slice.rearm(plan, handle.trace)
        else:
            world_slice = _Slice(self.scheduler, self.server_host, plan, handle.trace)
            self.slices_built += 1
        self.router.register(plan.client_ip, world_slice.network)
        # Mirror the server-host construction draw a dedicated trial
        # makes: Host.__init__ consumes randrange(1000) for its ephemeral
        # port base. The shared server host was built long ago, so the
        # flow's server stream performs the draw here instead.
        world_slice.rngs.server.randrange(1000)

        flow = _LiveFlow(plan, handle, world_slice)
        self._flows[plan.client_ip] = flow

        params = workload_for(plan.country, plan.protocol)
        if plan.protocol == "dns":
            params.setdefault("tries", 3)
        apps = PROTOCOLS[plan.protocol]
        client_app = apps.client(
            world_slice.client_host, SERVER_IP, apps.port, **params
        )
        client_app.on_complete = lambda outcome: self._note_complete(flow)
        flow.client_app = client_app
        self.admitted += 1

        client_app.start()
        # The flow's verdict deadline — identical to Trial.run's
        # ``network.run(until=max_time)`` horizon, relative to arrival.
        scheduler = self.scheduler
        scheduler.schedule_at(scheduler.now + plan.max_time, self._deadline, (flow,))

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
        censor = flow.slice.censor
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
            "censored": censor.censorship_events > 0 if censor is not None else False,
            "strategy": (
                self.selector.table.get((plan.country, plan.protocol))
                if self.engine.chose_strategy(plan.client_ip)
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
        for endpoint in list(flow.server_endpoints.values()):
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
            if self._reuse_slices:
                plan = flow.plan
                self._free_slices.setdefault((plan.country, plan.client_os), []).append(
                    flow.slice
                )
            flow.slice = None
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
