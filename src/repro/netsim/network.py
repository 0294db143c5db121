"""The simulated client–path–server network.

Every experiment in the paper uses the same topology: one client (inside
the censoring country), one server (outside), and censoring middleboxes on
the path between them. :class:`Network` models that path as an ordered
middlebox chain with a constant per-hop delay, TTL decrementing (so
TTL-limited insertion packets and censor-localization probes behave
faithfully), and full packet tracing.
"""

from __future__ import annotations

import functools
import random
import time
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Protocol, Sequence, Tuple

from .. import fastpath as _fastpath
from ..obs import spans as _spans
from ..obs.metrics import Counter
from ..packets import Packet
from .events import Scheduler
from .impairment import Impairment, corrupt_payload
from .middlebox import DIRECTION_C2S, DIRECTION_S2C, Middlebox, PathContext
from .trace import Trace

__all__ = ["Network", "NetworkNode"]

#: Wire-level packet events. Prebound per event kind: these fire once
#: per packet, so each increment must stay a single dict operation.
_NET_PACKETS = Counter(
    "repro_net_packets_total",
    "Packets handled by the network path, by event",
    ("event",),  # send | inject | recv | drop
)
_PKT_SEND = _NET_PACKETS.labels(event="send")
_PKT_INJECT = _NET_PACKETS.labels(event="inject")
_PKT_RECV = _NET_PACKETS.labels(event="recv")
_PKT_DROP = _NET_PACKETS.labels(event="drop")

#: Impairment actions actually applied, per kind and direction.
#: Deterministic: draws come from the trial's seeded net RNG.
_IMPAIRMENT_EVENTS = Counter(
    "repro_impairment_events_total",
    "Impairment actions applied on the path, by kind and direction",
    ("kind", "direction"),  # kind: loss | corrupt | reorder | dup
)


@functools.lru_cache(maxsize=64)
def _walk_table(active: Tuple[bool, ...]) -> Mapping[Tuple[str, int], Tuple[int, int, bool]]:
    """The coalesced walk from every ``(direction, index)`` of a chain.

    ``active[i]`` says whether box ``i`` does anything: inert means
    exactly the base :class:`Middlebox`, and any subclass is assumed
    interesting. Each entry is ``(steps, target, past_chain)``: the
    number of links to the first active box at or beyond ``index`` in
    ``direction`` (or to the far end), that box's index (``n`` or ``-1``
    past the chain) and whether the walk ends past the chain, at an end
    host. Client-to-server walks start at ``0 .. n``, server-to-client
    walks at ``-1 .. n - 1``. Cached per chain shape, read-only: every
    trial of a workload shares one.
    """
    n = len(active)
    walks: Dict[Tuple[str, int], Tuple[int, int, bool]] = {}
    target = n
    for index in range(n, -1, -1):
        if index < n and active[index]:
            target = index
        walks[DIRECTION_C2S, index] = (target - index + 1, target, target == n)
    target = -1
    for index in range(-1, n):
        if index >= 0 and active[index]:
            target = index
        walks[DIRECTION_S2C, index] = (index - target + 1, target, target == -1)
    return MappingProxyType(walks)


class NetworkNode(Protocol):
    """Anything attachable to an end of the network path."""

    ip: str
    name: str

    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered off the wire."""


class Network:
    """A two-endpoint network path with middleboxes.

    Hop numbering: middlebox ``i`` (0-indexed from the client side) sits at
    hop ``i + 1`` from the client; the server is at hop
    ``len(middleboxes) + 1``. A packet with TTL ``t`` sent by the client is
    observed by middleboxes ``0 .. t-1`` and reaches the server only when
    ``t`` exceeds the number of middleboxes — exactly the arithmetic needed
    for TTL-limited insertion packets and §6's censor localization probes.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        client: NetworkNode,
        server: NetworkNode,
        middleboxes: Sequence[Middlebox] = (),
        hop_delay: float = 0.005,
        trace: Optional[Trace] = None,
        impairment: Optional[Impairment] = None,
        net_rng: Optional[random.Random] = None,
    ) -> None:
        self.scheduler = scheduler
        self.client = client
        self.server = server
        # Frozen: the walk tables below are computed once from the chain.
        self.middleboxes: Tuple[Middlebox, ...] = tuple(middleboxes)
        self.hop_delay = hop_delay
        self.trace = trace if trace is not None else Trace()
        # A null policy is normalized to None so the hot path stays the
        # exact pre-impairment code (no draws, byte-identical traces).
        if impairment is not None and impairment.is_null():
            impairment = None
        self.impairment = impairment
        self._net_rng = (
            net_rng if net_rng is not None else random.Random(0)
        ) if impairment is not None else None
        self._contexts = [
            PathContext(self, index, getattr(box, "name", f"mb{index}"))
            for index, box in enumerate(self.middleboxes)
        ]
        # Span name per box, precomputed so the per-packet path never
        # re-classifies. Censors are recognized structurally (they all
        # carry a censorship_events counter) to avoid importing the
        # censors package from netsim.
        self._box_spans = [
            "simulate/censor" if hasattr(box, "censorship_events")
            else "simulate/middlebox"
            for box in self.middleboxes
        ]
        # Hop coalescing (fast path): inert chain-padding middleboxes are
        # plain base-class instances that forward every packet unchanged,
        # so the walk can jump straight to the next *active* box with one
        # scheduled event instead of one per hop. Decided at construction
        # time; impaired paths always walk per-link (draw order).
        if impairment is None and _fastpath.enabled():
            self._walks = _walk_table(
                tuple(type(box) is not Middlebox for box in self.middleboxes)
            )
            # Indexed by a walk's ``past_chain`` flag.
            self._arrive = (self._hop, self._deliver)
            self._forward = self._walk
        else:
            self._forward = self._schedule_hop

    # ------------------------------------------------------------------
    # Entry points

    def send_from(self, node: NetworkNode, packet: Packet) -> None:
        """Transmit ``packet`` originating at endpoint ``node``."""
        if node is self.client:
            direction = DIRECTION_C2S
            start = 0
        elif node is self.server:
            direction = DIRECTION_S2C
            start = len(self.middleboxes) - 1
        else:
            raise ValueError(f"unknown endpoint {node!r}")
        _PKT_SEND.inc()
        self.trace.record(self.scheduler.now, "send", node.name, packet)
        self._forward(packet, direction, start, packet.ip.ttl)

    def inject_from(self, position: int, packet: Packet, toward: str, name: str) -> None:
        """Inject ``packet`` at middlebox ``position`` heading ``toward`` an end."""
        _PKT_INJECT.inc()
        self.trace.record(self.scheduler.now, "inject", name, packet, f"toward {toward}")
        if toward == "server":
            direction = DIRECTION_C2S
            start = position + 1
        elif toward == "client":
            direction = DIRECTION_S2C
            start = position - 1
        else:
            raise ValueError(f"toward must be 'client' or 'server', not {toward!r}")
        self._forward(packet, direction, start, packet.ip.ttl)

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Advance the simulation (delegates to the scheduler)."""
        return self.scheduler.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # Path walking

    def _schedule_hop(self, packet: Packet, direction: str, index: int, ttl: int) -> None:
        """One link traversal, per hop (fast path off or impaired path)."""
        imp = self.impairment
        if imp is not None and imp.applies(direction):
            self._schedule_impaired_hop(imp, packet, direction, index, ttl)
            return
        self.scheduler.schedule(
            self.hop_delay, lambda: self._hop(packet, direction, index, ttl)
        )

    def _walk(self, packet: Packet, direction: str, index: int, ttl: int) -> None:
        """Schedule one event covering the run of inert hops from ``index``.

        Replays the per-hop walk exactly: the arrival time is built by the
        same iterated ``now + hop_delay`` float additions the per-hop
        recursion would perform (timestamps are digest material), TTL is
        decremented once per skipped link, and an expiry *inside* the
        skipped run becomes a drop event at the hop where the per-hop
        walk would have recorded it.
        """
        steps, target, past_chain = self._walks[direction, index]
        when = self.scheduler.now
        delay = self.hop_delay
        if ttl < steps - 1:
            for _ in range(ttl + 1):
                when += delay
            hop = index + ttl if direction == DIRECTION_C2S else index - ttl
            self.scheduler.schedule_at(when, self._drop_expired, (packet, f"hop{hop}"))
            return
        for _ in range(steps):
            when += delay
        self.scheduler.schedule_at(
            when,
            self._arrive[past_chain],
            (packet, direction, target, ttl - (steps - 1)),
        )

    def _drop_expired(self, packet: Packet, label: str) -> None:
        """Record a TTL-expiry drop inside a coalesced run of inert hops."""
        _PKT_DROP.inc()
        self.trace.record(self.scheduler.now, "drop", label, packet, "ttl expired")

    def _schedule_impaired_hop(
        self, imp: Impairment, packet: Packet, direction: str, index: int, ttl: int
    ) -> None:
        """One link traversal under the impairment policy.

        Draw order is fixed (loss, corrupt, jitter, reorder, dup) and
        each knob only consumes a draw when non-zero, so a given policy
        and net seed always replay the same impaired trace.
        """
        rng = self._net_rng
        now = self.scheduler.now
        label = f"link{index}"
        if imp.loss and rng.random() < imp.loss:
            _IMPAIRMENT_EVENTS.inc(kind="loss", direction=direction)
            self.trace.record(now, "loss", label, packet, "impairment: lost")
            return
        if imp.corrupt and packet.load and rng.random() < imp.corrupt:
            packet, offset = corrupt_payload(packet, rng)
            _IMPAIRMENT_EVENTS.inc(kind="corrupt", direction=direction)
            self.trace.record(
                now, "corrupt", label, packet,
                f"impairment: payload bit flipped at offset {offset}",
            )
        delay = self.hop_delay
        if imp.jitter:
            delay += rng.random() * imp.jitter
        if imp.reorder and rng.random() < imp.reorder:
            delay += imp.reorder_delay
            _IMPAIRMENT_EVENTS.inc(kind="reorder", direction=direction)
            self.trace.record(
                now, "reorder", label, packet,
                f"impairment: held back {imp.reorder_delay * 1000:.1f}ms",
            )
        if imp.dup and rng.random() < imp.dup:
            duplicate = packet.copy()
            _IMPAIRMENT_EVENTS.inc(kind="dup", direction=direction)
            self.trace.record(now, "dup", label, duplicate, "impairment: duplicated")
            self.scheduler.schedule(
                delay + imp.dup_spacing,
                lambda: self._hop(duplicate, direction, index, ttl),
            )
        self.scheduler.schedule(delay, lambda: self._hop(packet, direction, index, ttl))

    def _hop(self, packet: Packet, direction: str, index: int, ttl: int) -> None:
        if not 0 <= index < len(self.middleboxes):
            self._deliver(packet, direction, index, ttl)
            return
        if ttl < 1:
            _PKT_DROP.inc()
            self.trace.record(
                self.scheduler.now, "drop", f"hop{index}", packet, "ttl expired"
            )
            return
        box = self.middleboxes[index]
        ctx = self._contexts[index]
        if _spans.ENABLED:
            t0 = time.perf_counter()
            forwarded = box.process(packet, direction, ctx)
            _spans.add(self._box_spans[index], time.perf_counter() - t0)
        else:
            forwarded = box.process(packet, direction, ctx)
        if type(forwarded) is not list:
            forwarded = list(forwarded)
        if not forwarded:
            _PKT_DROP.inc()
            self.trace.record(self.scheduler.now, "drop", ctx.name, packet, "dropped in-path")
            return
        next_index = index + 1 if direction == DIRECTION_C2S else index - 1
        forward = self._forward
        ttl -= 1
        for out in forwarded:
            forward(out, direction, next_index, ttl)

    def _deliver(self, packet: Packet, direction: str, index: int, ttl: int) -> None:
        """Hand ``packet`` to the end host past the chain (``index`` n or -1)."""
        node = self.server if direction == DIRECTION_C2S else self.client
        if ttl < 1:
            _PKT_DROP.inc()
            self.trace.record(self.scheduler.now, "drop", node.name, packet, "ttl expired")
            return
        _PKT_RECV.inc()
        self.trace.record(self.scheduler.now, "recv", node.name, packet)
        if _spans.ENABLED:
            t0 = time.perf_counter()
            node.receive(packet)
            _spans.add("simulate/endpoint", time.perf_counter() - t0)
        else:
            node.receive(packet)
