"""The Great Firewall: five colocated per-protocol censorship boxes.

§6's finding, made executable: the GFW is *not* one monolithic DPI engine
but a set of per-application boxes, each individually tracking every TCP
connection until it recognizes its own protocol. All boxes observe every
packet (censorship is not port-based), and each reacts — or fails — with
its own network-stack bugs. A TCP-level server-side strategy therefore
confuses *some* boxes and not others, which is exactly why Table 2's
success rates are application-dependent.

Because every box sees every packet and creates its TCBs on the same
client SYNs, the boxes share one flow table: one :class:`FlowRecord` per
connection with each box's :class:`FlowTCB` in box order. Per packet,
:meth:`GreatFirewall.process` looks the flow up, tells the directions
apart and decodes flags once, then steps every box that still watches
the flow, in box order. The boxes share one RNG, so box order fixes the
draw order and the order of injected RST pairs.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from ...netsim import PathContext
from ...obs.metrics import Counter
from ...packets import Packet
from ..base import Censor, FlowKey
from ..dpi import match_dns, match_ftp, match_http, match_https, match_smtp
from ..keywords import CHINA_KEYWORDS, KeywordSet
from .box import MODE_IGNORED, MODE_RESYNC, MODE_TRACKING, FlowRecord, FlowTCB, ProtocolBox
from .dnsudp import DNSUDPInjector
from .profiles import (
    CHINA_PROFILES,
    EVENT_CORRUPT_ACK,
    EVENT_PAYLOAD_OTHER,
    EVENT_PAYLOAD_SYN,
    EVENT_RST,
    EVENT_SYN,
    EVENT_SYNACK_PAYLOAD,
    RESYNC_ON_CLIENT,
    RESYNC_ON_SYNACK_OR_CLIENT_ACK,
    RESYNC_TARGETS,
    BoxProfile,
)

__all__ = ["GreatFirewall", "MATCHERS"]

#: DPI matcher per protocol box.
MATCHERS = {
    "dns": match_dns,
    "ftp": match_ftp,
    "http": match_http,
    "https": match_https,
    "smtp": match_smtp,
}

_WINDOW = 65536
_MOD = 1 << 32

#: §5.1 resync-state entries, by protocol box and the anomaly event that
#: fired. Deterministic: draws come from the trial's seeded RNG.
_RESYNC_EVENTS = Counter(
    "repro_gfw_resync_total",
    "GFW box resynchronization-state entries, by protocol and trigger",
    ("protocol", "event"),
)
#: Residual-censorship timers armed after a censorship verdict.
_RESIDUAL_TIMERS = Counter(
    "repro_gfw_residual_timers_total",
    "Residual-censorship timers armed on (server, port) endpoints",
    ("protocol",),
)


class GreatFirewall(Censor):
    """On-path multi-box censor modelling China's GFW.

    Args:
        rng: Randomness source (drives resync-entry and DPI-miss draws).
        keywords: Censored keyword sets (defaults to the paper's triggers).
        protocols: Which boxes to instantiate (default: all five). §6's
            experiments compare single-box and multi-box configurations.
        profiles: Profile overrides, for ablation experiments.
        validate_checksums: The real GFW does *not* validate TCP checksums
            (which is what makes insertion packets possible); setting this
            True is an ablation that ignores corrupted packets.
        max_flows_per_box: TCB capacity. "Maintaining a TCB on a per-flow
            basis is challenging at scale, and thus on-path censors
            naturally take several shortcuts" (§2.1). When bounded, each
            box evicts its oldest flow — which makes state exhaustion an
            evasion vector. Every box sees the same SYNs, so the boxes
            evict the same flows and one shared table models them all.

    Attributes:
        flows: The shared flow table, oldest flow first.
        evictions: Flows evicted this trial (each box evicted this many).
    """

    name = "gfw"

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        keywords: KeywordSet = CHINA_KEYWORDS,
        protocols: Optional[Iterable[str]] = None,
        profiles: Optional[Dict[str, BoxProfile]] = None,
        validate_checksums: bool = False,
        max_flows_per_box: Optional[int] = None,
    ) -> None:
        self.validate_checksums = validate_checksums
        self.max_flows_per_box = max_flows_per_box
        self.rng = rng if rng is not None else random.Random(0)
        profiles = profiles if profiles is not None else CHINA_PROFILES
        names = list(protocols) if protocols is not None else list(CHINA_PROFILES)
        self.boxes: Dict[str, ProtocolBox] = {}
        for protocol in names:
            self.boxes[protocol] = ProtocolBox(
                profile=profiles[protocol],
                keywords=keywords,
                matcher=MATCHERS[protocol],
                gfw=self,
                index=len(self.boxes),
            )
        #: Forged-response injection for DNS-over-UDP (§2.1 background).
        self.dns_udp = DNSUDPInjector(keywords, censor=self, rng=self.rng)
        super().__init__()  # resets per-trial state, now that the boxes exist

    def box(self, protocol: str) -> ProtocolBox:
        """Access one protocol box (for assertions in experiments)."""
        return self.boxes[protocol]

    def reset(self) -> None:
        """Clear all per-trial state (keeps calibration and RNG stream)."""
        super().reset()
        self.flows: Dict[FlowKey, FlowRecord] = {}
        self.evictions = 0
        for box in self.boxes.values():
            box.reset()
        self.dns_udp.reset()

    # ------------------------------------------------------------------

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        """All boxes observe every packet; the GFW always forwards (on-path)."""
        if self.validate_checksums and not packet.checksums_ok():
            return [packet]  # ablation: corrupted packets never inspected
        tcp = packet.tcp
        if tcp is None:
            self.dns_udp.observe(packet, direction, ctx)
            return [packet]
        # The undirected key of base.flow_key, from fields read once here
        # and reused for the direction test.
        src = packet.ip.src
        sport = tcp.sport
        dst = packet.ip.dst
        dport = tcp.dport
        if (src, sport) <= (dst, dport):
            key = (src, sport, dst, dport)
        else:
            key = (dst, dport, src, sport)
        flags = tcp.flags
        if direction == "c2s" and "S" in flags and "A" not in flags:
            self._open_flow(key, packet, ctx)
            return [packet]
        flow = self.flows.get(key)
        if flow is not None:  # no TCB: the boxes fail open
            if src == flow.client_ip and sport == flow.client_port:
                self._from_client(flow, tcp, flags, packet, ctx)
            else:
                self._from_server(flow, tcp, flags)
        return [packet]

    def _open_flow(self, key: FlowKey, packet: Packet, ctx: PathContext) -> None:
        """A client SYN (re)creates every box's TCB for the flow."""
        draw = self.rng.random
        client_next = (packet.tcp.seq + 1) % _MOD
        server = (packet.ip.dst, packet.tcp.dport)
        tcbs = []
        for box in self.boxes.values():
            profile = box.profile
            miss = draw() < profile.miss_prob
            can_reassemble = not (draw() < profile.reassembly_fail_prob)
            tcb = FlowTCB(client_next, miss, can_reassemble)
            if box.residual:
                expiry = box.residual.get(server)
                if expiry is not None and ctx.now < expiry:
                    tcb.residual_kill = True
            tcbs.append(tcb)
        flows = self.flows
        limit = self.max_flows_per_box
        if limit is not None and key not in flows:
            while len(flows) >= limit:
                del flows[next(iter(flows))]
                self.evictions += 1
        flows[key] = FlowRecord(packet, tcbs)

    def _from_server(self, flow: FlowRecord, tcp, flags: str) -> None:
        """Server-direction processing: anomaly events, resync capture."""
        is_rst = "R" in flags
        is_synack = "S" in flags and "A" in flags
        load = tcp.load
        seq = tcp.seq
        # The handshake anomaly this packet is, for a box still in the
        # handshake (a RST is an anomaly at any time).
        if is_rst:
            event = EVENT_RST
        elif is_synack:
            if load:
                event = EVENT_SYNACK_PAYLOAD
            elif (tcp.ack - flow.client_isn - 1) % _MOD:
                event = EVENT_CORRUPT_ACK
            else:
                event = None
        elif "S" in flags:
            event = EVENT_PAYLOAD_SYN if load else EVENT_SYN
        elif load:
            event = EVENT_PAYLOAD_OTHER
        else:
            event = None
        for box, tcb in zip(self.boxes.values(), flow.tcbs):
            mode = tcb.mode
            if mode == MODE_IGNORED:
                continue
            # Resync capture on a server SYN+ACK (rule 1's first option):
            # the box trusts the SYN+ACK's ack number as the client's next
            # sequence number — Strategy 6 hands it a corrupted one.
            if (
                is_synack
                and mode == MODE_RESYNC
                and tcb.resync_target == RESYNC_ON_SYNACK_OR_CLIENT_ACK
            ):
                tcb.client_next = tcp.ack
                tcb.server_next = (seq + 1) % _MOD
                tcb.mode = MODE_TRACKING
                continue
            if event is None or not (tcb.in_handshake or is_rst):
                # Ordinary traffic (once the client has sent data, server
                # responses are no longer handshake anomalies).
                if is_synack:
                    tcb.server_next = (seq + 1) % _MOD
                    continue
                if load and (seq - tcb.server_next) % _MOD == 0:
                    tcb.server_next = (tcb.server_next + len(load)) % _MOD
                if "F" in flags:
                    tcb.server_next = (tcb.server_next + 1) % _MOD
                continue
            # Resync draw: the base probability, then each combo with a
            # prior anomaly in the order seen; zero probabilities consume
            # no randomness, and the first hit stops the draws.
            draw = self.rng.random
            p = box.event_probs.get(event)
            fired = p is not None and draw() < p
            if not fired:
                combos = box.combo_probs.get(event)
                if combos:
                    for prior in tcb.anomalies:
                        p = combos.get(prior)
                        if p is not None and draw() < p:
                            fired = True
                            break
            tcb.anomalies.append(event)
            if fired and mode == MODE_TRACKING:
                tcb.mode = MODE_RESYNC
                tcb.resync_target = RESYNC_TARGETS[event]
                _RESYNC_EVENTS.inc(protocol=box.protocol, event=event)

    def _from_client(
        self, flow: FlowRecord, tcp, flags: str, packet: Packet, ctx: PathContext
    ) -> None:
        """Client-direction processing: resync capture, teardown, DPI."""
        is_rst = "R" in flags
        is_ack = "A" in flags
        load = tcp.load
        seq = tcp.seq
        for box, tcb in zip(self.boxes.values(), flow.tcbs):
            mode = tcb.mode
            if mode == MODE_IGNORED:
                continue
            if mode == MODE_RESYNC:
                target = tcb.resync_target
                if not (
                    target == RESYNC_ON_CLIENT
                    or (target == RESYNC_ON_SYNACK_OR_CLIENT_ACK and is_ack)
                ):
                    continue
                # The resynchronization bug: the box takes the packet's
                # sequence number at face value, assuming any handshake
                # increment already happened. A simultaneous-open SYN+ACK
                # (seq == ISN) or an induced RST (seq == the corrupted ack)
                # desynchronizes it.
                tcb.client_next = seq
                tcb.mode = MODE_TRACKING
                if is_rst:
                    # The box synchronized onto this RST (Strategy 7's probe
                    # confirms this); it does not also treat it as a teardown.
                    continue
                # Fall through: the capture packet itself is inspected.
            if is_rst:
                if (seq - tcb.client_next) % _MOD < _WINDOW:
                    # Valid client RST: the box deletes the TCB and ignores
                    # the flow from here on (the classic client-side teardown).
                    tcb.mode = MODE_IGNORED
                continue
            if is_ack:
                if tcb.residual_kill:
                    self._censor(box, flow, tcb, packet, ctx, "residual censorship")
                    continue
                # A client packet with ACK set completes the handshake from
                # the box's perspective; later server payloads are normal.
                tcb.in_handshake = False
            if not load or (seq - tcb.client_next) % _MOD:
                continue  # strict sequence matching: desynced data is invisible
            tcb.client_next = (tcb.client_next + len(load)) % _MOD
            if tcb.can_reassemble:
                tcb.buffer.extend(load)
                verdict = box.matcher(bytes(tcb.buffer), box.keywords)
            else:
                verdict = box.matcher(bytes(load), box.keywords)
            if verdict is True and not tcb.miss:
                self._censor(box, flow, tcb, packet, ctx, f"{box.protocol} keyword")

    def _censor(
        self,
        box: ProtocolBox,
        flow: FlowRecord,
        tcb: FlowTCB,
        packet: Packet,
        ctx: PathContext,
        reason: str,
    ) -> None:
        box.censor_count += 1
        self.record_censorship(ctx, packet, reason)
        self.inject_rst_pair(
            ctx,
            client_ip=flow.client_ip,
            client_port=flow.client_port,
            server_ip=flow.server_ip,
            server_port=flow.server_port,
            seq_to_client=tcb.server_next,
            seq_to_server=tcb.client_next,
            ack_to_client=tcb.client_next,
            ack_to_server=tcb.server_next,
        )
        tcb.mode = MODE_IGNORED
        duration = box.profile.residual_duration
        if duration > 0:
            box.residual[(flow.server_ip, flow.server_port)] = ctx.now + duration
            _RESIDUAL_TIMERS.inc(protocol=box.protocol)
