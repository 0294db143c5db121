"""Reference model of the GFW: one independent flow table per protocol box.

This is the per-box formulation the production GFW was fused from: every
box keeps its own TCB table and observes every packet on its own, doing
its own flow lookup, direction test, flag decoding and probability
draws. It is kept as a test oracle only. The differential fuzz suite
(``test_gfw_differential.py``) feeds the same packets to the fused
:class:`repro.censors.GreatFirewall` and to a :class:`ReferenceGFW` of
these boxes sharing one seeded RNG, and requires identical injections,
counters, TCB state and RNG state after every packet.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.censors.base import Censor, FlowKey, flow_key
from repro.censors.gfw import MATCHERS
from repro.censors.gfw.box import MODE_IGNORED, MODE_RESYNC, MODE_TRACKING
from repro.censors.gfw.profiles import (
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
from repro.censors.keywords import CHINA_KEYWORDS, KeywordSet
from repro.tcpstack.endpoint import seq_delta

_WINDOW = 65536
_MOD = 1 << 32


class ReferenceTCB:
    """Per-flow transmission control block inside one reference box."""

    def __init__(self, packet, miss: bool, can_reassemble: bool) -> None:
        self.client_ip = packet.src
        self.client_port = packet.sport
        self.server_ip = packet.dst
        self.server_port = packet.dport
        self.client_isn = packet.tcp.seq
        self.client_next = (packet.tcp.seq + 1) % _MOD
        self.server_next = 0
        self.mode = MODE_TRACKING
        self.resync_target = ""
        self.in_handshake = True
        self.anomalies: list = []
        self.miss = miss
        self.can_reassemble = can_reassemble
        self.buffer = bytearray()
        self.residual_kill = False

    def from_client(self, packet) -> bool:
        return packet.src == self.client_ip and packet.sport == self.client_port


class ReferenceBox:
    """One protocol box with its own flow table."""

    def __init__(
        self,
        profile: BoxProfile,
        keywords: KeywordSet,
        matcher,
        rng: random.Random,
        censor: Censor,
        max_flows: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.keywords = keywords
        self.matcher = matcher
        self.rng = rng
        self.censor = censor
        self.max_flows = max_flows
        self.flows: Dict[FlowKey, ReferenceTCB] = {}
        self.residual: Dict[Tuple[str, int], float] = {}
        self.censor_count = 0
        self.evictions = 0

    def observe(self, packet, direction, ctx, key=None) -> None:
        if key is None:
            key = flow_key(packet)
        if direction == "c2s" and packet.tcp.is_syn:
            self._create_tcb(key, packet, ctx)
            return
        tcb = self.flows.get(key)
        if tcb is None or tcb.mode == MODE_IGNORED:
            return
        if tcb.from_client(packet):
            self._observe_client(tcb, packet, ctx)
        else:
            self._observe_server(tcb, packet, ctx)

    def _create_tcb(self, key, packet, ctx) -> None:
        miss = self.rng.random() < self.profile.miss_prob
        can_reassemble = not (self.rng.random() < self.profile.reassembly_fail_prob)
        tcb = ReferenceTCB(packet, miss=miss, can_reassemble=can_reassemble)
        expiry = self.residual.get((packet.dst, packet.dport))
        if expiry is not None and ctx.now < expiry:
            tcb.residual_kill = True
        if self.max_flows is not None and key not in self.flows:
            while len(self.flows) >= self.max_flows:
                oldest = next(iter(self.flows))
                del self.flows[oldest]
                self.evictions += 1
        self.flows[key] = tcb

    def _observe_server(self, tcb, packet, ctx) -> None:
        tcp = packet.tcp
        if (
            tcb.mode == MODE_RESYNC
            and tcb.resync_target == RESYNC_ON_SYNACK_OR_CLIENT_ACK
            and tcp.is_synack
        ):
            tcb.client_next = tcp.ack
            tcb.server_next = (tcp.seq + 1) % _MOD
            tcb.mode = MODE_TRACKING
            return
        event = self._classify_server_event(tcb, packet)
        if event is None:
            self._track_server(tcb, packet)
            return
        fired = self._draw(event, tcb)
        tcb.anomalies.append(event)
        if fired and tcb.mode == MODE_TRACKING:
            tcb.mode = MODE_RESYNC
            tcb.resync_target = RESYNC_TARGETS[event]

    def _classify_server_event(self, tcb, packet) -> Optional[str]:
        tcp = packet.tcp
        if tcp.is_rst:
            return EVENT_RST
        if not tcb.in_handshake:
            return None
        if tcp.is_synack:
            if tcp.load:
                return EVENT_SYNACK_PAYLOAD
            expected_ack = (tcb.client_isn + 1) % _MOD
            if seq_delta(tcp.ack, expected_ack) != 0:
                return EVENT_CORRUPT_ACK
            return None
        if tcp.is_syn:
            return EVENT_PAYLOAD_SYN if tcp.load else EVENT_SYN
        if tcp.load:
            return EVENT_PAYLOAD_OTHER
        return None

    def _draw(self, event, tcb) -> bool:
        probs = [self.profile.event_probs.get(event, 0.0)]
        probs.extend(
            self.profile.combo_probs.get((prior, event), 0.0)
            for prior in tcb.anomalies
        )
        return any(p > 0 and self.rng.random() < p for p in probs)

    def _track_server(self, tcb, packet) -> None:
        tcp = packet.tcp
        if tcp.is_synack:
            tcb.server_next = (tcp.seq + 1) % _MOD
            return
        if tcp.load and seq_delta(tcp.seq, tcb.server_next) == 0:
            tcb.server_next = (tcb.server_next + len(tcp.load)) % _MOD
        if tcp.is_fin:
            tcb.server_next = (tcb.server_next + 1) % _MOD

    def _observe_client(self, tcb, packet, ctx) -> None:
        tcp = packet.tcp
        if tcb.mode == MODE_RESYNC:
            qualifies = tcb.resync_target == RESYNC_ON_CLIENT or (
                tcb.resync_target == RESYNC_ON_SYNACK_OR_CLIENT_ACK and tcp.is_ack
            )
            if not qualifies:
                return
            tcb.client_next = tcp.seq
            tcb.mode = MODE_TRACKING
            if tcp.is_rst:
                return
        if tcp.is_rst:
            if 0 <= seq_delta(tcp.seq, tcb.client_next) < _WINDOW:
                tcb.mode = MODE_IGNORED
            return
        if tcb.residual_kill and tcp.is_ack:
            self._censor(tcb, packet, ctx, reason="residual censorship")
            return
        if tcp.is_ack:
            tcb.in_handshake = False
        if not tcp.load:
            return
        if seq_delta(tcp.seq, tcb.client_next) != 0:
            return
        tcb.client_next = (tcb.client_next + len(tcp.load)) % _MOD
        if tcb.can_reassemble:
            tcb.buffer.extend(tcp.load)
            verdict = self.matcher(bytes(tcb.buffer), self.keywords)
        else:
            verdict = self.matcher(bytes(tcp.load), self.keywords)
        if verdict is True and not tcb.miss:
            self._censor(tcb, packet, ctx, reason=f"{self.profile.protocol} keyword")

    def _censor(self, tcb, packet, ctx, reason) -> None:
        self.censor_count += 1
        self.censor.record_censorship(ctx, packet, reason)
        self.censor.inject_rst_pair(
            ctx,
            client_ip=tcb.client_ip,
            client_port=tcb.client_port,
            server_ip=tcb.server_ip,
            server_port=tcb.server_port,
            seq_to_client=tcb.server_next,
            seq_to_server=tcb.client_next,
            ack_to_client=tcb.client_next,
            ack_to_server=tcb.server_next,
        )
        tcb.mode = MODE_IGNORED
        if self.profile.residual_duration > 0:
            self.residual[(tcb.server_ip, tcb.server_port)] = (
                ctx.now + self.profile.residual_duration
            )


class ReferenceGFW(Censor):
    """The TCP side of the GFW as independent boxes observing in turn."""

    name = "gfw"

    def __init__(
        self,
        rng: random.Random,
        keywords: KeywordSet = CHINA_KEYWORDS,
        protocols: Optional[Iterable[str]] = None,
        profiles: Optional[Dict[str, BoxProfile]] = None,
        validate_checksums: bool = False,
        max_flows_per_box: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.rng = rng
        self.validate_checksums = validate_checksums
        profiles = profiles if profiles is not None else CHINA_PROFILES
        names = list(protocols) if protocols is not None else list(CHINA_PROFILES)
        self.boxes: Dict[str, ReferenceBox] = {
            name: ReferenceBox(
                profiles[name], keywords, MATCHERS[name], rng, self,
                max_flows=max_flows_per_box,
            )
            for name in names
        }

    def process(self, packet, direction, ctx) -> List:
        if self.validate_checksums and not packet.checksums_ok():
            return [packet]
        key = flow_key(packet)
        for box in self.boxes.values():
            box.observe(packet, direction, ctx, key)
        return [packet]
