"""Iran's censorship model (§5.2).

Behaviour from the paper:

- censors HTTP (Host header) and HTTPS (SNI), each only on its default
  port (80/443); DNS-over-TCP is no longer censored (contrary to Aryan
  et al.'s 2013 findings);
- stateless per-packet DPI with no TCP reassembly;
- in-path "blackholing": on a match it drops the offending packet and
  every subsequent client packet of that flow for one minute, so the
  client simply times out.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..netsim import PathContext
from ..obs.metrics import Counter
from ..packets import Packet
from .base import Censor, FlowKey, flow_key
from .dpi import match_http, match_https
from .keywords import IRAN_KEYWORDS, KeywordSet

__all__ = ["IranCensor", "BLACKHOLE_DURATION"]

#: How long Iran blackholes a flow after a forbidden request (seconds).
BLACKHOLE_DURATION = 60.0

#: Client packets swallowed by an already-armed blackhole (the verdict
#: that armed it is counted separately in repro_censor_verdicts_total).
_BLACKHOLE_DROPS = Counter(
    "repro_iran_blackhole_drops_total",
    "Packets dropped by Iran's in-path blackhole after the verdict",
)


class IranCensor(Censor):
    """Stateless in-path censor that blackholes offending flows."""

    name = "iran"

    def __init__(
        self,
        keywords: KeywordSet = IRAN_KEYWORDS,
        http_ports: FrozenSet[int] = frozenset({80}),
        https_ports: FrozenSet[int] = frozenset({443}),
        blackhole_duration: float = BLACKHOLE_DURATION,
        inspect_depth: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.keywords = keywords
        self.http_ports = http_ports
        self.https_ports = https_ports
        self.duration = blackhole_duration
        # Adaptive knob (repro.censors.adaptive): payload bytes the DPI
        # examines per packet (None = unbounded, the calibrated model).
        self.inspect_depth = inspect_depth

    def reset(self) -> None:
        super().reset()
        self.blackholed: Dict[FlowKey, float] = {}

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        if packet.tcp is None:
            return [packet]  # TCP censorship only
        if not self.is_client_to_server(direction):
            return [packet]
        key = flow_key(packet)
        expiry = self.blackholed.get(key)
        if expiry is not None and ctx.now < expiry:
            _BLACKHOLE_DROPS.inc()
            ctx.record("drop", packet, "blackholed")
            return []
        if packet.load and self._forbidden(packet):
            self.record_censorship(ctx, packet, "blackholing flow")
            self.blackholed[key] = ctx.now + self.duration
            return []  # the offending packet itself is dropped
        return [packet]

    def _forbidden(self, packet: Packet) -> bool:
        load = packet.load
        if self.inspect_depth is not None:
            load = load[: self.inspect_depth]
        if packet.dport in self.http_ports:
            return match_http(load, self.keywords) is True
        if packet.dport in self.https_ports:
            return match_https(load, self.keywords) is True
        return False
