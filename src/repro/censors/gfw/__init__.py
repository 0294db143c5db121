"""China's Great Firewall model: per-protocol boxes with resync bugs over one flow table."""

from .box import FlowRecord, FlowTCB, ProtocolBox
from .gfw import MATCHERS, GreatFirewall
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
    BoxProfile,
)

__all__ = [
    "BoxProfile",
    "CHINA_PROFILES",
    "EVENT_CORRUPT_ACK",
    "EVENT_PAYLOAD_OTHER",
    "EVENT_PAYLOAD_SYN",
    "EVENT_RST",
    "EVENT_SYN",
    "EVENT_SYNACK_PAYLOAD",
    "FlowRecord",
    "FlowTCB",
    "GreatFirewall",
    "MATCHERS",
    "ProtocolBox",
    "RESYNC_ON_CLIENT",
    "RESYNC_ON_SYNACK_OR_CLIENT_ACK",
]
