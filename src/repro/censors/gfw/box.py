"""GFW protocol boxes and the per-flow state they keep.

Implements the paper's refined model of the GFW's per-flow machinery:

- a TCB is created when a box sees a client SYN (the GFW explicitly
  determines which host initiated the connection and processes the two
  directions differently — §3);
- DPI runs only on client payload bytes whose sequence number matches the
  box's tracked expectation *exactly*; a one-byte desynchronization makes
  the forbidden request invisible (the bug behind Strategies 1–7);
- handshake anomalies from the *server* probabilistically put the box
  into a resynchronization state whose capture target depends on which
  anomaly triggered it (§5.1's rules 1–3);
- when the box resynchronizes on a client packet it assumes the sequence
  number has already been incremented — so a simultaneous-open SYN+ACK
  (whose sequence number has *not* advanced) desynchronizes it by one;
- a valid RST from the *client* deletes the TCB (the classic client-side
  TCB-teardown channel — which is why §3's client-side strategies worked
  from the client but their server-side analogs do not);
- boxes never fail closed: flows without a TCB are ignored.

Every box tracks every connection, so the boxes share one flow table
(:class:`FlowRecord`, one per connection, owned by
:class:`~repro.censors.gfw.GreatFirewall`) holding the endpoints and the
client ISN once, plus one :class:`FlowTCB` per box: that box's private
tracking state. A :class:`ProtocolBox` holds a box's calibration,
precomputed probability tables and per-trial counters; the per-packet
logic for all boxes lives in ``GreatFirewall.process``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...packets import Packet
from ..base import FlowKey
from ..keywords import KeywordSet
from .profiles import BoxProfile

if TYPE_CHECKING:  # pragma: no cover
    from .gfw import GreatFirewall

__all__ = ["FlowRecord", "FlowTCB", "ProtocolBox"]

MODE_TRACKING = "tracking"
MODE_RESYNC = "resync"
MODE_IGNORED = "ignored"

#: Verdict function: payload bytes -> None (not mine) / False / True.
Matcher = Callable[[bytes, KeywordSet], Optional[bool]]


class FlowTCB:
    """One box's transmission control block for one flow."""

    __slots__ = (
        "mode",
        "resync_target",
        "client_next",
        "server_next",
        "in_handshake",
        "anomalies",
        "miss",
        "can_reassemble",
        "buffer",
        "residual_kill",
    )

    def __init__(self, client_next: int, miss: bool, can_reassemble: bool) -> None:
        self.mode = MODE_TRACKING
        self.resync_target = ""
        self.client_next = client_next
        self.server_next = 0
        self.in_handshake = True
        self.anomalies: List[str] = []
        self.miss = miss
        self.can_reassemble = can_reassemble
        self.buffer = bytearray()
        self.residual_kill = False


class FlowRecord:
    """One tracked connection: shared endpoints plus each box's TCB.

    ``tcbs[i]`` belongs to the GFW's ``i``-th box (in box order).
    """

    __slots__ = ("client_ip", "client_port", "server_ip", "server_port", "client_isn", "tcbs")

    def __init__(self, packet: Packet, tcbs: List[FlowTCB]) -> None:
        self.client_ip = packet.ip.src
        self.client_port = packet.tcp.sport
        self.server_ip = packet.ip.dst
        self.server_port = packet.tcp.dport
        self.client_isn = packet.tcp.seq
        self.tcbs = tcbs


class ProtocolBox:
    """One of the GFW's per-protocol censorship engines.

    Attributes:
        profile: The box's calibrated quirk profile.
        keywords: Censored keyword sets for DPI.
        matcher: The box's DPI verdict function.
        index: The box's slot in every :attr:`FlowRecord.tcbs`.
        event_probs: ``event -> P(enter resync)``, positive entries only.
        combo_probs: ``event -> {prior event -> P(enter resync)}``,
            positive entries only.
        residual: ``(server, port) -> expiry`` residual-censorship timers.
        censor_count: Censorship actions taken this trial.
    """

    def __init__(
        self,
        profile: BoxProfile,
        keywords: KeywordSet,
        matcher: Matcher,
        gfw: "GreatFirewall",
        index: int,
    ) -> None:
        self.profile = profile
        self.protocol = profile.protocol
        self.keywords = keywords
        self.matcher = matcher
        self.index = index
        self._gfw = gfw
        self.event_probs, self.combo_probs = profile.resync_tables
        self.reset()

    def reset(self) -> None:
        """Clear this box's per-trial state (its TCBs live in the GFW's table)."""
        self.residual: Dict[Tuple[str, int], float] = {}
        self.censor_count = 0

    @property
    def flows(self) -> Dict[FlowKey, FlowTCB]:
        """This box's TCB for every tracked flow, oldest first."""
        index = self.index
        return {key: flow.tcbs[index] for key, flow in self._gfw.flows.items()}

    @property
    def evictions(self) -> int:
        """Flows evicted by the bounded flow table (shared by all boxes)."""
        return self._gfw.evictions
