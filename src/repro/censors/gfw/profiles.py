"""Calibrated behaviour profiles for the GFW's per-protocol censorship boxes.

The paper's central §6 finding is that China runs a *separate censorship
box per application protocol*, each with its own network stack and bugs.
A :class:`BoxProfile` captures one box's quirks:

- which handshake anomalies put it into the **resynchronization state**
  (and with what probability) — the paper's refined resync model (§5.1):

  1. a payload on a non-SYN+ACK packet from the server → resync on the
     next SYN+ACK from the server or next ACK-flagged client packet
     (every protocol);
  2. a RST from the server → resync on the next client packet (every
     protocol *except HTTPS*);
  3. a SYN+ACK with a corrupted ack number → resync on the next client
     packet (*FTP only*);

- whether the box can reassemble TCP segments (the HTTP box can; the
  SMTP box cannot; the FTP box fails roughly half the time);
- its baseline DPI miss rate (Table 2's "No evasion" row);
- residual censorship (HTTP only, ~90 s).

Probabilities marked ``# calibrated`` are empirical constants fitted to
Table 2 where the paper itself reports the behaviour as probabilistic or
unexplained (e.g. "We do not yet understand the reason for the
improvement in success rate" for Strategy 5 on FTP). Everything else is
mechanism, and the Table 2 success rates *emerge* from the interaction of
these profiles with unmodified client TCP stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

__all__ = [
    "BoxProfile",
    "CHINA_PROFILES",
    "EVENT_RST",
    "EVENT_SYN",
    "EVENT_PAYLOAD_SYN",
    "EVENT_PAYLOAD_OTHER",
    "EVENT_CORRUPT_ACK",
    "EVENT_SYNACK_PAYLOAD",
    "RESYNC_ON_CLIENT",
    "RESYNC_ON_SYNACK_OR_CLIENT_ACK",
]

# Server-side handshake anomaly events a box can react to.
EVENT_RST = "rst"                        # RST from the server
EVENT_SYN = "syn"                        # bare SYN from the server (sim. open)
EVENT_PAYLOAD_SYN = "payload_syn"        # SYN carrying a payload
EVENT_PAYLOAD_OTHER = "payload_other"    # payload on FIN/ACK/null-flag packet
EVENT_CORRUPT_ACK = "corrupt_ack"        # SYN+ACK with a wrong ack number
EVENT_SYNACK_PAYLOAD = "synack_payload"  # SYN+ACK carrying a payload

# What the box resynchronizes on once in the resync state.
RESYNC_ON_CLIENT = "next_client_packet"
RESYNC_ON_SYNACK_OR_CLIENT_ACK = "server_synack_or_client_ack"

#: Resync capture target per triggering event (the paper's rules 1–3).
RESYNC_TARGETS = {
    EVENT_RST: RESYNC_ON_CLIENT,
    EVENT_SYN: RESYNC_ON_CLIENT,
    EVENT_PAYLOAD_SYN: RESYNC_ON_SYNACK_OR_CLIENT_ACK,
    EVENT_PAYLOAD_OTHER: RESYNC_ON_SYNACK_OR_CLIENT_ACK,
    EVENT_CORRUPT_ACK: RESYNC_ON_CLIENT,
    EVENT_SYNACK_PAYLOAD: RESYNC_ON_CLIENT,
}


@dataclass(frozen=True)
class BoxProfile:
    """Quirk profile for one GFW protocol box.

    Attributes:
        protocol: ``"dns"``, ``"ftp"``, ``"http"``, ``"https"``, ``"smtp"``.
        miss_prob: Per-flow probability the box misses a forbidden request
            outright (Table 2 "No evasion" row).
        event_probs: P(enter resync | anomaly event), per event.
        combo_probs: P(enter resync | event B observed after event A), for
            (A, B) pairs whose interaction the paper measured but could
            not explain mechanistically.
        reassembly_fail_prob: Per-flow probability the box cannot
            reassemble TCP segments (drives Strategy 8).
        residual_duration: Seconds of residual censorship after a censor
            event (HTTP only; 0 disables).
    """

    protocol: str
    miss_prob: float
    event_probs: Dict[str, float] = field(default_factory=dict)
    combo_probs: Dict[Tuple[str, str], float] = field(default_factory=dict)
    reassembly_fail_prob: float = 0.0
    residual_duration: float = 0.0

    @cached_property
    def resync_tables(self) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """``(event -> p, event -> {prior event -> p})`` for resync draws.

        Only positive probabilities are kept: a draw skips a zero
        probability without consuming randomness. Computed once per
        profile (profiles are never mutated).
        """
        event_probs = {event: p for event, p in self.event_probs.items() if p > 0}
        combo_probs: Dict[str, Dict[str, float]] = {}
        for (prior, event), p in self.combo_probs.items():
            if p > 0:
                combo_probs.setdefault(event, {})[prior] = p
        return event_probs, combo_probs


#: The five per-protocol boxes of the GFW, calibrated to Table 2.
CHINA_PROFILES: Dict[str, BoxProfile] = {
    "dns": BoxProfile(
        protocol="dns",
        miss_prob=0.0067,  # calibrated: 2% over 3 tries
        event_probs={
            EVENT_RST: 0.50,            # calibrated (Strategies 1, 7)
            EVENT_PAYLOAD_SYN: 0.45,    # calibrated (Strategy 2)
            EVENT_PAYLOAD_OTHER: 0.43,  # calibrated (Strategy 6)
            EVENT_CORRUPT_ACK: 0.017,   # calibrated (Strategy 4)
        },
        combo_probs={
            (EVENT_CORRUPT_ACK, EVENT_SYN): 0.079,             # calibrated (S3)
            (EVENT_CORRUPT_ACK, EVENT_SYNACK_PAYLOAD): 0.035,  # calibrated (S5)
        },
    ),
    "ftp": BoxProfile(
        protocol="ftp",
        miss_prob=0.03,
        event_probs={
            EVENT_RST: 0.51,            # calibrated (Strategy 1)
            EVENT_PAYLOAD_SYN: 0.34,    # calibrated (Strategy 2)
            EVENT_PAYLOAD_OTHER: 0.33,  # calibrated (Strategy 6)
            EVENT_CORRUPT_ACK: 0.31,    # rule 3 is FTP-only (Strategy 4)
        },
        combo_probs={
            (EVENT_CORRUPT_ACK, EVENT_SYN): 0.49,              # calibrated (S3)
            (EVENT_CORRUPT_ACK, EVENT_SYNACK_PAYLOAD): 0.956,  # calibrated (S5)
            (EVENT_RST, EVENT_CORRUPT_ACK): 0.54,              # calibrated (S7)
        },
        reassembly_fail_prob=0.455,  # "frequently incapable" (Strategy 8)
    ),
    "http": BoxProfile(
        protocol="http",
        miss_prob=0.03,
        event_probs={
            EVENT_RST: 0.52,            # ~50% resync entry (prior work + S1)
            EVENT_PAYLOAD_SYN: 0.525,   # calibrated (Strategy 2)
            EVENT_PAYLOAD_OTHER: 0.505, # calibrated (Strategy 6)
        },
        residual_duration=90.0,  # §4.2: ~90 s of HTTP residual censorship
    ),
    "https": BoxProfile(
        protocol="https",
        miss_prob=0.03,
        event_probs={
            # Rule 2 does NOT apply to HTTPS: a server RST never triggers
            # the resynchronization state (why Strategies 1 and 7 fail).
            EVENT_PAYLOAD_SYN: 0.536,   # calibrated (Strategy 2)
            EVENT_PAYLOAD_OTHER: 0.526, # calibrated (Strategy 6)
        },
        combo_probs={
            (EVENT_RST, EVENT_SYN): 0.11,  # calibrated (Strategy 1 residue)
        },
    ),
    "smtp": BoxProfile(
        protocol="smtp",
        miss_prob=0.26,  # the GFW's SMTP censorship is notably flaky
        event_probs={
            EVENT_RST: 0.57,            # calibrated (Strategies 1, 7)
            EVENT_PAYLOAD_SYN: 0.446,   # calibrated (Strategy 2)
            EVENT_PAYLOAD_OTHER: 0.39,  # calibrated (Strategy 6)
        },
        reassembly_fail_prob=1.0,  # the SMTP box cannot reassemble (S8: 100%)
    ),
}
