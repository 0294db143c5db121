"""Per-OS TCP behaviour profiles for §7's client-compatibility experiment.

The paper tested 17 versions of 6 operating systems against every strategy
and found that OS differences reduce to a handful of TCP behaviours —
chiefly whether the stack ignores a payload on a SYN+ACK (Linux-derived
stacks do; Windows and macOS do not). :class:`OSPersonality` captures those
behaviours and :data:`PERSONALITIES` enumerates the paper's OS matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = [
    "DEFAULT_RTO",
    "OSPersonality",
    "PERSONALITIES",
    "personality",
    "all_personality_names",
]

#: Base retransmission timeout (virtual seconds) of every personality.
DEFAULT_RTO = 0.4


@dataclass(frozen=True)
class OSPersonality:
    """TCP behaviours that vary across client operating systems.

    Attributes:
        name: Identifier, e.g. ``"windows-10"``.
        family: OS family (``"windows"``, ``"macos"``, ``"ios"``,
            ``"android"``, ``"linux"``).
        ignores_synack_payload: Whether a payload on a SYN+ACK is discarded
            (Linux behaviour). Stacks that consume it desynchronize when a
            server-side strategy plants a bogus handshake payload — this is
            why Strategies 5, 9 and 10 fail on Windows and macOS (§7).
        ignores_rst_without_ack_in_synsent: Whether a RST lacking the ACK
            flag is ignored while in SYN_SENT. True on every modern OS the
            paper tested, despite RFC 793 suggesting otherwise.
        supports_simultaneous_open: Whether the stack implements TCP
            simultaneous open (RFC 793 requires it; all tested OSes do).
        rst_on_bad_synack_ack: Whether a SYN+ACK with an unacceptable ack
            number elicits a RST while the client stays in SYN_SENT.
        default_window: Initial advertised receive window.
        window_scale: Advertised window-scale shift count.
        mss: Advertised maximum segment size.
        syn_retries: SYN retransmissions before an active open is
            declared failed (Linux ``net.ipv4.tcp_syn_retries``).
        synack_retries: SYN+ACK retransmissions before a passive open is
            abandoned (Linux ``net.ipv4.tcp_synack_retries``).
        data_retries: Data/FIN retransmissions in synchronized states
            before the connection fails (cf. ``tcp_retries2``, scaled to
            the simulator's clock).
        rto: Base retransmission timeout in virtual seconds; each retry
            doubles it (bounded exponential backoff).
    """

    name: str
    family: str
    ignores_synack_payload: bool = True
    ignores_rst_without_ack_in_synsent: bool = True
    supports_simultaneous_open: bool = True
    rst_on_bad_synack_ack: bool = True
    default_window: int = 65535
    window_scale: int = 7
    mss: int = 1460
    syn_retries: int = 6
    synack_retries: int = 5
    data_retries: int = 6
    rto: float = DEFAULT_RTO


def _linux(name: str) -> OSPersonality:
    return OSPersonality(name=name, family="linux")


def _windows(name: str) -> OSPersonality:
    # Windows retries less aggressively than Linux (TcpMaxConnect
    # Retransmissions-style registry defaults, scaled to the simulator).
    return OSPersonality(
        name=name,
        family="windows",
        ignores_synack_payload=False,
        default_window=64240,
        window_scale=8,
        syn_retries=4,
        synack_retries=4,
        data_retries=5,
    )


#: The 17 client OS versions evaluated in §7 of the paper.
PERSONALITIES: Dict[str, OSPersonality] = {
    p.name: p
    for p in [
        _windows("windows-xp-sp3"),
        _windows("windows-7-ultimate-sp1"),
        _windows("windows-8.1-pro"),
        _windows("windows-10-enterprise-17134"),
        _windows("windows-server-2003-datacenter"),
        _windows("windows-server-2008-datacenter"),
        _windows("windows-server-2013-standard"),
        _windows("windows-server-2018-standard"),
        OSPersonality(
            name="macos-10.15", family="macos", ignores_synack_payload=False
        ),
        OSPersonality(name="ios-13.3", family="ios"),
        OSPersonality(name="android-10", family="android"),
        _linux("ubuntu-12.04.5"),
        _linux("ubuntu-14.04.3"),
        _linux("ubuntu-16.04.4"),
        _linux("ubuntu-18.04.1"),
        _linux("centos-6"),
        _linux("centos-7"),
    ]
}

#: Personality used for servers (the paper's servers ran Ubuntu 18.04.3).
SERVER_PERSONALITY = _linux("ubuntu-18.04.3-server")


def personality(name: str) -> OSPersonality:
    """Look up a personality by name (also accepts the server profile)."""
    if name == SERVER_PERSONALITY.name:
        return SERVER_PERSONALITY
    try:
        return PERSONALITIES[name]
    except KeyError:
        raise ValueError(f"unknown OS personality {name!r}") from None


def all_personality_names() -> List[str]:
    """Names of the 17 client OS versions from §7, in a stable order."""
    return sorted(PERSONALITIES)
