"""Per-client strategy selection (§8: "Which Strategies to Use?").

A deployed server must pick the right strategy per client, "based only on
the client's SYN packet". :class:`GeoStrategySelector` implements the
paper's suggested approach: coarse IP-prefix geolocation mapped to a
per-(country, protocol) strategy table. :class:`PerClientEngine` is the
host filter that makes the decision at SYN time and applies the selected
strategy to that connection only — clients outside censored prefixes see
completely vanilla TCP.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..censors.registry import COUNTRIES
from ..core import Strategy, deployed_strategy
from ..packets import Packet
from ..tcpstack import Host

__all__ = [
    "GeoStrategySelector",
    "PerClientEngine",
    "RECOMMENDED_STRATEGIES",
    "install_per_client",
    "parse_cidr",
]

#: Best server-side strategy per (country, protocol): the Table 2 winner,
#: or the SNI-matrix winner for the SNI-era boxes (a registry view).
RECOMMENDED_STRATEGIES: Dict[Tuple[str, str], int] = {
    (profile.name, protocol): case.strategy
    for profile in COUNTRIES
    for protocol, case in profile.censored.items()
}


def _ip_to_int(address: str) -> int:
    parts = [int(p) for p in address.split(".")]
    if len(parts) != 4 or any(p < 0 or p > 255 for p in parts):
        raise ValueError(f"invalid IPv4 address {address!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


def parse_cidr(cidr: str) -> Tuple[int, int]:
    """Parse ``a.b.c.d/len`` into (network, mask) integers."""
    address, _, length_text = cidr.partition("/")
    length = int(length_text) if length_text else 32
    if not 0 <= length <= 32:
        raise ValueError(f"invalid prefix length in {cidr!r}")
    mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return _ip_to_int(address) & mask, mask


class GeoStrategySelector:
    """Longest-prefix-match geolocation plus a strategy table.

    Use :meth:`add_prefix` to register censored-country prefixes, then
    :meth:`strategy_for` to pick a strategy from a client SYN.
    """

    def __init__(
        self, table: Optional[Dict[Tuple[str, str], int]] = None
    ) -> None:
        self._prefixes: List[Tuple[int, int, int, str]] = []  # net, mask, len, country
        self.table = dict(table if table is not None else RECOMMENDED_STRATEGIES)

    def add_prefix(self, cidr: str, country: str) -> None:
        """Register a client prefix as belonging to a censored country."""
        network, mask = parse_cidr(cidr)
        length = bin(mask).count("1")
        self._prefixes.append((network, mask, length, country))
        self._prefixes.sort(key=lambda item: -item[2])  # longest prefix first

    def country_for(self, address: str) -> Optional[str]:
        """The censored country a client address geolocates to, if any."""
        value = _ip_to_int(address)
        for network, mask, _, country in self._prefixes:
            if value & mask == network:
                return country
        return None

    def strategy_for(self, client_ip: str, protocol: str) -> Optional[Strategy]:
        """Pick a strategy for one client, or ``None`` (no evasion needed)."""
        country = self.country_for(client_ip)
        if country is None:
            return None
        number = self.table.get((country, protocol))
        if number is None:
            return None
        return deployed_strategy(number)


class PerClientEngine:
    """Host filters applying a per-connection strategy chosen at SYN time.

    Installed on the server host: the inbound filter watches client SYNs
    and records the selector's decision per flow; the outbound filter
    applies the recorded strategy to the server's replies on that flow
    (and passes every other flow's packets through untouched).
    """

    def __init__(
        self,
        selector: GeoStrategySelector,
        protocol: str,
        rng: Optional[random.Random] = None,
        rng_provider: Optional[Callable[[str], random.Random]] = None,
        port_protocols: Optional[Dict[int, str]] = None,
    ) -> None:
        self.selector = selector
        self.protocol = protocol
        self.rng = rng if rng is not None else random.Random(0)
        #: Optional per-client RNG streams (fleet mode): maps a client
        #: address to the RNG used when applying that client's strategy,
        #: so concurrent flows draw from independent seeded streams. When
        #: unset, the single shared ``rng`` is used (single-flow trials).
        self.rng_provider = rng_provider
        #: Optional multi-protocol serving (fleet mode): maps a listening
        #: port to the protocol name used for the strategy-table lookup,
        #: falling back to the engine-wide ``protocol``.
        self.port_protocols = dict(port_protocols or {})
        self.decisions: Dict[tuple, Optional[Strategy]] = {}

    def _protocol_for(self, port: int) -> str:
        return self.port_protocols.get(port, self.protocol)

    def _rng_for(self, client_ip: str) -> random.Random:
        if self.rng_provider is not None:
            return self.rng_provider(client_ip)
        return self.rng

    def inbound_filter(self, packet: Packet) -> List[Packet]:
        """Record the strategy decision when a client SYN arrives."""
        if packet.tcp.is_syn:
            key = (packet.src, packet.sport, packet.dport)
            if key not in self.decisions:
                self.decisions[key] = self.selector.strategy_for(
                    packet.src, self._protocol_for(packet.dport)
                )
        return [packet]

    def outbound_filter(self, packet: Packet) -> List[Packet]:
        """Apply the recorded strategy to this flow's server packets."""
        key = (packet.dst, packet.dport, packet.sport)
        strategy = self.decisions.get(key)
        if strategy is None:
            return [packet]
        return strategy.apply_outbound(packet, self._rng_for(packet.dst))

    def forget_client(self, client_ip: str) -> None:
        """Drop every recorded decision for one client (flow recycled)."""
        stale = [key for key in self.decisions if key[0] == client_ip]
        for key in stale:
            del self.decisions[key]


def install_per_client(
    host: Host,
    selector: GeoStrategySelector,
    protocol: str,
    rng: Optional[random.Random] = None,
) -> PerClientEngine:
    """Attach a :class:`PerClientEngine` to a server host."""
    engine = PerClientEngine(selector, protocol, rng)
    host.inbound_filters.append(engine.inbound_filter)
    host.outbound_filters.append(engine.outbound_filter)
    return engine
