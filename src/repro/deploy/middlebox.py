"""Mid-path strategy deployment (§8: "Where to Deploy?").

The paper notes the strategies "could be deployed at any point in the
path between the censor and the server" — a reverse proxy or CDN, a
hosting platform, or a TapDance-style middlebox manipulating packets in
flight. :class:`StrategyMiddlebox` is that deployment: a path element
that applies a Geneva strategy to server-to-client packets as they pass.

It must sit between the censor and the server (the transformation has to
be in place before the censor sees the packets); the evaluation topology
places it at a configurable hop.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core import Strategy, StrategyEngine
from ..netsim import DIRECTION_S2C, Middlebox, PathContext
from ..packets import Packet

__all__ = ["StrategyMiddlebox"]


class StrategyMiddlebox(Middlebox):
    """Applies a server-side strategy to in-flight traffic.

    Attributes:
        engine: The :class:`~repro.core.engine.StrategyEngine` holding the
            strategy and its randomness. It is not installed on a host;
            the proxy applies its strategy to packets in flight, and its
            :meth:`~repro.core.engine.StrategyEngine.reset` gives each
            trial fresh strategy state.
        packets_rewritten: Count of packets the strategy transformed.
    """

    name = "strategy-proxy"

    def __init__(self, strategy: Strategy, rng: Optional[random.Random] = None) -> None:
        self.engine = StrategyEngine(strategy, rng)
        self.reset()

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        if direction != DIRECTION_S2C:
            # Client-to-server traffic passes untouched; the strategies
            # only manipulate what the server (appears to) send.
            return [packet]
        engine = self.engine
        out = engine.strategy.apply_outbound(packet, engine.rng)
        if len(out) != 1 or out[0] is not packet:
            self.packets_rewritten += 1
        return out

    def reset(self) -> None:
        """Start a trial: fresh strategy state and a zeroed counter."""
        self.engine.reset()
        self.packets_rewritten = 0
