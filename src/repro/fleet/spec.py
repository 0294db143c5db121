"""Fleet-run specification: client mix, arrival process, per-flow plans.

A :class:`FleetSpec` describes a whole serving run — how many clients,
from which countries, speaking which protocols, on which OS stacks, and
how they arrive over virtual time. Everything downstream is a *pure
function of the spec*: :meth:`FleetSpec.flow_plans` expands it into one
:class:`FlowPlan` per client, and every per-flow quantity (address,
arrival time, trial seed, workload) is derived from the flow's global
index alone. That purity is what makes fleet runs shardable — a worker
simulating flows ``{i : i % W == k}`` produces byte-identical per-flow
records to the same flows inside a full serial run.

Seed derivations:

- flow ``i``'s trial seed is ``trial_seed(spec.seed, i)`` — the same
  derivation a ``success_rate`` batch uses, so fleet flow ``i`` replays
  the world of batch trial ``i`` (the single-flow-equivalence anchor);
- world-level draws (mix assignment, Poisson arrival gaps) come from
  :func:`~repro.runtime.seeds.fleet_stream_seed` streams, domain-
  separated from every flow seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..censors.registry import COUNTRIES, PROTOCOLS, country_profile
from ..runtime.seeds import fleet_stream_seed, trial_seed
from ..tcpstack import personality

__all__ = [
    "COUNTRY_PREFIXES",
    "DEFAULT_MIX",
    "FleetMixEntry",
    "FleetSpec",
    "FlowPlan",
    "flow_client_ip",
]

#: /16 client prefixes per country (each profile's ``fleet_prefix``) and
#: the uncensored cohort. These are what the deployed server's
#: GeoStrategySelector is loaded with.
COUNTRY_PREFIXES: Dict[Optional[str], str] = {
    **{profile.name: profile.fleet_prefix for profile in COUNTRIES},
    None: "172.16",
}

#: Ceiling on clients per run: each flow needs a distinct host address
#: inside a /16 (250 hosts x 256 subnets, avoiding .0/.1/.255 hosts).
MAX_CLIENTS = 60000

_STREAM_ARRIVALS = 0
_STREAM_MIX = 1
_STREAM_SERVER_HOST = 2


@dataclass(frozen=True)
class FleetMixEntry:
    """One cohort in the client mix.

    Attributes:
        country: Censoring country the clients sit behind (``None`` for
            an uncensored cohort).
        protocol: Application protocol the cohort speaks.
        client_os: OS personality of the cohort's client stacks.
        weight: Relative share of the arrival stream.
    """

    country: Optional[str]
    protocol: str
    client_os: str = "ubuntu-18.04.1"
    weight: float = 1.0

    def validate(self) -> None:
        if self.country is not None:
            protocols = country_profile(self.country).protocols
            if self.protocol not in protocols:
                raise ValueError(
                    f"{self.country} does not censor {self.protocol!r} "
                    f"(expected one of {list(protocols)})"
                )
        elif self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        personality(self.client_os)  # raises on unknown personality
        if self.weight <= 0:
            raise ValueError("mix weights must be positive")

    def label(self) -> str:
        return f"{self.country or 'none'}/{self.protocol}"


#: The default serving mix: every censored (country, protocol) pair from
#: Table 1 plus an uncensored cohort, across a spread of client stacks.
DEFAULT_MIX: Tuple[FleetMixEntry, ...] = (
    FleetMixEntry("china", "http", "ubuntu-18.04.1", 3.0),
    FleetMixEntry("china", "https", "windows-10-enterprise-17134", 2.0),
    FleetMixEntry("china", "dns", "centos-7", 1.0),
    FleetMixEntry("china", "ftp", "ubuntu-16.04.4", 1.0),
    FleetMixEntry("china", "smtp", "ubuntu-14.04.3", 1.0),
    FleetMixEntry("india", "http", "android-10", 2.0),
    FleetMixEntry("iran", "http", "windows-7-ultimate-sp1", 2.0),
    FleetMixEntry("iran", "https", "macos-10.15", 2.0),
    FleetMixEntry("kazakhstan", "http", "windows-8.1-pro", 2.0),
    FleetMixEntry("southkorea", "https", "ios-13.3", 2.0),
    FleetMixEntry("russia", "https", "windows-10-enterprise-17134", 2.0),
    FleetMixEntry(None, "http", "ubuntu-18.04.1", 2.0),
)


def flow_client_ip(country: Optional[str], index: int) -> str:
    """The unique client address for global flow ``index`` of a cohort.

    Injective across the whole run: countries get disjoint /16s and the
    global index picks the host bits, so two flows can never share an
    address (the router/demux key). China's flow 0 lands on ``10.1.0.2``,
    the classic single-trial client address.
    """
    prefix = COUNTRY_PREFIXES[country]
    return f"{prefix}.{index // 250}.{2 + index % 250}"


@dataclass(frozen=True)
class FlowPlan:
    """Everything needed to admit one flow, derived purely from the spec.

    Attributes:
        index: Global flow index in the arrival stream.
        arrival: Virtual admission time.
        country: Censoring country (``None`` for uncensored).
        protocol: Application protocol.
        client_os: Client stack personality.
        client_ip: The flow's unique client address.
        seed: The flow's trial seed (``trial_seed(spec.seed, index)``).
        max_time: Virtual seconds the flow's clock runs after arrival.
    """

    index: int
    arrival: float
    country: Optional[str]
    protocol: str
    client_os: str
    client_ip: str
    seed: int
    max_time: float

    def label(self) -> str:
        return f"{self.country or 'none'}/{self.protocol}"


@dataclass(frozen=True)
class FleetSpec:
    """A complete, picklable description of one fleet serving run.

    Attributes:
        clients: Number of client flows in the arrival stream.
        seed: Base seed; all randomness in the run derives from it.
        mix: Cohorts and their weights (default: every Table 1 pair plus
            an uncensored cohort).
        spacing: Fixed inter-arrival gap in virtual seconds (used when
            ``rate`` is unset). The first flow always arrives at t=0.
        rate: Optional Poisson arrival rate (flows per virtual second);
            overrides ``spacing`` with seeded exponential gaps.
        max_time: Per-flow virtual deadline after arrival — identical to
            a single trial's ``max_time``, and the moment the flow's
            verdict freezes and recycling begins.
        trace: Per-flow trace capture: ``"none"`` (no events, flows
            eligible for packet-arena leases), ``"ring"`` (bounded tail
            of ``ring_events`` events per flow), or ``"full"`` (complete
            trace; its digest lands in the flow record).
        ring_events: Ring capacity when ``trace="ring"``.
        slo_latency: Virtual-seconds SLO used in the stats report (share
            of evading flows that finished within this latency).
    """

    clients: int = 500
    seed: int = 0
    mix: Tuple[FleetMixEntry, ...] = DEFAULT_MIX
    spacing: float = 0.1
    rate: Optional[float] = None
    max_time: float = 40.0
    trace: str = "none"
    ring_events: int = 64
    slo_latency: float = 5.0

    def __post_init__(self) -> None:
        if not 1 <= self.clients <= MAX_CLIENTS:
            raise ValueError(f"clients must be in 1..{MAX_CLIENTS}")
        if not self.mix:
            raise ValueError("mix must have at least one entry")
        if self.trace not in ("none", "ring", "full"):
            raise ValueError("trace must be 'none', 'ring', or 'full'")
        if self.spacing < 0:
            raise ValueError("spacing must be non-negative")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        # Normalize mix to a tuple (callers may pass a list) and validate.
        object.__setattr__(self, "mix", tuple(self.mix))
        for entry in self.mix:
            entry.validate()

    # ------------------------------------------------------------------

    def protocols(self) -> List[str]:
        """Protocols present in the mix (sorted; one server app each)."""
        return sorted({entry.protocol for entry in self.mix})

    def flow_plans(self) -> List[FlowPlan]:
        """Expand the spec into one plan per flow (pure, deterministic).

        Arrival times are cumulative (first flow at t=0); cohort
        assignment is a weighted pick from a per-flow RNG keyed by the
        global index, so a flow's identity never depends on how many
        other flows exist — the property worker sharding relies on.
        """
        arrivals_rng = random.Random(fleet_stream_seed(self.seed, _STREAM_ARRIVALS))
        mix_stream = fleet_stream_seed(self.seed, _STREAM_MIX)
        weights = [entry.weight for entry in self.mix]
        total_weight = sum(weights)

        plans: List[FlowPlan] = []
        arrival = 0.0
        for index in range(self.clients):
            if index > 0:
                if self.rate is not None:
                    arrival += arrivals_rng.expovariate(self.rate)
                else:
                    arrival += self.spacing
            pick = random.Random(trial_seed(mix_stream, index)).random() * total_weight
            chosen = self.mix[-1]
            for entry, weight in zip(self.mix, weights):
                if pick < weight:
                    chosen = entry
                    break
                pick -= weight
            plans.append(
                FlowPlan(
                    index=index,
                    arrival=arrival,
                    country=chosen.country,
                    protocol=chosen.protocol,
                    client_os=chosen.client_os,
                    client_ip=flow_client_ip(chosen.country, index),
                    seed=trial_seed(self.seed, index),
                    max_time=self.max_time,
                )
            )
        return plans

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-able description (embedded in artifacts)."""
        return {
            "clients": self.clients,
            "seed": self.seed,
            "mix": [
                {
                    "country": entry.country or "none",
                    "protocol": entry.protocol,
                    "client_os": entry.client_os,
                    "weight": entry.weight,
                }
                for entry in self.mix
            ],
            "spacing": self.spacing,
            "rate": self.rate,
            "max_time": self.max_time,
            "trace": self.trace,
            "slo_latency": self.slo_latency,
        }
