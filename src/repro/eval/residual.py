"""Residual censorship experiments (§4.2).

The paper observes that China's GFW applies *residual censorship* to HTTP
only: for ~90 seconds after a forbidden request, every new connection to
the same server IP and port is torn down immediately after the three-way
handshake. SMTP, DNS-over-TCP and FTP show no residual censorship — a
follow-up request succeeds immediately. (HTTPS residual censorship was
inactive during the paper's measurements and is likewise off here.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..censors.registry import PROTOCOLS, benign_workload
from .runner import SERVER_IP, Trial

__all__ = ["ResidualProbe", "residual_probe"]

@dataclass
class ResidualProbe:
    """Result of a two-request residual-censorship probe.

    Attributes:
        protocol: Protocol probed.
        delay: Seconds between the censorship event and the follow-up.
        first_outcome: Outcome of the forbidden request (should fail).
        second_outcome: Outcome of the *benign* follow-up request.
        second_succeeded: Whether the follow-up evaded residual teardown.
    """

    protocol: str
    delay: float
    first_outcome: str
    second_outcome: str
    second_succeeded: bool


def residual_probe(
    protocol: str = "http",
    delay: float = 30.0,
    seed: int = 0,
) -> ResidualProbe:
    """Issue a forbidden request, then a benign one ``delay`` seconds later."""
    trial = Trial("china", protocol, None, seed=seed)
    trial.client_app.start()
    trial.network.run(until=12.0)
    first_outcome = trial.client_app.outcome or "timeout"

    censor_events = trial.network.trace.filter(kind="censor")
    censor_time = censor_events[0].time if censor_events else trial.scheduler.now
    start_at = censor_time + delay
    trial.network.run(until=max(start_at, trial.scheduler.now))

    apps = PROTOCOLS[protocol]
    second = apps.client(trial.client_host, SERVER_IP, apps.port, **benign_workload(protocol))
    second.start()
    trial.network.run(until=trial.scheduler.now + 25.0)

    return ResidualProbe(
        protocol=protocol,
        delay=delay,
        first_outcome=first_outcome,
        second_outcome=second.outcome or "timeout",
        second_succeeded=second.succeeded,
    )
