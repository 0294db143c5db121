"""Parameter sweeps: where the strategies' operating envelopes end.

The paper reports point measurements; these sweeps map the surrounding
parameter space and locate the crossovers:

- **Window-size sweep** (Strategy 8): induced segmentation only defeats
  non-reassembling DPI while the advertised window is smaller than the
  span needed to isolate the censored keyword — sweeping the window finds
  the crossover where censorship resumes.
- **Resync-probability sensitivity** (Strategies 1/7): strategy success
  tracks the GFW's resync-entry probability almost linearly — the
  mechanism behind the ~50% rates in Table 2.
- **MITM-duration sweep** (Kazakhstan): how long after censorship a
  retry keeps failing.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence

from ..censors import CHINA_PROFILES, GreatFirewall
from ..censors.registry import COUNTRIES, select_countries
from ..censors.gfw.profiles import EVENT_RST
from ..core import Strategy, deployed_strategy
from ..netsim import Impairment
from ..runtime import trial_seed
from .runner import Trial, run_trial, success_rate

__all__ = [
    "window_size_sweep",
    "window_reduction_strategy",
    "resync_probability_sweep",
    "mitm_retry_sweep",
    "censor_hop_sweep",
    "impairment_robustness_sweep",
    "format_robustness",
    "format_sweep",
    "ROBUSTNESS_CASES",
    "DEFAULT_LOSS_GRID",
]

_WINDOW_CLAMP_TAIL = (
    " [TCP:flags:A]-tamper{{TCP:window:replace:{w}}}-|"
    " [TCP:flags:PA]-tamper{{TCP:window:replace:{w}}}-|"
    " [TCP:flags:FA]-tamper{{TCP:window:replace:{w}}}-| \\/"
)


def window_reduction_strategy(window: int) -> Strategy:
    """Strategy 8 parameterised by the advertised window size."""
    dsl = (
        f"[TCP:flags:SA]-tamper{{TCP:window:replace:{window}}}"
        "(tamper{TCP:options-wscale:replace:},)-|"
        + _WINDOW_CLAMP_TAIL.format(w=window)
    )
    return Strategy.parse(dsl, name=f"window-{window}")


def window_size_sweep(
    windows: Sequence[int] = (2, 5, 10, 20, 40, 60, 100, 200),
    country: str = "india",
    protocol: str = "http",
    trials: int = 10,
    seed: int = 0,
    workers: int = 1,
    cache=None,
) -> Dict[int, float]:
    """Success rate of window reduction as the window grows.

    Against deterministic censors (India/Kazakhstan) the crossover is
    sharp: once a single segment can carry the whole censored request,
    the per-packet DPI sees it and the strategy dies.
    """
    rates: Dict[int, float] = {}
    for window in windows:
        strategy = window_reduction_strategy(window)
        rates[window] = success_rate(
            country, protocol, strategy, trials=trials, seed=seed,
            workers=workers, cache=cache,
        )
    return rates


def resync_probability_sweep(
    probabilities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    strategy_number: int = 1,
    protocol: str = "http",
    trials: int = 80,
    seed: int = 0,
) -> Dict[float, float]:
    """Strategy success as a function of the RST resync-entry probability."""
    rates: Dict[float, float] = {}
    strategy = deployed_strategy(strategy_number)
    for probability in probabilities:
        profiles = {}
        for name, profile in CHINA_PROFILES.items():
            events = dict(profile.event_probs)
            events[EVENT_RST] = probability
            profiles[name] = dataclasses.replace(profile, event_probs=events)
        wins = 0
        for index in range(trials):
            # Custom censor instances are live objects, so this sweep
            # stays in-process — but it shares the batch seed derivation.
            per_trial = trial_seed(seed, index)
            censor = GreatFirewall(
                rng=random.Random(per_trial ^ 0x5E5), profiles=profiles
            )
            wins += run_trial(
                "china", protocol, strategy, seed=per_trial, censor=censor
            ).succeeded
        rates[probability] = wins / trials
    return rates


def mitm_retry_sweep(
    delays: Sequence[float] = (1.0, 5.0, 10.0, 14.0, 20.0, 30.0),
) -> Dict[float, bool]:
    """Whether Kazakhstan's MITM still intercepts a (benign) packet on the
    censored flow ``delay`` seconds after the censorship event.

    Returns ``delay -> forwarded?``: the paper's ~15 s interception window
    means packets are swallowed for delays under 15 s and pass afterwards.
    Measured at the censor boundary (a trial-level retry would re-trigger
    censorship through request retransmission).
    """
    from ..censors import KazakhstanCensor
    from ..packets import make_tcp_packet

    class _Ctx:
        def __init__(self):
            self.now = 0.0

        def inject(self, packet, toward):
            pass

        def record(self, *args, **kwargs):
            pass

    results: Dict[float, bool] = {}
    for delay in delays:
        censor = KazakhstanCensor()
        ctx = _Ctx()
        forbidden = make_tcp_packet(
            "10.1.0.2", "192.0.2.10", 41000, 80, flags="PA", seq=1001, ack=5001,
            load=b"GET / HTTP/1.1\r\nHost: blocked.example.kz\r\n\r\n",
        )
        censor.process(
            make_tcp_packet("10.1.0.2", "192.0.2.10", 41000, 80, flags="S", seq=1000),
            "c2s",
            ctx,
        )
        assert censor.process(forbidden, "c2s", ctx) == []  # intercepted
        ctx.now = delay
        benign = make_tcp_packet(
            "10.1.0.2", "192.0.2.10", 41000, 80, flags="PA", seq=1043, ack=5001,
            load=b"GET /ok HTTP/1.1\r\nHost: benign.example.com\r\n\r\n",
        )
        results[delay] = censor.process(benign, "c2s", ctx) == [benign]
    return results


def censor_hop_sweep(
    hops: Sequence[int] = (1, 2, 4, 6, 8),
    strategy_number: int = 1,
    protocol: str = "http",
    trials: int = 60,
    seed: int = 0,
    server_hop: int = 10,
    workers: int = 1,
    cache=None,
) -> Dict[int, float]:
    """Strategy success as the censor moves along the path.

    Server-side strategies act on wire packets, so placement of the
    censor between client and server must not matter — a placement
    counterpart to the vantage-point invariance of §4.2.
    """
    rates: Dict[int, float] = {}
    strategy = deployed_strategy(strategy_number)
    for hop in hops:
        rates[hop] = success_rate(
            "china",
            protocol,
            strategy,
            trials=trials,
            seed=seed,
            workers=workers,
            cache=cache,
            censor_hop=hop,
            server_hop=server_hop,
        )
    return rates


#: Representative working strategy per country (mirrors the golden-trace
#: cases): (protocol, recommended strategy number).
ROBUSTNESS_CASES: Dict[str, tuple] = {
    profile.name: (profile.robustness, profile.censored[profile.robustness].strategy)
    for profile in COUNTRIES
}

#: Per-link loss probabilities swept by default. The simulated path has
#: ~10 links, so end-to-end loss compounds quickly — the grid stays low.
DEFAULT_LOSS_GRID = (0.0, 0.01, 0.02, 0.05)


def impairment_robustness_sweep(
    loss_rates: Sequence[float] = DEFAULT_LOSS_GRID,
    countries: Optional[Sequence[str]] = None,
    trials: int = 20,
    seed: int = 0,
    net_seed: Optional[int] = None,
    workers: int = 1,
    cache=None,
    executor=None,
) -> Dict[str, Dict[float, float]]:
    """Success-vs-loss curves: strategy robustness under packet loss.

    For each country, its representative working strategy (see
    :data:`ROBUSTNESS_CASES`) is measured at every per-link loss rate in
    ``loss_rates``; clients recover dropped segments through TCP
    retransmission, so the curves show how much real-path degradation
    each evasion strategy tolerates before its success rate collapses.

    ``net_seed`` pins the impairment randomness (fanned out per trial);
    leaving it ``None`` splits the impairment stream from each trial's
    own seed. Either way two identical invocations produce identical
    curves. Returns ``{country: {loss_rate: success_rate}}``;
    ``countries`` defaults to every country, and an unknown one raises
    ``ValueError``.
    """
    if countries is None:
        countries = sorted(ROBUSTNESS_CASES)
    countries = select_countries(countries)
    curves: Dict[str, Dict[float, float]] = {}
    for country in countries:
        protocol, number = ROBUSTNESS_CASES[country]
        strategy = deployed_strategy(number)
        curve: Dict[float, float] = {}
        for loss in loss_rates:
            impairment = Impairment(loss=loss) if loss else None
            curve[loss] = success_rate(
                country,
                protocol,
                strategy,
                trials=trials,
                seed=seed,
                workers=workers,
                cache=cache,
                executor=executor,
                impairment=impairment,
                net_seed=net_seed if impairment is not None else None,
            )
        curves[country] = curve
    return curves


def format_robustness(curves: Dict[str, Dict[float, float]]) -> str:
    """Render success-vs-loss curves as a small per-country table."""
    lines = ["Strategy robustness under per-link packet loss"]
    for country in sorted(curves):
        protocol, number = ROBUSTNESS_CASES.get(country, ("?", "?"))
        lines.append(f"{country} (strategy {number}, {protocol}):")
        for loss in sorted(curves[country]):
            rate = curves[country][loss]
            lines.append(f"  loss {loss * 100:5.1f}% -> {rate * 100:5.0f}%")
    return "\n".join(lines)


def format_sweep(title: str, rates: Dict, unit: str = "") -> str:
    """Render a one-parameter sweep as a small table."""
    lines = [title]
    for key in sorted(rates):
        value = rates[key]
        rendered = f"{value * 100:5.0f}%" if isinstance(value, float) else str(value)
        lines.append(f"  {key}{unit:<4} -> {rendered}")
    return "\n".join(lines)
