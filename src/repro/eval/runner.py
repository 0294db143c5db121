"""Trial runner: one censored request through one censor with one strategy.

This is the workhorse behind every table and figure. A :class:`Trial`
assembles the full evaluation topology —

    client ── r1 ── r2 ── censor ── r4 … r9 ── server
              (hop 3 by default; server at hop 10)

— installs the server-side (and optionally client-side) Geneva strategy,
drives the protocol's censored request with an unmodified client stack,
and reports the paper's success criterion: the connection is not torn
down and the client receives the correct, unaltered data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..censors import Censor
from ..censors.registry import COUNTRIES, PROTOCOLS, country_profile, workload_for
from ..core import Strategy, install_strategy
from ..netsim import Impairment, Middlebox, Network, NullTrace, Scheduler, Trace
from ..runtime.seeds import net_stream_seed, trial_seed
from ..tcpstack import Host, SERVER_PERSONALITY, personality

__all__ = [
    "Trial",
    "TrialResult",
    "run_trial",
    "success_rate",
    "CLIENT_IP",
    "SERVER_IP",
    "DEFAULT_CENSOR_HOP",
    "DEFAULT_SERVER_HOP",
    "COUNTRY_PROTOCOLS",
]

#: Outcome of a trial whose scheduler stopped at its event limit.
OUTCOME_EVENT_LIMIT = "event_limit"

CLIENT_IP = "10.1.0.2"
SERVER_IP = "192.0.2.10"

#: Addresses used when a trial runs over IPv6 (documentation prefix).
CLIENT_IP_V6 = "2001:db8:1::2"
SERVER_IP_V6 = "2001:db8:ffff::10"

DEFAULT_CENSOR_HOP = 3
DEFAULT_SERVER_HOP = 10

#: Protocols each country censors (a view of :mod:`repro.censors.registry`).
COUNTRY_PROTOCOLS: Dict[str, List[str]] = {p.name: list(p.protocols) for p in COUNTRIES}


def make_censor(
    country: Optional[str],
    rng: random.Random,
    params: Optional[dict] = None,
) -> Optional[Censor]:
    """Instantiate the censor model for ``country`` (None = no censor).

    ``params`` configures an *adaptive* censor variant (see
    :mod:`repro.censors.adaptive`): a JSON-able dict of bounded knobs —
    a :class:`~repro.censors.adaptive.CensorGenome`'s ``params`` — that
    reshapes the calibrated model. ``None`` (or ``{}``) builds the
    paper's calibration, the baseline parameter vector.
    """
    if country is None:
        return None
    return country_profile(country).build(params, rng)


@dataclass
class TrialResult:
    """Outcome of one trial.

    Attributes:
        outcome: Client application outcome (``"success"`` etc.), or
            ``"event_limit"`` when the scheduler's event limit cut the
            run short (never a success).
        succeeded: The paper's evasion criterion was met.
        censored: The censor took at least one censorship action.
        detail: Free-form outcome detail from the client app.
        trace: Full packet trace of the trial.
    """

    outcome: str
    succeeded: bool
    censored: bool
    detail: str = ""
    trace: Optional[Trace] = None


def _new_stream() -> random.Random:
    """An unseeded RNG stream; :meth:`Trial._seed_streams` seeds it."""
    return random.Random.__new__(random.Random)


class Trial:
    """One fully-assembled evaluation run (build, then :meth:`run`).

    A built trial can be reused: :meth:`rearm` puts it into exactly the
    state a fresh build with another seed would have, so a batch of
    trials identical but for their seeds builds one world and re-arms it
    per seed.
    """

    def __init__(
        self,
        country: Optional[str],
        protocol: str,
        server_strategy: Optional[Strategy] = None,
        client_strategy: Optional[Strategy] = None,
        seed: int = 0,
        client_os: str = "ubuntu-18.04.1",
        workload: Optional[dict] = None,
        server_port: Optional[int] = None,
        censor_hop: int = DEFAULT_CENSOR_HOP,
        server_hop: int = DEFAULT_SERVER_HOP,
        client_side_boxes: Sequence[Middlebox] = (),
        dns_tries: int = 3,
        censor: Optional[Censor] = None,
        max_time: float = 40.0,
        client_ip: Optional[str] = None,
        strategy_at_hop: Optional[int] = None,
        ip_version: int = 4,
        impairment=None,
        net_seed: Optional[int] = None,
        capture_trace: bool = True,
        censor_params: Optional[dict] = None,
    ) -> None:
        if ip_version not in (4, 6):
            raise ValueError("ip_version must be 4 or 6")
        server_ip = SERVER_IP_V6 if ip_version == 6 else SERVER_IP
        if client_ip is None:
            client_ip = CLIENT_IP_V6 if ip_version == 6 else CLIENT_IP
        self.server_ip = server_ip
        self.protocol = protocol
        self.max_time = max_time
        self.capture_trace = capture_trace
        self.scheduler = Scheduler()
        # Normalize the impairment policy up front; null policies drop to
        # None so the unimpaired path stays literally the pre-impairment
        # code path (zero extra RNG draws, bit-identical traces).
        policy = Impairment.from_value(impairment)
        if policy is not None and policy.is_null():
            policy = None
        self.impairment = policy
        self._net_rng = _new_stream() if policy is not None else None
        self._base_rng = _new_stream()
        self._streams = (_new_stream(), _new_stream(), _new_stream(), _new_stream())
        censor_rng, client_rng, server_rng, strategy_rng = self._streams
        self._seed_streams(seed, net_seed)

        self.client_host = Host(
            "client", client_ip, self.scheduler, client_rng, personality(client_os)
        )
        self.server_host = Host(
            "server", server_ip, self.scheduler, server_rng, SERVER_PERSONALITY
        )

        if censor is not None and censor_params is not None:
            raise ValueError("pass either censor= or censor_params=, not both")
        self.censor = (
            censor
            if censor is not None
            else make_censor(country, censor_rng, censor_params)
        )
        middleboxes: List[Middlebox] = list(client_side_boxes)
        pad_before = censor_hop - 1 - len(middleboxes)
        middleboxes.extend(Middlebox() for _ in range(max(0, pad_before)))
        if self.censor is not None:
            middleboxes.append(self.censor)
        while len(middleboxes) < server_hop - 1:
            middleboxes.append(Middlebox())

        self.server_engine = None
        if (
            strategy_at_hop is not None
            and server_strategy is not None
            and not server_strategy.is_noop()
        ):
            # §8 mid-path deployment: run the strategy at a middlebox on
            # the path between the censor and the server.
            from ..deploy import StrategyMiddlebox

            if not (censor_hop < strategy_at_hop < server_hop):
                raise ValueError(
                    "strategy_at_hop must lie between the censor and the server"
                )
            proxy = StrategyMiddlebox(server_strategy, strategy_rng)
            middleboxes[strategy_at_hop - 1] = proxy
            self.server_engine = proxy
            server_strategy = None

        # Rate-only consumers (success_rate, matrices, GA fitness) pass
        # capture_trace=False: trace recording — and its per-event packet
        # copy — collapses to a no-op, and the trial becomes eligible for
        # packet pooling (nothing retains packets past the trial).
        self.network = Network(
            self.scheduler,
            self.client_host,
            self.server_host,
            middleboxes,
            impairment=self.impairment,
            net_rng=self._net_rng,
            trace=self._new_trace(),
        )
        self.client_host.attach(self.network)
        self.server_host.attach(self.network)

        # Engines installed on the hosts (a mid-path proxy resets with
        # the chain instead).
        host_engines = []
        if server_strategy is not None and not server_strategy.is_noop():
            self.server_engine = install_strategy(
                self.server_host, server_strategy, strategy_rng
            )
            host_engines.append(self.server_engine)
        self.client_engine = None
        if client_strategy is not None and not client_strategy.is_noop():
            self.client_engine = install_strategy(
                self.client_host, client_strategy, strategy_rng
            )
            host_engines.append(self.client_engine)
        self._host_engines = tuple(host_engines)

        self._apps = PROTOCOLS[protocol]
        self._port = server_port if server_port is not None else self._apps.port
        params = workload if workload is not None else workload_for(country, protocol)
        if protocol == "dns":
            params.setdefault("tries", dns_tries)
        self._client_params = params
        self._install_apps()

    def rearm(self, seed: int, net_seed: Optional[int] = None) -> None:
        """Re-arm this built trial for ``seed``.

        Afterwards the trial is in exactly the state
        ``Trial(..., seed=seed, net_seed=net_seed)`` with the same other
        arguments would have built, in the same draw order: the streams
        are reseeded, then the scheduler, both hosts and every box in
        the chain are reset, a fresh trace is installed, the engines are
        reset and both apps are rebuilt.
        """
        self._seed_streams(seed, net_seed)
        self.scheduler.reset()
        self.client_host.reset()
        self.server_host.reset()
        for box in self.network.middleboxes:
            box.reset()
        self.network.trace = self._new_trace()
        for engine in self._host_engines:
            engine.reset()
        self._install_apps()

    def _seed_streams(self, seed: int, net_seed: Optional[int]) -> None:
        """Seed every RNG stream from the trial seed, in a fixed order.

        The streams are long-lived objects (hosts, censor, engines and
        network hold them), so they are reseeded in place. The impairment
        stream is split from the trial seed with a domain salt (or pinned
        by an explicit ``net_seed``) rather than drawn from ``base``:
        consuming ``base`` for it would shift the censor, client, server
        and strategy streams and change every existing trace.
        """
        if self._net_rng is not None:
            self._net_rng.seed(net_seed if net_seed is not None else net_stream_seed(seed))
        base = self._base_rng
        base.seed(seed)
        for stream in self._streams:
            stream.seed(base.randrange(1 << 30))

    def _new_trace(self) -> Trace:
        return Trace() if self.capture_trace else NullTrace()

    def _install_apps(self) -> None:
        """Build the server app (listening) and the client app (not started)."""
        self.server_app = self._apps.server(self.server_host, self._port)
        self.server_app.install()
        self.client_app = self._apps.client(
            self.client_host, self.server_ip, self._port, **self._client_params
        )

    def run(self) -> TrialResult:
        """Execute the trial to quiescence and report the outcome."""
        self.client_app.start()
        executed = self.network.run(until=self.max_time)
        if self.scheduler.exhausted:
            # A half-run trial must not be scored as if it had finished.
            outcome = OUTCOME_EVENT_LIMIT
            succeeded = False
            detail = f"event limit reached after {executed} events"
        else:
            outcome = self.client_app.outcome or "timeout"
            succeeded = self.client_app.succeeded
            detail = getattr(self.client_app, "detail", "")
        return TrialResult(
            outcome=outcome,
            succeeded=succeeded,
            censored=self.censor.censorship_events > 0 if self.censor else False,
            detail=detail,
            trace=self.network.trace,
        )


def run_trial(
    country: Optional[str],
    protocol: str,
    server_strategy: Optional[Strategy] = None,
    seed: int = 0,
    **kwargs,
) -> TrialResult:
    """Build and run a single trial (see :class:`Trial` for options)."""
    return Trial(country, protocol, server_strategy, seed=seed, **kwargs).run()


def success_rate(
    country: Optional[str],
    protocol: str,
    server_strategy: Optional[Strategy],
    trials: int = 100,
    seed: int = 0,
    workers: int = 1,
    cache=None,
    executor=None,
    impairment=None,
    net_seed: Optional[int] = None,
    **kwargs,
) -> float:
    """Fraction of ``trials`` independent runs that evade censorship.

    Per-trial seeds are derived from ``(seed, index)`` via
    :func:`repro.runtime.trial_seed`; results are therefore identical
    whatever the execution mode. ``workers`` fans trials out over a
    process pool, ``cache`` enables the content-addressed result store
    (``True`` → ``.repro_cache/``, or a path / ``ResultCache``), and
    ``executor`` supplies a prebuilt :class:`~repro.runtime.TrialExecutor`
    (overriding both) so callers can share one across batches and read
    its :class:`~repro.runtime.RunStats`. ``impairment`` applies one
    network-impairment policy to every trial; ``net_seed`` pins the
    impairment stream explicitly (fanned out per trial via
    :func:`trial_seed`, so trials stay independent) instead of the
    default split from each trial's own seed. Arguments that cannot be
    expressed as picklable specs (live censor instances, middlebox
    objects, ...) fall back to an in-process loop over the same seeds.
    An unknown ``country`` raises ``ValueError`` before any trial runs.
    """
    from ..runtime import SpecError, TrialExecutor, TrialSpec

    if country is not None:
        country_profile(country)
    imp = Impairment.from_value(impairment)
    if imp is not None and imp.is_null():
        imp = None
    seeds = [trial_seed(seed, index) for index in range(trials)]
    net_seeds: List[Optional[int]] = [
        trial_seed(net_seed, index) if net_seed is not None else None
        for index in range(trials)
    ]
    try:
        specs = []
        for s, ns in zip(seeds, net_seeds):
            extra = dict(kwargs)
            if ns is not None:
                extra["net_seed"] = ns
            specs.append(
                TrialSpec.build(
                    country,
                    protocol,
                    server_strategy,
                    seed=s,
                    impairment=imp,
                    **extra,
                )
            )
    except SpecError:
        successes = sum(
            run_trial(
                country,
                protocol,
                server_strategy,
                seed=s,
                impairment=imp,
                net_seed=ns,
                **kwargs,
            ).succeeded
            for s, ns in zip(seeds, net_seeds)
        )
        return successes / trials
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    results = executor.run_batch(specs)
    return sum(result.succeeded for result in results) / trials
