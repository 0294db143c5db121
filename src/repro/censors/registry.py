"""The country registry: one :class:`CountryProfile` per modelled censor.

The paper is organised by country (Table 1: protocols and vantage points;
Table 2: strategy rates), and so is this module. A profile holds all the
code knows about one censor; every other country-keyed table
(``COUNTRY_PROTOCOLS``, ``TABLE1_MATRIX``, ``RECOMMENDED_STRATEGIES``,
``ROBUSTNESS_CASES``, ``COUNTRY_PREFIXES``, ...) is a view of
:data:`COUNTRIES`, and every entry point looks countries up through
:func:`country_profile` or :func:`select_countries`, so an unknown name
fails the same way everywhere. :meth:`CountryProfile.build` is the one
censor factory: the calibrated censor is the baseline parameter vector.
:data:`PROTOCOLS` is the matching per-protocol table.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple, Union

from ..apps import DNSClient, DNSServer, FTPClient, FTPServer, HTTPClient, HTTPServer
from ..apps import HTTPSClient, HTTPSServer, SMTPClient, SMTPServer
from .base import Censor
from .gfw import CHINA_PROFILES, BoxProfile, GreatFirewall
from .india import AirtelCensor
from .iran import BLACKHOLE_DURATION, IranCensor
from .kazakhstan import MITM_DURATION, PAYLOAD_IGNORE_THRESHOLD, KazakhstanCensor
from .keywords import RUSSIA_KEYWORDS, SOUTHKOREA_KEYWORDS
from .sni import RUSSIA_TRACKING_WINDOW, SNI_REASSEMBLY_BYTES, SOUTHKOREA_TRACKING_WINDOW
from .sni import SNICensor

__all__ = [
    "COUNTRIES",
    "COUNTRY_NAMES",
    "PROTOCOLS",
    "Censored",
    "CountryProfile",
    "ParamSpec",
    "Protocol",
    "benign_workload",
    "censored_workload",
    "country_profile",
    "default_port",
    "select_countries",
    "workload_for",
]

#: Decimal places floats are rounded to when a parameter is clamped, so a
#: genome's canonical JSON form is short and stable across platforms.
_FLOAT_DECIMALS = 6

ParamValue = Union[float, int, bool]


@dataclasses.dataclass(frozen=True)
class ParamSpec:
    """One evolvable censor parameter: its type, bounds, and default.

    Attributes:
        name: Parameter key as it appears in ``CensorGenome.params``.
        kind: ``"float"``, ``"int"``, or ``"bool"``.
        lo: Inclusive lower bound (numeric kinds).
        hi: Inclusive upper bound (numeric kinds).
        default: The calibrated paper value — the baseline genome.
    """

    name: str
    kind: str
    lo: float
    hi: float
    default: ParamValue

    def clamp(self, value: ParamValue) -> ParamValue:
        """Coerce ``value`` to this parameter's type and bounds."""
        if self.kind == "bool":
            return bool(value)
        if self.kind == "int":
            return int(min(self.hi, max(self.lo, int(value))))
        return round(float(min(self.hi, max(self.lo, float(value)))), _FLOAT_DECIMALS)

    def perturb(self, value, rng: random.Random):
        """One mutation step away from ``value``, clamped to bounds."""
        if self.kind == "bool":
            return not bool(value)
        if self.kind == "int":
            step = rng.choice((-2, -1, 1, 2))
            return self.clamp(int(value) + step)
        sigma = (self.hi - self.lo) / 6.0
        return self.clamp(float(value) + rng.gauss(0.0, sigma))


class Protocol(NamedTuple):
    """One application protocol: client and server apps, default server
    port, and client parameters no censor objects to."""

    client: type
    server: type
    port: int
    benign: Mapping[str, object]


#: Every protocol the trial runner speaks, in table order.
PROTOCOLS: Dict[str, Protocol] = {
    "dns": Protocol(DNSClient, DNSServer, 53, {"qname": "benign.example.com"}),
    "ftp": Protocol(FTPClient, FTPServer, 21, {"filename": "notes.txt"}),
    "http": Protocol(
        HTTPClient, HTTPServer, 80, {"path": "/?q=kittens", "host_header": "benign.example.com"}
    ),
    "https": Protocol(HTTPSClient, HTTPSServer, 443, {"server_name": "benign.example.com"}),
    "smtp": Protocol(SMTPClient, SMTPServer, 25, {"recipient": "friend@example.org"}),
}


class Censored(NamedTuple):
    """One censored protocol: the client parameters that trigger
    censorship (§4.2) and the best server-side strategy number against
    it (the Table 2 winner, or the SNI-matrix winner for SNI censors)."""

    workload: Mapping[str, object]
    strategy: int


@dataclasses.dataclass(frozen=True)
class CountryProfile:
    """Everything the code base knows about one censoring country.

    Attributes:
        name: Country key used on the command line and in specs.
        censored: Censored protocols in table order.
        vantage_points: Table 1's client locations.
        fleet_prefix: The /16 the fleet's clients from this country use.
        robustness: Protocol of the robustness-sweep case (its strategy
            is the recommended one).
        coevolve_protocol: Default protocol of a co-evolution run.
        param_specs: Evolvable parameters, in sorted-name order.
        factory: ``factory(params, rng)`` builds the live censor from a
            complete, normalised parameter map and the censor's RNG
            stream (which only the probabilistic GFW draws from).
        table2: The paper's Table 2 has a block for this country.
        sni: An SNI-era censor, measured by the SNI matrix.
    """

    name: str
    censored: Mapping[str, Censored]
    vantage_points: Tuple[str, ...]
    fleet_prefix: str
    robustness: str
    coevolve_protocol: str
    param_specs: Tuple[ParamSpec, ...]
    factory: Callable[[Dict[str, ParamValue], Optional[random.Random]], Censor]
    table2: bool = False
    sni: bool = False

    @property
    def protocols(self) -> Tuple[str, ...]:
        """Censored protocols, in table order."""
        return tuple(self.censored)

    @functools.cached_property
    def spec_map(self) -> Dict[str, ParamSpec]:
        """Parameter specs by name."""
        return {spec.name: spec for spec in self.param_specs}

    @functools.cached_property
    def defaults(self) -> Dict[str, ParamValue]:
        """The baseline parameter map: the paper's calibration (read-only)."""
        return self.normalise({})

    def normalise(self, params: Mapping[str, ParamValue]) -> Dict[str, ParamValue]:
        """A complete parameter map: defaults filled in, values clamped.

        Raises ``ValueError`` on a parameter this censor does not have.
        """
        specs = self.spec_map
        unknown = set(params) - set(specs)
        if unknown:
            raise ValueError(
                f"unknown {self.name} censor parameters: {', '.join(sorted(unknown))}"
            )
        return {
            name: specs[name].clamp(params.get(name, specs[name].default))
            for name in sorted(specs)
        }

    def build(
        self,
        params: Optional[Mapping[str, ParamValue]] = None,
        rng: Optional[random.Random] = None,
    ) -> Censor:
        """The live censor for ``params`` (empty or ``None``: the baseline).

        ``params`` may be partial; it is normalised first, so missing
        keys take their calibrated defaults, out-of-bounds values clamp
        and unknown keys raise. ``rng`` feeds the probabilistic censors
        (China's GFW draws from ``random.Random(0)`` without one).
        """
        return self.factory(self.normalise(params) if params else self.defaults, rng)


@functools.lru_cache(maxsize=256)
def _china_profiles(
    reassembly_skill: float, residual_duration: float, resync_scale: float, vigilance: float
) -> Dict[str, BoxProfile]:
    """Scale the calibrated GFW profiles by the genome's knobs.

    At default parameter values every arithmetic identity below is exact
    (``p * 1.0 == p``, ``p * (1 - 0.0) == p``), so the baseline genome's
    profiles — and therefore the GFW's RNG draw sequence — are
    bit-identical to :data:`~repro.censors.gfw.CHINA_PROFILES`. Profiles
    are read-only, so one derivation (and its cached resync tables) is
    shared by every censor built from the same parameter vector.
    """
    return {
        name: dataclasses.replace(
            profile,
            miss_prob=profile.miss_prob * (1.0 - vigilance),
            event_probs={
                event: min(1.0, prob * resync_scale)
                for event, prob in profile.event_probs.items()
            },
            combo_probs={
                combo: min(1.0, prob * resync_scale)
                for combo, prob in profile.combo_probs.items()
            },
            reassembly_fail_prob=profile.reassembly_fail_prob * (1.0 - reassembly_skill),
            residual_duration=(
                residual_duration if profile.residual_duration else profile.residual_duration
            ),
        )
        for name, profile in CHINA_PROFILES.items()
    }


def _china(v: Dict[str, ParamValue], rng: Optional[random.Random]) -> Censor:
    profiles = _china_profiles(
        v["reassembly_skill"], v["residual_duration"], v["resync_scale"], v["vigilance"]
    )
    return GreatFirewall(rng=rng, profiles=profiles)


#: Knobs several censors share (specs are immutable). The inspection
#: depth's default fits every workload in the evaluation suite, so it is
#: behaviourally identical to unbounded inspection.
_INSPECT_DEPTH = ParamSpec("inspect_depth", "int", 64, 2048, 2048)
_REASSEMBLY_BYTES = ParamSpec("reassembly_bytes", "int", 512, 65536, SNI_REASSEMBLY_BYTES)

#: Every modelled censor, in table order: the paper's four (Table 1),
#: then the SNI-era boxes modelled after it.
COUNTRIES: Tuple[CountryProfile, ...] = (
    CountryProfile(
        "china",
        censored={
            "dns": Censored({"qname": "www.wikipedia.org"}, 1),  # 89%
            "ftp": Censored({"filename": "ultrasurf.txt"}, 5),  # 97%
            "http": Censored({"path": "/?q=ultrasurf", "host_header": "example.com"}, 1),  # 54%
            "https": Censored({"server_name": "www.wikipedia.org"}, 2),  # 55%
            "smtp": Censored({"recipient": "xiazai@upup.info"}, 8),  # 100%
        },
        vantage_points=("Beijing", "Shanghai", "Shenzen", "Zhengzhou"),
        fleet_prefix="10.1",  # fleet flow 0 is the classic trial client 10.1.0.2
        robustness="http",
        coevolve_protocol="http",
        param_specs=(
            ParamSpec("reassembly_skill", "float", 0.0, 1.0, 0.0),
            ParamSpec("residual_duration", "float", 0.0, 240.0, 90.0),
            ParamSpec("resync_scale", "float", 0.0, 1.5, 1.0),
            ParamSpec("vigilance", "float", 0.0, 1.0, 0.0),
        ),
        factory=_china,
        table2=True,
    ),
    CountryProfile(
        "india",
        censored={"http": Censored({"path": "/", "host_header": "blocked.example.in"}, 8)},
        vantage_points=("Bangalore",),
        fleet_prefix="10.3",
        robustness="http",
        coevolve_protocol="http",
        param_specs=(_INSPECT_DEPTH, ParamSpec("rst_count", "int", 1, 5, 1)),
        factory=lambda v, rng: AirtelCensor(**v),
        table2=True,
    ),
    CountryProfile(
        "iran",
        censored={
            "http": Censored({"path": "/", "host_header": "youtube.com"}, 8),
            "https": Censored({"server_name": "youtube.com"}, 8),
        },
        vantage_points=("Tehran", "Zanjan"),
        fleet_prefix="10.4",
        robustness="https",
        coevolve_protocol="http",
        param_specs=(
            ParamSpec("blackhole_duration", "float", 5.0, 240.0, BLACKHOLE_DURATION),
            _INSPECT_DEPTH,
        ),
        factory=lambda v, rng: IranCensor(**v),
        table2=True,
    ),
    CountryProfile(
        "kazakhstan",
        # Strategy 11: 100% with no payload quirks.
        censored={"http": Censored({"path": "/", "host_header": "blocked.example.kz"}, 11)},
        vantage_points=("Qaraghandy", "Almaty"),
        fleet_prefix="10.2",
        robustness="http",
        coevolve_protocol="http",
        param_specs=(
            _INSPECT_DEPTH,
            ParamSpec("mitm_duration", "float", 5.0, 60.0, MITM_DURATION),
            ParamSpec("payload_ignore_threshold", "int", 2, 8, PAYLOAD_IGNORE_THRESHOLD),
        ),
        factory=lambda v, rng: KazakhstanCensor(**v),
        table2=True,
    ),
    CountryProfile(
        "southkorea",
        # The SNIC: lenient, confirm-then-RST, trusts wire RSTs. A record
        # split (strategy 12) beats the confirm step.
        censored={"https": Censored({"server_name": "blocked.example.kr"}, 12)},
        vantage_points=("Seoul",),
        fleet_prefix="10.5",
        robustness="https",
        coevolve_protocol="https",
        param_specs=(
            ParamSpec("confirm_server_hello", "bool", 0, 1, True),
            ParamSpec("honor_rst_teardown", "bool", 0, 1, True),
            _REASSEMBLY_BYTES,
            ParamSpec("rst_count", "int", 1, 6, 3),
            ParamSpec("tracking_window", "float", 0.25, 10.0, SOUTHKOREA_TRACKING_WINDOW),
        ),
        factory=lambda v, rng: SNICensor(
            SOUTHKOREA_KEYWORDS, rst_direction="client", strict=False, name="southkorea", **v
        ),
        sni=True,
    ),
    CountryProfile(
        "russia",
        # The TSPU-style box: strict, in-path, blackholing, RST-deaf. Only
        # deep migration (strategy 15) outlasts it.
        censored={"https": Censored({"server_name": "blocked.example.ru"}, 15)},
        vantage_points=("Moscow",),
        fleet_prefix="10.6",
        robustness="https",
        coevolve_protocol="https",
        param_specs=(
            ParamSpec("blackhole_duration", "float", 5.0, 240.0, 60.0),
            ParamSpec("honor_rst_teardown", "bool", 0, 1, False),
            _REASSEMBLY_BYTES,
            ParamSpec("tracking_window", "float", 0.25, 10.0, RUSSIA_TRACKING_WINDOW),
        ),
        factory=lambda v, rng: SNICensor(
            RUSSIA_KEYWORDS, rst_count=1, rst_direction="both", strict=True,
            confirm_server_hello=False, name="russia", **v,
        ),
        sni=True,
    ),
)

#: Country names, in table order.
COUNTRY_NAMES: Tuple[str, ...] = tuple(profile.name for profile in COUNTRIES)

_BY_NAME: Dict[str, CountryProfile] = {profile.name: profile for profile in COUNTRIES}


def country_profile(name: str) -> CountryProfile:
    """The profile of ``name``; ``ValueError`` naming the valid countries."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown country {name!r} (valid: {', '.join(COUNTRY_NAMES)})"
        ) from None


def select_countries(
    names: Optional[Iterable[str]] = None, block: str = ""
) -> Tuple[str, ...]:
    """Validated country names for an entry point, in the caller's order.

    ``block`` (``"table2"`` or ``"sni"``) limits the choice to the
    countries that evaluation block measures; ``names=None`` selects all
    of them, in table order. Any other name raises ``ValueError`` naming
    the valid countries.
    """
    valid = tuple(p.name for p in COUNTRIES if not block or getattr(p, block))
    if names is None:
        return valid
    names = tuple(names)
    for name in names:
        if name in valid:
            continue
        if name in _BY_NAME:
            raise ValueError(f"country {name!r} has no {block} block (valid: {', '.join(valid)})")
        raise ValueError(f"unknown country {name!r} (valid: {', '.join(valid)})")
    return names


def censored_workload(country: str, protocol: str) -> dict:
    """Client parameters that trigger censorship for (country, protocol)."""
    return dict(country_profile(country).censored[protocol].workload)


def benign_workload(protocol: str) -> dict:
    """Client parameters that no censor objects to."""
    return dict(PROTOCOLS[protocol].benign)


def default_port(protocol: str) -> int:
    """The protocol's default server port."""
    return PROTOCOLS[protocol].port


def workload_for(country: Optional[str], protocol: str) -> dict:
    """A trial's client parameters: the country's censored request for
    ``protocol`` if it censors it, else the protocol's benign request."""
    profile = _BY_NAME.get(country)
    case = profile.censored.get(protocol) if profile is not None else None
    return dict(case.workload if case is not None else PROTOCOLS[protocol].benign)
