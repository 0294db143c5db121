"""Censor models: China's GFW, India's Airtel, Iran, Kazakhstan, carriers.

Each censor is a :class:`~repro.netsim.Middlebox` implementing the
behaviour the paper reverse-engineered; :mod:`repro.censors.registry`
lists and builds them, one ``CountryProfile`` per country. See each
module's docstring for the paper sections the behaviour comes from, and
:mod:`repro.censors.gfw.profiles` for the calibration constants.
"""

from .adaptive import (
    ADAPTIVE_COUNTRIES,
    CENSOR_PARAM_SPECS,
    CensorGenome,
    ParamSpec,
    axis_probe_genomes,
    build_censor,
    seeded_censor_population,
)
from .base import Censor, client_oriented_key, flow_key
from .carrier import CarrierNATBox, att_box, tmobile_box, wifi_box
from .dpi import (
    looks_like_http_get,
    match_dns,
    match_ftp,
    match_http,
    match_https,
    match_smtp,
)
from .gfw import CHINA_PROFILES, BoxProfile, GreatFirewall, ProtocolBox
from .india import AirtelCensor, build_block_page
from .iran import BLACKHOLE_DURATION, IranCensor
from .kazakhstan import MITM_DURATION, PAYLOAD_IGNORE_THRESHOLD, KazakhstanCensor
from .keywords import (
    CHINA_KEYWORDS,
    INDIA_KEYWORDS,
    IRAN_KEYWORDS,
    KAZAKHSTAN_KEYWORDS,
    RUSSIA_KEYWORDS,
    SOUTHKOREA_KEYWORDS,
    KeywordSet,
)
from .sni import (
    SNI_REASSEMBLY_BYTES,
    RUSSIA_TRACKING_WINDOW,
    SOUTHKOREA_TRACKING_WINDOW,
    SNICensor,
)
from .registry import CountryProfile, country_profile

__all__ = [
    "ADAPTIVE_COUNTRIES",
    "AirtelCensor",
    "BLACKHOLE_DURATION",
    "BoxProfile",
    "CENSOR_PARAM_SPECS",
    "CHINA_KEYWORDS",
    "CHINA_PROFILES",
    "CarrierNATBox",
    "Censor",
    "CensorGenome",
    "CountryProfile",
    "GreatFirewall",
    "INDIA_KEYWORDS",
    "IRAN_KEYWORDS",
    "IranCensor",
    "KAZAKHSTAN_KEYWORDS",
    "KazakhstanCensor",
    "KeywordSet",
    "MITM_DURATION",
    "PAYLOAD_IGNORE_THRESHOLD",
    "ParamSpec",
    "ProtocolBox",
    "RUSSIA_KEYWORDS",
    "RUSSIA_TRACKING_WINDOW",
    "SNICensor",
    "SNI_REASSEMBLY_BYTES",
    "SOUTHKOREA_KEYWORDS",
    "SOUTHKOREA_TRACKING_WINDOW",
    "att_box",
    "axis_probe_genomes",
    "build_block_page",
    "build_censor",
    "client_oriented_key",
    "country_profile",
    "flow_key",
    "looks_like_http_get",
    "match_dns",
    "match_ftp",
    "match_http",
    "match_https",
    "match_smtp",
    "seeded_censor_population",
    "tmobile_box",
    "wifi_box",
]
