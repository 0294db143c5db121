"""Digest golden for the per-segment path: endpoint, host, wire walk.

Every simulated segment is emitted by one TCP endpoint, passes its
host's filters, walks the middlebox chain through the scheduler and is
demultiplexed to the peer endpoint. One SHA-256 per group of trials
covers each trial's outcome fields, its full ``Trace.digest()``
(timestamps, event kinds and exact wire bytes) and the outcome of the
same trial run rate-only through the packet arena. The groups span
every Table 2 cell plus strategy 0, the SNI-era strategies 12-15, IPv6,
Windows and macOS clients (SYN+ACK payload handling), a client-side
strategy, a mid-path strategy box, an impaired path and a 50-client
fleet world, so any change to event order, timing or bytes trips a
digest.

Regenerate deliberately with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/tcpstack/test_segment_digest_golden.py

and review the diff like any other code change.
"""

import hashlib
import json
import os
import pathlib

from repro.core import client_side_strategy, deployed_strategy
from repro.eval.reference import TABLE2_OTHER
from repro.eval.runner import COUNTRY_PROTOCOLS
from repro.eval.table2 import CHINA_STRATEGY_NUMBERS
from repro.fleet import FleetSpec, FleetWorld
from repro.runtime import TrialSpec, trial_seed

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "segment_digest.json"

SEEDS = [trial_seed(13, index) for index in range(5)]
IMPAIRMENT = {"loss": 0.05, "reorder": 0.1, "dup": 0.1}


def _strategy(number):
    return None if number == 0 else deployed_strategy(number)


def table2_strategies(country, protocol):
    """Strategy 0 plus every Table 2 strategy for the pair."""
    numbers = {0}
    if country == "china":
        numbers.update(CHINA_STRATEGY_NUMBERS)
    numbers.update(
        number for c, number, p in TABLE2_OTHER if (c, p) == (country, protocol)
    )
    return sorted(numbers)


def _digest(specs):
    hasher = hashlib.sha256()
    for spec in specs:
        traced = spec.run(keep_trace=True)
        pooled = spec.run()
        hasher.update(
            f"{traced.outcome}|{traced.censored}|{traced.succeeded}|"
            f"{traced.trace.digest()}|{pooled.outcome}|{pooled.succeeded}\n".encode()
        )
    return hasher.hexdigest()


def _group(country, protocol, server=None, seeds=SEEDS, **kwargs):
    return _digest(
        TrialSpec.build(country, protocol, server, seed=seed, **kwargs)
        for seed in seeds
    )


def _fleet_digest(trace):
    records = FleetWorld(FleetSpec(clients=50, seed=21, trace=trace)).run()
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()


def compute_digests():
    digests = {}
    for country, protocols in COUNTRY_PROTOCOLS.items():
        for protocol in protocols:
            for number in table2_strategies(country, protocol):
                digests[f"{country}/{protocol}/strategy{number}"] = _group(
                    country, protocol, _strategy(number)
                )
    for country in ("southkorea", "russia"):
        for number in (12, 13, 14, 15):
            digests[f"{country}/https/strategy{number}"] = _group(
                country, "https", _strategy(number)
            )
    for number in (0, 1):
        digests[f"ipv6/china/http/strategy{number}"] = _group(
            "china", "http", _strategy(number), ip_version=6
        )
    for client_os in ("windows-10-enterprise-17134", "macos-10.15"):
        for number in (5, 9):
            digests[f"{client_os}/strategy{number}"] = _group(
                "kazakhstan" if number == 9 else "china", "http",
                _strategy(number), client_os=client_os,
            )
    digests["client_strategy/china/http"] = _group(
        "china", "http",
        client_strategy=client_side_strategy("teardown-r-chksum-on-a"),
    )
    digests["strategy_at_hop6/china/http"] = _group(
        "china", "http", _strategy(1), strategy_at_hop=6
    )
    for number in (0, 1):
        digests[f"impaired/china/http/strategy{number}"] = _group(
            "china", "http", _strategy(number),
            impairment=IMPAIRMENT, net_seed=5,
        )
    digests["fleet50/full"] = _fleet_digest("full")
    digests["fleet50/none"] = _fleet_digest("none")
    return digests


def test_segment_digest_golden():
    digests = compute_digests()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    changed = sorted(name for name in golden if digests.get(name) != golden[name])
    assert set(digests) == set(golden), "digest groups changed"
    assert not changed, (
        f"segment path behaviour changed in {changed}; if intentional, "
        f"regenerate with REPRO_UPDATE_GOLDENS=1 and review the diff"
    )
