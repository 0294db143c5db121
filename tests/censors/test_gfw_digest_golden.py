"""Digest golden for the GFW: every box's observable behaviour, pinned.

One SHA-256 per group of china trials covers each trial's outcome
fields and its full ``Trace.dump()`` (every send, delivery, injection
and verdict with timestamps, flags and seq/ack numbers). The groups
span the five protocols under no strategy and Strategies 1-8, every
axis-probe censor genome, a single-box GFW and a bounded flow table
under a SYN flood, so any change to box state, RNG draw order or
injection order trips a digest.

Regenerate deliberately with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/censors/test_gfw_digest_golden.py

and review the diff like any other code change.
"""

import hashlib
import json
import os
import pathlib
import random

from repro.censors import GreatFirewall
from repro.censors.adaptive import axis_probe_genomes
from repro.core import deployed_strategy
from repro.eval import run_trial
from repro.netsim import Middlebox
from repro.packets import make_tcp_packet
from repro.runtime import trial_seed

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "gfw_digest.json"

PROTOCOLS = ("dns", "ftp", "http", "https", "smtp")
STRATEGIES = range(0, 9)  # 0 = no strategy
SEEDS = [trial_seed(12, index) for index in range(20)]
PROBE_SEEDS = SEEDS[:3]


def _strategy(number):
    return None if number == 0 else deployed_strategy(number)


class _SynFlooder(Middlebox):
    """Client-side box that sprays decoy SYNs alongside real traffic."""

    name = "flooder"

    def __init__(self, per_packet=3):
        self.per_packet = per_packet
        self._spray = 0

    def process(self, packet, direction, ctx):
        out = [packet]
        if direction == "c2s":
            for _ in range(self.per_packet):
                self._spray += 1
                out.append(make_tcp_packet(
                    "10.1.0.2", "192.0.2.10", 50000 + self._spray, 80,
                    flags="S", seq=self._spray,
                ))
        return out


def _digest(results):
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(
            f"{result.outcome}|{result.censored}|{result.succeeded}\n".encode()
        )
        hasher.update(result.trace.dump().encode())
        hasher.update(b"\n--\n")
    return hasher.hexdigest()


def compute_digests():
    digests = {}
    for protocol in PROTOCOLS:
        for number in STRATEGIES:
            digests[f"china/{protocol}/strategy{number}"] = _digest(
                run_trial("china", protocol, _strategy(number), seed=seed)
                for seed in SEEDS
            )
    for index, genome in enumerate(axis_probe_genomes("china")):
        for protocol in ("http", "ftp"):
            digests[f"probe{index}/{protocol}"] = _digest(
                run_trial(
                    "china", protocol, _strategy(number), seed=seed,
                    censor_params=genome.params,
                )
                for number in STRATEGIES
                for seed in PROBE_SEEDS
            )
    digests["single_box/http"] = _digest(
        run_trial(
            "china", "http", _strategy(number), seed=seed,
            censor=GreatFirewall(rng=random.Random(seed), protocols=("http",)),
        )
        for number in (0, 1, 6)
        for seed in PROBE_SEEDS
    )
    digests["max_flows_2/http"] = _digest(
        run_trial(
            "china", "http", _strategy(number), seed=seed,
            censor=GreatFirewall(rng=random.Random(seed), max_flows_per_box=2),
            client_side_boxes=[_SynFlooder(per_packet=flood)],
        )
        for number in (0, 1)
        for flood in (0, 1, 3)
        for seed in PROBE_SEEDS
    )
    return digests


def test_gfw_digest_golden():
    digests = compute_digests()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    changed = sorted(name for name in golden if digests.get(name) != golden[name])
    assert set(digests) == set(golden), "digest groups changed"
    assert not changed, (
        f"GFW behaviour changed in {changed}; if intentional, regenerate "
        f"with REPRO_UPDATE_GOLDENS=1 and review the diff"
    )
