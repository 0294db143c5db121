"""Workload inputs, derived from the benchmark seed alone.

Every seed the program receives (Table 2, GA, co-evolution, fleet and
campaign) comes from :func:`derive`, so one ``--seed`` fixes a whole
workload and the same seed always gives the same inputs. The functions return
plain dicts so the inputs can be compared, logged and tested without
importing the program.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

WORKLOADS = ("table2", "search", "fleet", "campaign_warm")

#: A seed never used while the benchmark was tuned. A change that claims
#: a gain confirms it on this seed as well as on the seeds it was
#: developed against.
HELD_OUT_SEED = 770_077

#: GA targets of the ``search`` workload: (country, protocol).
SEARCH_TARGETS = (
    ("china", "http"),
    ("china", "dns"),
    ("iran", "http"),
    ("kazakhstan", "http"),
)

#: Independent GA runs per target in one ``search`` pass.
SEARCH_RUNS = 5


def derive(seed: int, *labels: Any) -> int:
    """A 31-bit seed for one input stream, domain-separated by ``labels``."""
    text = "perfbench/" + "/".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def table2_inputs(seed: int) -> Dict[str, Any]:
    """The full Table 2 sweep at the paper-default 150 trials per cell."""
    return {"trials": 150, "seed": derive(seed, "table2")}


def search_inputs(seed: int) -> Dict[str, Any]:
    """Five short GA searches per target that run every generation, then one
    co-evolution. A single GA run's cost swings with its trajectory (how
    many distinct genomes it meets); five independent runs per target keep
    a pass's total work steady from seed to seed."""
    generations = 8
    return {
        "searches": [
            {
                "country": country,
                "protocol": protocol,
                "trials": 8,
                "evaluator_seed": derive(seed, "ga-trials", country, protocol, run),
                "ga_seed": derive(seed, "ga", country, protocol, run),
                "population": 24,
                "generations": generations,
                # Patience never runs out, so every search does all its
                # generations and the work per pass is fixed.
                "patience": generations,
            }
            for country, protocol in SEARCH_TARGETS
            for run in range(SEARCH_RUNS)
        ],
        "coevolve": {"country": "china", "seed": derive(seed, "coevolve")},
    }


def fleet_inputs(seed: int) -> Dict[str, Any]:
    """3000 default-mix clients 20 ms apart: about 2000 concurrent flows."""
    return {"clients": 3000, "spacing": 0.02, "seed": derive(seed, "fleet")}


def campaign_inputs(seed: int) -> Dict[str, Any]:
    """The Table 2 campaign at 60 trials per cell (2832 specs, 57 shards)."""
    return {"trials": 60, "seed": derive(seed, "campaign"), "shard_size": 50}


def workload_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Inputs of ``workload`` for benchmark seed ``seed``."""
    inputs_of = {
        "table2": table2_inputs,
        "search": search_inputs,
        "fleet": fleet_inputs,
        "campaign_warm": campaign_inputs,
    }
    if workload not in inputs_of:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # Set-up's warm-up run gets its own stream, apart from the measured input.
    return dict(inputs_of[workload](seed), warm_seed=derive(seed, workload, "warm-up"))
