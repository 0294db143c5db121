"""Fuzz tests: censors must survive arbitrary generated strategies.

Geneva is "in essence a network fuzzer" (§2.2) — during evolution the
censor models see thousands of weird packet sequences. Whatever a random
strategy does, a trial must terminate with a valid outcome and the censor
must never crash or corrupt its own state.
"""

import random

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Strategy
from repro.core.evolution import client_side_pool, server_side_pool
from repro.eval import run_trial

VALID_OUTCOMES = {"success", "reset", "blockpage", "garbled", "timeout"}


def random_strategy(seed: int, pool_factory=server_side_pool) -> Strategy:
    pool = pool_factory()
    rng = random.Random(seed)
    trees = [
        (pool.random_trigger(rng), pool.random_action(rng))
        for _ in range(rng.randint(1, 2))
    ]
    return Strategy(trees)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_gfw_survives_random_server_strategies(seed):
    result = run_trial("china", "http", random_strategy(seed), seed=seed)
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_kazakhstan_survives_random_server_strategies(seed):
    result = run_trial("kazakhstan", "http", random_strategy(seed), seed=seed)
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_iran_survives_random_server_strategies(seed):
    result = run_trial("iran", "https", random_strategy(seed), seed=seed)
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_southkorea_survives_random_server_strategies(seed):
    """The lenient on-path SNI box: reassembly, arm-then-confirm verdicts."""
    result = run_trial("southkorea", "https", random_strategy(seed), seed=seed)
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_russia_survives_random_server_strategies(seed):
    """The strict in-path SNI box: drops, blackholing, RST-deaf tracking."""
    result = run_trial("russia", "https", random_strategy(seed), seed=seed)
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_india_survives_random_client_strategies(seed):
    result = run_trial(
        "india",
        "http",
        None,
        client_strategy=random_strategy(seed, client_side_pool),
        seed=seed,
    )
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_gfw_ftp_box_survives_random_strategies(seed):
    """The FTP box has the most anomaly rules; fuzz it specifically."""
    result = run_trial("china", "ftp", random_strategy(seed), seed=seed)
    assert result.outcome in VALID_OUTCOMES


@given(st.integers(0, 100_000))
@settings(max_examples=15, deadline=None)
def test_censor_state_is_bounded(seed):
    """Per-trial flow tables never grow beyond the connections created."""
    from repro.eval.runner import Trial

    trial = Trial("china", "dns", random_strategy(seed), seed=seed)
    trial.run()
    assert len(trial.censor.flows) <= 3  # at most the DNS retries
    for box in trial.censor.boxes.values():
        assert len(box.flows) <= 3


# ----------------------------------------------------------------------
# reset(): after any packet history a censor equals a fresh instance.

from repro.censors import ADAPTIVE_COUNTRIES, CensorGenome, axis_probe_genomes  # noqa: E402
from repro.eval.runner import COUNTRY_PROTOCOLS, Trial  # noqa: E402
from tests.objstate import object_state  # noqa: E402

GENOMES = [
    genome
    for country in ADAPTIVE_COUNTRIES
    for genome in [CensorGenome.baseline(country)] + axis_probe_genomes(country)
]


@pytest.mark.parametrize(
    "genome", GENOMES, ids=[f"{g.country}-{i}" for i, g in enumerate(GENOMES)]
)
@given(seed=st.integers(0, 100_000))
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reset_restores_a_fresh_censor(genome, seed):
    """Any censor, at any genome, reset after random traffic is as new.

    The comparison recurses through ``vars()``; the RNG object is left
    out, since reset keeps the stream and the trial reseeds it.
    """
    censor = genome.build(random.Random(seed))
    fresh = object_state(genome.build(random.Random(0)), rng_states=False)
    assert object_state(censor, rng_states=False) == fresh
    for protocol in COUNTRY_PROTOCOLS[genome.country]:
        Trial(
            genome.country, protocol, random_strategy(seed), seed=seed, censor=censor
        ).run()
    censor.reset()
    assert object_state(censor, rng_states=False) == fresh
