"""Differential test: a re-armed trial world against fresh builds.

The executor builds one trial world per shard and re-arms it for every
later seed (:meth:`Trial.rearm`). That is only admissible if re-arming is
invisible: for any sequence of seeds, the world re-armed through them must
yield the same trace digest (capture on), the same outcome (pooled,
capture off) and the same object graph — hosts, boxes, engines and RNG
states — as a fresh ``Trial`` per seed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.censors import ADAPTIVE_COUNTRIES, axis_probe_genomes
from repro.core import CLIENT_SIDE_STRATEGIES, client_side_strategy, deployed_strategy
from repro.eval.runner import COUNTRY_PROTOCOLS, Trial
from repro.runtime import TrialExecutor, TrialSpec
from tests.objstate import object_state

PAIRS = [(country, protocol) for country, protocols in COUNTRY_PROTOCOLS.items()
         for protocol in protocols]
STRATEGY_NUMBERS = [0] + list(range(1, 16))  # 0: no strategy

_IMPAIRMENT = {"loss": 0.05, "dup": 0.05, "reorder": 0.05, "corrupt": 0.05, "jitter": 0.002}

#: Trial options beyond (country, protocol, strategy), one per case.
OPTIONS = {
    "impaired": {"impairment": _IMPAIRMENT},
    "impaired-net-seed": {"impairment": _IMPAIRMENT, "net_seed": 77},
    "ipv6": {"ip_version": 6},
    "windows": {"client_os": "windows-10-enterprise-17134"},
    "macos": {"client_os": "macos-10.15"},
    "client-strategy": {"client_strategy": sorted(CLIENT_SIDE_STRATEGIES)[0]},
    "mid-path": {"strategy_at_hop": 5},
}

GENOMES = [
    genome
    for country in ADAPTIVE_COUNTRIES
    for genome in axis_probe_genomes(country)
]

SEEDS = st.lists(st.integers(0, 1 << 30), min_size=2, max_size=4)
SETTINGS = settings(
    max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _trial_kwargs(options, index):
    """Trial keyword arguments of the ``index``-th trial of a shard.

    A ``net_seed`` option varies per trial, as the batch APIs fan it out,
    so ``rearm`` is driven through a different impairment stream each time.
    """
    kwargs = dict(options)
    if "client_strategy" in kwargs:
        kwargs["client_strategy"] = client_side_strategy(kwargs["client_strategy"])
    if "net_seed" in kwargs:
        kwargs["net_seed"] += index
    return kwargs


def assert_rearm_matches_fresh(country, protocol, number, seeds, options):
    strategy = deployed_strategy(number) if number else None
    specs = [
        TrialSpec.build(country, protocol, strategy, seed=seed,
                        **_trial_kwargs(options, index))
        for index, seed in enumerate(seeds)
    ]
    label = f"{country}/{protocol} strategy {number} {options} seeds {seeds}"

    # Capture on: every recorded event, timestamp and wire byte.
    world = first = None
    for spec in specs:
        result, world = spec.run_in(world, keep_trace=True)
        first = first or world
        assert world is first, label
        assert result.trace.digest() == spec.run(keep_trace=True).trace.digest(), label

    # Capture off, pooled packets: the path the executor takes.
    world = None
    fresh = [spec.run() for spec in specs]
    rearmed = []
    for spec in specs:
        result, world = spec.run_in(world)
        rearmed.append(result)
    rearmed.extend(TrialExecutor().run_batch(specs))  # the shard path
    assert [_verdict(result) for result in rearmed] == [
        _verdict(result) for result in fresh + fresh
    ], label

    # Structure: the re-armed world equals a fresh build, object by object.
    world = Trial(country, protocol, strategy, seed=seeds[0], capture_trace=False,
                  **_trial_kwargs(options, 0))
    for index, seed in enumerate(seeds[1:], 1):
        kwargs = _trial_kwargs(options, index)
        world.run()
        world.rearm(seed, kwargs.get("net_seed"))
        fresh = Trial(country, protocol, strategy, seed=seed, capture_trace=False, **kwargs)
        assert object_state(world) == object_state(fresh), label


def _verdict(result):
    return (result.outcome, result.succeeded, result.censored, result.detail)


@pytest.mark.parametrize("number", STRATEGY_NUMBERS)
@pytest.mark.parametrize("country,protocol", PAIRS)
@given(seeds=SEEDS)
@SETTINGS
def test_rearm_matches_fresh(country, protocol, number, seeds):
    assert_rearm_matches_fresh(country, protocol, number, seeds, {})


@pytest.mark.parametrize("name", sorted(OPTIONS))
@given(
    pair=st.sampled_from(PAIRS),
    number=st.sampled_from(STRATEGY_NUMBERS),
    seeds=SEEDS,
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rearm_matches_fresh_with_options(name, pair, number, seeds):
    assert_rearm_matches_fresh(*pair, number, seeds, OPTIONS[name])


@pytest.mark.parametrize(
    "genome", GENOMES, ids=[f"{g.country}-{i}" for i, g in enumerate(GENOMES)]
)
@given(data=st.data(), number=st.sampled_from(STRATEGY_NUMBERS), seeds=SEEDS)
@SETTINGS
def test_rearm_matches_fresh_adaptive_censor(genome, data, number, seeds):
    protocol = data.draw(st.sampled_from(COUNTRY_PROTOCOLS[genome.country]))
    assert_rearm_matches_fresh(
        genome.country, protocol, number, seeds, {"censor_params": genome.params}
    )



@pytest.mark.parametrize("first_keeps_trace", [False, True])
def test_world_of_the_other_capture_mode_is_not_reused(first_keeps_trace, monkeypatch):
    """A world built with trace capture off (or on) is rebuilt, not
    re-armed, for a call that needs the other mode.

    Worlds are only handed back with the fast path on, so the test pins
    it on for itself and runs the same under ``REPRO_FASTPATH=0``.
    """
    monkeypatch.setattr(fastpath, "_ENABLED", True)  # restored at teardown
    spec = TrialSpec.build("china", "http", deployed_strategy(1), seed=3)
    _, world = spec.run_in(None, keep_trace=first_keeps_trace)
    assert world.capture_trace is first_keeps_trace
    result, again = spec.run_in(world, keep_trace=not first_keeps_trace)
    assert again is not world
    assert again.capture_trace is not first_keeps_trace
    if not first_keeps_trace:
        assert result.trace.digest() == spec.run(keep_trace=True).trace.digest()
