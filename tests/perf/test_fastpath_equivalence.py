"""Differential fast-path harness: fast and slow paths must be twins.

The cold-path optimisations (hop coalescing, pooled packets, cached wire
images, trace-free trials) are only admissible because they are invisible:
every country x protocol pair must produce the identical verdict, the
identical trace (when one is captured), and the identical cache key with
the fast path on or off. This suite runs the full matrix through both
paths and diffs everything observable.
"""

import pytest

from repro import fastpath
from repro.core import SERVER_STRATEGIES, deployed_strategy
from repro.runtime import TrialSpec, trial_seed

COUNTRIES = ["china", "india", "iran", "kazakhstan", "southkorea", "russia", None]
PROTOCOLS = ["dns", "ftp", "http", "https", "smtp"]
PAIRS = [(c, p) for c in COUNTRIES for p in PROTOCOLS]

# A verdict-diverse strategy sample: the first few deployed strategies.
STRATEGY_NUMBERS = sorted(SERVER_STRATEGIES)[:4]


def _run_both(spec, keep_trace=False):
    """Run ``spec`` with the fast path on, then off; return both results."""
    assert fastpath.enabled(), "suite assumes the default-on fast path"
    fast = spec.run(keep_trace=keep_trace)
    with fastpath.disabled():
        slow = spec.run(keep_trace=keep_trace)
    return fast, slow


def _assert_same_verdict(fast, slow, label):
    assert fast.succeeded == slow.succeeded, label
    assert fast.censored == slow.censored, label
    assert fast.outcome == slow.outcome, label


class TestVerdictEquivalence:
    @pytest.mark.parametrize("country,protocol", PAIRS)
    def test_baseline_matrix(self, country, protocol):
        """No strategy: every pair verdict-identical across paths."""
        for index in range(3):
            spec = TrialSpec.build(
                country, protocol, seed=trial_seed(11, index)
            )
            fast, slow = _run_both(spec)
            _assert_same_verdict(fast, slow, f"{country}/{protocol}#{index}")

    @pytest.mark.parametrize("number", STRATEGY_NUMBERS)
    @pytest.mark.parametrize("protocol", ["http", "smtp"])
    def test_strategy_matrix(self, number, protocol):
        """Deployed strategies: the tampered path is equivalence-checked
        against every censor (strategies stress the serializer patches)."""
        strategy = deployed_strategy(number)
        for country in COUNTRIES:
            for index in range(2):
                spec = TrialSpec.build(
                    country,
                    protocol,
                    server_strategy=strategy,
                    seed=trial_seed(13, index),
                )
                fast, slow = _run_both(spec)
                _assert_same_verdict(fast, slow, f"strategy{number}@{country}")

    def test_client_strategy_equivalence(self):
        from repro.core import CLIENT_SIDE_STRATEGIES, client_side_strategy

        name = sorted(CLIENT_SIDE_STRATEGIES)[0]
        spec = TrialSpec.build(
            "china",
            "http",
            client_strategy=client_side_strategy(name),
            seed=trial_seed(17, 0),
        )
        fast, slow = _run_both(spec)
        _assert_same_verdict(fast, slow, f"client:{name}")


class TestTraceEquivalence:
    """When a trace IS captured, it must be bit-identical across paths
    (the digest covers timestamps, event kinds, and exact wire bytes)."""

    @pytest.mark.parametrize("country,protocol", [
        ("china", "http"), ("china", "smtp"), ("china", "dns"),
        ("iran", "https"), ("india", "http"), ("kazakhstan", "https"),
        ("southkorea", "https"), ("russia", "https"), (None, "http"),
    ])
    def test_trace_digest_identical(self, country, protocol):
        spec = TrialSpec.build(country, protocol, seed=trial_seed(19, 0))
        fast, slow = _run_both(spec, keep_trace=True)
        assert fast.trace is not None and slow.trace is not None
        assert fast.trace.digest() == slow.trace.digest()

    def test_trace_digest_identical_with_strategy(self):
        number = STRATEGY_NUMBERS[0]
        spec = TrialSpec.build(
            "china",
            "smtp",
            server_strategy=deployed_strategy(number),
            seed=trial_seed(19, 1),
        )
        fast, slow = _run_both(spec, keep_trace=True)
        assert fast.trace.digest() == slow.trace.digest()

    def test_rate_only_trials_drop_the_trace(self):
        spec = TrialSpec.build("china", "http", seed=trial_seed(19, 2))
        fast, slow = _run_both(spec, keep_trace=False)
        assert fast.trace is None and slow.trace is None


class TestCacheKeyEquivalence:
    def test_spec_hash_is_path_independent_and_execution_stable(self):
        """The fast path must not perturb the canonical form: hashes are
        equal across paths and unchanged by running the trial."""
        for country, protocol, extra in [
            ("china", "smtp", {}),
            ("iran", "dns", {"workload": {"qname": "youtube.com"}}),
        ]:
            spec = TrialSpec.build(
                country, protocol,
                server_strategy=deployed_strategy(STRATEGY_NUMBERS[0]),
                seed=trial_seed(23, 0),
                **extra,
            )
            before = spec.canonical_key()
            spec.run()
            assert spec.canonical_key() == before
            with fastpath.disabled():
                twin = TrialSpec.build(
                    country, protocol,
                    server_strategy=deployed_strategy(STRATEGY_NUMBERS[0]),
                    seed=trial_seed(23, 0),
                    **extra,
                )
                twin.run()
                assert twin.canonical_key() == before
                assert twin.spec_hash() == spec.spec_hash()

    def test_capture_trace_never_enters_the_options(self):
        """``capture_trace`` is a run-time detail, not a spec field — it
        must not leak into ``options`` (and thus the cache key)."""
        spec = TrialSpec.build("china", "http", seed=trial_seed(23, 1))
        spec.run()
        assert "capture_trace" not in spec.options

    def test_executor_cache_hits_across_paths(self, tmp_path):
        """A result cached under the fast path is served for the same
        spec with the fast path off, and vice versa."""
        from repro.runtime import ResultCache, TrialExecutor

        specs = [
            TrialSpec.build("china", "smtp", seed=trial_seed(29, i))
            for i in range(4)
        ]
        cache = ResultCache(tmp_path / "a")
        warm_exec = TrialExecutor(workers=1, cache=cache)
        warm = warm_exec.run_batch(specs)
        assert warm_exec.last_stats.cold == len(specs)
        with fastpath.disabled():
            again_exec = TrialExecutor(workers=1, cache=cache)
            again = again_exec.run_batch(specs)
        assert again_exec.last_stats.warm == len(specs)
        for fast_result, slow_result in zip(warm, again):
            assert fast_result.succeeded == slow_result.succeeded
            assert fast_result.outcome == slow_result.outcome
