"""Per-layer metrics of a traced run.

:func:`layer_metrics` turns the traced pass's span summary, the pooled
pass's public counters (``RunStats``, ``EvalStats``/``CoevolveStats``,
``CacheStats``) and a few sampled values into the ``per_layer`` metrics
named in ``BENCHMARK.json``, which gives their units. A layer a workload
never enters reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from .spans import SpanSummary


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Dict[str, SpanSummary],
    returned: Dict[str, int],
    pool: Any,
    serial_wall: float,
    traced_wall: float,
    store_spans: Dict[str, SpanSummary],
    batch_stats: Any,
    arena: Sequence[int],
    active_flows: List[int],
) -> Dict[str, float]:
    """Every per-layer metric, by name.

    Args:
        spans: Span summary of the traced in-process pass.
        returned: Work counts returned by traced calls (events run).
        pool: The untraced pooled pass (:class:`~perfbench.workloads.PassOutput`).
        serial_wall: Median wall of untraced in-process passes.
        traced_wall: Median wall of traced in-process passes (same inputs).
        store_spans: Span summary of the set-up's result-cache stores.
        batch_stats: ``RunStats`` merged from the traced pass's batches.
        arena: (created, reused) packet-arena allocations in the traced pass.
        active_flows: Fleet flows in flight, sampled at each flow verdict.
    """
    empty = SpanSummary()

    def span(name: str) -> SpanSummary:
        return spans.get(name, empty)

    def per_call(name: str, scale: float, inclusive: bool = False) -> float:
        entry = span(name)
        total = entry.inclusive_ns if inclusive else entry.self_ns
        return _ratio(total, entry.calls) / scale

    events = returned.get("netsim.run", 0)
    fleet_events = returned.get("netsim.fleet_run", 0)
    run_stats = pool.run_stats if pool.run_stats is not None else batch_stats
    store = store_spans.get("runtime.cache.store", empty)
    submitted = pool.extra.get("submitted", 0)
    generation_ms = pool.extra.get("generation_ms", [])
    created, reused = arena
    out = {
        "eval.build_us": per_call("eval.build", 1e3, inclusive=True),
        "eval.simulate_us": per_call("eval.simulate", 1e3, inclusive=True),
        "netsim.events_per_trial": _ratio(events, span("netsim.run").calls),
        "netsim.self_ns_per_event": _ratio(span("netsim.run").self_ns, events),
        "netsim.fleet_self_ns_per_event": _ratio(span("netsim.fleet_run").self_ns, fleet_events),
        "censors.gfw.packets": span("censors.gfw").calls,
        "censors.gfw.self_ns_per_packet": per_call("censors.gfw", 1.0),
        "censors.sni.packets": span("censors.sni").calls,
        "censors.sni.self_ns_per_packet": per_call("censors.sni", 1.0),
        "censors.dpi.packets": span("censors.dpi").calls,
        "censors.dpi.self_ns_per_packet": per_call("censors.dpi", 1.0),
        "tcpstack.segments": span("tcpstack.receive").calls,
        "tcpstack.self_ns_per_segment": per_call("tcpstack.receive", 1.0),
        "core.engine.packets": span("core.engine").calls,
        "core.engine.self_ns_per_packet": per_call("core.engine", 1.0),
        "core.dsl.canonical_calls": span("core.dsl.canonical").calls,
        "core.dsl.canonical_us": per_call("core.dsl.canonical", 1e3, inclusive=True),
        "evolution.evaluated": pool.extra.get("evaluated", 0),
        "evolution.dedup_frac": _ratio(submitted - pool.extra.get("evaluated", 0), submitted),
        "evolution.evaluate_self_ms": per_call("evolution.evaluate", 1e6),
        "evolution.step_self_ms": per_call("evolution.step", 1e6),
        "evolution.generation_ms_p50": statistics.median(generation_ms) if generation_ms else 0.0,
        "evolution.generation_ms_p90": percentile(generation_ms, 90),
        "runtime.executor.batches": span("runtime.executor.batch").calls,
        "runtime.executor.specs_per_batch": _ratio(
            batch_stats.requested, span("runtime.executor.batch").calls
        ),
        "runtime.executor.batched_frac": _ratio(run_stats.batched, run_stats.executed),
        "runtime.executor.utilization": run_stats.utilization,
        "runtime.executor.dispatch_s": (
            run_stats.wall_time - run_stats.busy_time / run_stats.workers
            if run_stats.workers
            else 0.0
        ),
        "runtime.cache.lookup_us": per_call("runtime.cache.lookup", 1e3, inclusive=True),
        "runtime.cache.store_us": _ratio(store.inclusive_ns, store.calls) / 1e3,
        "runtime.cache.hit_frac": _ratio(
            pool.extra.get("cache_hits", 0), pool.extra.get("cache_lookups", 0)
        ),
        "campaign.ledger.store_shard_ms": per_call("campaign.ledger.store_shard", 1e6, inclusive=True),
        "campaign.ledger.journal_us": per_call("campaign.ledger.journal", 1e3, inclusive=True),
        "campaign.ledger.bytes_written": pool.extra.get("bytes_written", 0),
        "fleet.self_ms": span("fleet.world").self_ns / 1e6,
        "fleet.active_flows_p50": statistics.median(active_flows) if active_flows else 0.0,
        "packets.arena.reuse_frac": _ratio(reused, created + reused),
        "trace.overhead_frac": _ratio(traced_wall, serial_wall) - 1.0,
    }
    return {name: float(value) for name, value in out.items()}
