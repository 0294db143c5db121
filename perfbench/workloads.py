"""The four benchmark workloads, each driven through the program's public API.

A workload object owns what its set-up builds (worker pool, warm cache)
and runs *passes*: one pass is the workload's whole measured input, run
either through the pool (``pooled=True``) or in-process. A pass returns a
:class:`PassOutput`; :meth:`Workload.failures` checks it against the
first pass's reference, so every pass after the first must reproduce it
exactly.
"""

from __future__ import annotations

import copy
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from . import checks


@dataclass
class PassOutput:
    """What one pass did, and what it produced.

    Attributes:
        wall: Host seconds of the pass.
        outcomes: Trial outcomes delivered (executed trials, fleet flows,
            or cache-answered specs).
        ops: Operations the workload's check counts (cells, generations
            and epochs, flows, shards).
        result: Workload-specific output the checks read.
        run_stats: Executor counters for the pass, when the workload
            drives a :class:`~repro.runtime.TrialExecutor` it owns.
        extra: Per-pass numbers the per-layer metrics read.
        factor: Reference seconds per host second over the pass (see
            :mod:`perfbench.speed`); 1 until the end-to-end run sets it.
    """

    wall: float
    outcomes: int
    ops: int
    result: Any
    run_stats: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)
    factor: float = 1.0


def stats_delta(before, after):
    """RunStats of the batches an executor ran between two snapshots."""
    from repro.runtime import RunStats

    delta = RunStats(workers=after.workers)
    for name in ("requested", "executed", "cache_hits", "wall_time", "busy_time", "batched", "single"):
        setattr(delta, name, getattr(after, name) - getattr(before, name))
    return delta


class Workload:
    """Base class: set-up, passes, checks and clean-up of one workload."""

    name = ""
    #: Modules whose import cost set-up pays.
    modules: tuple = ()
    #: Name and unit of this workload's own throughput figure (outcomes/s).
    rate = ("trials_per_s", "trials/s")

    def __init__(self, inputs: Dict[str, Any], workers: int, workdir: Path) -> None:
        self.inputs = inputs
        self.workers = workers
        self.workdir = workdir

    def setup(self) -> None:
        """One set-up repetition; leaves the workload ready for passes."""

    def run_pass(self, pooled: bool = True, hooks: Optional[Dict[str, Callable]] = None) -> PassOutput:
        """Run the whole input once and return what it did."""
        raise NotImplementedError

    def planned_ops(self) -> int:
        """Operations one pass attempts; all of them fail when a pass raises."""
        raise NotImplementedError

    def busy_cpus(self) -> int:
        """CPUs a pooled pass keeps busy."""
        return self.workers

    def reference(self, output: PassOutput) -> Any:
        """What later passes must reproduce exactly."""
        raise NotImplementedError

    def failures(self, output: PassOutput, reference: Any = None) -> int:
        """Failed operations in ``output`` (``reference`` None: first pass)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every worker process and remove scratch files."""


class _ExecutorWorkload(Workload):
    """Workloads whose passes share one pooled TrialExecutor."""

    def __init__(self, inputs, workers, workdir) -> None:
        super().__init__(inputs, workers, workdir)
        self.executor = None
        self.serial = None

    def setup(self) -> None:
        """Spawn the pool and run a warm-up batch through it."""
        from repro.core import deployed_strategy
        from repro.runtime import TrialExecutor, TrialSpec, trial_seed

        if self.executor is not None:
            self.executor.close()
        self.executor = TrialExecutor(workers=self.workers)
        warm = [
            TrialSpec.build(
                country, "http", deployed_strategy(8), seed=trial_seed(self.inputs["warm_seed"], index)
            )
            for country in ("china", "iran")
            for index in range(2 * self.workers)
        ]
        self.executor.run_batch(warm)

    def _executor(self, pooled: bool):
        from repro.runtime import TrialExecutor

        if pooled:
            return self.executor
        if self.serial is None:
            self.serial = TrialExecutor(workers=1)
        return self.serial

    def close(self) -> None:
        for executor in (self.executor, self.serial):
            if executor is not None:
                executor.close()
        self.executor = self.serial = None


class Table2(_ExecutorWorkload):
    """The full Table 2 sweep, cold, on one shared executor."""

    name = "table2"
    modules = ("repro.eval.table2", "repro.runtime")

    def run_pass(self, pooled=True, hooks=None) -> PassOutput:
        from repro.eval.table2 import generate_table2

        executor = self._executor(pooled)
        before = copy.deepcopy(executor.total_stats)
        start = time.perf_counter()
        cells = generate_table2(
            trials=self.inputs["trials"], seed=self.inputs["seed"], executor=executor
        )
        wall = time.perf_counter() - start
        stats = stats_delta(before, executor.total_stats)
        return PassOutput(wall, stats.executed, len(cells), cells, run_stats=stats)

    def planned_ops(self) -> int:
        from repro.eval.reference import CHINA_PROTOCOLS
        from repro.eval.table2 import CHINA_STRATEGY_NUMBERS, OTHER_CELLS

        return len(CHINA_STRATEGY_NUMBERS) * len(CHINA_PROTOCOLS) + len(OTHER_CELLS)

    def reference(self, output):
        return [checks.cell_key(cell) for cell in output.result]

    def failures(self, output, reference=None):
        return len(checks.table2_failures(output.result, reference))


def ga_text(country: str, protocol: str, result) -> str:
    """A GA result as ``evolve --json`` spells it (deterministic JSON)."""
    payload = {
        "country": country,
        "protocol": protocol,
        "generations_run": result.generations_run,
        "best_fitness": result.best_fitness,
        "best": str(result.best),
        "history": result.history,
        "hall_of_fame": [[text, fitness] for text, fitness in result.hall_of_fame],
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False)


class Search(_ExecutorWorkload):
    """GA searches on four targets, then one co-evolution, on one executor."""

    name = "search"
    modules = ("repro.core.evolution", "repro.runtime")

    def run_pass(self, pooled=True, hooks=None) -> PassOutput:
        from repro.core.evolution import (
            CensorTrialEvaluator,
            CoevolveConfig,
            GAConfig,
            GeneticAlgorithm,
            run_coevolution,
        )

        executor = self._executor(pooled)
        before = copy.deepcopy(executor.total_stats)
        texts: List[str] = []
        ops: List[int] = []
        generation_ms: List[float] = []
        submitted = evaluated = 0
        start = time.perf_counter()
        for search in self.inputs["searches"]:
            evaluator = CensorTrialEvaluator(
                search["country"],
                search["protocol"],
                trials=search["trials"],
                seed=search["evaluator_seed"],
                executor=executor,
            )
            ga = GeneticAlgorithm(
                evaluator,
                config=GAConfig(
                    population_size=search["population"],
                    generations=search["generations"],
                    seed=search["ga_seed"],
                    convergence_patience=search["patience"],
                ),
            )
            state = ga.start()
            while not state.done:
                step_start = time.perf_counter()
                ga.step(state)
                generation_ms.append((time.perf_counter() - step_start) * 1e3)
            result = ga.result(state)
            texts.append(ga_text(search["country"], search["protocol"], result))
            ops.append(result.generations_run)
            submitted += evaluator.stats.submitted
            evaluated += evaluator.stats.evaluated
        coevolve = self.inputs["coevolve"]
        result = run_coevolution(
            coevolve["country"], config=CoevolveConfig(seed=coevolve["seed"]), executor=executor
        )
        wall = time.perf_counter() - start
        texts.append(json.dumps(result.as_dict(), sort_keys=True, allow_nan=False))
        ops.append(len(result.epochs))
        submitted += result.stats.submitted
        evaluated += result.stats.evaluated
        stats = stats_delta(before, executor.total_stats)
        extra = {
            "generation_ms": generation_ms,
            "submitted": submitted,
            "evaluated": evaluated,
        }
        return PassOutput(wall, stats.executed, sum(ops), (texts, ops), run_stats=stats, extra=extra)

    def planned_ops(self) -> int:
        from repro.core.evolution import CoevolveConfig

        generations = sum(search["generations"] for search in self.inputs["searches"])
        return generations + CoevolveConfig().epochs

    def reference(self, output):
        return output.result[0]

    def failures(self, output, reference=None):
        texts, ops = output.result
        if reference is None:
            return 0
        return checks.text_failures(texts, reference, ops)


class Fleet(Workload):
    """One fleet serving run of about 2000 concurrent flows, through fleet's pool."""

    name = "fleet"
    modules = ("repro.fleet",)
    rate = ("flows_per_s", "flows/s")

    def _spec(self, clients: Optional[int] = None, seed: Optional[int] = None):
        from repro.fleet import FleetSpec

        return FleetSpec(
            clients=clients if clients is not None else self.inputs["clients"],
            seed=seed if seed is not None else self.inputs["seed"],
            spacing=self.inputs["spacing"],
        )

    def setup(self) -> None:
        """Warm the fleet code path with a small pooled run."""
        from repro.fleet import run_fleet

        run_fleet(self._spec(clients=20 * self.workers, seed=self.inputs["warm_seed"]), workers=self.workers)

    def run_pass(self, pooled=True, hooks=None) -> PassOutput:
        from repro.fleet import run_fleet

        hooks = hooks or {}
        spec = self._spec()
        start = time.perf_counter()
        if pooled:
            result = run_fleet(spec, workers=self.workers)
        else:
            result = run_fleet(
                spec, workers=1, on_flow_done=hooks.get("on_flow_done"), keep_world=True
            )
        wall = time.perf_counter() - start
        extra = {}
        if result.world is not None:
            extra["arena"] = (result.world.arena.created, result.world.arena.reused)
        return PassOutput(wall, len(result.records), spec.clients, result.records, extra=extra)

    def planned_ops(self) -> int:
        return self.inputs["clients"]

    def reference(self, output):
        return [checks.record_text(record) for record in output.result]

    def failures(self, output, reference=None):
        return len(checks.fleet_failures(output.result, self.inputs["clients"], reference))


def _shard_executed(ledger) -> List[int]:
    """Trials each stored shard executed, from its own metric snapshot.

    A shard whose snapshot lacks the executor counter reads as -1 and so
    fails the zero-execution check.
    """
    counts = {}
    for path in ledger.shards_dir.glob("*.json"):
        entry = json.loads(path.read_text())
        family = entry.get("metrics", {}).get("repro_executor_trials_total", {})
        counts[entry["shard"]] = family.get("samples", {}).get("state=executed", -1)
    return [counts[index] for index in sorted(counts)]


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


class CampaignWarm(Workload):
    """A Table 2 campaign re-run into a fresh ledger against a warm result cache."""

    name = "campaign_warm"
    modules = ("repro.campaign", "repro.runtime")
    rate = ("specs_per_s", "specs/s")

    def __init__(self, inputs, workers, workdir) -> None:
        super().__init__(inputs, workers, workdir)
        self.spec = None
        self.cache_dir: Optional[Path] = None
        self.prefill: Dict[str, Any] = {}
        self._setups = 0
        self._passes = 0

    def setup(self) -> None:
        """Prefill a fresh disk result cache by running the campaign cold, in-process."""
        from repro.campaign import CampaignLedger, run_campaign
        from repro.campaign.presets import table2_campaign
        from repro.runtime import ResultCache

        self._remove_prefill()
        self.spec = table2_campaign(
            trials=self.inputs["trials"],
            seed=self.inputs["seed"],
            shard_size=self.inputs["shard_size"],
        )
        self._setups += 1
        self.cache_dir = self.workdir / f"cache-{self._setups}"
        ledger_dir = self.workdir / f"prefill-{self._setups}"
        # In-process like the measured passes: 57 small pooled batches
        # made the prefill's time swing with scheduling noise.
        run_campaign(self.spec, ledger_dir, cache=ResultCache(self.cache_dir), workers=1)
        ledger = CampaignLedger(ledger_dir)
        self.prefill = {
            "dir": ledger_dir,
            "results": ledger.results_path.read_bytes(),
            "cells": json.loads(ledger.report_path.read_text())["cells"],
        }

    def _remove_prefill(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.prefill:
            shutil.rmtree(self.prefill["dir"], ignore_errors=True)

    def run_pass(self, pooled=True, hooks=None) -> PassOutput:
        """Cache hits resolve in the parent, so every pass runs in-process."""
        from repro.campaign import CampaignLedger, run_campaign
        from repro.runtime import ResultCache

        self._passes += 1
        out_dir = self.workdir / f"warm-{self._passes}"
        cache = ResultCache(self.cache_dir)
        start = time.perf_counter()
        result = run_campaign(self.spec, out_dir, cache=cache, workers=1)
        wall = time.perf_counter() - start
        ledger = CampaignLedger(out_dir)
        outputs = {
            "executed": _shard_executed(ledger),
            "results": ledger.results_path.read_bytes(),
            "report": ledger.report_path.read_bytes(),
        }
        outputs["cells"] = json.loads(outputs["report"])["cells"]
        extra = {
            "bytes_written": _dir_bytes(out_dir),
            "cache_hits": cache.stats.hits,
            "cache_lookups": cache.stats.hits + cache.stats.misses,
        }
        shutil.rmtree(out_dir)
        return PassOutput(wall, cache.stats.hits, result.shards_total, outputs, extra=extra)

    def planned_ops(self) -> int:
        return len(self.spec.shards())

    def busy_cpus(self) -> int:
        return 1

    def reference(self, output):
        return output.result["report"]

    def failures(self, output, reference=None):
        expected = {
            "results": self.prefill["results"],
            "cells": self.prefill["cells"],
            "report": reference,
        }
        return len(checks.campaign_failures(output.result["executed"], output.result, expected))

    def close(self) -> None:
        self._remove_prefill()


WORKLOAD_CLASSES = {cls.name: cls for cls in (Table2, Search, Fleet, CampaignWarm)}
