"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
set-up is repeated and timed, then whole passes over the workload's
seeded input run for at least ``--seconds`` seconds, and every metric
is a median over set-ups or passes, in reference seconds
(:mod:`perfbench.speed`). ``--trace 1`` gives the per-layer metrics
instead, in host time: one untraced pooled pass, then untraced and
traced in-process passes over the same inputs (see README.md).

Before the result line the benchmark prints one ``{"record": ...}``
line: commit, machine, fastpath state, seed, inputs and the sample count
behind every median and percentile. The result line has exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest measured passes per run, however long they take.
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark_units(section: str) -> dict:
    """Unit of every metric in one section of ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_fresh(modules) -> None:
    """Import ``modules`` in a fresh interpreter, as a new run of the tool would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(modules)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def peak_rss_mb(workers_kb: int) -> float:
    """Peak resident MB of this process plus ``workers_kb``, its pool workers' summed peak."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kb) / 1024.0


class Verdicts:
    """Checks each pass as it ends, so no pass's output outlives its check.

    The first pass sets the reference that every later one must reproduce.
    Holding every output instead would grow the benchmark's own memory
    with the pass count, and ``peak_rss_mb`` with it.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference = None
        self.attempted = self.failed = self.raised_passes = 0

    def check(self, output) -> None:
        if self.reference is None:
            self.failed += self.workload.failures(output)
            self.reference = self.workload.reference(output)
        else:
            self.failed += self.workload.failures(output, self.reference)
        self.attempted += output.ops
        output.result = None

    def attempt(self, **kwargs):
        """Run and check one pass; None if it raised, failing all it planned."""
        try:
            output = self.workload.run_pass(**kwargs)
        except Exception:  # noqa: BLE001 - a failure to count, not to stop on
            print(f"perfbench: a {self.workload.name} pass raised:", file=sys.stderr)
            traceback.print_exc()
            self.raised_passes += 1
            self.attempted += self.workload.planned_ops()
            self.failed += self.workload.planned_ops()
            return None
        self.check(output)
        return output


def workload_figures(workload, passes, attempted: int, failed: int):
    """The workload's own end-to-end figures: (value, unit, samples) by name.

    Each applies to one workload only (flows/s to ``fleet``, GA generation
    percentiles to ``search``), so they are printed in the run record
    rather than as ``BENCHMARK.json`` metrics, which every workload reports.
    Times are converted to reference seconds by their pass's ``factor``.
    """
    from perfbench.layers import percentile

    name, unit = workload.rate
    rates = [output.outcomes / (output.wall * output.factor) for output in passes]
    figures = {
        name: (statistics.median(rates), unit, len(passes)),
        "failed_frac": (failed / attempted, "ratio", attempted),
    }
    generation_ms = [
        ms * output.factor for output in passes for ms in output.extra.get("generation_ms", ())
    ]
    if generation_ms:
        samples = len(generation_ms)
        figures["ga_generation_ms_p50"] = (statistics.median(generation_ms), "ms", samples)
        figures["ga_generation_ms_p90"] = (percentile(generation_ms, 90), "ms", samples)
    return figures


def measure(workload, seconds: float):
    """Time set-ups and passes with tracing off.

    Every set-up and pass is converted to reference seconds by the
    :func:`~perfbench.speed.factor` of its own interval (in-process
    passes are calibrated just before and after it, set-ups and pooled
    passes by the probe during it); the record keeps the host seconds and
    the factors. The workers' memory is the largest the probe saw during
    a pass, so the interpreters that set-up starts to time imports are
    not counted. Returns (metrics, attempted, failed, samples, figures);
    metrics are values by name.
    """
    from perfbench import speed

    setups, setup_factors, passes, workers_kb = [], [], [], []
    verdicts = Verdicts(workload)
    busy = workload.busy_cpus()
    with speed.Probe(workload.workdir / "probe.txt") as probe:

        def timed(work, in_thread: bool):
            """Run ``work()``; returns its result, the interval's factor and
            host seconds, and the workers' peak KiB sampled in it."""
            loop = speed.calibrate() if in_thread else None
            start = probe.mark()
            result = work()
            end = probe.mark()
            if in_thread:
                loop = (loop + speed.calibrate()) / 2
            else:
                loop = probe.loop(start, end)
            return (
                result,
                speed.factor(start, end, busy, loop),
                end.clock - start.clock,
                probe.workers_kb(start, end),
            )

        def set_up() -> None:
            import_fresh(workload.modules)
            workload.setup()

        # A set-up lasts seconds and starts a fresh interpreter: samples
        # all through it follow its speed better than calibrations at its
        # ends. A pass that runs in-process is calibrated in this thread.
        for _ in range(SETUP_REPEATS):
            gc.collect()
            _, setup_factor, host, _ = timed(set_up, in_thread=False)
            setups.append(host)
            setup_factors.append(setup_factor)
        began = time.perf_counter()
        while (
            len(passes) + verdicts.raised_passes < MIN_PASSES
            or time.perf_counter() - began < seconds
        ):
            gc.collect()
            output, pass_factor, _, pass_kb = timed(
                lambda: verdicts.attempt(pooled=True), in_thread=busy == 1
            )
            workers_kb.append(pass_kb)
            if output is not None:
                output.factor = pass_factor
                passes.append(output)
    if not passes:
        raise RuntimeError(f"every {workload.name} pass raised")
    attempted, failed = verdicts.attempted, verdicts.failed
    metrics = {
        "setup_s": statistics.median(s * f for s, f in zip(setups, setup_factors)),
        "wall_s": statistics.median(output.wall * output.factor for output in passes),
        "trials_per_s": statistics.median(
            output.outcomes / (output.wall * output.factor) for output in passes
        ),
        "peak_rss_mb": peak_rss_mb(max(workers_kb)),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "trials_per_s": len(passes),
        "raised_passes": verdicts.raised_passes,
        "setup_host_seconds": setups,
        "setup_factors": setup_factors,
        "pass_host_seconds": [output.wall for output in passes],
        "pass_factors": [output.factor for output in passes],
        "pass_workers_kb": workers_kb,
        "probe_samples": len(probe.samples),
    }
    figures = workload_figures(workload, passes, attempted, failed)
    return metrics, attempted, failed, samples, figures


def measure_layers(workload, workload_name: str, seed: int, seconds: float):
    """Pooled, in-process and traced passes; returns (metrics, attempted, failed, samples).

    One untraced pooled pass gives the pool-level counters. Untraced and
    traced in-process passes then alternate until ``seconds`` have passed
    (at least one of each): the first traced pass's spans give the layer
    metrics, and the median walls of both kinds give the tracing overhead.
    Times here are host time, not converted by :mod:`perfbench.speed`.
    """
    from repro.packets import pool as packet_pool
    from repro.runtime import RunStats

    from perfbench.layers import layer_metrics
    from perfbench.spans import Tracer

    setup_tracer = Tracer()
    with setup_tracer.installed(only={"runtime.cache.store"}):
        workload.setup()
    verdicts = Verdicts(workload)
    pooled = workload.run_pass(pooled=True)
    verdicts.check(pooled)

    serial_passes, traced_passes = [], []
    tracer = batches = arena_delta = None
    active_flows = []
    began = time.perf_counter()
    while not traced_passes or time.perf_counter() - began < seconds:
        gc.collect()
        serial_passes.append(workload.run_pass(pooled=False))
        verdicts.check(serial_passes[-1])
        run_tracer, run_batches, samples = Tracer(), RunStats(), []
        with packet_pool.pooled() as arena:
            arena_before = (arena.created, arena.reused)
        gc.collect()
        with run_tracer.installed(on_batch=lambda executor: run_batches.merge(executor.last_stats)):
            traced = workload.run_pass(
                pooled=False,
                hooks={"on_flow_done": lambda world, _record: samples.append(world.active_flows)},
            )
        traced_passes.append(traced)
        verdicts.check(traced)
        if tracer is None:
            with packet_pool.pooled() as arena:
                fleet_created, fleet_reused = traced.extra.get("arena", (0, 0))
                arena_delta = (
                    arena.created - arena_before[0] + fleet_created,
                    arena.reused - arena_before[1] + fleet_reused,
                )
            tracer, batches, active_flows = run_tracer, run_batches, samples

    attempted, failed = verdicts.attempted, verdicts.failed

    summary = tracer.summary()
    metrics = layer_metrics(
        summary,
        tracer.returned,
        pooled,
        statistics.median(output.wall for output in serial_passes),
        statistics.median(output.wall for output in traced_passes),
        setup_tracer.summary(),
        batches,
        arena_delta,
        active_flows,
    )
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    span_file = traces / f"{workload_name}-seed{seed}.csv.gz"
    written = tracer.write(span_file)
    samples = {name: entry.calls for name, entry in summary.items()}
    samples.update(
        {
            "spans_written": written,
            "span_file": str(span_file.relative_to(ROOT)),
            "trace.overhead_frac": len(traced_passes),
            "untraced_seconds": [output.wall for output in serial_passes],
            "traced_seconds": [output.wall for output in traced_passes],
            "evolution.generation_ms": len(pooled.extra.get("generation_ms", [])),
            "fleet.active_flows": len(active_flows),
        }
    )
    return metrics, attempted, failed, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from repro import fastpath

    from perfbench.inputs import HELD_OUT_SEED, WORKLOADS, workload_inputs
    from perfbench.workloads import WORKLOAD_CLASSES

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    inputs = workload_inputs(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOAD_CLASSES[args.workload](inputs, nproc, workdir)
    try:
        if args.trace:
            metrics, attempted, failed, samples = measure_layers(
                workload, args.workload, args.seed, args.seconds
            )
            figures, units = {}, benchmark_units("per_layer")
        else:
            metrics, attempted, failed, samples, figures = measure(workload, args.seconds)
            units = benchmark_units("end_to_end")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fastpath": fastpath.enabled(),
        "inputs": inputs,
        "samples": samples,
        "end_to_end": {
            name: {"value": value, "unit": unit, "samples": count}
            for name, (value, unit, count) in figures.items()
        },
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
