"""Spans around calls into the program's layers, recorded from outside.

:class:`Tracer` replaces a public method of a program class with a thin
wrapper that records one span per call: name, start, end, the span that
was open when it started (its parent), and the trial or flow it belongs
to. Nothing under ``src/`` changes, and :meth:`Tracer.restore` puts every
original back. Spans stay in memory as flat arrays and are written out
once, at the end (:meth:`Tracer.write`).

Censor spans wrap each censor *subclass*'s ``process``, never the base
``Middlebox``: the network coalesces hops through plain ``Middlebox``
instances by exact type, so the traced walk stays the untraced walk.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, class, method). Several entries may share a span
#: name; the layer metric then covers all of them.
LAYER_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("eval.build", "repro.eval.runner", "Trial", "__init__"),
    ("eval.simulate", "repro.eval.runner", "Trial", "run"),
    ("netsim.run", "repro.netsim.network", "Network", "run"),
    ("netsim.fleet_run", "repro.netsim.flows", "FlowScheduler", "run"),
    ("censors.gfw", "repro.censors.gfw.gfw", "GreatFirewall", "process"),
    ("censors.sni", "repro.censors.sni", "SNICensor", "process"),
    ("censors.dpi", "repro.censors.india", "AirtelCensor", "process"),
    ("censors.dpi", "repro.censors.iran", "IranCensor", "process"),
    ("censors.dpi", "repro.censors.kazakhstan", "KazakhstanCensor", "process"),
    ("tcpstack.receive", "repro.tcpstack.host", "Host", "receive"),
    ("core.engine", "repro.core.engine", "StrategyEngine", "outbound_filter"),
    ("core.engine", "repro.core.engine", "StrategyEngine", "inbound_filter"),
    ("core.engine", "repro.deploy.selector", "PerClientEngine", "outbound_filter"),
    ("core.engine", "repro.deploy.selector", "PerClientEngine", "inbound_filter"),
    ("core.dsl.canonical", "repro.core.dsl.parser", "Strategy", "canonical_key"),
    ("evolution.evaluate", "repro.core.evolution.fitness", "CensorTrialEvaluator", "evaluate"),
    ("evolution.evaluate", "repro.core.evolution.coevolve", "PairEvaluator", "prefetch"),
    ("evolution.step", "repro.core.evolution.ga", "GeneticAlgorithm", "step"),
    ("runtime.executor.batch", "repro.runtime.executor", "TrialExecutor", "run_batch"),
    ("runtime.cache.lookup", "repro.runtime.cache", "ResultCache", "lookup"),
    ("runtime.cache.store", "repro.runtime.cache", "ResultCache", "store"),
    ("campaign.ledger.store_shard", "repro.campaign.ledger", "CampaignLedger", "store_shard"),
    ("campaign.ledger.journal", "repro.campaign.ledger", "CampaignLedger", "journal"),
    ("fleet.world", "repro.fleet.world", "FleetWorld", "__init__"),
    ("fleet.world", "repro.fleet.world", "FleetWorld", "run"),
)

#: Spans whose wrapped call returns a count of work done (events run).
_RETURNS_COUNT = {"netsim.run", "netsim.fleet_run"}


@dataclass
class SpanSummary:
    """Aggregate of every span with one name."""

    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    out = [e - s for s, e in zip(start, end)]
    children = sorted(
        (p, s, e) for p, s, e in zip(parent, start, end) if p >= 0
    )
    i = 0
    while i < len(children):
        owner = children[i][0]
        low, high = start[owner], end[owner]
        covered = 0
        run_start = run_end = None
        while i < len(children) and children[i][0] == owner:
            s = max(children[i][1], low)
            e = min(children[i][2], high)
            i += 1
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            elif e > run_end:
                run_end = e
        if run_end is not None:
            covered += run_end - run_start
        out[owner] -= covered
    return out


class Tracer:
    """In-memory span recorder that wraps program methods from outside."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("q")
        self._stack: List[int] = []
        #: Id of the trial being built or run (a new one per ``Trial``).
        self.trial = -1
        #: The flow scheduler being drained, whose current flow is the op.
        self.flows: Optional[Any] = None
        #: Work counts returned by wrapped calls (events run), per span name.
        self.returned: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _op_id(self) -> int:
        flows = self.flows
        if flows is not None:
            current = flows.current
            return current.index if current is not None else -1
        return self.trial

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``after(args, result)`` runs when the call returns, inside the span.
        """
        name_id = self._name_id(name)
        kind, start, end, parent, op = self.kind, self.start, self.end, self.parent, self.op
        stack = self._stack
        op_id = self._op_id

        def traced(*args, **kwargs):
            index = len(kind)
            kind.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(op_id())
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end[index] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with a traced wrapper."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__}.{attr} is inherited; trace the defining class")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Layer wiring

    def _counter(self, name: str) -> Callable:
        returned = self.returned
        returned.setdefault(name, 0)

        def count(_args, result) -> None:
            returned[name] += result

        return count

    def _patch_trial_build(self, owner: Any, attr: str, name: str) -> None:
        """Trial construction opens a new op id before its span starts."""
        self.patch(owner, attr, name)
        traced = getattr(owner, attr)

        def build(*args, **kwargs):
            self.trial += 1
            return traced(*args, **kwargs)

        setattr(owner, attr, build)

    def _patch_flow_run(self, owner: Any, attr: str, name: str, after: Callable) -> None:
        """While a flow scheduler drains, spans belong to its current flow."""
        self.patch(owner, attr, name, after)
        traced = getattr(owner, attr)

        def run(scheduler, *args, **kwargs):
            previous, self.flows = self.flows, scheduler
            try:
                return traced(scheduler, *args, **kwargs)
            finally:
                self.flows = previous

        setattr(owner, attr, run)

    @contextlib.contextmanager
    def installed(self, only: Optional[Iterable[str]] = None, on_batch: Optional[Callable] = None):
        """Wrap every :data:`LAYER_SPANS` entry (or those named in ``only``)
        for the ``with`` block, then restore the originals.

        ``on_batch(executor)`` is called after each ``run_batch`` returns,
        so callers can read the executor's public ``last_stats``.
        """
        wanted = set(only) if only is not None else None
        try:
            for name, module_name, class_name, attr in LAYER_SPANS:
                if wanted is not None and name not in wanted:
                    continue
                owner = getattr(importlib.import_module(module_name), class_name)
                after = self._counter(name) if name in _RETURNS_COUNT else None
                if name == "runtime.executor.batch" and on_batch is not None:
                    after = lambda args, _result, hook=on_batch: hook(args[0])  # noqa: E731
                if name == "eval.build":
                    self._patch_trial_build(owner, attr, name)
                elif name == "netsim.fleet_run":
                    self._patch_flow_run(owner, attr, name, after)
                else:
                    self.patch(owner, attr, name, after)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Results

    def summary(self) -> Dict[str, SpanSummary]:
        """Calls, inclusive and self nanoseconds for every span name."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {name: SpanSummary() for name in self.names}
        for index, name_id in enumerate(self.kind):
            entry = out[self.names[name_id]]
            entry.calls += 1
            entry.inclusive_ns += self.end[index] - self.start[index]
            entry.self_ns += selfs[index]
        return out

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        origin = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start_ns,end_ns,parent,op\n")
            names = self.names
            for index, name_id in enumerate(self.kind):
                handle.write(
                    f"{names[name_id]},{self.start[index] - origin},"
                    f"{self.end[index] - origin},{self.parent[index]},{self.op[index]}\n"
                )
        return len(self.kind)
