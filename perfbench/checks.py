"""Output checks: which operations of a workload pass produced a wrong result.

Each function returns the failing operations (indices, or a count), so a
pass's ``failed`` is a count of operations, never a single flag. An
operation fails if it raised or if it fails its workload's check:

- ``table2``: a cell (within the paper tolerance, identical across passes);
- ``search``: a GA generation or co-evolution epoch (result JSON identical
  across passes and between pooled and in-process runs);
- ``fleet``: a flow (its record byte-identical across runs);
- ``campaign_warm``: a shard (nothing executed, ledger output identical).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

#: Allowed |measured - paper| in percentage points, as in the Table 2
#: reproduction test: China's censor is probabilistic, the others are not.
CHINA_TOLERANCE = 15
OTHER_TOLERANCE = 5


def cell_key(cell: Any) -> tuple:
    """A Table 2 cell's identity and exact measured rate."""
    return (cell.country, cell.strategy_number, cell.protocol, cell.measured)


def table2_failures(cells: Sequence[Any], reference: Optional[Sequence[tuple]] = None) -> List[int]:
    """Indices of cells off the paper by more than the tolerance, or whose
    identity or rate differs from ``reference`` (a list of :func:`cell_key`)."""
    failed = []
    for index, cell in enumerate(cells):
        limit = CHINA_TOLERANCE if cell.country == "china" else OTHER_TOLERANCE
        off_paper = cell.paper is not None and abs(cell.measured_pct - cell.paper) > limit
        drifted = reference is not None and (
            index >= len(reference) or cell_key(cell) != reference[index]
        )
        if off_paper or drifted:
            failed.append(index)
    if reference is not None and len(cells) < len(reference):
        failed.extend(range(len(cells), len(reference)))
    return failed


def record_text(record: Dict[str, Any]) -> str:
    """Canonical bytes of one fleet flow record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def fleet_failures(
    records: Sequence[Dict[str, Any]],
    clients: int,
    reference: Optional[Sequence[str]] = None,
) -> List[int]:
    """Flow indices with no record, a duplicate record, or a record whose
    canonical bytes differ from ``reference`` (a list of :func:`record_text`)."""
    by_flow: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        by_flow.setdefault(record["flow"], []).append(record)
    failed = []
    for flow in range(clients):
        found = by_flow.get(flow, [])
        if len(found) != 1:
            failed.append(flow)
        elif reference is not None and record_text(found[0]) != reference[flow]:
            failed.append(flow)
    return failed


def text_failures(texts: Sequence[str], reference: Sequence[str], ops: Sequence[int]) -> int:
    """Operations lost to mismatching result texts: ``ops[i]`` per mismatch."""
    failed = 0
    for index, ops_here in enumerate(ops):
        if index >= len(texts) or index >= len(reference) or texts[index] != reference[index]:
            failed += ops_here
    return failed


def campaign_failures(
    shard_executed: Sequence[int],
    outputs: Dict[str, Any],
    reference: Dict[str, Any],
) -> List[int]:
    """Shard indices of a cache-warm rerun that executed trials, or every
    shard when the rerun's ledger output differs from the reference.

    ``outputs`` holds the rerun's ``results`` (``results.jsonl`` bytes),
    ``cells`` (``report.json`` cells) and ``report`` (``report.json``
    bytes). ``reference`` holds the prefill ledger's ``results`` and
    ``cells``, and optionally the ``report`` bytes of an earlier warm
    rerun. The prefill report's metrics record the executed/cached split,
    which a warm rerun changes by design, so whole-report bytes are
    compared between warm reruns only.
    """
    same = outputs["results"] == reference["results"] and outputs["cells"] == reference["cells"]
    if reference.get("report") is not None:
        same = same and outputs["report"] == reference["report"]
    if not same:
        return list(range(len(shard_executed)))
    return [index for index, executed in enumerate(shard_executed) if executed != 0]
