"""Global switch for the cold-path performance fast path.

The fast path bundles several independently-correct optimizations —
inert-hop coalescing in the network walk, trace-free trials, the packet
arena, the strategy parse cache, and one trial world per executor shard
(re-armed per seed) — behind one switch so that:

- the differential equivalence suite can run the *same* trial with the
  fast path on and off and assert bit-identical behaviour;
- a suspected fast-path bug in the field can be ruled out instantly with
  ``REPRO_FASTPATH=0`` and zero code changes.

The switch is process-wide and read at trial *construction* time, so
toggling it mid-trial has no effect on an already-built network.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = ["enabled", "set_enabled", "disabled"]

_ENABLED = os.environ.get("REPRO_FASTPATH", "1") != "0"


def enabled() -> bool:
    """Whether the cold-path fast path is on (default: yes)."""
    return _ENABLED


def set_enabled(on: bool) -> None:
    """Turn the fast path on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(on)


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with the fast path off (restores the prior state)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
