"""Table 2 regeneration: success rates of all strategies, all countries.

Runs every (country, protocol, strategy) cell of Table 2 with ``trials``
independent seeded trials and reports measured success percentages next
to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..censors.registry import select_countries
from ..core import SERVER_STRATEGIES, deployed_strategy
from .reference import CHINA_PROTOCOLS, TABLE2_OTHER, paper_rate
from .runner import success_rate

__all__ = ["Table2Cell", "generate_table2", "format_table2", "CHINA_STRATEGY_NUMBERS"]

#: Strategy numbers evaluated against China (Table 2's China block).
CHINA_STRATEGY_NUMBERS = (0, 1, 2, 3, 4, 5, 6, 7, 8)

#: Other-country cells (country, strategy number, protocol), from Table 2.
OTHER_CELLS: Tuple[Tuple[str, int, str], ...] = tuple(sorted(TABLE2_OTHER))


@dataclass
class Table2Cell:
    """One measured cell of Table 2."""

    country: str
    strategy_number: int
    protocol: str
    measured: float
    paper: Optional[int]

    @property
    def measured_pct(self) -> int:
        """Measured success rate as a rounded percentage."""
        return round(self.measured * 100)

    @property
    def delta(self) -> Optional[int]:
        """Measured minus paper, in percentage points."""
        if self.paper is None:
            return None
        return self.measured_pct - self.paper


def _strategy_for(number: int):
    return None if number == 0 else deployed_strategy(number)


def generate_table2(
    trials: int = 150,
    seed: int = 0,
    countries: Optional[List[str]] = None,
    china_protocols: Tuple[str, ...] = CHINA_PROTOCOLS,
    workers: int = 1,
    cache=None,
    executor=None,
) -> List[Table2Cell]:
    """Measure every Table 2 cell; returns cells in table order.

    One :class:`~repro.runtime.TrialExecutor` is shared across all cells
    so the result cache and run counters span the whole table
    (``workers``/``cache``/``executor`` as in
    :func:`~repro.eval.runner.success_rate`). ``countries`` defaults to
    every country with a Table 2 block; any other name raises
    ``ValueError``.
    """
    from ..runtime import TrialExecutor

    wanted = select_countries(countries, "table2")
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    cells: List[Table2Cell] = []
    if "china" in wanted:
        for number in CHINA_STRATEGY_NUMBERS:
            for protocol in china_protocols:
                rate = success_rate(
                    "china",
                    protocol,
                    _strategy_for(number),
                    trials=trials,
                    seed=seed + number * 1_000_003,
                    executor=executor,
                )
                cells.append(
                    Table2Cell("china", number, protocol, rate, paper_rate("china", number, protocol))
                )
    for country, number, protocol in OTHER_CELLS:
        if country not in wanted:
            continue
        rate = success_rate(
            country,
            protocol,
            _strategy_for(number),
            trials=max(10, trials // 5),  # deterministic censors need few trials
            seed=seed + number * 31,
            executor=executor,
        )
        cells.append(
            Table2Cell(country, number, protocol, rate, paper_rate(country, number, protocol))
        )
    return cells


def format_table2(cells: List[Table2Cell]) -> str:
    """Render measured-vs-paper cells as the paper's Table 2 layout."""
    lines = ["Table 2 — server-side strategy success rates (measured% / paper%)"]
    china = [c for c in cells if c.country == "china"]
    if china:
        protocols = sorted({c.protocol for c in china}, key=CHINA_PROTOCOLS.index)
        header = "  ".join(f"{p.upper():>12}" for p in protocols)
        lines.append(f"{'China':<32}{header}")
        numbers = sorted({c.strategy_number for c in china})
        by_key: Dict[Tuple[int, str], Table2Cell] = {
            (c.strategy_number, c.protocol): c for c in china
        }
        for number in numbers:
            name = (
                "No evasion"
                if number == 0
                else SERVER_STRATEGIES[number].name
            )
            row = []
            for protocol in protocols:
                cell = by_key[(number, protocol)]
                row.append(f"{cell.measured_pct:>4}/{cell.paper if cell.paper is not None else '--':>3}    ")
            lines.append(f"{number:>2} {name:<29}" + "  ".join(row))
    for country in dict.fromkeys(country for country, _, _ in OTHER_CELLS):
        rows = [c for c in cells if c.country == country]
        if not rows:
            continue
        lines.append(country.capitalize())
        for cell in rows:
            name = (
                "No evasion"
                if cell.strategy_number == 0
                else SERVER_STRATEGIES[cell.strategy_number].name
            )
            lines.append(
                f"{cell.strategy_number:>2} {name:<29}{cell.protocol:>6}: "
                f"{cell.measured_pct}/{cell.paper}"
            )
    return "\n".join(lines)
