"""SNI-era evaluation matrix: record-level strategies vs SNI censors.

The Table-2-style grid for the post-paper boxes in
:mod:`repro.censors.sni` — every country in :data:`SNI_COUNTRIES` against
every column in :data:`SNI_COLUMNS`:

- ``baseline`` — no evasion (both boxes must block it);
- ``12``–``15`` — the record-level server-side strategies
  (:mod:`repro.strategies.tlsrecord`);
- ``esni`` — the same censored name carried in an encrypted SNI
  extension, no strategy installed (the ECH/ESNI-tolerant serving path:
  South Korea's box finds no plaintext SNI and passes; Russia's strict
  box drops the SNI-less hello on sight).

The expected shape: South Korea blocked only at baseline; Russia blocked
everywhere except deep connection migration (#15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..censors.registry import censored_workload, select_countries
from ..core import SERVER_STRATEGIES, deployed_strategy
from .runner import success_rate

__all__ = [
    "SNI_COUNTRIES",
    "SNI_COLUMNS",
    "SNIMatrixCell",
    "esni_workload",
    "sni_matrix",
    "format_sni_matrix",
]

#: Countries with SNI-filtering censor models, in table order.
SNI_COUNTRIES: Tuple[str, ...] = select_countries(block="sni")

#: Matrix columns: baseline, each SNI-era strategy number, ESNI serving.
SNI_COLUMNS: Tuple[str, ...] = ("baseline", "12", "13", "14", "15", "esni")

_PROTOCOL = "https"


def esni_workload(country: str) -> dict:
    """The country's censored HTTPS workload, with the SNI encrypted."""
    workload = censored_workload(country, _PROTOCOL)
    workload["encrypted_sni"] = True
    return workload


@dataclass
class SNIMatrixCell:
    """One measured cell of the SNI matrix."""

    country: str
    column: str
    measured: float

    @property
    def measured_pct(self) -> int:
        return round(self.measured * 100)


def _column_args(country: str, column: str) -> dict:
    """success_rate arguments for one cell (strategy and/or workload)."""
    if column == "baseline":
        return {"strategy": None}
    if column == "esni":
        return {"strategy": None, "workload": esni_workload(country)}
    return {"strategy": deployed_strategy(int(column))}


def sni_matrix(
    trials: int = 30,
    seed: int = 0,
    countries: Optional[List[str]] = None,
    workers: int = 1,
    cache=None,
    executor=None,
) -> List[SNIMatrixCell]:
    """Measure every cell of the SNI matrix; returns cells in table order.

    One executor spans the whole grid (``workers``/``cache``/``executor``
    as in :func:`~repro.eval.runner.success_rate`), so the grid is
    byte-identical across worker counts. ``countries`` defaults to every
    SNI country; any other name raises ``ValueError``.
    """
    from ..runtime import TrialExecutor

    wanted = select_countries(countries, "sni")
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    cells: List[SNIMatrixCell] = []
    for country in SNI_COUNTRIES:
        if country not in wanted:
            continue
        for index, column in enumerate(SNI_COLUMNS):
            args = _column_args(country, column)
            strategy = args.pop("strategy")
            rate = success_rate(
                country,
                _PROTOCOL,
                strategy,
                trials=trials,
                seed=seed + index * 1_000_003,
                executor=executor,
                **args,
            )
            cells.append(SNIMatrixCell(country, column, rate))
    return cells


def _column_label(column: str) -> str:
    if column == "baseline":
        return "No evasion"
    if column == "esni":
        return "Encrypted SNI (no strategy)"
    return SERVER_STRATEGIES[int(column)].name


def format_sni_matrix(cells: List[SNIMatrixCell]) -> str:
    """Render the grid: countries across, strategies down (success %)."""
    by_key: Dict[Tuple[str, str], SNIMatrixCell] = {
        (c.country, c.column): c for c in cells
    }
    countries = [c for c in SNI_COUNTRIES if any(k[0] == c for k in by_key)]
    lines = ["SNI-era matrix — success rates (%) against TLS-metadata censors"]
    header = "".join(f"{c:>12}" for c in countries)
    lines.append(f"{'Strategy':<32}{header}")
    for column in SNI_COLUMNS:
        row = [f"{_column_label(column):<32}"]
        present = False
        for country in countries:
            cell = by_key.get((country, column))
            if cell is None:
                row.append(f"{'--':>12}")
            else:
                row.append(f"{cell.measured_pct:>12}")
                present = True
        if present:
            lines.append("".join(row))
    return "\n".join(lines)
