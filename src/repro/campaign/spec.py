"""Declarative campaign descriptions: a grid of cells, expanded to shards.

A measurement *campaign* is what the paper actually ran for Tables 1–2:
thousands of trials per (country x protocol x strategy) cell, collected
over days. A :class:`CampaignSpec` captures such a run as plain JSON-able
data — a named list of :class:`CellSpec` grid cells plus sharding
parameters — and expands it **deterministically** into an ordered list of
:class:`~repro.runtime.TrialSpec` shards:

- cell order and per-cell trial order are exactly the listed order, so
  the expansion (and therefore every content hash) is a pure function of
  the spec;
- per-trial seeds derive from each cell's base seed via
  :func:`repro.runtime.trial_seed`, the same derivation ``success_rate``
  uses — a campaign cell reproduces the corresponding direct
  measurement bit-for-bit;
- shards are fixed-size chunks of the expansion, each content-addressed
  by a SHA-256 over the campaign hash, the shard index, and its trial
  spec hashes (see :func:`Shard.shard_hash`).

The content addresses are what make campaigns restartable: a completed
shard's result file is keyed by its hash, so a resumed run recognizes
and skips finished work *by construction* (see
:mod:`repro.campaign.ledger`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..censors.registry import COUNTRY_NAMES, PROTOCOLS
from ..runtime import TrialSpec, trial_seed
from ..runtime.cache import canonical_sha
from ..runtime.spec import SpecError, impairment_dict

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "CampaignTrial",
    "CellSpec",
    "DEFAULT_SHARD_SIZE",
    "Shard",
]

#: Default trials per shard. Small enough that a kill loses little work,
#: large enough that per-shard checkpoint I/O stays negligible.
DEFAULT_SHARD_SIZE = 50


class CampaignError(ValueError):
    """Raised when a campaign spec is malformed or cannot be expanded."""


def _strategy_dsl(value: Any) -> Optional[str]:
    """Canonical strategy DSL text for a cell's strategy field.

    Accepts ``None``/``0`` (no evasion), a paper strategy number (1-11,
    resolved to its deployed DSL), or a Geneva DSL string (validated by
    parsing it).
    """
    if value is None or value == 0:
        return None
    if isinstance(value, bool):
        raise CampaignError(f"bad strategy {value!r}")
    if isinstance(value, int):
        from ..core import SERVER_STRATEGIES, deployed_strategy

        if value not in SERVER_STRATEGIES:
            valid = f"{min(SERVER_STRATEGIES)}-{max(SERVER_STRATEGIES)}"
            raise CampaignError(
                f"unknown strategy number {value} (valid: {valid})"
            )
        return str(deployed_strategy(value))
    if isinstance(value, str):
        from ..core import Strategy

        try:
            Strategy.parse(value)
        except Exception as exc:
            raise CampaignError(f"unparseable strategy {value!r}: {exc}") from None
        return value
    raise CampaignError(f"bad strategy {value!r}")


@dataclass
class CellSpec:
    """One grid cell: a (country, protocol, strategy) point measured with
    ``trials`` independent seeded trials.

    Attributes:
        country: Censor country, or ``None`` for an uncensored path.
        protocol: Application protocol (``"http"``, ``"dns"``, ...).
        server_strategy: Canonical server-side strategy DSL, or ``None``.
        trials: Number of independent trials for this cell (>= 1).
        seed: Cell base seed; trial ``i`` runs with
            ``trial_seed(seed, i)``.
        client_strategy: Client-side strategy DSL, or ``None``.
        impairment: Canonical network-impairment dict, or ``None``.
        net_seed: Optional base seed for the impairment stream, fanned
            out per trial exactly like ``success_rate``'s ``net_seed``.
        options: Extra JSON-able :class:`~repro.eval.runner.Trial`
            keyword arguments (workloads, hop placement, ...).
        label: Optional human-readable name carried into reports.
    """

    country: Optional[str]
    protocol: str
    server_strategy: Optional[str] = None
    trials: int = 1
    seed: int = 0
    client_strategy: Optional[str] = None
    impairment: Optional[Dict[str, Any]] = None
    net_seed: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    @classmethod
    def build(
        cls,
        country: Optional[str],
        protocol: str,
        server_strategy: Any = None,
        trials: int = 1,
        seed: int = 0,
        client_strategy: Any = None,
        impairment: Any = None,
        net_seed: Optional[int] = None,
        options: Optional[Dict[str, Any]] = None,
        label: Optional[str] = None,
    ) -> "CellSpec":
        """Validate and canonicalize ``run_trial``-style cell arguments."""
        if country is not None and country not in COUNTRY_NAMES:
            raise CampaignError(
                f"unknown country {country!r} (valid: {', '.join(COUNTRY_NAMES)}, null)"
            )
        if protocol not in PROTOCOLS:
            raise CampaignError(
                f"unknown protocol {protocol!r} (valid: {', '.join(PROTOCOLS)})"
            )
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise CampaignError(f"cell trials must be a positive int, got {trials!r}")
        try:
            canonical_impairment = impairment_dict(impairment)
        except SpecError as exc:
            raise CampaignError(str(exc)) from None
        return cls(
            country=country,
            protocol=protocol,
            server_strategy=_strategy_dsl(server_strategy),
            trials=trials,
            seed=int(seed),
            client_strategy=_strategy_dsl(client_strategy),
            impairment=canonical_impairment,
            net_seed=None if net_seed is None else int(net_seed),
            options=dict(options or {}),
            label=label,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellSpec":
        """Build a cell from its JSON form (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise CampaignError(f"cell must be an object, got {data!r}")
        known = {
            "country", "protocol", "server_strategy", "trials", "seed",
            "client_strategy", "impairment", "net_seed", "options", "label",
        }
        unknown = set(data) - known
        if unknown:
            raise CampaignError(f"unknown cell keys: {', '.join(sorted(unknown))}")
        if "protocol" not in data:
            raise CampaignError("cell is missing required key 'protocol'")
        return cls.build(
            country=data.get("country"),
            protocol=data["protocol"],
            server_strategy=data.get("server_strategy"),
            trials=data.get("trials", 1),
            seed=data.get("seed", 0),
            client_strategy=data.get("client_strategy"),
            impairment=data.get("impairment"),
            net_seed=data.get("net_seed"),
            options=data.get("options"),
            label=data.get("label"),
        )

    def as_dict(self) -> Dict[str, Any]:
        """Canonical minimal JSON form (``None``/empty fields omitted)."""
        out: Dict[str, Any] = {
            "country": self.country,
            "protocol": self.protocol,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.server_strategy is not None:
            out["server_strategy"] = self.server_strategy
        if self.client_strategy is not None:
            out["client_strategy"] = self.client_strategy
        if self.impairment is not None:
            out["impairment"] = self.impairment
        if self.net_seed is not None:
            out["net_seed"] = self.net_seed
        if self.options:
            out["options"] = self.options
        if self.label is not None:
            out["label"] = self.label
        return out

    def trial_specs(self) -> List[TrialSpec]:
        """Expand this cell into its ``trials`` ordered trial specs."""
        specs: List[TrialSpec] = []
        for index in range(self.trials):
            extra = dict(self.options)
            if self.net_seed is not None:
                extra["net_seed"] = trial_seed(self.net_seed, index)
            try:
                specs.append(
                    TrialSpec.build(
                        self.country,
                        self.protocol,
                        self.server_strategy,
                        seed=trial_seed(self.seed, index),
                        client_strategy=self.client_strategy,
                        impairment=self.impairment,
                        **extra,
                    )
                )
            except SpecError as exc:
                raise CampaignError(f"cell cannot be expanded: {exc}") from None
        return specs


@dataclass(frozen=True)
class CampaignTrial:
    """One expanded trial: its global index, owning cell, and spec."""

    index: int
    cell_index: int
    spec: TrialSpec


@dataclass(frozen=True)
class Shard:
    """A fixed-size chunk of a campaign's trial expansion.

    The shard hash covers the campaign hash, the shard index, and every
    member trial's spec hash, so it changes whenever the spec, the
    sharding, or any contained trial does — which is exactly the
    invariant resume safety rests on.
    """

    index: int
    campaign_hash: str
    trials: Tuple[CampaignTrial, ...]

    @property
    def spec_hashes(self) -> List[str]:
        """Content hashes of the member trial specs, in order."""
        return [trial.spec.spec_hash() for trial in self.trials]

    @property
    def shard_hash(self) -> str:
        """Content address of this shard (SHA-256, hex)."""
        return canonical_sha(
            {
                "campaign": self.campaign_hash,
                "index": self.index,
                "specs": self.spec_hashes,
            }
        )


@dataclass
class CampaignSpec:
    """A whole measurement campaign as declarative, hashable data.

    Attributes:
        name: Campaign name (reports, ledger metadata).
        cells: Ordered grid cells (see :class:`CellSpec`).
        shard_size: Trials per shard (the checkpoint granularity).
        description: Optional free-text description.
    """

    name: str
    cells: List[CellSpec] = field(default_factory=list)
    shard_size: int = DEFAULT_SHARD_SIZE
    description: str = ""

    def __post_init__(self) -> None:
        """Validate campaign-level invariants."""
        if not self.name or not isinstance(self.name, str):
            raise CampaignError("campaign needs a non-empty string name")
        if not isinstance(self.shard_size, int) or self.shard_size < 1:
            raise CampaignError(
                f"shard_size must be a positive int, got {self.shard_size!r}"
            )

    # ------------------------------------------------------------------
    # Construction / serialization

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Build a campaign from its JSON form."""
        if not isinstance(data, dict):
            raise CampaignError(f"campaign spec must be an object, got {data!r}")
        unknown = set(data) - {"name", "cells", "shard_size", "description"}
        if unknown:
            raise CampaignError(
                f"unknown campaign keys: {', '.join(sorted(unknown))}"
            )
        cells_data = data.get("cells", [])
        if not isinstance(cells_data, list) or not cells_data:
            raise CampaignError("campaign needs a non-empty 'cells' list")
        return cls(
            name=data.get("name", ""),
            cells=[CellSpec.from_dict(cell) for cell in cells_data],
            shard_size=data.get("shard_size", DEFAULT_SHARD_SIZE),
            description=data.get("description", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a campaign from JSON text."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CampaignError(f"invalid campaign JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a campaign spec from a JSON file."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CampaignError(f"cannot read campaign spec {path}: {exc}") from None
        return cls.from_json(text)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (the campaign hash is taken over this)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "shard_size": self.shard_size,
            "cells": [cell.as_dict() for cell in self.cells],
        }
        if self.description:
            out["description"] = self.description
        return out

    def canonical_key(self) -> str:
        """Deterministic string form: sorted-key compact JSON."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def campaign_hash(self) -> str:
        """Content address of this campaign (SHA-256 of the canonical key)."""
        return canonical_sha(self.as_dict())

    # ------------------------------------------------------------------
    # Expansion

    @property
    def total_trials(self) -> int:
        """Number of trials the campaign expands into."""
        return sum(cell.trials for cell in self.cells)

    def expand(self) -> List[CampaignTrial]:
        """Deterministic full expansion: cells in order, trials in order."""
        trials: List[CampaignTrial] = []
        for cell_index, cell in enumerate(self.cells):
            for spec in cell.trial_specs():
                trials.append(CampaignTrial(len(trials), cell_index, spec))
        return trials

    def shards(self) -> List[Shard]:
        """Chunk the expansion into content-addressed fixed-size shards."""
        digest = self.campaign_hash()
        expansion = self.expand()
        out: List[Shard] = []
        for start in range(0, len(expansion), self.shard_size):
            chunk = tuple(expansion[start : start + self.shard_size])
            out.append(Shard(len(out), digest, chunk))
        return out

    def select_shards(
        self, shards: Sequence[Shard], shard_index: int, shard_count: int
    ) -> List[Shard]:
        """The subset of ``shards`` machine ``shard_index`` of
        ``shard_count`` is responsible for (round-robin striping).

        ``shard_index`` is 1-based, matching the CLI's ``--shard I/N``.
        """
        if shard_count < 1 or not 1 <= shard_index <= shard_count:
            raise CampaignError(
                f"bad shard selector {shard_index}/{shard_count}: "
                "need 1 <= I <= N"
            )
        return [s for s in shards if s.index % shard_count == shard_index - 1]
