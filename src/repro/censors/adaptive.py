"""Adaptive censors: every censor model as an evolvable parameter vector.

The paper evaluates server-side strategies against *static* censor
models. Real censors retrain: the GFW patched the simultaneous-open bugs,
South Korea's SNIC grew reassembly, Russia's TSPU lengthened its flow
tracking. This module makes that escalation expressible by collapsing
each censor model's behavioural knobs into a :class:`CensorGenome` — a
picklable, JSON-able bag of bounded parameters with mutation and
crossover operators — and a :func:`build_censor` factory that turns a
genome back into a live censor box.

Design constraints, in priority order:

- **Baseline fidelity.** ``CensorGenome.baseline(country)`` is the
  paper's calibration: every default parameter value reproduces it
  exactly, including RNG draw sequences. There is one factory
  (:meth:`repro.censors.registry.CountryProfile.build`); ``make_censor``
  with no parameters builds this baseline through it.
- **Canonical form.** Genomes serialize to sorted compact JSON
  (:meth:`CensorGenome.canonical_key`), with floats rounded at
  construction time, so equal behaviours always hash equally — the
  co-evolution engine keys its pair memo and the trial cache on this.
- **Spec transparency.** A genome's ``params`` dict rides through
  :class:`repro.runtime.TrialSpec` options (``censor_params=...``)
  unchanged, so adaptive censors work with worker pools, the
  content-addressed result cache, and campaign shards with no runtime
  changes.

The per-country parameter menus (which knobs, their bounds and the
calibrated defaults) are each :class:`~repro.censors.registry.CountryProfile`'s
``param_specs``, viewed here as :data:`CENSOR_PARAM_SPECS`.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .base import Censor
from .registry import COUNTRIES, COUNTRY_NAMES, ParamSpec, country_profile

__all__ = [
    "ADAPTIVE_COUNTRIES",
    "CENSOR_PARAM_SPECS",
    "CensorGenome",
    "ParamSpec",
    "axis_probe_genomes",
    "build_censor",
    "seeded_censor_population",
]

#: Evolvable parameters per country, in canonical (sorted-name) order.
CENSOR_PARAM_SPECS: Dict[str, Tuple[ParamSpec, ...]] = {
    profile.name: profile.param_specs for profile in COUNTRIES
}

#: Countries with an adaptive parameterization (every censored country).
ADAPTIVE_COUNTRIES: Tuple[str, ...] = tuple(sorted(COUNTRY_NAMES))


@dataclasses.dataclass
class CensorGenome:
    """One censor configuration as an evolvable, picklable genome.

    Attributes:
        country: Which censor model the parameters configure.
        params: Complete parameter map (every :class:`ParamSpec` for the
            country is present; values are clamped and canonically
            rounded at construction).
    """

    country: str
    params: Dict[str, Union[float, int, bool]] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self.params = country_profile(self.country).normalise(self.params)

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def baseline(cls, country: str) -> "CensorGenome":
        """The calibrated paper configuration for ``country``."""
        return cls(country, {})

    @classmethod
    def from_dict(cls, data: Mapping) -> "CensorGenome":
        """Rebuild a genome from its :meth:`as_dict` form."""
        return cls(data["country"], dict(data.get("params", {})))

    def as_dict(self) -> Dict[str, object]:
        """Plain JSON-able form (round-trips through :meth:`from_dict`)."""
        return {"country": self.country, "params": dict(self.params)}

    # ------------------------------------------------------------------
    # Canonical form

    def canonical_key(self) -> str:
        """Deterministic string form: sorted-key compact JSON."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def is_baseline(self) -> bool:
        """Whether every parameter sits at its calibrated default."""
        return self.params == country_profile(self.country).defaults

    # ------------------------------------------------------------------
    # Evolutionary operators

    def mutate(self, rng: random.Random, operations: int = 1) -> "CensorGenome":
        """A mutated copy: ``operations`` single-parameter perturbations."""
        specs = country_profile(self.country).spec_map
        names = sorted(specs)
        params = dict(self.params)
        for _ in range(max(1, operations)):
            name = rng.choice(names)
            params[name] = specs[name].perturb(params[name], rng)
        return CensorGenome(self.country, params)

    def crossover(self, other: "CensorGenome", rng: random.Random) -> "CensorGenome":
        """A uniform-crossover child of ``self`` and ``other``."""
        if other.country != self.country:
            raise ValueError(
                f"cannot cross {self.country!r} with {other.country!r}"
            )
        params = {
            name: (self.params[name] if rng.random() < 0.5 else other.params[name])
            for name in sorted(self.params)
        }
        return CensorGenome(self.country, params)

    def build(self, rng: Optional[random.Random] = None) -> Censor:
        """Instantiate the live censor this genome describes."""
        return build_censor(self.country, self.params, rng)


def build_censor(
    country: str,
    params: Optional[Mapping[str, Union[float, int, bool]]] = None,
    rng: Optional[random.Random] = None,
) -> Censor:
    """Build the live censor for ``country`` configured by ``params``.

    The one censor factory, :meth:`CountryProfile.build
    <repro.censors.registry.CountryProfile.build>`, which ``make_censor``
    also calls (``params`` may be partial; ``None`` is the baseline).
    """
    return country_profile(country).build(params, rng)


def axis_probe_genomes(country: str) -> List[CensorGenome]:
    """One genome per parameter extreme, in deterministic order.

    For every parameter (sorted by name) this yields the baseline genome
    with that single parameter pushed to its low then its high bound
    (booleans: flipped once), skipping probes identical to the baseline.
    Seeding a censor population with these axis-aligned extremes lets a
    short co-evolution run discover decisive single-knob escalations —
    e.g. ``resync_scale=0`` disabling the GFW's resynchronization rules —
    that a Gaussian mutation walk would take many generations to reach.
    """
    base = CensorGenome.baseline(country)
    probes: List[CensorGenome] = []
    for name, spec in sorted(country_profile(country).spec_map.items()):
        if spec.kind == "bool":
            extremes: Tuple[object, ...] = (not spec.default,)
        else:
            extremes = (spec.lo, spec.hi)
        for value in extremes:
            clamped = spec.clamp(value)
            if clamped == base.params[name]:
                continue
            probes.append(
                CensorGenome(country, {**base.params, name: clamped})
            )
    return probes


def seeded_censor_population(
    country: str, size: int, rng: random.Random
) -> List[CensorGenome]:
    """Baseline, then axis-extreme probes, then single-mutation variants.

    The first genome is always the calibrated baseline; the next slots
    are :func:`axis_probe_genomes` extremes (truncated to fit); any
    remaining slots are filled with random single mutations of the
    baseline drawn from ``rng``.
    """
    base = CensorGenome.baseline(country)
    population = [base] + axis_probe_genomes(country)
    population = population[:size]
    while len(population) < size:
        population.append(base.mutate(rng))
    return population
