"""The country registry: cross-table invariants and loud unknown countries.

Every country-keyed table in the code base is a view of
:data:`repro.censors.registry.COUNTRIES`, so the checks below are the
ones a new :class:`CountryProfile` has to satisfy; the rest hold by
construction.
"""

import ipaddress
import random

import pytest

from repro.censors import Censor, CensorGenome, build_censor
from repro.censors.registry import (
    COUNTRIES,
    COUNTRY_NAMES,
    PROTOCOLS,
    country_profile,
    select_countries,
    workload_for,
)
from repro.core import SERVER_STRATEGIES
from repro.deploy import RECOMMENDED_STRATEGIES
from repro.eval import COUNTRY_PROTOCOLS
from repro.eval.reference import TABLE1_MATRIX, TABLE2_CHINA, TABLE2_OTHER
from repro.eval.runner import make_censor
from repro.fleet import COUNTRY_PREFIXES, DEFAULT_MIX


class TestRegistryInvariants:
    def test_table_order(self):
        assert COUNTRY_NAMES == (
            "china", "india", "iran", "kazakhstan", "southkorea", "russia",
        )
        assert list(COUNTRY_PROTOCOLS) == list(COUNTRY_NAMES)
        assert list(TABLE1_MATRIX) == list(COUNTRY_NAMES)

    @pytest.mark.parametrize("profile", COUNTRIES, ids=COUNTRY_NAMES)
    def test_every_protocol_has_workload_and_strategy(self, profile):
        assert profile.protocols
        assert profile.vantage_points
        for protocol, case in profile.censored.items():
            assert protocol in PROTOCOLS
            assert case.workload, (profile.name, protocol)
            assert case.workload.keys() == PROTOCOLS[protocol].benign.keys()
            assert case.strategy in SERVER_STRATEGIES, (profile.name, protocol)
        assert profile.robustness in profile.censored
        assert profile.coevolve_protocol in profile.censored

    def test_recommended_table_covers_every_censored_pair(self):
        pairs = {(c, p) for c, ps in COUNTRY_PROTOCOLS.items() for p in ps}
        assert set(RECOMMENDED_STRATEGIES) == pairs

    def test_fleet_prefixes_disjoint(self):
        networks = [
            ipaddress.ip_network(f"{prefix}.0.0/16")
            for prefix in COUNTRY_PREFIXES.values()
        ]
        for i, a in enumerate(networks):
            for b in networks[i + 1:]:
                assert not a.overlaps(b), (a, b)
        assert {entry.country for entry in DEFAULT_MIX} <= set(COUNTRY_PREFIXES)

    def test_blocks_match_reference_tables(self):
        table2 = {"china"} | {country for country, _, _ in TABLE2_OTHER}
        assert set(select_countries(block="table2")) == table2
        assert set(TABLE2_CHINA[0]) == set(country_profile("china").protocols)
        for profile in COUNTRIES:
            assert not (profile.table2 and profile.sni), profile.name

    @pytest.mark.parametrize("profile", COUNTRIES, ids=COUNTRY_NAMES)
    def test_param_specs_sorted_with_defaults_in_bounds(self, profile):
        names = [spec.name for spec in profile.param_specs]
        assert names == sorted(names)
        for spec in profile.param_specs:
            assert spec.clamp(spec.default) == spec.default, spec

    @pytest.mark.parametrize("country", COUNTRY_NAMES)
    def test_every_baseline_genome_builds(self, country):
        genome = CensorGenome.baseline(country)
        assert genome.is_baseline
        assert isinstance(genome.build(random.Random(0)), Censor)
        assert isinstance(make_censor(country, random.Random(0)), Censor)
        assert type(build_censor(country)) is type(make_censor(country, None))

    def test_workload_for_falls_back_to_benign(self):
        assert workload_for("india", "http")["host_header"] == "blocked.example.in"
        assert workload_for("india", "dns") == dict(PROTOCOLS["dns"].benign)
        assert workload_for(None, "https") == dict(PROTOCOLS["https"].benign)
        # A copy: callers may add keys (DNS ``tries``) without touching the table.
        workload_for("china", "dns")["tries"] = 9
        assert "tries" not in country_profile("china").censored["dns"].workload


def _table2(names):
    from repro.eval.table2 import generate_table2

    return generate_table2(trials=1, countries=names)


def _sni(names):
    from repro.eval.sni_matrix import sni_matrix

    return sni_matrix(trials=1, countries=names)


def _robustness(names):
    from repro.eval.sweeps import impairment_robustness_sweep

    return impairment_robustness_sweep(loss_rates=(0.0,), countries=names, trials=1)


def _coevolve(names):
    from repro.core.evolution import run_coevolution

    return run_coevolution(names[0])


def _success_rate(names):
    from repro.eval import success_rate

    return success_rate(names[0], "http", None, trials=1)


def _make_censor(names):
    return make_censor(names[0], None)


def _fleet_mix(names):
    from repro.fleet import FleetMixEntry

    return FleetMixEntry(names[0], "http").validate()


@pytest.mark.parametrize(
    "entry",
    [_table2, _sni, _robustness, _coevolve, _success_rate, _make_censor, _fleet_mix],
)
def test_unknown_country_fails_loudly(entry):
    with pytest.raises(ValueError, match=r"unknown country 'atlantis' \(valid: .+\)"):
        entry(["atlantis"])


@pytest.mark.parametrize(
    "entry,name", [(_table2, "southkorea"), (_sni, "china")]
)
def test_country_outside_block_fails_loudly(entry, name):
    with pytest.raises(ValueError, match=f"country '{name}' has no"):
        entry([name])
