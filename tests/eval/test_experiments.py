"""Tests for the experiment drivers (small-scale versions of each)."""

import pytest

from repro.censors.registry import country_profile, workload_for
from repro.core import deployed_strategy
from repro.eval.client_compat import (
    EXPECTED_OS_FAILURES,
    run_network_matrix,
    run_os_matrix,
)
from repro.eval.dns_retries import analytic_curve, measure_retry_curve
from repro.eval.followups import (
    drop_client_rst_probe,
    kz_get_prefix_sweep,
    kz_injection_probe,
    kz_payload_count_sweep,
    kz_payload_size_sweep,
    rst_seq_match_probe,
    seq_offset_probe,
)
from repro.eval.generalization import run_generalization
from repro.eval.matrix import format_matrix, measure_censorship_matrix
from repro.eval.multibox import (
    forbidden_payload,
    localize_boxes,
    protocol_dependence,
    single_box_profiles,
)
from repro.eval.reference import paper_rate
from repro.eval.residual import residual_probe
from repro.eval.table2 import generate_table2, format_table2
from repro.eval.waterfall import waterfall_for_trial
from repro.tcpstack import PERSONALITIES


class TestReference:
    def test_china_rates(self):
        assert paper_rate("china", 1, "http") == 54
        assert paper_rate("china", 5, "ftp") == 97
        assert paper_rate("china", 0, "smtp") == 26

    def test_other_country_rates(self):
        assert paper_rate("kazakhstan", 9, "http") == 100
        assert paper_rate("india", 8, "http") == 100
        assert paper_rate("iran", 1, "http") is None  # dash in Table 2


class TestMatrix:
    def test_measured_matrix_matches_table1(self):
        entries = measure_censorship_matrix(seed=3)
        for entry in entries:
            assert entry.censored == entry.expected, (entry.country, entry.protocol)
        assert "china" in format_matrix(entries)


class TestTable2:
    def test_small_scale_generation(self):
        cells = generate_table2(trials=20, seed=9, countries=["kazakhstan"])
        assert cells
        for cell in cells:
            assert cell.paper is not None
            assert abs(cell.measured_pct - cell.paper) <= 10
        assert "Kazakhstan" in format_table2(cells) or "kazakhstan" in format_table2(cells).lower()

    def test_china_cells_have_paper_values(self):
        cells = generate_table2(trials=10, seed=9, countries=["china"],
                                china_protocols=("http",))
        assert all(cell.paper is not None for cell in cells)


class TestWaterfalls:
    def test_strategy_1_waterfall_contains_simopen(self):
        text = waterfall_for_trial("china", "http", deployed_strategy(1), seed=3)
        assert "RST" in text and "SYN" in text
        assert "--->" in text and "<---" in text

    def test_censorship_shown_when_it_happens(self):
        text = waterfall_for_trial("china", "http", None, seed=3)
        assert "censor action" in text

    def test_kazakhstan_strategy_9(self):
        text = waterfall_for_trial("kazakhstan", "http", deployed_strategy(9), seed=3)
        assert text.count("w/ load") >= 3


class TestMultibox:
    def test_protocol_dependence_spread(self):
        multi = protocol_dependence(7, trials=40, seed=2, protocols=("ftp", "https"))
        assert multi["ftp"] - multi["https"] > 0.4

    def test_single_box_ablation_uniform(self):
        profiles = single_box_profiles("http")
        single = protocol_dependence(
            7, trials=40, seed=2, profiles=profiles, protocols=("ftp", "https")
        )
        assert abs(single["ftp"] - single["https"]) < 0.25

    def test_localization_colocated(self):
        hops = localize_boxes(protocols=("http", "ftp"), max_ttl=5, seed=1)
        assert hops["http"] == 3
        assert hops["ftp"] == 3

    def test_forbidden_payloads_defined(self):
        """Every China probe carries its registry workload's censored
        fields on the wire (DNS names label-encoded)."""
        for protocol in country_profile("china").protocols:
            payload = forbidden_payload(protocol)
            workload = workload_for("china", protocol)
            assert workload, protocol
            for value in workload.values():
                if protocol == "dns":
                    wire = b"".join(
                        bytes([len(label)]) + label.encode()
                        for label in value.split(".")
                    )
                else:
                    wire = value.encode()
                assert wire in payload, (protocol, value)
        with pytest.raises(ValueError):
            forbidden_payload("gopher")


class TestGeneralization:
    @pytest.mark.slow
    def test_client_side_works_server_analogs_fail(self):
        result = run_generalization(trials=12, seed=4)
        assert result.client_working_count == len(result.client_side_working)
        assert result.analogs_working_count == 0


class TestDNSRetries:
    def test_analytic_curve(self):
        curve = analytic_curve(0.5, 3)
        assert curve[1] == 0.5
        assert abs(curve[3] - 0.875) < 1e-9

    @pytest.mark.slow
    def test_measured_tracks_analytic(self):
        curve = measure_retry_curve(strategy_number=1, max_tries=3, trials=60, seed=2)
        assert 0.3 < curve.per_try_rate < 0.7
        for tries in (2, 3):
            assert abs(curve.measured[tries] - curve.analytic[tries]) < 0.2
        assert curve.measured[3] > curve.measured[1]


class TestFollowups:
    def test_seq_probe_with_strategy_restores_censorship(self):
        censored = seq_offset_probe(1, offset=-1, trials=24, seed=3)
        assert 0.25 < censored < 0.75  # ~the resync-entry probability

    def test_seq_probe_without_strategy_never_censored(self):
        assert seq_offset_probe(None, offset=-1, trials=10, seed=3) == 0.0

    def test_rst_drop_kills_strategy5_not_strategy6(self):
        assert drop_client_rst_probe(5, "ftp", trials=24, seed=3) < 0.25
        assert drop_client_rst_probe(6, "ftp", trials=24, seed=3) > 0.3

    def test_rst_seq_match_restores_censorship(self):
        assert rst_seq_match_probe(7, trials=24, seed=3) > 0.25

    def test_kz_payload_count_threshold(self):
        sweep = kz_payload_count_sweep(max_copies=4, seed=1)
        assert sweep == {1: False, 2: False, 3: True, 4: True}

    def test_kz_payload_size_irrelevant(self):
        assert all(kz_payload_size_sweep(seed=1).values())

    def test_kz_get_prefix_rules(self):
        sweep = kz_get_prefix_sweep(seed=1)
        assert sweep["GET / HTTP1."] is True
        assert sweep["GET / HTTP1"] is False
        assert sweep["GET /index.html HTTP1."] is True
        assert sweep["HELLO"] is False

    def test_kz_injection_probe(self):
        probe = kz_injection_probe(seed=1)
        assert probe["double forbidden GET"] is True
        assert probe["single forbidden GET"] is False
        assert probe["sim-open + forbidden GET"] is True
        assert probe["forbidden then benign GET"] is False


class TestResidual:
    def test_http_residual_within_window(self):
        probe = residual_probe("http", delay=30.0, seed=1)
        assert not probe.second_succeeded

    def test_http_residual_expires(self):
        probe = residual_probe("http", delay=120.0, seed=1)
        assert probe.second_succeeded

    def test_ftp_no_residual(self):
        probe = residual_probe("ftp", delay=1.0, seed=1)
        assert probe.second_succeeded

    def test_dns_no_residual(self):
        probe = residual_probe("dns", delay=1.0, seed=1)
        assert probe.second_succeeded


class TestClientCompat:
    @pytest.mark.slow
    def test_os_matrix_matches_paper(self):
        matrix = run_os_matrix(strategy_numbers=(1, 5, 8, 9, 10, 11), seed=2)
        for (number, os_name), works in matrix.works.items():
            family = PERSONALITIES[os_name].family
            expected_failure = (number, family) in EXPECTED_OS_FAILURES
            assert works != expected_failure, (number, os_name)

    @pytest.mark.slow
    def test_compat_variants_fix_all_oses(self):
        matrix = run_os_matrix(strategy_numbers=(5, 9, 10), seed=2)
        assert all(matrix.compat_works.values())

    def test_network_matrix_pattern(self):
        results = run_network_matrix(strategy_numbers=(1, 2, 3, 4), seed=2)
        assert results["wifi"] == {1: True, 2: True, 3: True, 4: True}
        assert results["t-mobile"] == {1: False, 2: True, 3: False, 4: True}
        assert results["att"] == {1: False, 2: False, 3: False, 4: True}


class TestDNSClientProfiles:
    def test_profiles_from_paper(self):
        from repro.apps.dns import DNS_CLIENT_PROFILES

        assert DNS_CLIENT_PROFILES["python-dns"] == 3
        assert DNS_CLIENT_PROFILES["chrome-windows"] == 5

    def test_more_retries_more_success(self):
        from repro.eval.dns_retries import measure_client_profiles

        rates = measure_client_profiles(strategy_number=1, trials=60, seed=9)
        assert rates["chrome-windows"] >= rates["dig-minimal"]
        assert rates["dig-minimal"] >= 0.6   # two tries of a ~50% strategy
        assert rates["chrome-windows"] >= 0.85
