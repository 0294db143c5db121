"""Cross-segment ClientHello reassembly in the SNI censor boxes.

Drives :class:`repro.censors.sni.SNICensor` packet-by-packet through a
stub path context (the same idiom as the base-censor tests), covering the
reassembly paths the end-to-end trials can't isolate: one-byte segments,
reordered arrival, window expiry, the byte budget, RST purges, and the
strict/lenient split on ESNI and malformed hellos.
"""

import pytest

from repro.apps.tls import build_client_hello, build_server_hello
from repro.censors import (
    RUSSIA_KEYWORDS,
    SOUTHKOREA_KEYWORDS,
    SNICensor,
    country_profile,
)
from repro.packets import make_tcp_packet

CLIENT = "10.5.0.2"
SERVER = "192.0.2.10"
CPORT = 40000

BLOCKED_KR = "blocked.example.kr"
BLOCKED_RU = "blocked.example.ru"


class Ctx:
    def __init__(self):
        self.now = 0.0
        self.injected = []
        self.records = []

    def inject(self, packet, toward):
        self.injected.append((packet, toward))

    def record(self, kind, packet=None, detail=""):
        self.records.append((kind, detail))

    def schedule(self, delay, callback):  # pragma: no cover - unused stub
        raise AssertionError("SNICensor must not schedule callbacks")


def syn(seq=100):
    return make_tcp_packet(CLIENT, SERVER, CPORT, 443, flags="S", seq=seq)


def c2s(seq, load):
    return make_tcp_packet(
        CLIENT, SERVER, CPORT, 443, flags="PA", seq=seq, ack=1, load=load
    )


def s2c(load, seq=1, ack=100):
    return make_tcp_packet(
        SERVER, CLIENT, 443, CPORT, flags="PA", seq=seq, ack=ack, load=load
    )


def feed_hello(censor, ctx, hello, chunk):
    """Send the SYN then the hello in ``chunk``-byte segments; return the
    per-segment forwarding decisions (True = passed)."""
    censor.process(syn(), "c2s", ctx)
    passed = []
    for start in range(0, len(hello), chunk):
        out = censor.process(c2s(101 + start, hello[start : start + chunk]), "c2s", ctx)
        passed.append(bool(out))
    return passed


class TestReassembly:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, 4096])
    def test_one_byte_segments_still_reassemble(self, chunk):
        """Client-side segmentation alone no longer evades: the box
        reassembles down to one-byte segments and fires on the full SNI."""
        censor = country_profile("russia").build()
        ctx = Ctx()
        passed = feed_hello(censor, ctx, build_client_hello(BLOCKED_RU), chunk)
        assert passed[-1] is False  # the completing segment is dropped
        assert censor.censorship_events == 1
        assert ("censor", "blocked-sni") in ctx.records

    def test_reordered_segments_reassemble(self):
        """Out-of-order arrival: the verdict fires only once the
        contiguous prefix covers the whole hello."""
        censor = country_profile("russia").build()
        ctx = Ctx()
        hello = build_client_hello(BLOCKED_RU)
        censor.process(syn(), "c2s", ctx)
        mid = len(hello) // 2
        # Second half first: a gap, so the scan stays needs_more.
        assert censor.process(c2s(101 + mid, hello[mid:]), "c2s", ctx)
        assert censor.censorship_events == 0
        # First half completes the prefix: verdict.
        assert censor.process(c2s(101, hello[:mid]), "c2s", ctx) == []
        assert censor.censorship_events == 1

    def test_overlapping_retransmits_do_not_inflate_budget(self):
        censor = country_profile("russia").build()
        ctx = Ctx()
        hello = build_client_hello(BLOCKED_RU)
        censor.process(syn(), "c2s", ctx)
        for _ in range(50):  # same segment retransmitted
            censor.process(c2s(101, hello[:10]), "c2s", ctx)
        state = next(iter(censor.flows.values()))
        assert state.buffered == 10
        assert censor.process(c2s(111, hello[10:]), "c2s", ctx) == []
        assert censor.censorship_events == 1

    def test_benign_sni_releases_the_flow(self):
        censor = country_profile("russia").build()
        ctx = Ctx()
        passed = feed_hello(censor, ctx, build_client_hello("example.org"), 7)
        assert all(passed)
        assert censor.censorship_events == 0
        assert not censor.flows  # state released on the benign verdict

    def test_window_expiry_evicts_state(self):
        """The tracking window anchors at the first SYN and never
        refreshes — bytes arriving after it lapses pass uninspected."""
        censor = country_profile("russia").build()
        ctx = Ctx()
        hello = build_client_hello(BLOCKED_RU)
        censor.process(syn(), "c2s", ctx)
        ctx.now = censor.tracking_window + 0.1
        assert censor.process(c2s(101, hello), "c2s", ctx)
        assert censor.censorship_events == 0
        assert not censor.flows

    def test_reassembly_budget_overflow(self):
        censor = SNICensor(RUSSIA_KEYWORDS, reassembly_bytes=64, strict=False)
        ctx = Ctx()
        censor.process(syn(), "c2s", ctx)
        filler = bytes(128)
        assert censor.process(c2s(101, filler), "c2s", ctx)
        assert not censor.flows  # gave up, flow ignored from here on
        assert censor.censorship_events == 0


class TestStrictness:
    def test_strict_drops_esni_hello(self):
        """Russia's box: a complete hello with no plaintext SNI is
        dropped and the flow blackholed."""
        censor = country_profile("russia").build()
        ctx = Ctx()
        hello = build_client_hello(BLOCKED_RU, encrypted_sni=True)
        passed = feed_hello(censor, ctx, hello, 64)
        assert passed[-1] is False
        assert ("censor", "strict-drop:esni") in ctx.records
        # Blackhole swallows the retransmission too.
        assert censor.process(c2s(101, hello[:64]), "c2s", ctx) == []

    def test_lenient_passes_esni_hello(self):
        censor = country_profile("southkorea").build()
        ctx = Ctx()
        hello = build_client_hello(BLOCKED_KR, encrypted_sni=True)
        passed = feed_hello(censor, ctx, hello, 64)
        assert all(passed)
        assert censor.censorship_events == 0

    def test_strict_drops_garbage_on_tls_port(self):
        censor = country_profile("russia").build()
        ctx = Ctx()
        censor.process(syn(), "c2s", ctx)
        assert censor.process(c2s(101, b"GET / HTTP/1.1\r\n"), "c2s", ctx) == []
        assert ("censor", "strict-drop:invalid") in ctx.records

    def test_lenient_passes_garbage_on_tls_port(self):
        censor = country_profile("southkorea").build()
        ctx = Ctx()
        censor.process(syn(), "c2s", ctx)
        assert censor.process(c2s(101, b"GET / HTTP/1.1\r\n"), "c2s", ctx)
        assert censor.censorship_events == 0

    def test_blackhole_expires(self):
        censor = country_profile("russia").build()
        ctx = Ctx()
        feed_hello(censor, ctx, build_client_hello(BLOCKED_RU), 64)
        assert censor.process(c2s(101, b"x"), "c2s", ctx) == []
        ctx.now = censor.blackhole_duration + 1.0
        assert censor.process(syn(seq=900), "c2s", ctx)


class TestSouthKoreaConfirmation:
    def arm(self, censor, ctx):
        feed_hello(censor, ctx, build_client_hello(BLOCKED_KR), 64)
        assert censor.censorship_events == 0  # holds fire until confirmed
        state = next(iter(censor.flows.values()))
        assert state.armed

    def test_confirmed_serverhello_triggers_client_rst_burst(self):
        censor = country_profile("southkorea").build()
        ctx = Ctx()
        self.arm(censor, ctx)
        out = censor.process(s2c(build_server_hello(BLOCKED_KR)), "s2c", ctx)
        assert out == []  # the confirming ServerHello never arrives
        assert censor.censorship_events == 1
        assert len(ctx.injected) == censor.rst_count
        assert all(toward == "client" for _, toward in ctx.injected)
        assert all(p.flags == "RA" for p, _ in ctx.injected)

    def test_unparseable_serverhello_stands_down(self):
        """Record-split/segmented ServerHello: the one-shot confirmation
        parse fails and the box forgets the flow for good."""
        censor = country_profile("southkorea").build()
        ctx = Ctx()
        self.arm(censor, ctx)
        partial = build_server_hello(BLOCKED_KR)[:20]
        assert censor.process(s2c(partial), "s2c", ctx)
        assert censor.censorship_events == 0
        assert not censor.flows
        # Even a later, complete ServerHello is now ignored.
        assert censor.process(s2c(build_server_hello(BLOCKED_KR)), "s2c", ctx)
        assert censor.censorship_events == 0

    def test_rst_teardown_purges_flow_state(self):
        """The box trusts wire RSTs without checksum validation — an
        insertion RST (which the endpoints discard) clears its state."""
        censor = country_profile("southkorea").build()
        ctx = Ctx()
        self.arm(censor, ctx)
        rst = make_tcp_packet(CLIENT, SERVER, CPORT, 443, flags="RA", seq=500)
        assert censor.process(rst, "c2s", ctx)  # the RST itself is forwarded
        assert not censor.flows
        assert censor.process(s2c(build_server_hello(BLOCKED_KR)), "s2c", ctx)
        assert censor.censorship_events == 0

    def test_russia_ignores_rst_teardown(self):
        censor = country_profile("russia").build()
        ctx = Ctx()
        hello = build_client_hello(BLOCKED_RU)
        censor.process(syn(), "c2s", ctx)
        censor.process(c2s(101, hello[:40]), "c2s", ctx)
        rst = make_tcp_packet(CLIENT, SERVER, CPORT, 443, flags="RA", seq=500)
        censor.process(rst, "c2s", ctx)
        assert censor.flows  # state survives the insertion RST
        assert censor.process(c2s(141, hello[40:]), "c2s", ctx) == []
        assert censor.censorship_events == 1


class TestNonTlsTraffic:
    def test_other_ports_ignored(self):
        censor = country_profile("russia").build()
        ctx = Ctx()
        p = make_tcp_packet(CLIENT, SERVER, CPORT, 80, flags="S", seq=100)
        censor.process(p, "c2s", ctx)
        assert not censor.flows

    def test_non_tcp_passes(self):
        from repro.packets import make_udp_packet

        censor = country_profile("russia").build()
        ctx = Ctx()
        p = make_udp_packet(CLIENT, SERVER, CPORT, 443, load=b"quic?")
        assert censor.process(p, "c2s", ctx) == [p]
