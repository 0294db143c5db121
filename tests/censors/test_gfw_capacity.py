"""Tests for the GFW's bounded flow table (scale shortcuts, §2.1)."""

import random

from repro.censors import CHINA_KEYWORDS, GreatFirewall
from repro.censors.gfw.profiles import BoxProfile
from repro.packets import make_tcp_packet

FORBIDDEN = b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n"


class FakeCtx:
    now = 0.0

    def __init__(self):
        self.injected = []

    def inject(self, packet, toward):
        self.injected.append((packet, toward))

    def record(self, *args, **kwargs):
        pass


def make_box(max_flows=None):
    profile = BoxProfile(protocol="http", miss_prob=0.0)
    gfw = GreatFirewall(
        rng=random.Random(1), keywords=CHINA_KEYWORDS,
        protocols=("http",), profiles={"http": profile},
        max_flows_per_box=max_flows,
    )
    return gfw, FakeCtx()


def open_flow(gfw, ctx, client_port, seq=1000):
    syn = make_tcp_packet("10.1.0.2", "192.0.2.10", client_port, 80, flags="S", seq=seq)
    gfw.process(syn, "c2s", ctx)
    synack = make_tcp_packet("192.0.2.10", "10.1.0.2", 80, client_port, flags="SA",
                             seq=5000, ack=seq + 1)
    gfw.process(synack, "s2c", ctx)
    ack = make_tcp_packet("10.1.0.2", "192.0.2.10", client_port, 80, flags="A",
                          seq=seq + 1, ack=5001)
    gfw.process(ack, "c2s", ctx)


class TestCapacity:
    def test_unbounded_by_default(self):
        gfw, ctx = make_box()
        for port in range(40000, 40100):
            open_flow(gfw, ctx, port)
        assert len(gfw.box("http").flows) == 100
        assert gfw.box("http").evictions == 0

    def test_oldest_flow_evicted(self):
        gfw, ctx = make_box(max_flows=10)
        for port in range(40000, 40020):
            open_flow(gfw, ctx, port)
        assert len(gfw.box("http").flows) == 10
        assert gfw.box("http").evictions == 10

    def test_state_exhaustion_enables_evasion(self):
        """Flooding the box with SYNs evicts a real flow's TCB; the
        subsequent forbidden request sails through (the box fails open)."""
        gfw, ctx = make_box(max_flows=8)
        open_flow(gfw, ctx, 41000, seq=9000)
        # SYN flood from other "connections".
        for port in range(42000, 42020):
            syn = make_tcp_packet("10.1.0.9", "192.0.2.10", port, 80, flags="S", seq=1)
            gfw.process(syn, "c2s", ctx)
        # The original flow's TCB is gone; DPI never fires.
        data = make_tcp_packet(
            "10.1.0.2", "192.0.2.10", 41000, 80, flags="PA",
            seq=9001, ack=5001, load=FORBIDDEN,
        )
        gfw.process(data, "c2s", ctx)
        assert ctx.injected == []

    def test_without_flood_same_request_is_censored(self):
        gfw, ctx = make_box(max_flows=8)
        open_flow(gfw, ctx, 41000, seq=9000)
        data = make_tcp_packet(
            "10.1.0.2", "192.0.2.10", 41000, 80, flags="PA",
            seq=9001, ack=5001, load=FORBIDDEN,
        )
        gfw.process(data, "c2s", ctx)
        assert len(ctx.injected) == 2
