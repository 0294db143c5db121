"""Regression tests: retransmitted packets must not double-trigger censors.

The impairment layer makes retransmission routine, so every censor model
now sees duplicate copies of trigger packets on ordinary trials. The
paper's models already imply the right behaviour — the GFW advances its
tracked sequence number past the trigger (making the retransmission
invisible / the flow ignored), and Iran's blackhole drops without
re-recording — but nothing pinned it. These tests do.
"""

import random

from repro.censors import CHINA_KEYWORDS, GreatFirewall, IranCensor
from repro.censors.gfw.box import MODE_IGNORED, MODE_RESYNC, MODE_TRACKING
from repro.censors.gfw.profiles import EVENT_RST, BoxProfile
from repro.eval.runner import Trial
from repro.packets import make_tcp_packet

CLIENT = "10.1.0.2"
SERVER = "192.0.2.10"
CPORT = 40000

FORBIDDEN_HTTP = b"GET / HTTP/1.1\r\nHost: youtube.com\r\n\r\n"
FORBIDDEN_GFW = b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n"


class FakeCtx:
    def __init__(self):
        self.now = 0.0
        self.injected = []
        self.recorded = []

    def inject(self, packet, toward):
        self.injected.append((packet, toward))

    def record(self, kind, packet=None, detail=""):
        self.recorded.append((kind, detail))


def make_box(**profile_overrides):
    profile_overrides.setdefault("miss_prob", 0.0)
    profile = BoxProfile(
        protocol="http",
        event_probs=profile_overrides.pop("event_probs", {}),
        combo_probs=profile_overrides.pop("combo_probs", {}),
        **profile_overrides,
    )
    gfw = GreatFirewall(
        rng=random.Random(1), keywords=CHINA_KEYWORDS,
        protocols=("http",), profiles={"http": profile},
    )
    return gfw, FakeCtx()


def c2s(flags="A", seq=1001, ack=5001, load=b"", sport=CPORT, dport=80):
    return make_tcp_packet(CLIENT, SERVER, sport, dport, flags=flags, seq=seq, ack=ack, load=load)


def s2c(flags="SA", seq=5000, ack=1001, load=b""):
    return make_tcp_packet(SERVER, CLIENT, 80, CPORT, flags=flags, seq=seq, ack=ack, load=load)


def handshake(gfw, ctx):
    gfw.process(c2s("S", seq=1000, ack=0), "c2s", ctx)
    gfw.process(s2c("SA"), "s2c", ctx)
    gfw.process(c2s("A"), "c2s", ctx)
    return list(gfw.box("http").flows.values())[0]


class TestGFWRetransmittedTrigger:
    def test_trigger_retransmission_censors_once(self):
        gfw, ctx = make_box()
        tcb = handshake(gfw, ctx)
        trigger = c2s("PA", load=FORBIDDEN_GFW)
        gfw.process(trigger, "c2s", ctx)
        assert gfw.box("http").censor_count == 1
        assert tcb.mode == MODE_IGNORED
        injected_before = len(ctx.injected)
        # An unmodified client never saw the censor's RSTs in time and
        # retransmits the request byte-for-byte.
        gfw.process(c2s("PA", load=FORBIDDEN_GFW), "c2s", ctx)
        assert gfw.box("http").censor_count == 1
        assert len(ctx.injected) == injected_before

    def test_uncensored_retransmission_stays_invisible(self):
        """A benign data packet retransmitted after its bytes were
        tracked is desynced from client_next and never re-inspected —
        retransmission cannot make previously-clean bytes trigger."""
        gfw, ctx = make_box(reassembly_fail_prob=1.0)
        tcb = handshake(gfw, ctx)
        benign = b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n"
        gfw.process(c2s("PA", load=benign), "c2s", ctx)
        tracked = tcb.client_next
        gfw.process(c2s("PA", load=benign), "c2s", ctx)  # dup: seq < client_next
        assert tcb.client_next == tracked
        assert gfw.box("http").censor_count == 0

    def test_retransmitted_server_rst_does_not_reenter_resync(self):
        """After resync capture on a client packet, a *duplicate* of the
        server RST that originally triggered resync must not flip the box
        back into resync against the now-tracked flow."""
        gfw, ctx = make_box(event_probs={EVENT_RST: 1.0})
        tcb = handshake(gfw, ctx)
        rst = s2c("R", seq=5001, ack=0)
        gfw.process(rst, "s2c", ctx)
        assert tcb.mode == MODE_RESYNC
        # Client data captures the resync and is inspected (benign here).
        gfw.process(c2s("PA", load=b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n"), "c2s", ctx)
        assert tcb.mode == MODE_TRACKING
        synced = tcb.client_next
        # The RST retransmission fires the anomaly again -> resync again,
        # but the next client packet re-captures at the same sequence:
        # the tracked position cannot drift from duplicate anomalies.
        gfw.process(rst.copy(), "s2c", ctx)
        next_seq = synced
        gfw.process(c2s("A", seq=next_seq, ack=5001), "c2s", ctx)
        assert tcb.mode == MODE_TRACKING
        assert tcb.client_next == synced
        assert gfw.box("http").censor_count == 0


class TestIranBlackholeRetransmission:
    def test_blackholed_retransmissions_not_recounted(self):
        censor = IranCensor()
        ctx = FakeCtx()
        syn = c2s("S", seq=1000, ack=0)
        assert censor.process(syn, "c2s", ctx) == [syn]
        trigger = c2s("PA", load=FORBIDDEN_HTTP)
        assert censor.process(trigger, "c2s", ctx) == []
        assert censor.censorship_events == 1
        # The client's retransmissions of the same request are dropped by
        # the blackhole but never counted as fresh censorship events.
        for _ in range(4):
            assert censor.process(c2s("PA", load=FORBIDDEN_HTTP), "c2s", ctx) == []
        assert censor.censorship_events == 1
        drops = [d for d in ctx.recorded if d == ("drop", "blackholed")]
        assert len(drops) == 4

    def test_impaired_trial_counts_one_event(self):
        """End-to-end: under loss the trigger request is retransmitted,
        yet a censored trial still records exactly one censorship event.
        (Some net seeds lose the trigger before the censor ever sees it —
        those trials legitimately record zero.)"""
        censored_runs = 0
        for net_seed in (1, 2, 3, 4):
            trial = Trial(
                "iran", "http", None, seed=2,
                impairment={"loss": 0.1}, net_seed=net_seed,
            )
            result = trial.run()
            if result.censored:
                censored_runs += 1
                assert trial.censor.censorship_events == 1
        assert censored_runs >= 2


class TestGFWImpairedTrial:
    def test_impaired_trial_rst_pairs_once_per_censor_event(self):
        """Under loss, each GFW censorship decision still injects exactly
        one RST pair (2 injections per event, not per retransmission)."""
        censored_runs = 0
        for net_seed in (2, 3, 4):
            trial = Trial(
                "china", "http", None, seed=3,
                impairment={"loss": 0.1}, net_seed=net_seed,
            )
            result = trial.run()
            events = trial.censor.censorship_events
            censored_runs += events > 0
            injections = [
                e for e in result.trace.events if e.kind == "inject"
            ]
            assert len(injections) == 2 * events
        assert censored_runs >= 2
