"""Differential fuzz: the fused GFW against the per-box reference model.

The production :class:`GreatFirewall` keeps one flow table with a state
vector per box and steps all boxes in one pass per packet. The oracle
(:mod:`gfw_reference`) is the original formulation: independent boxes,
each with its own flow table, observing every packet in turn. Both get
the same random multi-flow packet sequences and identically seeded RNGs.
After every packet they must agree on the injected packets (order and
every header field), the recorded verdicts, ``censorship_events``, every
box's ``censor_count``, ``evictions``, residual timers and TCB state,
and the RNG state.
"""

import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.dns import build_query
from repro.apps.tls import build_client_hello
from repro.censors import CHINA_PROFILES, GreatFirewall
from repro.censors.gfw.profiles import RESYNC_TARGETS, BoxProfile
from repro.packets import bits_to_flags, make_tcp_packet

from gfw_reference import ReferenceGFW

CLIENTS = [
    ("10.1.0.2", 41000, "192.0.2.10", 80),
    ("10.1.0.2", 41001, "192.0.2.10", 80),  # same server:port (residual)
    ("10.1.0.7", 41000, "192.0.2.10", 21),
]
CLIENT_ISN = [1000, 200_000, 2**32 - 3]  # the last one wraps
SERVER_ISN = [5000, 900_000, 77]

FORBIDDEN_HTTP = b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n"
#: Trips the HTTP, FTP and SMTP boxes at once (RST pairs in box order).
TRIPLE = b"GET /?q=ultrasurf HTTP/1.1\r\nRETR ultrasurf.txt\r\nRCPT TO:<xiazai@upup.info>\r\n\r\n"
#: Requests each flow sends, forbidden ones first: every box's trigger,
#: an HTTP request split in two, and benign requests. Only the first
#: in-sequence bytes of a flow reach a reassembling box's DPI intact, so
#: each flow keeps to one or two protocols.
FLOW_PAYLOADS = [
    [
        FORBIDDEN_HTTP,
        TRIPLE,
        FORBIDDEN_HTTP[:10],
        FORBIDDEN_HTTP[10:],
        b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n",
    ],
    [
        build_query("www.wikipedia.org", 7),
        build_client_hello("www.wikipedia.org", random.Random(3)),
        build_query("example.com", 8),
        build_client_hello("example.org", random.Random(4)),
    ],
    [
        b"USER anonymous\r\nRETR ultrasurf.txt\r\n",
        b"MAIL FROM:<a@b.c>\r\nRCPT TO:<xiazai@upup.info>\r\n",
        TRIPLE,
        b"USER anonymous\r\nRETR notes.txt\r\n",
        b"MAIL FROM:<a@b.c>\r\nRCPT TO:<friend@example.com>\r\n",
    ],
]

EVENTS = sorted(RESYNC_TARGETS)


def _profiles(variant):
    """China's calibration, or variants that make every rule fire often."""
    if variant == "china":
        return CHINA_PROFILES
    if variant == "hot":
        return {
            name: BoxProfile(
                protocol=name,
                miss_prob=0.3,
                event_probs={event: 0.5 for event in EVENTS},
                combo_probs={(a, b): 0.4 for a in EVENTS for b in EVENTS},
                reassembly_fail_prob=0.5,
                residual_duration=60.0,
            )
            for name in CHINA_PROFILES
        }
    # "certain": probabilities of exactly 1 and 0 (zero draws are skipped).
    return {
        name: BoxProfile(
            protocol=name,
            miss_prob=0.0,
            event_probs={event: float(i % 2) for i, event in enumerate(EVENTS)},
            combo_probs={(a, b): float((i + j) % 2) for i, a in enumerate(EVENTS)
                         for j, b in enumerate(EVENTS)},
            reassembly_fail_prob=float(k % 2),
            residual_duration=30.0,
        )
        for k, name in enumerate(CHINA_PROFILES)
    }


class RecordingCtx:
    """PathContext stand-in recording injections and verdicts."""

    def __init__(self):
        self.now = 0.0
        self.log = []

    def inject(self, packet, toward):
        tcp = packet.tcp
        self.log.append((
            "inject", toward, packet.src, packet.dst, tcp.sport, tcp.dport,
            tcp.flags, tcp.seq, tcp.ack, bytes(tcp.load),
        ))

    def record(self, kind, packet=None, detail=""):
        self.log.append(("record", kind, detail))


def _number(source, delta, tracked, isn):
    """A sequence/ack number: the tracked one, the ISN, zero or anywhere."""
    base = {"tracked": tracked, "isn": isn, "zero": 0}.get(source, isn * 7919 + 104729)
    return (base + delta) % 2**32


def _tracked(reference, box_index, key, field, default):
    """What one (reference) box currently expects, if it tracks the flow."""
    boxes = list(reference.boxes.values())
    if not boxes:
        return default
    tcb = boxes[box_index % len(boxes)].flows.get(key)
    return default if tcb is None else getattr(tcb, field)


def _assert_same_state(fused, reference):
    assert fused.censorship_events == reference.censorship_events
    assert fused.rng.getstate() == reference.rng.getstate()
    assert list(fused.boxes) == list(reference.boxes)
    for name, ref_box in reference.boxes.items():
        box = fused.box(name)
        assert box.censor_count == ref_box.censor_count, name
        assert box.evictions == ref_box.evictions, name
        assert box.residual == ref_box.residual, name
        flows = box.flows
        assert list(flows) == list(ref_box.flows), name
        for key, ref in ref_box.flows.items():
            record, tcb = fused.flows[key], flows[key]
            assert (
                record.client_ip, record.client_port, record.server_ip,
                record.server_port, record.client_isn,
            ) == (
                ref.client_ip, ref.client_port, ref.server_ip,
                ref.server_port, ref.client_isn,
            )
            assert (
                tcb.mode, tcb.resync_target, tcb.client_next, tcb.server_next,
                tcb.in_handshake, tcb.anomalies, tcb.miss, tcb.can_reassemble,
                bytes(tcb.buffer), tcb.residual_kill,
            ) == (
                ref.mode, ref.resync_target, ref.client_next, ref.server_next,
                ref.in_handshake, ref.anomalies, ref.miss, ref.can_reassemble,
                bytes(ref.buffer), ref.residual_kill,
            ), (name, key)


#: Packet shapes (sent by the client?, flags, seq from, ack from), with
#: repeats as weights: the handshake, request data, teardown and the
#: anomalies server-side strategies send. ``None`` stands for a packet
#: with any flags and numbers.
SHAPES = [
    (True, "S", "isn", "zero"), (True, "S", "isn", "zero"),
    (False, "SA", "isn", "tracked"), (False, "SA", "isn", "tracked"),
    (True, "A", "tracked", "tracked"), (True, "A", "tracked", "tracked"),
    (True, "PA", "tracked", "tracked"), (True, "PA", "tracked", "tracked"),
    (True, "PA", "tracked", "tracked"), (True, "PA", "tracked", "tracked"),
    (False, "PA", "tracked", "tracked"), (False, "A", "tracked", "tracked"),
    (True, "R", "tracked", "zero"), (True, "RA", "tracked", "tracked"),
    (False, "R", "tracked", "zero"), (False, "R", "tracked", "zero"),
    (True, "SA", "isn", "tracked"),  # simultaneous open
    (False, "S", "isn", "zero"),
    (False, "F", "tracked", "zero"),
    (True, "FA", "tracked", "tracked"), (False, "FA", "tracked", "tracked"),
    None, None, None,
]
numbers = st.sampled_from(["tracked", "isn", "zero", "random"])
any_shape = st.tuples(st.booleans(), st.integers(0, 255).map(bits_to_flags), numbers, numbers)
#: Offsets from a chosen number: mostly exact, else off by a few or at the
#: edges of the RST acceptance window and of the signed sequence space.
delta = st.sampled_from([0] * 10 + [1, -1, 2, -2, 65535, 65536, 65537, -65536, 2**31])

packet_step = st.tuples(
    st.integers(0, len(CLIENTS) - 1),     # flow
    st.sampled_from(SHAPES), any_shape,
    delta, delta,                         # seq, ack offsets
    st.integers(0, 4),                    # whose tracked numbers to use
    st.integers(0, 9), st.binary(max_size=24),  # 9: junk instead of a request
    st.integers(0, 3),                    # 0: payload on a non-PSH packet
    st.sampled_from([0.0, 0.0, 0.0, 1.0, 45.0]),  # clock advance
    st.integers(0, 19),                   # 0: direction label flipped
    st.integers(0, 19),                   # 0: TCP checksum corrupted
)


def _step(flow, flags, pick=0):
    """A client packet carrying exactly the tracked numbers (for examples)."""
    shape = (True, flags, "isn" if "S" in flags else "tracked", "tracked")
    return (flow, shape, shape, 0, 0, 0, pick, b"", 1, 1.0, 1, 1)


@given(
    steps=st.lists(packet_step, min_size=20, max_size=60),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["china", "hot", "certain"]),
    protocols=st.sampled_from([None, ("http",), ("ftp", "smtp"), ("https", "dns", "http"), ()]),
    max_flows=st.sampled_from([None, None, None, 1, 2]),
    validate_checksums=st.booleans(),
)
@example(  # residual censorship: flow 0 censored, flow 1 shares its server
    steps=[_step(0, "PA", pick=0), _step(1, "S"), _step(1, "A")],
    seed=0, variant="certain", protocols=None, max_flows=None,
    validate_checksums=False,
)
@example(  # one request trips three boxes: RST pairs come in box order
    steps=[_step(0, "PA", pick=1), _step(2, "PA", pick=2), _step(2, "R")],
    seed=0, variant="certain", protocols=None, max_flows=None,
    validate_checksums=False,
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fused_gfw_matches_reference_boxes(
    steps, seed, variant, protocols, max_flows, validate_checksums
):
    profiles = _profiles(variant)
    options = dict(
        protocols=protocols, profiles=profiles,
        max_flows_per_box=max_flows, validate_checksums=validate_checksums,
    )
    fused = GreatFirewall(rng=random.Random(seed), **options)
    reference = ReferenceGFW(rng=random.Random(seed), **options)
    fused_ctx, ref_ctx = RecordingCtx(), RecordingCtx()
    # Every flow starts with its client SYN; the steps may reopen flows.
    opening = [
        (flow, SHAPES[0], None, 0, 0, 0, 0, b"", 1, 0.0, 1, 1)
        for flow in range(len(CLIENTS))
    ]
    for flow, shape, random_shape, seq_delta, ack_delta, box, pick, junk, \
            stray, advance, flip, corrupt in opening + steps:
        by_client, flags, seq_from, ack_from = shape or random_shape
        payloads = FLOW_PAYLOADS[flow]
        payload = junk if pick == 9 else payloads[pick % len(payloads)]
        load = payload if "P" in flags or stray == 0 else b""
        client_ip, client_port, server_ip, server_port = CLIENTS[flow]
        key = (client_ip, client_port, server_ip, server_port)
        if (server_ip, server_port) < (client_ip, client_port):
            key = (server_ip, server_port, client_ip, client_port)
        client_next = _tracked(reference, box, key, "client_next", CLIENT_ISN[flow] + 1)
        server_next = _tracked(reference, box, key, "server_next", SERVER_ISN[flow] + 1)
        if by_client:
            seq = _number(seq_from, seq_delta, client_next, CLIENT_ISN[flow])
            ack = _number(ack_from, ack_delta, server_next, SERVER_ISN[flow])
            ends = (client_ip, server_ip, client_port, server_port)
            direction = "c2s"
        else:
            seq = _number(seq_from, seq_delta, server_next, SERVER_ISN[flow])
            ack = _number(ack_from, ack_delta, client_next, CLIENT_ISN[flow])
            ends = (server_ip, client_ip, server_port, client_port)
            direction = "s2c"
        if flip == 0:
            direction = "s2c" if direction == "c2s" else "c2s"
        packet = make_tcp_packet(
            *ends, flags=flags, seq=seq, ack=ack, load=load,
        )
        if corrupt == 0:
            packet.tcp.chksum_override = 0xDEAD
        fused_ctx.now = ref_ctx.now = fused_ctx.now + advance
        assert fused.process(packet, direction, fused_ctx) == [packet]
        assert reference.process(packet, direction, ref_ctx) == [packet]
        assert fused_ctx.log == ref_ctx.log
        _assert_same_state(fused, reference)
