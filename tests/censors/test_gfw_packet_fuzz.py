"""Property test: GFW boxes survive arbitrary packet sequences.

The real GFW processes adversarial traffic continuously; the model must
never raise or leak unbounded state regardless of the flag/seq/payload
soup thrown at it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.censors import CHINA_KEYWORDS, GreatFirewall
from repro.censors.gfw.profiles import CHINA_PROFILES
from repro.packets import bits_to_flags, make_tcp_packet

CLIENT = "10.1.0.2"
SERVER = "192.0.2.10"


class FuzzCtx:
    now = 0.0

    def __init__(self):
        self.injections = 0

    def inject(self, packet, toward):
        self.injections += 1

    def record(self, *args, **kwargs):
        pass


packet_strategy = st.tuples(
    st.booleans(),                      # direction: client -> server?
    st.integers(0, 255),                # flag bits
    st.integers(0, 2**32 - 1),          # seq
    st.integers(0, 2**32 - 1),          # ack
    st.binary(max_size=40),             # payload
)


@given(st.lists(packet_strategy, min_size=1, max_size=25), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_box_never_crashes_on_arbitrary_sequences(packets, seed):
    gfw = GreatFirewall(
        rng=random.Random(seed),
        keywords=CHINA_KEYWORDS,
        protocols=("http",),
        profiles={"http": CHINA_PROFILES["http"]},
    )
    ctx = FuzzCtx()
    for from_client, flag_bits, seq, ack, load in packets:
        if from_client:
            packet = make_tcp_packet(
                CLIENT, SERVER, 41000, 80,
                flags=bits_to_flags(flag_bits), seq=seq, ack=ack, load=load,
            )
            gfw.process(packet, "c2s", ctx)
        else:
            packet = make_tcp_packet(
                SERVER, CLIENT, 80, 41000,
                flags=bits_to_flags(flag_bits), seq=seq, ack=ack, load=load,
            )
            gfw.process(packet, "s2c", ctx)
    # One 4-tuple in play: at most one TCB, and injections come in pairs.
    assert len(gfw.box("http").flows) <= 1
    assert ctx.injections % 2 == 0


@given(st.lists(packet_strategy, min_size=1, max_size=15), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_all_five_boxes_survive_via_gfw(packets, seed):
    from repro.censors import GreatFirewall

    gfw = GreatFirewall(rng=random.Random(seed))
    ctx = FuzzCtx()
    for from_client, flag_bits, seq, ack, load in packets:
        if from_client:
            packet = make_tcp_packet(
                CLIENT, SERVER, 41000, 80,
                flags=bits_to_flags(flag_bits), seq=seq, ack=ack, load=load,
            )
            out = gfw.process(packet, "c2s", ctx)
        else:
            packet = make_tcp_packet(
                SERVER, CLIENT, 80, 41000,
                flags=bits_to_flags(flag_bits), seq=seq, ack=ack, load=load,
            )
            out = gfw.process(packet, "s2c", ctx)
        assert out == [packet]  # on-path: always forwards
