"""Property test: exchanges that carry data across the 2**32 sequence wrap.

Both hosts draw their initial sequence numbers within 64 KiB of 2**32
(through a stub RNG), so the handshake, the data and the FIN of an
HTTP exchange, an SMTP exchange and a multi-segment bulk transfer sit
right at the wrap. Each exchange runs once clean and once with one
data segment dropped on the path, which forces a retransmission from
below the wrap to above it. The delivered bytes must equal what the
peer sent and the FIN close must complete.

The oracle is shift invariance: the same exchange with both ISNs moved
2**17 lower never wraps, and must produce the same trace event for
event — same times, flags and payloads, and the same sequence and
acknowledgement numbers relative to each side's ISN.
"""

import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps import HTTPClient, HTTPServer, SMTPClient, SMTPServer
from repro.netsim import DIRECTION_C2S, DIRECTION_S2C, Middlebox
from repro.tcpstack import OSPersonality, states

WRAP = 1 << 32
SHIFT = 1 << 17
ISNS = st.integers(min_value=WRAP - 65536, max_value=WRAP - 1)
CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.0.0.2"
BULK_PORT = 9000
#: Four full segments and a tail: several segments in flight at once,
#: acknowledged one by one across the wrap.
BULK = bytes(range(256)) * 25
#: The bulk client advertises a small unscaled window, so the server's
#: sends are window-limited and in-flight accounting spans the wrap.
SMALL_WINDOW = OSPersonality(
    name="small-window", family="linux", default_window=3000, window_scale=0
)


class _IsnRng(random.Random):
    """A seeded RNG whose ISN draw (``randrange(1, 2**32)``) is fixed."""

    isn = 1

    def randrange(self, start, stop=None, step=1):
        if (start, stop) == (1, WRAP):
            return self.isn
        return super().randrange(start, stop, step)


class _DropNthData(Middlebox):
    """Drops the ``nth`` payload-bearing segment travelling ``direction``."""

    name = "dropper"

    def __init__(self, direction, nth):
        self.direction = direction
        self.nth = nth
        self.seen = 0
        self.dropped = False

    def process(self, packet, direction, ctx):
        if direction == self.direction and packet.tcp.load:
            self.seen += 1
            if self.seen == self.nth:
                self.dropped = True
                return []
        return [packet]


class _BulkClient:
    """Asks for :data:`BULK` over a raw endpoint and closes once it has it."""

    def __init__(self, host):
        self.host = host
        self.endpoint = None
        self.outcome = None
        self.detail = ""

    def start(self):
        endpoint = self.host.open_connection(SERVER_IP, BULK_PORT)
        endpoint.on_established = lambda: endpoint.send(b"GET bulk\r\n")

        def on_data(data):
            if bytes(endpoint.received) == BULK:
                self.outcome = "success"
                endpoint.close()

        endpoint.on_data = on_data
        self.endpoint = endpoint
        endpoint.connect()


class _BulkServer:
    def __init__(self, host, port):
        self.host = host
        self.port = port

    def install(self):
        def on_accept(endpoint):
            def on_data(data):
                endpoint.send(BULK)
                endpoint.close()

            endpoint.on_data = on_data

        self.host.listen(self.port, on_accept)


def _pin_isn(host, isn):
    rng = _IsnRng(7)
    rng.isn = isn
    host.rng = rng


def run_exchange(linked_hosts, protocol, client_isn, server_isn, dropper=None):
    pair = linked_hosts(middleboxes=[dropper] if dropper is not None else [])
    accepted = []
    pair.server.accept_hooks.append(accepted.append)
    _pin_isn(pair.client, client_isn)
    _pin_isn(pair.server, server_isn)
    if protocol == "bulk":
        pair.client.personality = SMALL_WINDOW
        server = _BulkServer(pair.server, BULK_PORT)
        client = _BulkClient(pair.client)
    else:
        server_cls, client_cls, port = {
            "http": (HTTPServer, HTTPClient, 80),
            "smtp": (SMTPServer, SMTPClient, 25),
        }[protocol]
        server = server_cls(pair.server, port)
        client = client_cls(pair.client, SERVER_IP, port, timeout=30.0)
        client.on_complete = lambda outcome: client.endpoint.close()
    server.install()
    client.start()
    pair.run(until=60.0)
    return pair, client, accepted[0]


def assert_clean_close(client, server_ep, client_isn, server_isn):
    client_ep = client.endpoint
    assert client.outcome == "success", client.detail
    assert client_ep.iss == client_isn and server_ep.iss == server_isn
    assert bytes(client_ep.received) == bytes(server_ep._stream)
    assert bytes(server_ep.received) == bytes(client_ep._stream)
    for ep, peer in ((client_ep, server_ep), (server_ep, client_ep)):
        assert not ep.was_reset and ep.failure_reason is None
        assert ep.state in (states.TIME_WAIT, states.CLOSED)
        # Own FIN sent and acknowledged; the peer's FIN consumed.
        assert ep._fin_sent and ep.snd_una == ep.snd_nxt
        assert ep.rcv_nxt == peer.snd_nxt


def relative_trace(pair, client_isn, server_isn):
    """The trace with seq/ack made relative to the sending side's ISN."""
    rows = []
    for event in pair.network.trace.events:
        tcp = event.packet.tcp
        if event.packet.ip.src == CLIENT_IP:
            own, peer = client_isn, server_isn
        else:
            own, peer = server_isn, client_isn
        ack = (tcp.ack - peer) % WRAP if "A" in tcp.flags else tcp.ack
        rows.append((
            event.time, event.kind, event.location, event.detail,
            tcp.flags, tcp.load, (tcp.seq - own) % WRAP, ack,
        ))
    return rows


def run_checked(linked_hosts, protocol, client_isn, server_isn, drop=None):
    """Run at the wrap and shifted below it; both must close cleanly alike."""
    runs = []
    for shift in (0, SHIFT):
        dropper = _DropNthData(*drop) if drop is not None else None
        pair, client, server_ep = run_exchange(
            linked_hosts, protocol, client_isn - shift, server_isn - shift, dropper
        )
        assert_clean_close(client, server_ep, client_isn - shift, server_isn - shift)
        runs.append((pair, client, server_ep, dropper))
    (pair, client, server_ep, dropper), shifted = runs[0], runs[1]
    assert relative_trace(pair, client_isn, server_isn) == relative_trace(
        shifted[0], client_isn - SHIFT, server_isn - SHIFT
    )
    for ep, twin in ((client.endpoint, shifted[1].endpoint), (server_ep, shifted[2])):
        assert ep.retransmits_sent == twin.retransmits_sent
        assert ep.dup_segments_discarded == twin.dup_segments_discarded
    return client, server_ep, dropper


@given(
    protocol=st.sampled_from(["http", "smtp", "bulk"]),
    client_isn=ISNS,
    server_isn=ISNS,
    direction=st.sampled_from([DIRECTION_C2S, DIRECTION_S2C]),
    nth=st.integers(min_value=1, max_value=3),
)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(protocol="http", client_isn=WRAP - 1, server_isn=WRAP - 1,
         direction=DIRECTION_S2C, nth=1)
@example(protocol="http", client_isn=WRAP - 20, server_isn=WRAP - 100,
         direction=DIRECTION_S2C, nth=1)
@example(protocol="http", client_isn=WRAP - 20, server_isn=WRAP - 100,
         direction=DIRECTION_C2S, nth=1)
@example(protocol="smtp", client_isn=WRAP - 30, server_isn=WRAP - 40,
         direction=DIRECTION_S2C, nth=2)
@example(protocol="smtp", client_isn=WRAP - 30, server_isn=WRAP - 40,
         direction=DIRECTION_C2S, nth=2)
@example(protocol="bulk", client_isn=WRAP - 5, server_isn=WRAP - 2000,
         direction=DIRECTION_S2C, nth=1)
@example(protocol="bulk", client_isn=WRAP - 5, server_isn=WRAP - 2000,
         direction=DIRECTION_S2C, nth=2)
def test_exchange_across_sequence_wrap(
    linked_hosts, protocol, client_isn, server_isn, direction, nth
):
    client, _, _ = run_checked(linked_hosts, protocol, client_isn, server_isn)
    clean_received = bytes(client.endpoint.received)

    client, server_ep, dropper = run_checked(
        linked_hosts, protocol, client_isn, server_isn, drop=(direction, nth)
    )
    assert bytes(client.endpoint.received) == clean_received
    if dropper.dropped:
        sender = server_ep if direction == DIRECTION_S2C else client.endpoint
        assert sender.retransmits_sent >= 1


def test_examples_cross_the_wrap(linked_hosts):
    """The pinned examples really put data on both sides of 2**32."""
    for protocol, client_isn, server_isn in (
        ("http", WRAP - 20, WRAP - 100),
        ("bulk", WRAP - 5, WRAP - 2000),
    ):
        _, client, server_ep = run_exchange(
            linked_hosts, protocol, client_isn, server_isn
        )
        assert_clean_close(client, server_ep, client_isn, server_isn)
        assert server_ep.snd_nxt < 65536 and client.endpoint.snd_nxt < 65536
