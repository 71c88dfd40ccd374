"""The three workloads: build a space, warm it, drive it, check it.

Load is closed-loop from one process with one op in flight: the next
journey launches only when the previous one reported home, and the
next message is posted only when the previous one left its receiver's
``get_message``.  Every input — tour orders, cargo bytes, message
bodies and sizes, the roamer's per-leg message counts — is drawn from
the run's seed; the space receives only the generated values.

A failed check never aborts a run: it is counted against the ops it
spoils (all hops of a journey whose report is wrong, one message that
reached the wrong receiver, arrived twice or changed on the way).  Only
an op that times out stops the run early, since the space is wedged.
"""

from __future__ import annotations

import queue
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import agents
import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.core.errors import NapletError
from repro.core.listener import NapletListener, ReportEnvelope
from repro.itinerary import Itinerary, SeqPattern
from repro.server import NapletServer, ServerConfig, deploy
from repro.simnet import VirtualNetwork, ring
from repro.transport.base import urn_of
from repro.transport.tcp import TcpTransport

OWNER = "perfbench"
REPORT_TIMEOUT = 30.0
POST_FAILED_WAIT = 2.0  # how long a post that raised may still deliver
# Peak memory is read once this many ops are done, so that it does not
# follow how many ops a busy or idle host fits into the run.
RSS_OPS = 3000


@dataclass
class Leg:
    """What one measured stretch of a workload did."""

    ops: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cpu: float = 0.0
    wire_bytes: int = 0
    op_s: list[float] = field(default_factory=list)
    journey_s: list[float] = field(default_factory=list)
    # (start, end, the thread that started the op), for span coverage
    op_intervals: list[tuple[float, float, int]] = field(default_factory=list)
    mailbox_wait_s: list[float] = field(default_factory=list)  # traced only
    rss_mb: float = 0.0  # peak RSS of the process when RSS_OPS were done
    problems: list[str] = field(default_factory=list)
    stalled: bool = False  # an op timed out: stop driving the space

    def fail(self, ops: int, problem: str, stalled: bool = False) -> None:
        self.failed += ops
        self.stalled = self.stalled or stalled
        if len(self.problems) < 20:
            self.problems.append(problem)

    def add(self, other: Leg) -> None:
        """Fold *other*, a later stretch of the same run, into this leg."""
        self.ops += other.ops
        self.failed += other.failed
        self.elapsed += other.elapsed
        self.cpu += other.cpu
        self.wire_bytes += other.wire_bytes
        self.op_s += other.op_s
        self.journey_s += other.journey_s
        self.op_intervals += other.op_intervals
        self.mailbox_wait_s += other.mailbox_wait_s
        self.rss_mb = max(self.rss_mb, other.rss_mb)
        self.problems += other.problems
        self.stalled = self.stalled or other.stalled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Base: a space of servers on one transport plus a home listener."""

    name = ""
    home = ""
    op = "hop"  # or "message": what one op of the workload is

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.servers: dict[str, NapletServer] = {}
        self.transport: Any = None
        self._reported_at: dict[str, float] = {}
        self._stamped = threading.Condition()
        self.listener = NapletListener(callback=self._stamp_report)
        self._journeys = 0

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def _stamp_report(self, envelope: ReportEnvelope) -> None:
        now = time.perf_counter()
        with self._stamped:
            self._reported_at[str(envelope.reporter)] = now
            self._stamped.notify_all()

    def next_report(self, timeout: float = REPORT_TIMEOUT) -> tuple[ReportEnvelope, float]:
        """The next report home, with the time the listener got it.

        Raises ``queue.Empty`` when none arrives within *timeout*.
        """
        envelope = self.listener.next_report(timeout=timeout)
        key = str(envelope.reporter)
        with self._stamped:
            # The listener queues a report before it runs the callback.
            if not self._stamped.wait_for(lambda: key in self._reported_at, timeout):
                raise queue.Empty
            return envelope, self._reported_at.pop(key)

    def launch(self, naplet: repro.Naplet, route: list[str]) -> float:
        """Send *naplet* along *route* from home; returns the launch time."""
        naplet.set_itinerary(
            Itinerary(SeqPattern.of_servers(route, post_action=agents.JourneyReport()))
        )
        started = time.perf_counter()
        with agents.PROBE.lock:
            agents.PROBE.travel_at = (started, threading.get_ident())
        self.servers[self.home].launch(naplet, owner=OWNER, listener=self.listener)
        return started

    def wire_bytes(self) -> int:
        """Every byte the transport moved so far, all frame kinds."""
        return sum(self.transport.endpoint_bytes(h)[0] for h in self.servers)

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> Leg:
        """First code shipping, first full images, pool dials."""
        return self.run(0.0)

    def run(self, seconds: float) -> Leg:
        """Drive the space for at least *seconds*; at least one journey."""
        leg = Leg()
        agents.PROBE.hop_s.clear()
        agents.PROBE.hop_intervals.clear()
        wire0 = self.wire_bytes()
        cpu0 = time.process_time()
        started = time.perf_counter()
        deadline = started + seconds
        while True:
            self.step(leg)
            if not leg.rss_mb and leg.ops >= RSS_OPS:
                leg.rss_mb = peak_rss_mb()
            if time.perf_counter() >= deadline or leg.stalled:
                break
        self.settle(leg)
        leg.elapsed = time.perf_counter() - started
        leg.cpu = time.process_time() - cpu0
        leg.wire_bytes = self.wire_bytes() - wire0
        leg.rss_mb = leg.rss_mb or peak_rss_mb()
        return leg

    def step(self, leg: Leg) -> None:
        raise NotImplementedError

    def settle(self, leg: Leg) -> None:
        """Finish whatever the last step left in flight."""

    def finish(self) -> list[str]:
        """End-of-run checks; returns the problems found."""
        dead = sum(len(s.messenger.dead_letters) for s in self.servers.values())
        return [f"{dead} dead letters"] if dead else []

    def teardown(self) -> None:
        for server in self.servers.values():
            server.shutdown()
        if self.transport is not None:
            self.transport.close()


class HopWorkload(Workload):
    """Journeys of one naplet at a time; op = hop."""

    hops = 0

    def journey(self) -> tuple[repro.Naplet, list[str], str | None]:
        """A fresh naplet, its route, and the cargo digest it must report."""
        raise NotImplementedError

    def step(self, leg: Leg) -> None:
        naplet, route, cargo = self.journey()
        hops_before = len(agents.PROBE.hop_s)
        leg.ops += len(route)
        try:
            started = self.launch(naplet, route)
        except NapletError as exc:
            leg.fail(len(route), f"{naplet.name}: launch failed ({exc!r})", stalled=True)
            return
        try:
            envelope, reported = self.next_report()
        except queue.Empty as exc:
            leg.fail(len(route), f"{naplet.name}: no report ({exc!r})", stalled=True)
            return
        expected = {
            "count": len(route),
            "route": [urn_of(h) for h in route],
            "cargo": cargo,
        }
        if envelope.payload != expected:
            leg.fail(len(route), f"{naplet.name}: report {envelope.payload!r:.200}")
        leg.journey_s.append(reported - started)
        leg.op_s.extend(agents.PROBE.hop_s[hops_before:])
        leg.op_intervals.extend(agents.PROBE.hop_intervals[hops_before:])


class TourTiny(HopWorkload):
    """InMemory ring(4), default config; a tiny naplet on 60-hop tours."""

    name = "tour-tiny"
    home = "t00"
    hops = 60

    def setup(self) -> None:
        self.network = VirtualNetwork(ring(4, prefix="t"), sleep_scale=0)
        self.servers = deploy(self.network)
        self.transport = self.network.transport
        self._orders = self.rng("tour")

    def journey(self) -> tuple[repro.Naplet, list[str], str | None]:
        stops = [h for h in sorted(self.servers) if h != self.home]
        route: list[str] = []
        while len(route) < self.hops:
            pick = self._orders.choice(stops)
            if not route or pick != route[-1]:
                route.append(pick)
        self._journeys += 1
        return agents.TinyNaplet(f"tiny-{self._journeys}"), route, None

    def teardown(self) -> None:
        self.network.shutdown()


def tcp_space(hostnames: list[str]) -> tuple[TcpTransport, dict[str, NapletServer]]:
    """Default servers sharing one pooled loopback transport."""
    transport = TcpTransport()
    authority = SigningAuthority()
    registry = CodeBaseRegistry()
    servers = {
        name: NapletServer(
            hostname=name,
            transport=transport,
            authority=authority,
            code_registry=registry,
            config=ServerConfig(),
        )
        for name in hostnames
    }
    return transport, servers


class CourierCargo(HopWorkload):
    """Pooled TCP, 2 servers; 1 MiB of cargo on 20-hop ping-pong journeys."""

    name = "courier-cargo"
    home = "c0"
    hops = 20
    cargo_bytes = 1 << 20

    def setup(self) -> None:
        self.transport, self.servers = tcp_space(["c0", "c1"])
        self.cargo = self.rng("cargo").randbytes(self.cargo_bytes)
        self.cargo_digest = agents.digest(self.cargo)

    def journey(self) -> tuple[repro.Naplet, list[str], str | None]:
        self._journeys += 1
        courier = agents.Courier(f"courier-{self._journeys}", cargo=self.cargo)
        return courier, ["c1", "c0"] * (self.hops // 2), self.cargo_digest


class MsgChase(Workload):
    """Pooled TCP, 3 servers; messages chase a roamer between m1 and m2.

    Two stationary receivers sit on m1 and m2.  Posts go from m0
    round-robin to them and to the roamer, one in flight.  Each roamer
    journey takes :attr:`per_journey` messages, moving to the other
    server after every K of them, K drawn from the seed per leg; the
    next roamer launches when the previous one has its last message.
    """

    name = "msg-chase"
    home = "m0"
    op = "message"
    per_journey = 48
    body_range = (64, 4096)
    leg_range = (4, 12)

    def setup(self) -> None:
        self.transport, self.servers = tcp_space(["m0", "m1", "m2"])
        self._bodies = self.rng("bodies")
        self._legs = self.rng("legs")
        self._seq = 0
        self.arrived: dict[str, int] = {"rx-m1": 0, "rx-m2": 0}
        self.stationary: dict[str, Any] = {}
        for host in ("m1", "m2"):
            receiver = agents.Receiver(f"rx-{host}")
            self.launch(receiver, [host])
            self.stationary[receiver.name] = receiver.naplet_id
        self._roamer: tuple[str, Any, tuple[str, ...], float] | None = None
        self._roamer_left = 0
        self._turn = 0

    def warm(self) -> Leg:
        leg = Leg()
        while not leg.stalled and (self._journeys == 0 or self._roamer is not None):
            self.step(leg)
        return leg

    def _new_roamer(self) -> None:
        legs: list[int] = []
        while sum(legs) < self.per_journey:
            legs.append(self._legs.randint(*self.leg_range))
        legs[-1] -= sum(legs) - self.per_journey
        self._journeys += 1
        roamer = agents.Receiver(f"roamer-{self._journeys}", legs=tuple(legs))
        route = [("m1", "m2")[i % 2] for i in range(len(legs))]
        started = self.launch(roamer, route)
        self._roamer = (roamer.name, roamer.naplet_id, tuple(route), started)
        self._roamer_left = self.per_journey

    def _collect_roamer(self, leg: Leg) -> None:
        """Wait for the finished roamer's report and check it."""
        assert self._roamer is not None
        name, _nid, route, started = self._roamer
        self._roamer = None
        try:
            envelope, reported = self.next_report()
        except queue.Empty as exc:
            leg.fail(1, f"{name}: no report ({exc!r})", stalled=True)
            return
        expected = {
            "count": self.per_journey,
            "route": [urn_of(h) for h in route],
            "cargo": None,
        }
        if envelope.payload != expected:
            leg.fail(1, f"{name}: report {envelope.payload!r:.200}")
        leg.journey_s.append(reported - started)

    def step(self, leg: Leg) -> None:
        turn = self._turn % 3
        self._turn += 1
        if turn == 2:
            if self._roamer is None:
                try:
                    self._new_roamer()
                except NapletError as exc:
                    leg.ops += 1
                    leg.fail(1, f"roamer launch failed ({exc!r})", stalled=True)
                    return
            name, nid = self._roamer[0], self._roamer[1]
        else:
            name = f"rx-m{turn + 1}"
            nid = self.stationary[name]
        self._seq += 1
        size = self._bodies.randint(*self.body_range)
        body = (self._seq, self._bodies.randbytes(size))
        # Count a message where it arrived, so that the receivers' totals
        # do not count a failed op a second time.
        receiver = self.post(leg, name, nid, body)
        if receiver in self.arrived:
            self.arrived[receiver] += 1
        elif self._roamer is not None and receiver == self._roamer[0]:
            self._roamer_left -= 1
            if self._roamer_left == 0:
                self._collect_roamer(leg)

    def post(self, leg: Leg, name: str, nid: Any, body: tuple[int, bytes]) -> str | None:
        """Post *body* to *name* and wait until a receiver has it; returns
        that receiver's name, or None when nothing arrived."""
        leg.ops += 1
        started = time.perf_counter()
        try:
            self.servers[self.home].messenger.post(None, nid, body)
        except NapletError as exc:
            leg.fail(1, f"post {body[0]} to {name}: {exc!r}")
            # It may arrive all the same: take it now rather than as an
            # extra delivery of the next op.
            taken = self._take(POST_FAILED_WAIT)
            return taken[0] if taken else None
        taken = self._take(REPORT_TIMEOUT)
        if taken is None:
            leg.fail(1, f"message {body[0]} to {name} never arrived", stalled=True)
            return None
        receiver, got, at, message_id, extra = taken
        if receiver != name or got != body or extra:
            seq = got[0] if isinstance(got, tuple) else got
            leg.fail(1, f"message {body[0]} for {name}: got {seq} at {receiver}, extra {extra}")
        tracer = agents.PROBE.tracer
        if tracer is not None:
            put = tracer.put_at.pop(message_id, None)
            if put is not None:
                leg.mailbox_wait_s.append(at - put)
        leg.op_s.append(at - started)
        leg.op_intervals.append((started, at, threading.get_ident()))
        return receiver

    @staticmethod
    def _take(timeout: float) -> tuple[str, Any, float, int, list] | None:
        """The next delivery within *timeout*, plus (receiver, seq) of any
        others already in; None when nothing arrives."""
        probe = agents.PROBE
        deadline = time.monotonic() + timeout
        with probe.delivered:
            while not probe.received and time.monotonic() < deadline:
                probe.delivered.wait(0.5)
            if not probe.received:
                return None
            receiver, got, at, message_id = probe.received.popleft()
            extra = [(r, b[0] if isinstance(b, tuple) else b) for r, b, _a, _m in probe.received]
            probe.received.clear()
        return receiver, got, at, message_id, extra

    def settle(self, leg: Leg) -> None:
        # Let the roamer in flight take the rest of its journey.
        while self._roamer is not None and not leg.stalled:
            self.step(leg)

    def finish(self) -> list[str]:
        problems = []
        for name, nid in self.stationary.items():
            try:
                self.servers[self.home].messenger.post(None, nid, agents.STOP)
                envelope, _at = self.next_report()
            except (NapletError, queue.Empty) as exc:
                problems.append(f"{name}: not stopped ({exc!r})")
                continue
            if str(envelope.reporter) != str(nid):
                problems.append(f"{name}: stopped, but {envelope.reporter} reported")
            elif envelope.payload["count"] != self.arrived[name]:
                problems.append(
                    f"{name} counted {envelope.payload['count']} messages, "
                    f"{self.arrived[name]} reached it"
                )
        with agents.PROBE.lock:
            if agents.PROBE.received:
                problems.append(f"{len(agents.PROBE.received)} unexpected deliveries")
        return problems + super().finish()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (TourTiny, CourierCargo, MsgChase)
}
