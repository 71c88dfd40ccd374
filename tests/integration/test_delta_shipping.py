"""Delta state shipping end-to-end: negotiation, recovery, and chaos.

The unit suite (tests/transport/test_delta.py) proves the envelope
machinery; this file proves the *space-level* contract over both
transports:

- repeat hops between the same pair of servers ship deltas;
- a destination that lost its base image mid-itinerary (cache eviction,
  restart...) acks ``need_full`` and the sender re-ships the full image
  within the same hop;
- a corrupted transfer costs one retried attempt, never delta shipping
  toward that peer for the rest of the run;
- a self-referential naplet travels as a whole-image field on both
  migration protocols with its cycles intact.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import NapletServer, ServerConfig, SpaceAdmin
from repro.simnet import VirtualNetwork, line
from repro.transport.base import FrameKind
from repro.transport.tcp import TcpTransport
from tests.conftest import CollectorNaplet

ROUTE = ["d01", "d00"] * 3  # six hops, ping-pong

# Hook the saboteur courier calls mid-journey (in-process transports run
# agents in this very process, so a module global reaches them).
_SABOTAGE: dict = {}


class SaboteurCourier(CollectorNaplet):
    """Collector that fires the registered sabotage hook at one hop."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        hook = _SABOTAGE.get("hook")
        if hook is not None and len(visited) == _SABOTAGE.get("at"):
            hook(context.hostname)
        self.travel()


class SelfLoopCourier(CollectorNaplet):
    """Collector whose fields reach back to itself.

    Each landing records whether both cycles survived the hop, so the
    report home proves the whole-image field kept them intact.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.me = self
        self.box = {"owner": self}

    def on_start(self) -> None:
        context = self.require_context()
        intact = self.me is self and self.box["owner"] is self
        visited = (self.state.get("visited") or []) + [(context.hostname, intact)]
        self.state.set("visited", visited)
        self.travel()


class _CostRecorder:
    """SerializerObserver keeping every dump's cost, in order."""

    def __init__(self) -> None:
        self.costs: list = []

    def serialized(self, cost) -> None:
        self.costs.append(cost)

    def deserialized(self, seconds: float, nbytes: int) -> None:
        pass


def _tcp_space(config_by_name: dict[str, ServerConfig], fault_plan=None):
    transport = TcpTransport(pooled=True)
    wire = transport if fault_plan is None else FaultInjector(transport, fault_plan)
    authority = SigningAuthority()
    registry = CodeBaseRegistry()
    servers = {
        name: NapletServer(
            hostname=name,
            transport=wire,
            authority=authority,
            code_registry=registry,
            config=config,
        )
        for name, config in config_by_name.items()
    }
    return transport, servers


def _configs(**overrides) -> dict[str, ServerConfig]:
    settings = {"migration_fast_path": True, "delta_shipping": True, **overrides}
    base = ServerConfig(**settings)
    return {"d00": base, "d01": dataclasses.replace(base)}


def _journey(servers, agent=None, route=ROUTE):
    """Run *agent* (a plain courier by default) over *route* from d00."""
    listener = repro.NapletListener()
    agent = agent or CollectorNaplet("courier")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
    )
    servers["d00"].launch(agent, owner="alice", listener=listener)
    payload = listener.next_report(timeout=30).payload
    # The report fires from the landing server before the *sender* of the
    # final hop finishes its ack bookkeeping (delta counters included):
    # drain the space before reading telemetry.
    SpaceAdmin(servers).wait_space_idle(timeout=10)
    return payload


# Seven hops of d00 <-> d01 ping-pong, and a retry budget that outlasts
# one corrupted transfer.
PING_PONG = ["d01", "d00"] * 3 + ["d01"]
_RETRYING = RetryPolicy(
    max_attempts=4, base_delay=0.005, multiplier=1.5, max_delay=0.05, jitter=0.0
)


def _corrupt_first_transfer() -> FaultPlan:
    return FaultPlan(seed=5).corrupt(kind=FrameKind.NAPLET_TRANSFER, nth=1)


def _assert_corruption_cost_one_retry(servers) -> None:
    """The corrupted hop was retried; it did not pin the peer off deltas."""
    assert _total(servers, "landings") == len(PING_PONG)  # exactly once
    assert _total(servers, "delta_hops") == len(PING_PONG) - 1
    assert _total(servers, "migration_retries") >= 1


def _self_loop_route(servers) -> None:
    payload = _journey(servers, SelfLoopCourier("loop"))
    assert payload == [(host, True) for host in ROUTE]


def _total(servers, counter: str) -> int:
    return int(sum(getattr(s.telemetry, counter).total() for s in servers.values()))


class TestDeltaOverInMemory:
    @pytest.fixture
    def memory_space(self):
        network = VirtualNetwork(line(2, prefix="d"))
        yield network
        network.shutdown()

    def _attach(self, network, configs):
        return {
            name: NapletServer.attach(network.host(name), config)
            for name, config in configs.items()
        }

    def test_repeat_hops_ship_deltas(self, memory_space):
        servers = self._attach(memory_space, _configs())
        _journey(servers)
        # Hop 1 is always a full image; every later hop had an acked base.
        assert _total(servers, "delta_hops") == len(ROUTE) - 1
        assert _total(servers, "delta_saved_bytes") > 0
        assert _total(servers, "delta_full_reships") == 0

    def test_corrupt_transfer_keeps_deltas(self):
        network = VirtualNetwork(
            line(2, prefix="d"), fault_plan=_corrupt_first_transfer()
        )
        try:
            servers = self._attach(
                network, _configs(migration_retry=_RETRYING)
            )
            assert _journey(servers, route=PING_PONG) == PING_PONG
            _assert_corruption_cost_one_retry(servers)
        finally:
            network.shutdown()

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "two-phase"])
    def test_self_referential_naplet_keeps_its_cycles(self, memory_space, fast):
        servers = self._attach(memory_space, _configs(migration_fast_path=fast))
        _self_loop_route(servers)

    def test_evicted_base_forces_transparent_full_reship(self, memory_space):
        servers = self._attach(memory_space, _configs())
        recorder = _CostRecorder()
        servers["d01"].serializer._observer = recorder
        sabotage_at = 3  # naplet sits on d01; next hop lands on d00

        def evict_everywhere_else(current_host: str) -> None:
            for name, server in servers.items():
                if name != current_host:
                    server.serializer.delta_cache.clear()

        _SABOTAGE.update(hook=evict_everywhere_else, at=sabotage_at)
        try:
            listener = repro.NapletListener()
            agent = SaboteurCourier("chaos-courier")
            agent.set_itinerary(
                Itinerary(
                    SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited"))
                )
            )
            nid = servers["d00"].launch(agent, owner="alice", listener=listener)
            assert listener.next_report(timeout=30).payload == ROUTE
            admin = SpaceAdmin(servers)
            admin.wait_space_idle(timeout=10)
        finally:
            _SABOTAGE.clear()
        # The sender still believed in its base, the receiver had lost it:
        # exactly one need_full round trip, then delta shipping resumed.
        assert _total(servers, "delta_full_reships") == 1
        # Hops #1 (first image) and #4 (the need_full reship) are full;
        # the reship re-seeds both ends, so later hops return to deltas.
        # Hop #5 may go either way — the eviction also hit d00's sender
        # cache, but hop #4's landing re-seeds it in time on most runs.
        assert len(ROUTE) - 3 <= _total(servers, "delta_hops") <= len(ROUTE) - 2
        # The reshipped hop serialized twice — the refused delta, then the
        # full image — and its hop-cost record bills both dumps; every other
        # hop of d01's bills its one.  Records are matched by value, not
        # position: a sender journals its hop after the ack, and the naplet
        # can be two hops further on by then.
        costs = recorder.costs
        pair = next(
            i for i in range(1, len(costs)) if costs[i - 1].delta and not costs[i].delta
        )
        seconds = [c.seconds for c in costs]
        per_hop = seconds[: pair - 1] + [seconds[pair - 1] + seconds[pair]] + seconds[pair + 1:]
        billed = [
            r.detail["serialize_s"]
            for r in admin.harvest_journal(category="perf", naplet=str(nid))
            if r.detail["source"] == "d01"
        ]
        assert sorted(billed) == pytest.approx(sorted(per_hop), abs=1e-9)


class TestDeltaOverTcp:
    def test_repeat_hops_ship_deltas_over_sockets(self):
        transport, servers = _tcp_space(_configs())
        try:
            _journey(servers)
            assert _total(servers, "delta_hops") == len(ROUTE) - 1
            assert _total(servers, "delta_full_reships") == 0
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()

    def test_corrupt_transfer_keeps_deltas_tcp(self):
        transport, servers = _tcp_space(
            _configs(migration_retry=_RETRYING), _corrupt_first_transfer()
        )
        try:
            assert _journey(servers, route=PING_PONG) == PING_PONG
            _assert_corruption_cost_one_retry(servers)
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "two-phase"])
    def test_self_referential_naplet_keeps_its_cycles_over_sockets(self, fast):
        transport, servers = _tcp_space(_configs(migration_fast_path=fast))
        try:
            _self_loop_route(servers)
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()
