"""Naplets and itinerary actions the benchmark runs.

They live in their own module so the serializer pickles them by
reference (``agents.TinyNaplet``) like any application class.  Every
timestamp the benchmark reports is taken here, by the benchmark's own
agents, and handed to the in-process :class:`Probe` the running
workload installs on :data:`PROBE`; agents never carry timing data.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

import repro
from repro.itinerary.operable import Operable

STOP = "stop"  # message body that ends a stationary receiver


class Probe:
    """Collects what the agents observe, on whatever thread they run.

    ``tracer`` is the span recorder of a traced leg (None otherwise): the
    agents time ``Naplet.travel`` through it and report each ``on_start``
    so it can close the monitor's admit-to-start interval.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tracer: Any = None
        # when the hop in flight started, and on which thread
        self.travel_at: tuple[float, int] | None = None
        self.hop_s: list[float] = []
        self.hop_intervals: list[tuple[float, float, int]] = []
        self.received: deque[tuple[str, Any, float, int]] = deque()
        self.delivered = threading.Condition(self.lock)

    def started(self, naplet: repro.Naplet) -> None:
        """Close the hop that brought *naplet* here (travel -> on_start)."""
        now = time.perf_counter()
        if self.tracer is not None:
            self.tracer.naplet_started(str(naplet.naplet_id), now)
        with self.lock:
            if self.travel_at is not None:
                began, thread = self.travel_at
                self.hop_s.append(now - began)
                self.hop_intervals.append((began, now, thread))
                self.travel_at = None

    def travel(self, naplet: repro.Naplet) -> None:
        """Stamp the hop's start, then move on along the itinerary."""
        with self.lock:
            self.travel_at = (time.perf_counter(), threading.get_ident())
        tracer = self.tracer
        span = tracer.open("itinerary.travel") if tracer is not None else None
        try:
            naplet.travel()
        finally:
            if span is not None:
                tracer.close(span)

    def got(self, receiver: str, body: Any, message_id: int) -> None:
        """A receiver's ``get_message`` returned *body*."""
        now = time.perf_counter()
        with self.delivered:
            self.received.append((receiver, body, now, message_id))
            self.delivered.notify_all()


PROBE = Probe()


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass(frozen=True)
class JourneyReport(Operable):
    """Report the visit count, the route walked and a digest of the cargo."""

    def operate(self, naplet: repro.Naplet) -> None:
        cargo = getattr(naplet, "cargo", b"")
        naplet.report_home(
            {
                "count": naplet.count,
                "route": naplet.navigation_log.servers_visited(),
                "cargo": digest(cargo) if cargo else None,
            }
        )


class TinyNaplet(repro.Naplet):
    """Carries one int counter around its tour (``tour-tiny``)."""

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.count = 0

    def on_start(self) -> None:
        PROBE.started(self)
        self.count += 1
        PROBE.travel(self)


class Courier(repro.Naplet):
    """Immutable bulk cargo plus a small visit log rebound every hop."""

    def __init__(self, name: str, cargo: bytes, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.cargo = cargo
        self.count = 0
        self.log: tuple[str, ...] = ()

    def on_start(self) -> None:
        PROBE.started(self)
        self.count += 1
        self.log = self.log + (self.require_context().hostname,)
        PROBE.travel(self)


class Receiver(repro.Naplet):
    """Receives messages; on leg *i* travels on after ``legs[i]`` of them.

    A stationary receiver (no legs) stays until a :data:`STOP` body
    arrives.  ``count`` is the number of messages received.
    """

    def __init__(self, name: str, legs: tuple[int, ...] = (), **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.legs = legs
        self.leg = 0
        self.count = 0

    def on_start(self) -> None:
        PROBE.started(self)
        messenger = self.require_context().messenger
        quota = self.legs[self.leg] if self.legs else None
        taken = 0
        while quota is None or taken < quota:
            message = messenger.get_message(timeout=60.0)
            if message.body == STOP:
                break
            taken += 1
            PROBE.got(self.name, message.body, message.message_id)
        self.count += taken
        self.leg += 1
        PROBE.travel(self)
