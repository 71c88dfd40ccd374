"""Span recorder for the traced run.

Wrappers go on the *instances* a space is built from — each server's
serializer, navigator, monitor, ... and the shared transport — around
their public methods, so the program's classes and every untraced run
stay untouched; :meth:`SpanRecorder.uninstall` puts every original
back.  A thread-local stack links each span to the span that caused it;
a layer's self time is its span minus the time its child spans cover.
Spans stay in memory until :meth:`SpanRecorder.write`.

A layer is not re-entrant: a call into a layer already on top of the
stack (``loads`` calling ``loads_with_info``) counts once.
"""

from __future__ import annotations

import bisect
import gzip
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# layer name -> (attribute path on the server, public methods)
SERVER_LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "serializer.encode": ("serializer", ("dumps", "dumps_with_cost")),
    "serializer.decode": ("serializer", ("loads", "loads_with_info")),
    "navigator.dispatch": ("navigator", ("dispatch",)),
    "navigator.launch": ("navigator", ("launch",)),
    "navigator.handle_transfer": ("navigator", ("handle_transfer",)),
    "security.check": ("security", ("check", "permits", "verify_credential")),
    "directory.report": (
        "directory_client",
        ("report_arrival", "report_departure", "report_migration"),
    ),
    "directory.lookup": ("directory_client", ("lookup",)),
    "manager.record_arrival": ("manager", ("record_arrival",)),
    "monitor.admit": ("monitor", ("admit",)),
    "locator.locate": ("locator", ("locate",)),
    "locator.note": ("locator", ("note_location",)),
    "messenger.post": ("messenger", ("post",)),
    "messenger.deliver": ("messenger", ("handle_message_frame",)),
    "messenger.report": ("messenger", ("post_report", "handle_report_frame")),
    "messenger.mailbox": ("messenger", ("create_mailbox", "remove_mailbox")),
    "eventlog.record": ("events", ("record",)),
    "health.sample": ("health", ("sample_now",)),
    "observatory.beat": ("observatory", ("beat_now",)),
}
TRANSPORT_LAYER = ("transport.request", ("request", "send"))
# What a span keeps of its call, for the per-layer counts: (args, result).
KEEP: dict[str, Callable[[tuple, Any], Any]] = {
    "request": lambda args, _reply: args[0].kind,  # frame kind
    "send": lambda args, _reply: args[0].kind,
    "dumps_with_cost": lambda _args, result: result[2],  # SerializeCost
    "post": lambda _args, receipt: receipt,  # DeliveryReceipt
}
# Work the space does on its own cadence, not for the op in flight.
BACKGROUND = frozenset({"health.sample", "observatory.beat"})
# The benchmark naplet's own span around ``Naplet.travel``: it is still
# open when the next ``on_start`` runs, so it would cover every hop.
CATCH_ALL = "itinerary.travel"


_ABSENT = object()


class Span:
    __slots__ = ("layer", "start", "duration", "child", "root", "result", "thread")

    def __init__(self, layer: str, start: float, root: str) -> None:
        self.layer = layer
        self.start = start
        self.thread = threading.get_ident()
        self.duration = 0.0
        self.child = 0.0
        self.root = root
        self.result: Any = None

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class SpanRecorder:
    """In-memory spans plus the few interval marks that are not calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: list[Span] = []
        self.admitted_at: dict[str, float] = {}
        self.thread_start_s: list[float] = []
        self.put_at: dict[int, float] = {}
        self.threads_peak = 0
        self._monitors: list[Any] = []
        self._lock = threading.Lock()
        # (object, attribute, its own value before, or _ABSENT), in order
        self._replaced: list[tuple[Any, str, Any]] = []
        self._installed = False
        # Mailboxes are wrapped as the space creates them, on its threads.
        self._swap = threading.Lock()

    # -- recording ---------------------------------------------------------- #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Span | None:
        """Push a span for *layer*; None when the layer is already on top."""
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return None
        span = Span(layer, time.perf_counter(), stack[0].root if stack else layer)
        stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.duration = time.perf_counter() - span.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        self.spans.append(span)

    def wrap(
        self,
        obj: Any,
        method: str,
        layer: str,
        keep: Callable[[tuple, Any], Any] | None = None,
    ) -> None:
        """Replace ``obj.method`` by a spanned call; *keep* picks what of
        the call the span retains (nothing by default)."""
        inner: Callable[..., Any] = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(layer)
            try:
                result = inner(*args, **kwargs)
                if span is not None and keep is not None:
                    span.result = keep(args, result)
                return result
            finally:
                self.close(span)

        self._replace(obj, method, traced)

    # -- installation --------------------------------------------------------- #

    def _replace(self, obj: Any, name: str, value: Any) -> None:
        with self._swap:
            if not self._installed:
                return
            self._replaced.append((obj, name, vars(obj).get(name, _ABSENT)))
            setattr(obj, name, value)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        with self._swap:
            self._installed = False
            while self._replaced:
                obj, name, before = self._replaced.pop()
                if before is _ABSENT:
                    delattr(obj, name)
                else:
                    setattr(obj, name, before)
        self._monitors.clear()
        with self._lock:
            self.admitted_at.clear()
            self.put_at.clear()

    def install(self, servers: list[Any], transport: Any) -> None:
        """Wrap every layer of *servers* and their shared *transport*."""
        self._installed = True
        layer, methods = TRANSPORT_LAYER
        for method in methods:
            self.wrap(transport, method, layer, KEEP[method])
        for server in servers:
            for layer, (attr, methods) in SERVER_LAYERS.items():
                target = getattr(server, attr)
                for method in methods:
                    self.wrap(target, method, layer, KEEP.get(method))
            self._watch_admissions(server.monitor)
            self._watch_mailboxes(server)
            self._monitors.append(server.monitor)

    def _watch_admissions(self, monitor: Any) -> None:
        admit = monitor.admit

        def admit_marked(naplet: Any, *args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.admitted_at[str(naplet.naplet_id)] = time.perf_counter()
            block = admit(naplet, *args, **kwargs)
            active = sum(m.active_count for m in self._monitors)
            with self._lock:
                self.threads_peak = max(self.threads_peak, active)
            return block

        self._replace(monitor, "admit", admit_marked)

    def _watch_mailboxes(self, server: Any) -> None:
        """Stamp every mailbox ``put``, for the put-to-``get`` wait."""
        messenger = server.messenger

        def mark(mailbox: Any) -> Any:
            if mailbox is not None and "put" not in vars(mailbox):
                put = mailbox.put

                def put_marked(message: Any) -> None:
                    self.put_at[message.message_id] = time.perf_counter()
                    put(message)

                self._replace(mailbox, "put", put_marked)
            return mailbox

        for nid in server.manager.resident_ids():
            mark(messenger.mailbox_of(nid))
        create = messenger.create_mailbox
        self._replace(messenger, "create_mailbox", lambda nid: mark(create(nid)))

    def naplet_started(self, nid: str, now: float) -> None:
        with self._lock:
            admitted = self.admitted_at.pop(nid, None)
        if admitted is not None:
            self.thread_start_s.append(now - admitted)

    # -- output ------------------------------------------------------------------ #

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: layer, root, start, duration, self."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("layer,root,start_s,duration_s,self_s\n")
            for s in self.spans:
                out.write(
                    f"{s.layer},{s.root},{s.start:.9f},{s.duration:.9f},{s.self_time:.9f}\n"
                )


def coverage(spans: list[Span], intervals: list[tuple[float, float, int]]) -> float:
    """Median share of each op's interval during which a named layer ran
    on the op's own thread (the one that called ``travel``, ``launch``
    or ``post``).

    A layer waiting on another thread — a request awaiting its reply —
    counts as that layer's time; work on other threads for other ops
    does not count.  Background spans and the catch-all
    :data:`CATCH_ALL` span are left out, so the time no layer accounts
    for — itinerary driving, naplet code, thread wake-ups, mailbox
    waits — is the remainder.
    """
    busy: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.layer != CATCH_ALL and s.root not in BACKGROUND:
            busy[s.thread].append((s.start, s.start + s.duration))
    merged: dict[int, tuple[list[float], list[float]]] = {}
    for thread, marks in busy.items():
        starts: list[float] = []
        ends: list[float] = []
        for start, end in sorted(marks):
            if ends and start <= ends[-1]:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        merged[thread] = (starts, ends)
    shares = []
    for w0, w1, thread in intervals:
        if w1 <= w0:
            continue
        starts, ends = merged.get(thread, ([], []))
        covered = 0.0
        i = bisect.bisect_right(ends, w0)
        while i < len(starts) and starts[i] < w1:
            covered += min(w1, ends[i]) - max(w0, starts[i])
            i += 1
        shares.append(covered / (w1 - w0))
    return statistics.median(shares) if shares else 0.0
