"""Service channels (paper §2.2, §5.3).

A :class:`ServiceChannel` is "essentially a synchronous pipe" between an
alien naplet and a restricted privileged service: the server assigns one
pair of endpoints (:class:`ServiceReader`/:class:`ServiceWriter`) to the
service and the other pair (:class:`NapletWriter`/:class:`NapletReader`) to
the naplet.  Data written by ``NapletWriter`` is read by ``ServiceReader``;
data written by ``ServiceWriter`` is read by ``NapletReader``.

Endpoints carry any object pickle can serialize; ``write_line``/``read_line``
aliases keep the paper's text-protocol listings readable.  ``EOF`` is the
stream-end sentinel (``in.readLine() != EOF`` in the paper's NMNaplet).

:class:`PrivilegedService` is the base class services extend (the paper's
``naplet.server.PrivilegedService``): subclasses implement :meth:`run` using
``self.reader``/``self.writer``; the ResourceManager starts one service
instance per channel on its own thread.
"""

from __future__ import annotations

import abc
import queue
import threading
import time
from typing import Any

from repro.core.errors import ServiceChannelClosed

__all__ = [
    "EOF",
    "ServiceChannel",
    "NapletReader",
    "NapletWriter",
    "ServiceReader",
    "ServiceWriter",
    "PrivilegedService",
]


class _Eof:
    _instance: "_Eof | None" = None

    def __new__(cls) -> "_Eof":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EOF"


EOF = _Eof()


class _Pipe:
    """One direction of the channel: a closable bounded queue."""

    def __init__(self, maxsize: int = 0) -> None:
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize)
        self._closed = threading.Event()

    def write(self, item: Any) -> None:
        if self._closed.is_set():
            raise ServiceChannelClosed("write on a closed service channel")
        self._queue.put(item)

    def read(self, timeout: float | None = None) -> Any:
        """Next item, or EOF once the pipe is closed and drained.

        Polls in short slices so a close() issued while a reader is blocked
        is noticed promptly (the service side often blocks in read while the
        naplet departs and its channels are torn down).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                return self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._closed.is_set():
                    return EOF
                if deadline is not None and time.monotonic() >= deadline:
                    raise ServiceChannelClosed(
                        f"service channel read timed out after {timeout}s"
                    ) from None

    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class _ReadEnd:
    def __init__(self, pipe: _Pipe, default_timeout: float | None) -> None:
        self._pipe = pipe
        self._default_timeout = default_timeout

    def read(self, timeout: float | None = None) -> Any:
        return self._pipe.read(timeout if timeout is not None else self._default_timeout)

    def read_line(self, timeout: float | None = None) -> Any:
        return self.read(timeout)

    def __iter__(self) -> Any:
        while True:
            item = self.read()
            if item is EOF:
                return
            yield item


class _WriteEnd:
    def __init__(self, pipe: _Pipe) -> None:
        self._pipe = pipe

    def write(self, item: Any) -> None:
        self._pipe.write(item)

    def write_line(self, item: Any) -> None:
        self.write(item)

    def close(self) -> None:
        self._pipe.close()


class NapletReader(_ReadEnd):
    """Naplet-side read endpoint (fed by the service's ServiceWriter)."""


class NapletWriter(_WriteEnd):
    """Naplet-side write endpoint (drained by the service's ServiceReader)."""


class ServiceReader(_ReadEnd):
    """Service-side read endpoint."""


class ServiceWriter(_WriteEnd):
    """Service-side write endpoint."""


class ServiceChannel:
    """The four endpoints of one naplet <-> privileged-service pipe pair."""

    def __init__(
        self,
        service_name: str,
        read_timeout: float | None = 30.0,
        maxsize: int = 0,
    ) -> None:
        self.service_name = service_name
        self._to_service = _Pipe(maxsize)
        self._to_naplet = _Pipe(maxsize)
        self.naplet_writer = NapletWriter(self._to_service)
        self.naplet_reader = NapletReader(self._to_naplet, read_timeout)
        self.service_reader = ServiceReader(self._to_service, read_timeout)
        self.service_writer = ServiceWriter(self._to_naplet)

    # Paper-style accessors -------------------------------------------------- #

    def get_naplet_writer(self) -> NapletWriter:
        return self.naplet_writer

    def get_naplet_reader(self) -> NapletReader:
        return self.naplet_reader

    def close(self) -> None:
        self._to_service.close()
        self._to_naplet.close()

    @property
    def closed(self) -> bool:
        return self._to_service.closed and self._to_naplet.closed

    # -- transient: channels never travel with a naplet ----------------------- #

    def __reduce__(self) -> Any:  # pragma: no cover - defensive
        raise TypeError("ServiceChannel endpoints are transient and not serializable")


class PrivilegedService(abc.ABC):
    """Base class for restricted privileged services (paper §6.1).

    One instance serves one channel.  The ResourceManager instantiates the
    service, binds the service-side endpoints, and runs :meth:`run` on a
    dedicated daemon thread.  ``run`` typically loops reading requests until
    EOF.
    """

    def __init__(self) -> None:
        self.reader: ServiceReader | None = None
        self.writer: ServiceWriter | None = None
        self._thread: threading.Thread | None = None

    def bind(self, reader: ServiceReader, writer: ServiceWriter) -> None:
        self.reader = reader
        self.writer = writer

    # Paper-style aliases: `in` is a Python keyword, so `self.input`.
    @property
    def input(self) -> ServiceReader:
        assert self.reader is not None, "service not bound to a channel"
        return self.reader

    @property
    def output(self) -> ServiceWriter:
        assert self.writer is not None, "service not bound to a channel"
        return self.writer

    @abc.abstractmethod
    def run(self) -> None:
        """Serve the channel until EOF."""

    def start(self, name: str) -> None:
        def _runner() -> None:
            try:
                self.run()
            except ServiceChannelClosed:
                pass
            finally:
                if self.writer is not None:
                    self.writer.close()

        self._thread = threading.Thread(target=_runner, name=name, daemon=True)
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
