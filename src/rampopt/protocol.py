"""Newline-delimited wire protocol for evaluating patterns on an external plant.

Request :  ``EVAL <60 comma-separated integers>``  (30 heights, 30 jet flags)
Response:  ``MEAS <42 space-separated pressures in Pa> <p0>``  or  ``ERR <message>``

One request is in flight at a time; a real plant actuates on every request,
so failed evaluations are never silently retried.  Both sides read at most
MAX_LINE_BYTES per line, newline included, so a peer that never ends its line
cannot grow the reader's buffer without bound.
"""

from __future__ import annotations

import socket
import threading


from .patterns import ActuationPattern
from .plant import (
    FlowConfig,
    Measurement,
    N_TAPS,
    TapGrid,
    cost_ja,
    cost_ja_star,
)


# About four times the longest valid reply: 43 float reprs of up to 24 characters.
MAX_LINE_BYTES = 4096


def _read_line(reader) -> tuple[bytes, bool]:
    """The next line of a binary reader, at most MAX_LINE_BYTES long, and
    whether it was cut there (it has more bytes before its newline)."""
    line = reader.readline(MAX_LINE_BYTES)
    return line, len(line) == MAX_LINE_BYTES and not line.endswith(b"\n")


class ProtocolError(RuntimeError):
    """Base class for external-plant communication failures."""


class PlantTimeoutError(ProtocolError):
    """The plant did not answer within the configured timeout."""


class MalformedResponseError(ProtocolError):
    """The response line could not be parsed."""


class DimensionMismatchError(ProtocolError):
    """The plant answered with the wrong number of tap pressures."""


class RemoteEvalError(ProtocolError):
    """The plant reported an evaluation error (ERR line)."""


class ConcurrentEvaluationError(ProtocolError):
    """A second evaluation was requested while one was in flight."""


def encode_request(pattern: ActuationPattern) -> str:
    return f"EVAL {pattern.to_text()}\n"


def decode_request(line: str) -> ActuationPattern:
    parts = line.strip().split(maxsplit=1)
    if len(parts) != 2 or parts[0] != "EVAL":
        raise MalformedResponseError(f"bad request line: {line!r}")
    return ActuationPattern.from_text(parts[1])


def encode_measurement(m: Measurement) -> str:
    values = " ".join(repr(float(v)) for v in m.mean_pressure)
    return f"MEAS {values} {float(m.freestream_pressure)!r}\n"


def decode_response(line: str) -> Measurement:
    if not line:
        raise MalformedResponseError("connection closed before response")
    tokens = line.strip().split()
    if not tokens:
        raise MalformedResponseError("empty response line")
    if tokens[0] == "ERR":
        raise RemoteEvalError(" ".join(tokens[1:]) or "unspecified plant error")
    if tokens[0] != "MEAS":
        raise MalformedResponseError(f"unknown response record {tokens[0]!r}")
    try:
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise MalformedResponseError(f"non-numeric value in response: {exc}") from None
    if len(values) != N_TAPS + 1:
        raise DimensionMismatchError(
            f"expected {N_TAPS} tap pressures plus p0, got {len(values)} values"
        )
    try:
        return Measurement(
            mean_pressure=tuple(values[:N_TAPS]),
            freestream_pressure=values[N_TAPS],
            sample_count=1,
        )
    except ValueError as exc:  # nan or inf pressures
        raise MalformedResponseError(f"invalid measurement in response: {exc}") from None


class ExternalPlant:
    """Client for a plant speaking the wire protocol over a stream socket.

    Strictly serial: the client is owned by one logical task and rejects
    overlapping evaluations.  After a timeout the late reply may still
    arrive, and after an overlong reply its unread rest is still due; either
    would be read as the answer to the next request, so every later use
    raises ProtocolError; open a new client instead.
    """

    discrete_fitness = True

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        taps: TapGrid | None = None,
        flow: FlowConfig | None = None,
    ):
        self.taps = taps if taps is not None else TapGrid()
        self.flow = flow if flow is not None else FlowConfig()
        self.timeout = timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except (OSError, socket.timeout) as exc:
            raise ProtocolError(f"cannot reach plant at {host}:{port}: {exc}") from exc
        self._reader = self._sock.makefile("rb")
        self._gate = threading.Lock()
        self._unusable: str | None = None  # why the stream lost its framing
        self._baseline_ja: float | None = None

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ExternalPlant":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def evaluate(self, pattern: ActuationPattern, seed: int = 0) -> Measurement:
        """Send one pattern and wait for its measurement record."""
        if not self._gate.acquire(blocking=False):
            raise ConcurrentEvaluationError("an evaluation is already in flight")
        try:
            if self._unusable:
                raise ProtocolError(f"connection unusable after {self._unusable}; "
                                    "open a new connection")
            try:
                self._sock.sendall(encode_request(pattern).encode("ascii"))
                line, cut = _read_line(self._reader)
            except (socket.timeout, TimeoutError) as exc:
                self._unusable = "an earlier timeout"
                raise PlantTimeoutError(f"no response within {self.timeout} s") from exc
            except OSError as exc:
                raise ProtocolError(f"connection failed: {exc}") from exc
            if cut:
                self._unusable = "an overlong reply"
                raise MalformedResponseError(f"reply longer than {MAX_LINE_BYTES} bytes")
            try:
                text = line.decode("ascii")
            except UnicodeDecodeError:
                raise MalformedResponseError(f"reply is not ASCII: {line[:80]!r}") from None
            return decode_response(text)
        finally:
            self._gate.release()

    def baseline_ja(self) -> float:
        """Cost of the all-off command, measured once and cached."""
        if self._baseline_ja is None:
            m = self.evaluate(ActuationPattern.all_off())
            self._baseline_ja = cost_ja(m, self.taps)
        return self._baseline_ja

    def fitness(self, position, pattern: ActuationPattern, seed: int = 0) -> float:
        baseline = self.baseline_ja()
        m = self.evaluate(pattern, seed)
        return cost_ja_star(cost_ja(m, self.taps), baseline)


class PlantServer:
    """Serves a responder function over the wire protocol (loopback testing,
    or exposing a surrogate as a stand-in for laboratory hardware).

    The responder receives the decoded pattern and returns the full response
    line (newline added here).  Raising inside the responder produces an ERR
    record.  Connections are served one at a time, each for as long as the
    client keeps it open, however long it stays idle.
    """

    def __init__(self, responder, host: str = "127.0.0.1", port: int = 0):
        self.responder = responder
        self._server = socket.create_server((host, port))
        self.address = self._server.getsockname()[:2]
        self._lock = threading.Lock()  # guards _stopping and _conn
        self._stopping = False
        self._conn: socket.socket | None = None
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "PlantServer":
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the sockets down, which wakes the blocked accept or read, and
        wait for the serving thread."""
        with self._lock:
            self._stopping = True
            for sock in (self._server, self._conn):
                if sock is not None:
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:  # not connected, or already shut down
                        pass
        if self._thread is not None:
            self._thread.join()
        self._server.close()

    def __enter__(self) -> "PlantServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:  # stop() shut the listening socket down
                return
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._conn = conn
            try:
                self._serve_connection(conn)
            finally:
                with self._lock:
                    self._conn = None
                conn.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer requests until the client closes or stop() shuts it down.

        A request that is not ASCII or longer than MAX_LINE_BYTES, a responder
        that raises and a reply that is not ASCII text each get one ERR line;
        the connection stays served.  The rest of an overlong request is read
        and dropped before its ERR line is sent.
        """
        with conn.makefile("rb") as reader:
            while True:
                try:
                    line, overlong = _read_line(reader)
                    cut = overlong
                    while cut:  # drop the rest of an overlong line
                        _, cut = _read_line(reader)
                except OSError:
                    return
                if not line:
                    return
                try:
                    if overlong:
                        raise MalformedResponseError(
                            f"request line longer than {MAX_LINE_BYTES} bytes")
                    reply = self.responder(decode_request(line.decode("ascii")))
                    if not reply.endswith("\n"):
                        reply += "\n"
                    data = reply.encode("ascii")
                except Exception as exc:
                    message = " ".join(str(exc).split())  # one line, whatever the message
                    data = f"ERR {message}\n".encode("ascii", "backslashreplace")
                try:
                    conn.sendall(data)
                except OSError:
                    return


def surrogate_responder(plant):
    """Responder exposing a surrogate plant; a counter seeds each evaluation."""
    counter = iter(range(10**12))

    def respond(pattern: ActuationPattern) -> str:
        return encode_measurement(plant.evaluate(pattern, next(counter))).rstrip("\n")

    return respond
