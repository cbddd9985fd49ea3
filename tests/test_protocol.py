import contextlib
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampopt.patterns import ActuationPattern
from rampopt.plant import Measurement
from rampopt.protocol import (
    MAX_LINE_BYTES,
    ConcurrentEvaluationError,
    DimensionMismatchError,
    ExternalPlant,
    MalformedResponseError,
    PlantServer,
    PlantTimeoutError,
    ProtocolError,
    RemoteEvalError,
    decode_request,
    decode_response,
    encode_measurement,
    encode_request,
    surrogate_responder,
)


def baseline_responder(plant):
    """Always answer with the noiseless all-off field."""
    m = plant.evaluate(ActuationPattern.all_off(), 0)
    line = encode_measurement(m).rstrip("\n")
    return lambda pattern: line


class TestWireFormat:
    def test_request_is_sixty_comma_separated_integers(self):
        p = ActuationPattern.from_rows((0,), 2, active=True)
        line = encode_request(p)
        assert line.startswith("EVAL ")
        assert line.endswith("\n")
        values = line[5:].strip().split(",")
        assert len(values) == 60
        assert decode_request(line) == p

    def test_measurement_record_round_trip(self):
        m = Measurement(mean_pressure=tuple(np.linspace(-3, 3, 42)), freestream_pressure=0.25)
        back = decode_response(encode_measurement(m))
        assert back.mean_pressure == m.mean_pressure
        assert back.freestream_pressure == m.freestream_pressure

    def test_err_record_raises(self):
        with pytest.raises(RemoteEvalError, match="valve stuck"):
            decode_response("ERR valve stuck\n")

    def test_unknown_record_is_malformed(self):
        with pytest.raises(MalformedResponseError):
            decode_response("BOGUS 1 2 3\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_pressure_is_malformed(self, bad):
        values = " ".join(["0.0"] * 41 + [bad])
        with pytest.raises(MalformedResponseError, match="finite"):
            decode_response(f"MEAS {values} 0.0\n")

    def test_wrong_tap_count_is_dimension_mismatch(self):
        values = " ".join(["0.0"] * 41)
        with pytest.raises(DimensionMismatchError):
            decode_response(f"MEAS {values} 0.0\n")


class TestLoopback:
    def test_round_trip_against_surrogate(self, clean_plant):
        with PlantServer(surrogate_responder(clean_plant)) as server:
            with ExternalPlant(server.host, server.port, timeout=5.0) as client:
                assert client.fitness(None, ActuationPattern.all_off()) == 0.0
                p = ActuationPattern.from_rows((1,), 4)
                remote = client.fitness(None, p)
        direct = clean_plant.fitness(None, p, 0)
        assert remote == pytest.approx(direct, rel=1e-9)

    def test_baseline_echo_gives_zero_cost(self, clean_plant):
        with PlantServer(baseline_responder(clean_plant)) as server:
            with ExternalPlant(server.host, server.port, timeout=5.0) as client:
                value = client.fitness(None, ActuationPattern.from_rows((2,), 3))
        assert value == 0.0

    def test_dimension_mismatch_surfaces(self, clean_plant):
        short = "MEAS " + " ".join(["0.0"] * 41) + " 0.0"
        with PlantServer(lambda pattern: short) as server:
            with ExternalPlant(server.host, server.port, timeout=5.0) as client:
                with pytest.raises(DimensionMismatchError):
                    client.evaluate(ActuationPattern.all_off())

    def test_timeout_surfaces(self, clean_plant):
        line = baseline_responder(clean_plant)(None)

        def slow(pattern):
            time.sleep(1.0)
            return line

        with PlantServer(slow) as server:
            with ExternalPlant(server.host, server.port, timeout=0.2) as client:
                with pytest.raises(PlantTimeoutError):
                    client.evaluate(ActuationPattern.all_off())

    def test_idle_connection_is_still_served(self, clean_plant):
        with PlantServer(surrogate_responder(clean_plant)) as server:
            with ExternalPlant(server.host, server.port, timeout=2.0) as client:
                p = ActuationPattern.from_rows((1,), 4)
                first = client.fitness(None, p)
                time.sleep(0.5)
                assert client.fitness(None, p) == first

    def test_connection_refused_after_timeout(self, clean_plant):
        line = baseline_responder(clean_plant)(None)

        def slow(pattern):
            time.sleep(1.0)
            return line

        with PlantServer(slow) as server:
            with ExternalPlant(server.host, server.port, timeout=0.2) as client:
                with pytest.raises(PlantTimeoutError):
                    client.evaluate(ActuationPattern.all_off())
                with pytest.raises(ProtocolError, match="earlier timeout"):
                    client.evaluate(ActuationPattern.all_off())
                with pytest.raises(ProtocolError, match="earlier timeout"):
                    client.fitness(None, ActuationPattern.all_off())

    def test_stop_with_client_still_connected(self, clean_plant):
        server = PlantServer(surrogate_responder(clean_plant)).start()
        with ExternalPlant(server.host, server.port, timeout=5.0) as client:
            client.evaluate(ActuationPattern.all_off())
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(5.0)
            assert not stopper.is_alive()
            with pytest.raises(ProtocolError):
                client.evaluate(ActuationPattern.all_off())

    @pytest.mark.parametrize("request_line, first_reply", [
        (b"EVAL \xff\xfe\n", None),  # request that is not ASCII
        (b"EVAL " + b"0," * (3 * MAX_LINE_BYTES) + b"0\n", None),  # overlong request
        (encode_request(ActuationPattern.all_off()).encode("ascii"), "MEAS caf\u00e9"),
        (encode_request(ActuationPattern.all_off()).encode("ascii"),
         RuntimeError("two-line\nmessage, caf\u00e9")),
    ], ids=["non_ascii_request", "overlong_request", "non_ascii_reply", "multi_line_error"])
    def test_bad_bytes_get_one_err_line_and_serving_continues(
            self, clean_plant, request_line, first_reply):
        good = surrogate_responder(clean_plant)
        replies = iter([first_reply])  # only the first call may misbehave

        def respond(pattern):
            reply = next(replies, None)
            if isinstance(reply, Exception):
                raise reply
            return reply if reply is not None else good(pattern)

        valid = encode_request(ActuationPattern.from_rows((1,), 4)).encode("ascii")
        with PlantServer(respond) as server:
            with (socket.create_connection((server.host, server.port), timeout=5.0) as sock,
                  sock.makefile("rb") as reader):
                sock.sendall(request_line)
                assert reader.readline().startswith(b"ERR ")
                sock.sendall(valid)
                assert reader.readline().startswith(b"MEAS ")
            with ExternalPlant(server.host, server.port, timeout=5.0) as client:
                assert client.fitness(None, ActuationPattern.all_off()) == 0.0

    @pytest.mark.parametrize("reply, message", [
        (b"MEAS caf\xc3\xa9\n", "not ASCII"),
        (b"MEAS " + b"1.0 " * MAX_LINE_BYTES + b"\n", "longer than"),
    ], ids=["non_ascii_reply", "overlong_reply"])
    def test_bad_reply_bytes_are_malformed(self, reply, message):
        """A raw server answers every request line with the given bytes."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def serve():
                conn, _ = listener.accept()
                # A client closing with reply bytes unread resets the connection.
                with conn, conn.makefile("rb") as reader, contextlib.suppress(OSError):
                    while reader.readline():
                        conn.sendall(reply)

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            with ExternalPlant(*listener.getsockname()[:2], timeout=5.0) as client:
                with pytest.raises(MalformedResponseError, match=message):
                    client.evaluate(ActuationPattern.all_off())
                # An overlong reply leaves its rest unread; a non-ASCII one is whole.
                if message == "longer than":
                    with pytest.raises(ProtocolError, match="overlong reply"):
                        client.evaluate(ActuationPattern.all_off())
                else:
                    with pytest.raises(MalformedResponseError, match=message):
                        client.evaluate(ActuationPattern.all_off())
            server.join(5.0)
            assert not server.is_alive()

    @settings(max_examples=60)
    @given(st.binary(max_size=200).map(lambda b: b.replace(b"\n", b"")))
    def test_any_request_bytes_get_one_reply_line(self, clean_plant, junk):
        with PlantServer(surrogate_responder(clean_plant)) as server:
            with (socket.create_connection((server.host, server.port), timeout=5.0) as sock,
                  sock.makefile("rb") as reader):
                sock.sendall(junk + b"\n")
                assert reader.readline().split(b" ", 1)[0] in (b"ERR", b"MEAS")
                sock.sendall(encode_request(ActuationPattern.all_off()).encode("ascii"))
                assert reader.readline().startswith(b"MEAS ")

    @settings(max_examples=60)
    @given(st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from([b"MEAS", b"ERR", b"0.0", b"1e308", b"nan", b"-", b"\xff"]),
                 max_size=50).map(b" ".join),
    ).map(lambda b: b.replace(b"\n", b"") + b"\n"))
    def test_any_reply_line_returns_or_raises_protocol_error(self, reply):
        """A raw server answers the one request with the given line."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def serve():
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as reader, contextlib.suppress(OSError):
                    reader.readline()
                    conn.sendall(reply)

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            with ExternalPlant(*listener.getsockname()[:2], timeout=5.0) as client:
                try:
                    measurement = client.evaluate(ActuationPattern.all_off())
                except ProtocolError:
                    pass
                else:
                    assert len(measurement.mean_pressure) == 42
            server.join(5.0)
            assert not server.is_alive()

    def test_responder_exception_becomes_remote_error(self):
        def broken(pattern):
            raise RuntimeError("sensor offline")

        with PlantServer(broken) as server:
            with ExternalPlant(server.host, server.port, timeout=5.0) as client:
                with pytest.raises(RemoteEvalError, match="sensor offline"):
                    client.evaluate(ActuationPattern.all_off())

    def test_one_request_in_flight(self, clean_plant):
        line = baseline_responder(clean_plant)(None)
        release = threading.Event()

        def stalled(pattern):
            release.wait(5.0)
            return line

        with PlantServer(stalled) as server:
            with ExternalPlant(server.host, server.port, timeout=10.0) as client:
                errors = []
                first = threading.Thread(
                    target=lambda: client.evaluate(ActuationPattern.all_off())
                )
                first.start()
                time.sleep(0.1)  # let the first request get in flight
                with pytest.raises(ConcurrentEvaluationError):
                    client.evaluate(ActuationPattern.all_off())
                release.set()
                first.join()
                assert not errors

    def test_client_declares_serial_evaluation(self, clean_plant):
        with PlantServer(baseline_responder(clean_plant)) as server:
            with ExternalPlant(server.host, server.port) as client:
                # No batch entry point: the optimizer sends one pattern at a time.
                assert not hasattr(client, "fitness_batch")
