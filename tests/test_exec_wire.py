"""The length-prefixed JSON wire protocol, the task executor, and the
dispatcher's handling of raw connections."""

import socket
import stat
import struct
import threading
import time

import pytest

from repro.errors import BackendError, WireAuthError, WireProtocolError
from repro.exec import ClusterServer, cluster_shutdown
from repro.exec.wire import (AUTH_TAG_BYTES, MAX_FRAME_BYTES, MSG_RUN,
                             FrameAuth, decode_body, decode_payload,
                             encode_frame, error_reply, hello_message,
                             recv_message, result_reply, send_message)
from repro.exec.worker import TaskExecutor, run_registered_worker


def run_frame(experiment_doc):
    return {"type": MSG_RUN, "task": 1, "experiment": experiment_doc}


def round_trip(message):
    frame = encode_frame(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return decode_body(frame[4:])


class TestFraming:
    def test_round_trip(self):
        message = run_frame({"workload": "spec", "params": {"x": 1}})
        assert round_trip(message) == message

    def test_canonical_bytes(self):
        """Key order cannot change the encoded frame."""
        a = encode_frame({"type": "run", "experiment": {"b": 1, "a": 2}})
        b = encode_frame({"experiment": {"a": 2, "b": 1}, "type": "run"})
        assert a == b

    def test_rejects_untyped_messages(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"no": "type"})
        with pytest.raises(WireProtocolError):
            encode_frame(["not", "a", "dict"])

    def test_rejects_unserialisable_payload(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"type": "run", "experiment": object()})

    def test_rejects_malformed_body(self):
        with pytest.raises(WireProtocolError):
            decode_body(b"{truncated")
        with pytest.raises(WireProtocolError):
            decode_body(b"[1, 2, 3]")

    def test_constructors(self):
        assert result_reply({"ipc": 1.0})["type"] == "result"
        reply = error_reply(ValueError("boom"))
        assert reply == {"type": "error", "error": "boom",
                         "kind": "ValueError"}


class TestSocketTransport:
    def socket_pair(self):
        return socket.socketpair()

    def test_send_and_recv(self):
        left, right = self.socket_pair()
        try:
            message = result_reply({"name": "r", "ipc": 2.0})
            send_message(left, message)
            assert recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_truncated_stream_is_protocol_error(self):
        left, right = self.socket_pair()
        try:
            frame = encode_frame(run_frame({"w": 1}))
            left.sendall(frame[:len(frame) - 3])
            left.close()
            with pytest.raises(WireProtocolError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_announcement_rejected(self):
        left, right = self.socket_pair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(WireProtocolError, match="limit"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_multiple_frames_on_one_connection(self):
        left, right = self.socket_pair()
        try:
            for i in range(3):
                send_message(left, {"type": "ping", "i": i})
            for i in range(3):
                assert recv_message(right)["i"] == i
        finally:
            left.close()
            right.close()


class TestFrameAuth:
    KEY = b"sixteen-byte-key" * 2

    def test_signed_round_trip(self):
        auth = FrameAuth(self.KEY)
        message = run_frame({"w": 1})
        frame = encode_frame(message, auth=auth)
        (length,) = struct.unpack(">I", frame[:4])
        payload = frame[4:4 + length]
        assert decode_payload(payload, auth=auth) == message
        # The tag is real overhead on the wire.
        assert length == len(encode_frame(message)) - 4 + AUTH_TAG_BYTES

    def test_tampered_body_rejected(self):
        auth = FrameAuth(self.KEY)
        frame = encode_frame({"type": "ping", "i": 1}, auth=auth)
        payload = bytearray(frame[4:])
        payload[-1] ^= 0x01
        with pytest.raises(WireAuthError):
            decode_payload(bytes(payload), auth=auth)

    def test_tampered_tag_rejected(self):
        auth = FrameAuth(self.KEY)
        frame = encode_frame({"type": "ping"}, auth=auth)
        payload = bytearray(frame[4:])
        payload[0] ^= 0x01
        with pytest.raises(WireAuthError):
            decode_payload(bytes(payload), auth=auth)

    def test_unsigned_frame_rejected_when_auth_expected(self):
        auth = FrameAuth(self.KEY)
        frame = encode_frame({"type": "ping"})
        with pytest.raises(WireAuthError):
            decode_payload(frame[4:], auth=auth)

    def test_wrong_key_rejected(self):
        frame = encode_frame({"type": "ping"}, auth=FrameAuth(self.KEY))
        other = FrameAuth(b"a-different-32-byte-secret-key!!")
        with pytest.raises(WireAuthError):
            decode_payload(frame[4:], auth=other)

    def test_short_key_rejected(self):
        with pytest.raises(WireProtocolError, match="16 bytes"):
            FrameAuth(b"short")

    def test_keyfile_round_trip(self, tmp_path):
        path = tmp_path / "cluster.key"
        FrameAuth.generate_keyfile(path)
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode == 0o600
        auth = FrameAuth.from_keyfile(path)
        frame = encode_frame({"type": "ping"}, auth=auth)
        # A second load of the same file verifies the first's frames.
        again = FrameAuth.from_keyfile(path)
        assert decode_payload(frame[4:], auth=again) == {"type": "ping"}

    def test_socket_transport_with_auth(self):
        auth = FrameAuth(self.KEY)
        left, right = socket.socketpair()
        try:
            message = result_reply({"name": "r", "ipc": 2.0})
            send_message(left, message, auth=auth)
            assert recv_message(right, auth=auth) == message
            # An unsigned sender is rejected by an authed receiver.
            send_message(left, message)
            with pytest.raises(WireAuthError):
                recv_message(right, auth=auth)
        finally:
            left.close()
            right.close()


class TestWorkerServer:
    """What is left of the worker server: the task executor a registered
    worker runs, and the dispatcher it dials, facing odd peers."""

    def session(self, server, role="worker"):
        conn = socket.create_connection(server.address, timeout=10)
        conn.settimeout(10)
        send_message(conn, hello_message(role, "probe"))
        return conn, recv_message(conn)

    def test_ping_pong_and_shutdown(self):
        server = ClusterServer()
        server.start()
        try:
            conn, welcome = self.session(server)
            with conn:
                assert welcome["type"] == "welcome"
                send_message(conn, {"type": "ping"})
                assert recv_message(conn)["type"] == "pong"
            assert cluster_shutdown(server.endpoint)["type"] == "ok"
            assert server.wait(timeout=10)
        finally:
            server.close()

    def test_unknown_request_gets_error_reply(self):
        server = ClusterServer()
        server.start()
        try:
            conn, reply = self.session(server, role="make-coffee")
            conn.close()
            assert reply["type"] == "error"
            assert "make-coffee" in reply["error"]
        finally:
            server.close()

    def test_bad_run_frame_survives_executor(self):
        """A junk experiment produces an error reply, not a dead worker."""
        executor = TaskExecutor()
        reply = executor.run({"type": "run", "experiment": "junk"})
        assert reply["type"] == "error"
        # ... and the executor still runs the next task.
        reply = executor.run({"type": "run", "experiment": {}})
        assert reply["type"] == "error"
        assert executor.metrics.snapshot()[
            "exec.worker.errors"]["value"] == 2

    def test_max_tasks_bounds_lifetime(self):
        """A registered worker leaves by drain after max_tasks tasks."""
        from repro.exec import ClusterBackend, Experiment
        with ClusterServer(max_retries=0) as server:
            served = {}
            thread = threading.Thread(
                target=lambda: served.update(count=run_registered_worker(
                    server.endpoint, max_tasks=1, heartbeat=0.1)),
                daemon=True)
            thread.start()
            backend = ClusterBackend(server.endpoint, frame_timeout=30)
            with pytest.raises(BackendError, match="1 attempts"):
                list(backend.submit([Experiment("no-such-kind")]))
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert served["count"] == 1

    def test_garbage_connection_ignored(self):
        server = ClusterServer()
        server.start()
        try:
            with socket.create_connection(server.address,
                                          timeout=10) as conn:
                conn.sendall(b"\x00\x00\x00\x05junk!")
            conn, welcome = self.session(server)
            with conn:
                assert welcome["type"] == "welcome"
        finally:
            server.close()


class TestServersStopPromptly:
    """Every serving thread exits within about a second of close()."""

    LIMIT = 1.0

    def assert_stops(self, thread, close):
        started = time.monotonic()
        close()
        thread.join(timeout=self.LIMIT)
        assert not thread.is_alive()
        assert time.monotonic() - started < self.LIMIT

    def test_cluster_server(self):
        server = ClusterServer()
        server.start()
        thread = server._thread
        self.assert_stops(thread, server.close)

    def test_cluster_server_hangs_up_on_handshaking_peer(self):
        """A peer that never sent its hello is not left dangling."""
        server = ClusterServer()
        server.start()
        try:
            with socket.create_connection(server.address,
                                          timeout=10) as conn:
                deadline = time.monotonic() + 10
                while (not server.dispatcher._connections
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert server.dispatcher._connections
                started = time.monotonic()
                server.close()
                conn.settimeout(self.LIMIT)
                assert conn.recv(1) == b""
                assert time.monotonic() - started < self.LIMIT
        finally:
            server.close()

    def test_metrics_http_server(self):
        from repro.obs import MetricsRegistry
        from repro.obs.scrape import start_metrics_server
        server = start_metrics_server(MetricsRegistry())
        thread = server._thread
        self.assert_stops(thread, server.close)

    def test_registered_worker_leaves_when_dispatcher_closes(self):
        server = ClusterServer()
        server.start()
        registered = threading.Event()
        thread = threading.Thread(
            target=run_registered_worker, args=(server.endpoint,),
            kwargs={"announce": lambda _line: registered.set(),
                    "connect_window": 0.0},
            daemon=True)
        thread.start()
        assert registered.wait(timeout=10)
        self.assert_stops(thread, server.close)
