"""The distributed experiment worker: a small TCP task server.

``python -m repro worker serve --port 7070`` turns any machine with
the ``repro`` package into an execution endpoint for
:class:`~repro.exec.DistributedBackend`. The server speaks the
length-prefixed JSON protocol of :mod:`repro.exec.wire`, one request
per connection: the dispatcher connects, sends a ``run`` frame
carrying an ``Experiment.to_dict()`` document, and the worker answers
with a ``result`` frame (the ``SystemReport.to_dict()`` payload) or an
``error`` frame if the task raised. Executor exceptions never kill the
server — the dispatcher owns the retry decision.

Workers are deliberately sequential (one task at a time): parallelism
comes from running more workers, which keeps each worker's memory
footprint to a single simulation and makes health tracking in the
dispatcher trivial.

:func:`spawn_local_workers` forks worker processes on this machine —
the easy way to use every local core through the same code path as a
remote fleet, and how the test-suite exercises fault handling.

Besides the listen-and-accept mode above, a worker can *register* with
an experiment cluster dispatcher (:mod:`repro.exec.cluster`) instead:
:func:`run_registered_worker` dials out to the dispatcher, holds one
persistent authenticated connection, heartbeats while idle, executes
``run`` frames as they arrive, and drains gracefully on shutdown —
``python -m repro worker serve --register HOST:PORT``. No inbound port
is needed, so fleets behind NAT or in containers just work.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import BackendError, WireAuthError, WireProtocolError
from ..obs import DEFAULT_DURATION_BUCKETS_NS, MetricsRegistry
from .wire import (MSG_DRAIN, MSG_GOODBYE, MSG_OK, MSG_PING, MSG_PONG,
                   MSG_RUN, MSG_SHUTDOWN, MSG_WELCOME, FrameAuth, error_reply,
                   hello_message, recv_message, result_reply, send_message)


class WorkerServer:
    """A sequential one-task-per-connection experiment server.

    Parameters
    ----------
    host / port:
        Bind address. ``port=0`` asks the OS for an ephemeral port;
        :meth:`bind` returns the port actually bound.
    max_tasks:
        Stop serving after this many ``run`` requests (``None`` =
        serve forever). Gives tests and batch deployments a bounded
        lifetime.
    cache_dir:
        When given, the worker consults/populates a
        :class:`~repro.exec.ResultCache` rooted there before executing
        each task, so repeated dispatches of the same experiment (e.g.
        after a dispatcher restart) are served from disk. The cache key
        includes the code-version salt, so worker and dispatcher code
        drift can never serve stale results.
    metrics:
        The worker's :class:`~repro.obs.MetricsRegistry` (defaults to a
        fresh one). Cumulative ``exec.worker.*`` counters ride on every
        ``result`` frame for merged reporting by the dispatcher.
    """

    #: Idle limit for reading a request off an accepted connection.
    REQUEST_TIMEOUT = 30.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_tasks: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.host = host
        self.port = int(port)
        self.max_tasks = max_tasks
        self.tasks_served = 0
        self._socket: Optional[socket.socket] = None
        self._shutdown = False
        self.cache = None
        if cache_dir is not None:
            from .cache import ResultCache
            self.cache = ResultCache(cache_dir)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics, prefix="exec.worker.cache")
        self._tasks_counter = self.metrics.counter(
            "exec.worker.tasks_served", unit="ops")
        self._errors_counter = self.metrics.counter(
            "exec.worker.errors", unit="ops")
        self._duration_hist = self.metrics.histogram(
            "exec.worker.task_duration_ns", unit="ns",
            buckets=DEFAULT_DURATION_BUCKETS_NS)

    def bind(self) -> int:
        """Bind and listen; returns the bound port."""
        if self._socket is not None:
            return self.port
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((self.host, self.port))
            server.listen(16)
        except OSError:
            server.close()
            raise
        self._socket = server
        self.port = server.getsockname()[1]
        return self.port

    def serve_forever(self) -> None:
        """Accept and handle connections until shut down.

        Returns after a ``shutdown`` frame, after ``max_tasks`` run
        requests, or when :meth:`close` is called from another thread.
        """
        self.bind()
        listener = self._socket
        assert listener is not None
        try:
            while not self._shutdown:
                if self.max_tasks is not None \
                        and self.tasks_served >= self.max_tasks:
                    break
                try:
                    connection, _ = listener.accept()
                except OSError:
                    break       # socket shut down under us: clean stop
                with contextlib.closing(connection):
                    self._handle(connection)
        finally:
            self.close()

    def close(self) -> None:
        """Stop serving and release the socket.

        Closing a listening socket does not wake a thread blocked in
        ``accept()`` on Linux; shutting it down first does, so a
        :meth:`serve_forever` on another thread returns promptly.
        """
        self._shutdown = True
        listener, self._socket = self._socket, None
        if listener is not None:
            with contextlib.suppress(OSError):   # not connected (BSDs)
                listener.shutdown(socket.SHUT_RDWR)
            listener.close()

    # -- request handling -----------------------------------------------------------

    def _handle(self, connection: socket.socket) -> None:
        connection.settimeout(self.REQUEST_TIMEOUT)
        try:
            request = recv_message(connection)
        except (WireProtocolError, OSError):
            return      # garbage or impatient client: drop silently
        kind = request.get("type")
        if kind == MSG_RUN:
            self.tasks_served += 1
            self._reply(connection, self._run(request))
        elif kind == MSG_PING:
            # Humans (and the wire tests) probing a standalone worker
            # read the served count; no in-tree peer consumes it.
            self._reply(connection, {
                "type": MSG_PONG,
                "tasks_served": self.tasks_served,  # repro: suppress REPRO602 -- operator probe
            })
        elif kind == MSG_SHUTDOWN:
            self._reply(connection, {"type": MSG_OK})
            self._shutdown = True
        else:
            self._reply(connection, error_reply(
                BackendError(f"unknown request type {kind!r}")))

    def _run(self, request: dict) -> dict:
        started = time.perf_counter_ns()
        try:
            document = request["experiment"]
            if not isinstance(document, dict):
                raise BackendError("run request carries no experiment dict")
            # A propagated trace context makes this task's span part of
            # the dispatching client's timeline; without one the span
            # roots a fresh single-process trace.
            from ..obs import SpanTracer, TraceContext
            context = TraceContext.from_dict(request.get("trace"))
            tracer = SpanTracer.for_context(context, process="worker")
            with tracer.span("exec.worker.task",
                             attrs={"label": str(document.get("name")
                                                or document.get("workload")
                                                or "?")}) as record:
                report_doc, cache_hit = self._execute_cached(document)
                record.attrs["cache_hit"] = cache_hit
            self._tasks_counter.inc()
            self._duration_hist.observe(time.perf_counter_ns() - started)
            return result_reply(report_doc, metrics=self.metrics.snapshot(),
                                spans=tracer.snapshot())
        except Exception as error:      # noqa: BLE001 - survive any task
            self._errors_counter.inc()
            return error_reply(error)

    def _execute_cached(self, document: dict) -> tuple:
        """Run one experiment document, through the worker cache if any.

        Returns ``(report_doc, cache_hit)``.
        """
        # Imported lazily so a worker process only pays for the
        # simulator once it actually receives work.
        from .backends import _execute_to_dict
        if self.cache is None:
            return _execute_to_dict(document), False
        from .experiment import Experiment
        experiment = Experiment.from_dict(document)
        cached = self.cache.get(experiment)
        if cached is not None:
            return cached.to_dict(), True
        report_doc = _execute_to_dict(document)
        from ..sim.system import SystemReport
        self.cache.put(experiment, SystemReport.from_dict(report_doc))
        return report_doc, False

    @staticmethod
    def _reply(connection: socket.socket, message: dict) -> None:
        try:
            send_message(connection, message)
        except (WireProtocolError, OSError):
            pass        # client went away: the dispatcher will retry


def serve(host: str = "127.0.0.1", port: int = 0, *,
          max_tasks: Optional[int] = None,
          cache_dir: Optional[Union[str, Path]] = None,
          emit_metrics: Optional[Union[str, Path]] = None,
          metrics_port: Optional[int] = None,
          announce: Optional[Callable[[str], None]] = None) -> int:
    """Run a worker server in this process until shutdown.

    Returns the number of tasks served. ``announce`` (if given)
    receives one line per bound endpoint once the sockets are up —
    first ``"listening on host:port"`` for the task socket, then
    ``"metrics on http://.../metrics"`` when a scrape endpoint is
    enabled — and the CLI prints them so scripts can scrape the
    ephemeral ports. ``cache_dir`` enables the worker-side result
    cache;
    ``emit_metrics`` writes the worker's final registry snapshot as a
    JSON-lines dump on shutdown; ``metrics_port`` additionally serves
    the live registry at ``http://host:metrics_port/metrics`` in the
    Prometheus text format for the worker's lifetime (``0`` asks the
    OS for a free port; the endpoint is announced alongside the task
    socket).
    """
    server = WorkerServer(host, port, max_tasks=max_tasks,
                          cache_dir=cache_dir)
    bound_port = server.bind()
    scrape = None
    if metrics_port is not None:
        from ..obs import start_metrics_server
        scrape = start_metrics_server(server.metrics, host=host,
                                      port=metrics_port)
    if announce is not None:
        announce(f"listening on {server.host}:{bound_port}")
        if scrape is not None:
            announce(f"metrics on http://{scrape.endpoint}/metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:   # pragma: no cover - interactive only
        pass
    finally:
        server.close()
        if scrape is not None:
            scrape.close()
        if emit_metrics is not None:
            from ..obs import write_jsonl
            with open(emit_metrics, "w") as stream:
                write_jsonl(server.metrics.snapshot(), stream,
                            meta={"role": "worker",
                                  "endpoint": f"{server.host}:{bound_port}",
                                  "tasks_served": server.tasks_served})
    return server.tasks_served


# ---------------------------------------------------------------------------
# Registered (dial-out) cluster workers
# ---------------------------------------------------------------------------

#: Generous limit for the dispatcher's ``welcome`` during registration.
HANDSHAKE_TIMEOUT = 10.0

#: Consecutive failed registrations before a registered worker gives up
#: (a likely auth or version mismatch, not a transient outage).
MAX_HANDSHAKE_FAILURES = 3


def _dial_dispatcher(address: Tuple[str, int], window: float,
                     stop: threading.Event) -> Optional[socket.socket]:
    """Connect to the dispatcher, retrying within ``window`` seconds."""
    deadline = time.monotonic() + window
    while not stop.is_set():
        try:
            return socket.create_connection(address, timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            stop.wait(0.2)
    return None


def run_registered_worker(dispatcher: Union[str, Tuple[str, int]], *,
                          auth: Optional[FrameAuth] = None,
                          keyfile: Optional[Union[str, Path]] = None,
                          name: Optional[str] = None,
                          cache_dir: Optional[Union[str, Path]] = None,
                          max_tasks: Optional[int] = None,
                          heartbeat: float = 5.0,
                          connect_window: float = 10.0,
                          metrics: Optional[MetricsRegistry] = None,
                          announce: Optional[Callable[[str], None]] = None,
                          stop_event: Optional[threading.Event] = None,
                          ) -> int:
    """Serve an experiment cluster over one dial-out connection.

    Registers with the dispatcher at ``dispatcher`` (``"host:port"``),
    executes ``run`` frames one at a time, sends ``ping`` heartbeats
    while idle, and reconnects (within ``connect_window`` seconds) when
    the dispatcher drops. The worker leaves via graceful drain — after
    ``max_tasks`` tasks or once ``stop_event`` is set it asks the
    dispatcher to stop assigning work and exits on the dispatcher's
    ``goodbye``, so no task is ever abandoned mid-flight.

    ``auth``/``keyfile`` enable HMAC frame authentication (must match
    the dispatcher's key); a key mismatch raises
    :class:`~repro.errors.WireAuthError` instead of retrying forever.
    Returns the number of tasks served.
    """
    from .backends import parse_address
    address = parse_address(dispatcher)
    if auth is None and keyfile is not None:
        auth = FrameAuth.from_keyfile(keyfile)
    stop = stop_event if stop_event is not None else threading.Event()
    worker_name = name or f"worker-{os.getpid()}"
    # Reuse the listening worker's executor (cache + telemetry) so both
    # modes run tasks identically.
    server = WorkerServer(cache_dir=cache_dir, metrics=metrics)
    served = 0
    handshake_failures = 0
    while not stop.is_set():
        sock = _dial_dispatcher(address, connect_window, stop)
        if sock is None:
            break
        registered = False
        draining = False
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            send_message(sock, hello_message("worker", worker_name),
                         auth=auth)
            welcome = recv_message(sock, auth=auth)
            if welcome.get("type") != MSG_WELCOME:
                raise WireProtocolError(
                    f"dispatcher refused registration: {welcome!r}")
            registered = True
            handshake_failures = 0
            if announce is not None:
                announce(f"registered with {address[0]}:{address[1]} "
                         f"as {worker_name} "
                         f"(session {welcome.get('id', '?')})")
            sock.settimeout(heartbeat)
            while True:
                try:
                    message = recv_message(sock, auth=auth)
                except socket.timeout:
                    if (stop.is_set() or (max_tasks is not None
                                          and served >= max_tasks)):
                        if not draining:
                            send_message(sock, {"type": MSG_DRAIN},
                                         auth=auth)
                            draining = True
                    else:
                        send_message(sock, {"type": MSG_PING}, auth=auth)
                    continue
                kind = message.get("type")
                if kind == MSG_RUN:
                    server.tasks_served += 1
                    reply = server._run(message)
                    reply["task"] = message.get("task")
                    send_message(sock, reply, auth=auth)
                    served += 1
                    if max_tasks is not None and served >= max_tasks \
                            and not draining:
                        send_message(sock, {"type": MSG_DRAIN}, auth=auth)
                        draining = True
                elif kind == MSG_PONG:
                    snapshot = message.get("metrics")
                    if isinstance(snapshot, dict):
                        # Heartbeat replies carry the dispatcher's
                        # cumulative registry; mirroring it keeps this
                        # worker's scrape endpoint (--metrics-port)
                        # showing the whole cluster's exec.cluster.*
                        # instruments, not just exec.worker.*.
                        server.metrics.update_from_snapshot(snapshot)
                elif kind in (MSG_GOODBYE, MSG_SHUTDOWN):
                    return served
                # unknown frames: ignore
        except WireAuthError:
            raise       # wrong shared key: retrying cannot help
        except (WireProtocolError, OSError):
            if not registered:
                handshake_failures += 1
                if handshake_failures >= MAX_HANDSHAKE_FAILURES:
                    raise WireProtocolError(
                        f"dispatcher at {address[0]}:{address[1]} dropped "
                        f"{handshake_failures} registration attempts in a "
                        f"row (auth key mismatch?)")
            if stop.is_set():
                break
            # Dispatcher restart or network blip: dial again.
        finally:
            sock.close()
    return served


def _registered_worker_main(dispatcher: str, keyfile: Optional[str],
                            cache_dir: Optional[str],
                            max_tasks: Optional[int],
                            heartbeat: float) -> None:
    run_registered_worker(dispatcher, keyfile=keyfile, cache_dir=cache_dir,
                          max_tasks=max_tasks, heartbeat=heartbeat)


class RegisteredWorker:
    """Handle on one forked dial-out worker process."""

    def __init__(self, process: multiprocessing.process.BaseProcess) -> None:
        self.process = process

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self, timeout: float = 5.0) -> None:
        """Kill the worker process (SIGTERM) and reap it."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)


def spawn_registered_workers(count: int, dispatcher: str, *,
                             keyfile: Optional[Union[str, Path]] = None,
                             cache_dir: Optional[Union[str, Path]] = None,
                             max_tasks: Optional[int] = None,
                             heartbeat: float = 1.0,
                             ) -> List[RegisteredWorker]:
    """Fork ``count`` workers that register with a cluster dispatcher.

    The forked processes inherit test-registered workload kinds (like
    :func:`spawn_local_workers`) and dial ``dispatcher``
    (``"host:port"``) on start; they exit when the dispatcher says
    goodbye.
    """
    if count < 1:
        raise BackendError(f"worker count must be >= 1, got {count}")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    workers: List[RegisteredWorker] = []
    for _ in range(count):
        process = context.Process(
            target=_registered_worker_main,
            args=(dispatcher,
                  str(keyfile) if keyfile is not None else None,
                  str(cache_dir) if cache_dir is not None else None,
                  max_tasks, heartbeat),
            daemon=True)
        process.start()
        workers.append(RegisteredWorker(process))
    return workers


@contextlib.contextmanager
def registered_worker_pool(count: int, dispatcher: str, *,
                           keyfile: Optional[Union[str, Path]] = None,
                           cache_dir: Optional[Union[str, Path]] = None,
                           max_tasks: Optional[int] = None,
                           heartbeat: float = 1.0,
                           ) -> Iterator[List[RegisteredWorker]]:
    """``with registered_worker_pool(2, "host:7071"):`` — spawn, clean up."""
    workers = spawn_registered_workers(count, dispatcher, keyfile=keyfile,
                                       cache_dir=cache_dir,
                                       max_tasks=max_tasks,
                                       heartbeat=heartbeat)
    try:
        yield workers
    finally:
        for worker in workers:
            worker.terminate()


# ---------------------------------------------------------------------------
# Local worker pools
# ---------------------------------------------------------------------------

def _local_worker_main(channel, host: str,
                       max_tasks: Optional[int],
                       cache_dir: Optional[str] = None) -> None:
    """Child-process entry: bind, report the port, then serve."""
    server = WorkerServer(host, 0, max_tasks=max_tasks, cache_dir=cache_dir)
    try:
        port = server.bind()
    except OSError as error:    # pragma: no cover - bind races are rare
        channel.send(("error", str(error)))
        channel.close()
        return
    channel.send(("port", port))
    channel.close()
    server.serve_forever()


class LocalWorker:
    """Handle on one forked local worker process."""

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 address: Tuple[str, int]) -> None:
        self.process = process
        self.address = address

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self, timeout: float = 5.0) -> None:
        """Kill the worker process (SIGTERM) and reap it."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)


def spawn_local_workers(count: int, *, host: str = "127.0.0.1",
                        max_tasks: Optional[int] = None,
                        cache_dir: Optional[Union[str, Path]] = None,
                        start_timeout: float = 30.0) -> List[LocalWorker]:
    """Fork ``count`` worker processes on this machine.

    Prefers the ``fork`` start method (workers inherit any
    test-registered workload kinds); falls back to the platform
    default elsewhere. Each returned :class:`LocalWorker` is already
    bound and accepting connections.
    """
    if count < 1:
        raise BackendError(f"worker count must be >= 1, got {count}")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    workers: List[LocalWorker] = []
    try:
        for _ in range(count):
            parent_channel, child_channel = context.Pipe()
            cache_arg = str(cache_dir) if cache_dir is not None else None
            process = context.Process(target=_local_worker_main,
                                      args=(child_channel, host, max_tasks,
                                            cache_arg),
                                      daemon=True)
            process.start()
            child_channel.close()
            if not parent_channel.poll(start_timeout):
                raise BackendError("local worker did not report a port "
                                   f"within {start_timeout:g}s")
            kind, value = parent_channel.recv()
            parent_channel.close()
            if kind != "port":
                raise BackendError(f"local worker failed to bind: {value}")
            workers.append(LocalWorker(process, (host, int(value))))
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    return workers


@contextlib.contextmanager
def local_worker_pool(count: int, *, host: str = "127.0.0.1",
                      max_tasks: Optional[int] = None,
                      cache_dir: Optional[Union[str, Path]] = None,
                      ) -> Iterator[List[LocalWorker]]:
    """``with local_worker_pool(2) as workers:`` — spawn and clean up."""
    workers = spawn_local_workers(count, host=host, max_tasks=max_tasks,
                                  cache_dir=cache_dir)
    try:
        yield workers
    finally:
        for worker in workers:
            worker.terminate()


def worker_addresses(workers: Sequence[LocalWorker]) -> List[Tuple[str, int]]:
    """The ``(host, port)`` endpoints of a local pool, dispatcher-ready."""
    return [worker.address for worker in workers]
