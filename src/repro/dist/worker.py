"""The ``repro worker`` daemon: executes shard units for a coordinator.

One :class:`WorkerServer` listens on a TCP port and serves any number
of coordinator connections, one thread per connection (the
``cs2620_hw3`` peer-mesh idiom: daemon threads around blocking
sockets, a stop event for shutdown).  The same server is the local
executor: :func:`fork_worker` binds a loopback listener and forks a
child that serves exactly one coordinator connection and exits at its
EOF, so a parent that dies — even by SIGKILL — leaves no orphan.

Per task the server runs
:func:`repro.core.parallel.execute_shard` in an executor thread while
the connection thread keeps heartbeats flowing — so a unit that is
merely slow looks alive to the coordinator, and only a worker that is
truly gone (process killed, network cut) goes silent.

Worlds are the expensive part of a unit (generation dwarfs the
pipeline at small unit sizes), so the daemon keeps a small LRU of
*pristine* generated worlds keyed by
:func:`~repro.dist.plan.world_key` and hands each task a deepcopy —
~8× cheaper than regenerating, and byte-identical because world
generation is a pure function of ``(seed, scale)``.  The cache keys
are reported in every ``hello-ack``/``result`` frame, which is what
lets the coordinator place units cache-aware.  A forked child instead
runs its first unit on the world it inherited at fork, uncopied, then
drops it; later units go through the cache like a daemon's.

Chaos: a fault plan's ``worker_crashes`` draw makes the worker drop
the coordinator's connection without a reply — the coordinator sees
exactly what a dead sandbox looks like: EOF, no result.  A daemon
keeps listening; a forked child exits.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import socket
import threading
from collections import OrderedDict

from .plan import world_key
from .wire import PROTOCOL_VERSION, WireError, recv_frame, send_frame

__all__ = ["WorkerServer", "WorldCache", "fork_worker"]

#: seconds a forked child waits for its coordinator to connect
ACCEPT_TIMEOUT = 60.0


class WorldCache:
    """Thread-safe LRU of pristine generated worlds."""

    def __init__(self, limit: int = 4):
        if limit < 1:
            raise ValueError("world cache limit must be >= 1")
        self.limit = limit
        self._worlds: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lease(self, seed: int, scale):
        """A private, mutable copy of the world for ``(seed, scale)``."""
        key = world_key(seed, scale)
        with self._lock:
            pristine = self._worlds.get(key)
            if pristine is not None:
                self._worlds.move_to_end(key)
                self.hits += 1
        if pristine is None:
            from ..world import generate_world

            pristine = generate_world(seed=seed, scale=scale)
            with self._lock:
                self.misses += 1
                self._worlds[key] = pristine
                while len(self._worlds) > self.limit:
                    self._worlds.popitem(last=False)
        # the cached original is never mutated, only its copies are —
        # a deepcopy of a pristine world == a regenerated one
        return copy.deepcopy(pristine)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._worlds)


class _ChaosDrop(Exception):
    """Internal: this task's chaos draw says 'die'; drop the connection."""


class WorkerServer:
    """Accept loop + per-connection task execution."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 heartbeat_interval: float = 0.5,
                 world_cache_limit: int = 4, world=None):
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.worker_id = f"{self.host}:{self.port}"
        self.heartbeat_interval = heartbeat_interval
        self.worlds = WorldCache(world_cache_limit)
        #: world handed, uncopied, to the first task (a fork snapshot)
        self._inherited = world
        self.tasks_run = 0
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Blocking accept loop; returns after :meth:`shutdown`."""
        self._listener.settimeout(0.5)
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:      # listener closed under us
                break
            threading.Thread(target=self._serve_client, args=(conn,),
                             daemon=True).start()
        self._listener.close()

    def serve_one(self) -> None:
        """Serve exactly one coordinator connection, then return."""
        self._listener.settimeout(ACCEPT_TIMEOUT)
        try:
            conn, _addr = self._listener.accept()
        except OSError:          # nobody connected: the parent is gone
            return
        finally:
            self._listener.close()
        self._serve_client(conn)

    def start(self) -> "WorkerServer":
        """Run the accept loop in a daemon thread (tests, embedding)."""
        if self._accept_thread is not None:
            raise RuntimeError("worker already started")
        self._accept_thread = threading.Thread(target=self.serve_forever,
                                               daemon=True)
        self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    # -- per-connection protocol -------------------------------------------

    def _serve_client(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    message = recv_frame(conn)
                except WireError:
                    return
                if message is None or message.get("type") == "shutdown":
                    return
                kind = message.get("type")
                if kind == "hello":
                    if message.get("protocol") != PROTOCOL_VERSION:
                        return
                    send_frame(conn, {
                        "type": "hello-ack",
                        "protocol": PROTOCOL_VERSION,
                        "worker": self.worker_id,
                        "pid": os.getpid(),
                        "warm": self.worlds.keys(),
                    })
                elif kind == "task":
                    self._run_task(conn, message)
        except _ChaosDrop:
            pass                  # die like a sandbox host: EOF, no reply
        except OSError:
            pass                  # coordinator went away mid-send
        finally:
            conn.close()

    def _lease_world(self, seed: int, scale):
        world, self._inherited = self._inherited, None
        return world if world is not None else self.worlds.lease(seed, scale)

    def _run_task(self, conn: socket.socket, message: dict) -> None:
        from ..core import parallel
        from ..netsim.faults import WorkerCrash

        unit = message["unit"]
        attempt = message["attempt"]
        spec = message["spec"]
        box: dict = {}

        def execute():
            try:
                world = self._lease_world(spec.seed, spec.scale)
                # looked up per call, so a wrapper installed before the
                # fork runs in the child
                box["result"] = parallel.execute_shard(
                    spec.seed, spec.scale, spec.config_for(unit), attempt,
                    spec.telemetry, world=world)
            except WorkerCrash:
                box["crash"] = True
            except BaseException as exc:  # ship the failure, stay alive
                box["error"] = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(target=execute, daemon=True)
        thread.start()
        while thread.is_alive():
            thread.join(self.heartbeat_interval)
            if thread.is_alive():
                send_frame(conn, {"type": "heartbeat", "unit": unit})
        self.tasks_run += 1
        if "crash" in box:
            raise _ChaosDrop
        if "error" in box:
            send_frame(conn, {"type": "failed", "unit": unit,
                              "attempt": attempt, "error": box["error"]})
            return
        result = box["result"]
        send_frame(conn, {"type": "result", "unit": unit,
                          "attempt": attempt, "result": result,
                          "warm": self.worlds.keys(),
                          "wall": result.wall_seconds})


def fork_worker(world=None) -> tuple:
    """Fork a one-connection :class:`WorkerServer` on a loopback port.

    The listener is bound (and listening) before the fork, so the
    caller may connect as soon as this returns.  ``world`` is handed to
    the child's first task uncopied.  Returns ``(process, address)``;
    the caller reaps the process.
    """
    server = WorkerServer("127.0.0.1", 0, world=world)
    process = multiprocessing.get_context("fork").Process(
        target=server.serve_one, name=f"repro-worker-{server.port}",
        daemon=True)
    process.start()
    server._listener.close()     # the child holds its own copy
    return process, server.worker_id
