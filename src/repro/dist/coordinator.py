"""The coordinator: cache-aware placement, stealing, loss detection.

One :class:`Coordinator` owns the client side of every worker
connection for one study run — remote ``repro worker`` daemons or the
runner's forked local children alike.  :meth:`begin` opens a dispatch
*wave* and places its first units; :meth:`drain` runs it to the end
(the unit of retry — see :meth:`ShardedStudyRunner.join
<repro.core.parallel.ShardedStudyRunner.join>`).  Within a wave the
coordinator is a single-threaded ``selectors`` event loop over three
structures::

    pending   deque of unit indexes not yet placed
    running   unit -> the set of peers currently executing it
    results   unit -> ShardResult (shared across waves by the runner)

and four policies:

*placement* — an idle worker gets the next pending unit; among idle
workers, one whose world cache already holds this study's
:func:`~repro.dist.plan.world_key` wins (a warm world is a deepcopy,
a cold one is a full regeneration, ~8× slower at full scale).

*stealing* — once ``pending`` is empty, an idle worker speculatively
duplicates the longest-running unit whose elapsed time exceeds
``max(min_steal_seconds, steal_factor × median completed-unit wall)``.
First result wins; the loser's result is discarded (``stolen_wasted``).
Because every unit is a pure function of ``(seed, scale, config,
unit)``, twins produce identical bytes — stealing can only move wall
clock, never the digest.

*loss detection* — workers heartbeat every ``heartbeat_interval``
while executing; a busy connection silent for ``heartbeat_timeout``
(or any connection hitting EOF / a framing error) is declared lost,
its units are re-queued with ``attempt + 1``, and the peer is left for
the next wave's reconnect pass (a remote daemon that merely dropped
its connection — the chaos-crash failure mode — is still listening; a
forked local child exits instead, and the runner forks a replacement).

*retry bounding* — a unit re-queued more than ``max_unit_retries``
times within one wave is abandoned to the wave's failure report; the
runner's ``max_redispatch`` waves then decide whether to try again.
"""

from __future__ import annotations

import selectors
import socket
import statistics
import time
from collections import deque

from .plan import TaskSpec
from .wire import PROTOCOL_VERSION, FrameDecoder, WireError, recv_frame, \
    send_frame

__all__ = ["Coordinator", "CoordinatorError"]


class CoordinatorError(RuntimeError):
    """Misuse or unrecoverable coordinator state (not a lost worker)."""


class _Peer:
    """Client-side state of one configured worker address."""

    def __init__(self, index: int, address: str):
        self.index = index
        self.address = address          # "host:port" as configured
        self.sock: socket.socket | None = None
        self.decoder = FrameDecoder()
        self.worker_id = address        # replaced by the hello-ack
        self.pid: int | None = None
        self.warm: set[str] = set()     # world keys the worker holds
        self.busy_unit: int | None = None
        self.dispatched_at = 0.0
        self.last_seen = 0.0
        # lifetime accounting (across waves), surfaced by stats()
        self.completed = 0
        self.wall = 0.0
        self.warm_hits = 0

    @property
    def connected(self) -> bool:
        return self.sock is not None


class _Wave:
    """Mutable state of one dispatch wave (:meth:`Coordinator.begin`
    through :meth:`Coordinator.drain`)."""

    def __init__(self, indexes, attempt, results):
        self.indexes = list(indexes)
        self.results = results
        self.pending = deque(sorted(i for i in self.indexes
                                    if i not in results))
        self.attempts = {i: attempt for i in self.pending}
        self.retries = {i: 0 for i in self.pending}
        self.abandoned: set[int] = set()
        self.running: dict[int, set[_Peer]] = {}
        self.reasons: dict[int, str] = {}
        self.walls: list[float] = []
        self.selector = selectors.DefaultSelector()

    def outstanding(self) -> list[int]:
        return [i for i in self.indexes if i not in self.results]

    def recoverable(self) -> bool:
        """Something could still produce a missing result this wave."""
        return bool(self.pending) or bool(self.running)


class Coordinator:
    def __init__(self, peers, spec: TaskSpec, *,
                 heartbeat_timeout: float = 15.0,
                 steal_factor: float = 3.0,
                 min_steal_seconds: float = 1.0,
                 connect_timeout: float = 5.0,
                 max_unit_retries: int = 3,
                 clock=time.monotonic):
        if not peers:
            raise CoordinatorError("coordinator needs at least one peer")
        self.spec = spec
        self.heartbeat_timeout = heartbeat_timeout
        self.steal_factor = steal_factor
        self.min_steal_seconds = min_steal_seconds
        self.connect_timeout = connect_timeout
        self.max_unit_retries = max_unit_retries
        self._clock = clock
        self.peers = [_Peer(i, address) for i, address in enumerate(peers)]
        self._retired: list[_Peer] = []
        self._wave: _Wave | None = None
        # lifetime accounting across waves
        self.redispatches = 0     # units re-queued (lost worker / failure)
        self.steals = 0
        self.stolen_wasted = 0
        self.lost_workers: list[dict] = []
        self.placements: list[dict] = []

    # -- connection management ---------------------------------------------

    def connect(self) -> int:
        """(Re)connect every unconnected peer; returns the live count.

        Unreachable peers are skipped, not fatal — the runner decides
        when zero live workers turns into shard failures.
        """
        for peer in self.peers:
            if peer.connected:
                continue
            host, _, port = peer.address.rpartition(":")
            try:
                sock = socket.create_connection(
                    (host, int(port)), timeout=self.connect_timeout)
                send_frame(sock, {"type": "hello",
                                  "protocol": PROTOCOL_VERSION,
                                  "world": self.spec.world_key})
                ack = recv_frame(sock)
            except (OSError, WireError):
                continue
            if (not isinstance(ack, dict) or ack.get("type") != "hello-ack"
                    or ack.get("protocol") != PROTOCOL_VERSION):
                sock.close()
                continue
            sock.settimeout(None)
            sock.setblocking(False)
            peer.sock = sock
            peer.decoder = FrameDecoder()
            peer.worker_id = str(ack.get("worker", peer.address))
            peer.pid = ack.get("pid")
            peer.warm = set(ack.get("warm", ()))
            peer.last_seen = self._clock()
        return sum(1 for p in self.peers if p.connected)

    def close(self) -> None:
        for peer in self.peers:
            if peer.sock is not None:
                try:
                    send_frame(peer.sock, {"type": "shutdown"})
                except OSError:
                    pass
                peer.sock.close()
                peer.sock = None

    def replace_peers(self, addresses) -> None:
        """Retire every peer (closing its connection) and adopt a new
        fleet; retired peers stay in :meth:`stats`."""
        self.close()
        self._retired.extend(self.peers)
        start = len(self._retired)
        self.peers = [_Peer(start + i, address)
                      for i, address in enumerate(addresses)]

    def _live(self) -> list[_Peer]:
        return [p for p in self.peers if p.connected]

    # -- one wave ----------------------------------------------------------

    def begin(self, indexes, attempt: int, results: dict) -> None:
        """Open a wave: connect, then place the first units (non-blocking).

        The workers start executing at once; :meth:`drain` later runs
        the event loop until the wave resolves.  ``results`` is shared
        across waves by the runner, so units already in it are skipped.
        """
        if self._wave is not None:
            raise CoordinatorError("previous wave not drained")
        wave = self._wave = _Wave(indexes, attempt, results)
        if not wave.outstanding():
            return
        if self.connect() == 0:
            for unit in wave.outstanding():
                wave.reasons[unit] = (
                    "no reachable workers "
                    f"(peers: {[p.address for p in self.peers]})")
            return
        for peer in self._live():
            wave.selector.register(peer.sock, selectors.EVENT_READ, peer)
        self._assign(wave)

    def drain(self, timeout: float | None = None) -> dict[int, str]:
        """Run the open wave to its end; returns ``unit -> failure text``
        for whatever could not be resolved (empty on full success).

        ``timeout`` is the wave's hang budget, counted from this call: a
        lost worker is detected at EOF and its unit re-queued, so only a
        unit still *running* at the deadline fails for lack of time.
        """
        wave, self._wave = self._wave, None
        if wave is None:
            raise CoordinatorError("no wave in flight")
        deadline = None if timeout is None else self._clock() + timeout
        try:
            # heartbeats sent while nobody was reading are still queued:
            # a worker is silent only from here on
            now = self._clock()
            for peer in self._live():
                peer.last_seen = now
            self._loop(wave, deadline)
        finally:
            wave.selector.close()
        failures = {}
        for unit in wave.outstanding():
            runners = wave.running.get(unit)
            if runners:
                names = ", ".join(sorted(p.worker_id for p in runners))
                failures[unit] = (
                    f"unit {unit}: worker hung ({names} still running it); "
                    f"no result within the {timeout}s wave deadline")
            else:
                failures[unit] = wave.reasons.get(
                    unit, f"unit {unit}: never placed; no result within "
                          f"the {timeout}s wave deadline")
        return failures

    def _loop(self, wave: _Wave, deadline) -> None:
        while wave.outstanding():
            self._assign(wave)
            if not wave.recoverable():
                return                       # every missing unit abandoned
            if not self._live():
                for unit in wave.outstanding():
                    wave.reasons.setdefault(unit, "all workers lost")
                return
            now = self._clock()
            if deadline is not None and now >= deadline:
                return
            wait = 0.2 if deadline is None else max(
                0.01, min(0.2, deadline - now))
            for key, _ in wave.selector.select(wait):
                self._pump(key.data, wave)
            now = self._clock()
            for peer in self._live():
                if (peer.busy_unit is not None
                        and now - peer.last_seen > self.heartbeat_timeout):
                    self._lose(peer, "heartbeat lost "
                               f"(silent for {self.heartbeat_timeout}s)",
                               wave)
            self._maybe_steal(wave, self._clock())

    # -- event handling ----------------------------------------------------

    def _pump(self, peer: _Peer, wave: _Wave) -> None:
        """Drain one readable socket into message handling."""
        try:
            data = peer.sock.recv(1 << 16)
        except BlockingIOError:      # spurious wakeup
            return
        except OSError as exc:
            self._lose(peer, f"recv failed: {exc}", wave)
            return
        if not data:
            self._lose(peer, "connection closed by worker", wave)
            return
        try:
            messages = peer.decoder.feed(data)
        except WireError as exc:
            self._lose(peer, f"protocol error: {exc}", wave)
            return
        peer.last_seen = self._clock()
        for message in messages:
            self._handle(peer, message, wave)

    def _handle(self, peer: _Peer, message: dict, wave: _Wave) -> None:
        kind = message.get("type")
        if kind == "heartbeat":
            return
        if kind == "result":
            unit = message["unit"]
            peer.busy_unit = None
            peer.warm = set(message.get("warm", peer.warm))
            wall = float(message.get("wall", 0.0))
            if unit in wave.results:
                # a steal twin lost the race; identical bytes discarded
                self.stolen_wasted += 1
            else:
                result = message["result"]
                result.worker = peer.worker_id
                wave.results[unit] = result
                wave.abandoned.discard(unit)
                wave.walls.append(wall)
            peer.completed += 1
            peer.wall += wall
            runners = wave.running.pop(unit, set())
            runners.discard(peer)
            # twins still executing stay busy until their (now wasted)
            # result drains; the unit itself is settled
            return
        if kind == "failed":
            unit = message["unit"]
            peer.busy_unit = None
            runners = wave.running.get(unit)
            if runners is not None:
                runners.discard(peer)
            self._drop_unit(unit, f"worker {peer.worker_id}: "
                            f"{message.get('error', 'failed')}", wave)
            return
        # hello-ack duplicates and unknown types are ignored: the wire
        # checksum already guarantees they are well-formed

    def _drop_unit(self, unit: int, reason: str, wave: _Wave) -> None:
        """A unit lost one executor; re-queue unless a twin survives."""
        wave.reasons[unit] = reason
        if unit in wave.results:
            return
        if wave.running.get(unit):
            return                       # a steal twin is still on it
        wave.running.pop(unit, None)
        if unit not in wave.retries:     # stale unit from a prior wave
            return
        wave.retries[unit] += 1
        if wave.retries[unit] > self.max_unit_retries:
            wave.abandoned.add(unit)
            wave.reasons[unit] = (
                f"{reason} (gave up after {self.max_unit_retries} "
                "re-queues this wave)")
            return
        wave.attempts[unit] += 1
        self.redispatches += 1
        wave.pending.append(unit)

    def _lose(self, peer: _Peer, reason: str, wave: _Wave) -> None:
        """Declare a worker lost: requeue its units, drop the socket."""
        self.lost_workers.append({
            "worker": peer.worker_id, "address": peer.address,
            "reason": reason, "busy_unit": peer.busy_unit,
        })
        try:
            wave.selector.unregister(peer.sock)
        except (KeyError, ValueError):
            pass
        try:
            peer.sock.close()
        finally:
            peer.sock = None
        dropped = [unit for unit, runners in wave.running.items()
                   if peer in runners]
        for unit in dropped:
            wave.running[unit].discard(peer)
            self._drop_unit(unit, f"worker {peer.worker_id} lost: {reason}",
                            wave)
        peer.busy_unit = None

    # -- scheduling --------------------------------------------------------

    def _choose(self, idle: list[_Peer]) -> _Peer:
        """Warm-first, then configuration order (deterministic)."""
        return min(idle, key=lambda p: (self.spec.world_key not in p.warm,
                                        p.index))

    def _assign(self, wave: _Wave) -> None:
        while wave.pending:
            idle = [p for p in self._live() if p.busy_unit is None]
            if not idle:
                return
            unit = wave.pending.popleft()
            if unit in wave.results or unit in wave.abandoned:
                continue
            peer = self._choose(idle)
            if not self._send_task(peer, unit, wave.attempts[unit],
                                   wave, steal=False):
                wave.pending.appendleft(unit)

    def _send_task(self, peer: _Peer, unit: int, attempt: int,
                   wave: _Wave, *, steal: bool) -> bool:
        warm = self.spec.world_key in peer.warm
        try:
            send_frame(peer.sock, {
                "type": "task", "unit": unit, "attempt": attempt,
                "spec": {
                    "seed": self.spec.seed,
                    "scale": self.spec.scale,
                    "config": self.spec.config,
                    "unit_count": self.spec.shard_count,
                    "telemetry": self.spec.telemetry,
                },
            })
        except OSError as exc:
            self._lose(peer, f"send failed: {exc}", wave)
            return False
        peer.busy_unit = unit
        peer.dispatched_at = self._clock()
        if warm:
            peer.warm_hits += 1
        wave.running.setdefault(unit, set()).add(peer)
        self.placements.append({
            "unit": unit, "attempt": attempt, "worker": peer.worker_id,
            "warm": warm, "steal": steal,
        })
        return True

    def _maybe_steal(self, wave: _Wave, now: float) -> None:
        if wave.pending:
            return
        idle = [p for p in self._live() if p.busy_unit is None]
        if not idle:
            return
        threshold = self.min_steal_seconds
        if wave.walls:
            threshold = max(self.min_steal_seconds,
                            self.steal_factor * statistics.median(wave.walls))
        stragglers = [
            p for p in self._live()
            if p.busy_unit is not None
            and len(wave.running.get(p.busy_unit, ())) == 1
            and now - p.dispatched_at > threshold
        ]
        stragglers.sort(key=lambda p: now - p.dispatched_at, reverse=True)
        for straggler in stragglers:
            if not idle:
                return
            unit = straggler.busy_unit
            thief = self._choose(idle)
            idle.remove(thief)
            # same attempt as the original dispatch: the unit is a pure
            # function of (seed, scale, config, unit), twins tie safely
            if self._send_task(thief, unit, wave.attempts.get(unit, 0),
                               wave, steal=True):
                self.steals += 1

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        peers = self._retired + self.peers
        return {
            "units": self.spec.shard_count,
            "peers": [p.address for p in peers],
            "placements": list(self.placements),
            "steals": self.steals,
            "stolen_wasted": self.stolen_wasted,
            "redispatches": self.redispatches,
            "lost_workers": list(self.lost_workers),
            "per_worker": {
                p.worker_id: {
                    "address": p.address,
                    "units_completed": p.completed,
                    "wall_seconds": round(p.wall, 6),
                    "warm_placements": p.warm_hits,
                }
                for p in peers
            },
        }
