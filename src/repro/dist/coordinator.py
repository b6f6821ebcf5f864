"""The coordinator: cache-aware placement, stealing, loss detection.

One :class:`Coordinator` owns the client side of every worker
connection for one study run — remote ``repro worker`` daemons or the
runner's forked local children alike.  :meth:`begin` connects and
places the first units; :meth:`drain` runs a single-threaded
``selectors`` event loop until every unit has a result or is given up.
It works over three structures::

    pending   deque of unit indexes waiting for a worker
    running   unit -> the set of peers currently executing it
    results   unit -> ShardResult

and four policies:

*placement* — an idle worker gets the next pending unit; among idle
workers, one whose world cache already holds this study's
:func:`~repro.dist.plan.world_key` wins (a warm world is a deepcopy,
a cold one is a full regeneration, ~8× slower at full scale).

*stealing* — once ``pending`` is empty, an idle worker speculatively
duplicates the longest-running unit whose elapsed time exceeds
``max(MIN_STEAL_SECONDS, STEAL_FACTOR × median completed-unit wall)``.
The twin shares the original's attempt number and hang budget and is
not a re-dispatch.  First result wins; the loser's result is discarded
(``stolen_wasted``).  Because every unit is a pure function of
``(seed, scale, config, unit)``, twins produce identical bytes —
stealing can only move wall clock, never the digest.

*loss detection* — workers heartbeat every ``heartbeat_interval``
while executing.  A connection hitting EOF or a framing error is
lost, and so is a busy worker silent for ``HEARTBEAT_TIMEOUT`` or
still without a result ``hang_timeout`` seconds after its dispatch (or
after :meth:`drain` began, whichever is later: results that queued
while nobody was reading are read first).  A lost worker's units are
re-queued, and while work is queued its slot is replaced once, in
place: a local child by a fresh fork (``respawn``), a remote daemon by
a reconnect to its address — a daemon that merely dropped its
connection, the chaos-crash failure mode, is still listening.

*retry bounding* — every dispatch of a unit (steal twins aside) takes
the next attempt number, and a unit is dispatched at most ``1 +
max_redispatch`` times whatever ended the earlier attempts: EOF, heartbeat silence, a
``failed`` frame or a hang.  After that the unit is given up with the
last failure's text; a unit still queued when no live worker is left
fails with "all workers lost".
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

#: seconds a busy worker may stay silent before it is declared lost
HEARTBEAT_TIMEOUT = 15.0
#: a straggler is stolen past this multiple of the median unit wall...
STEAL_FACTOR = 3.0
#: ...and never before it has run this many seconds
MIN_STEAL_SECONDS = 1.0
#: seconds allowed for one worker's TCP connect plus hello-ack
CONNECT_TIMEOUT = 5.0
#: longest ``select`` wait between scheduling passes
_TICK = 0.2


class CoordinatorError(RuntimeError):
    """Misuse or unrecoverable coordinator state (not a lost worker)."""


class _Peer:
    """Client-side state of one worker slot."""

    def __init__(self, index: int, address: str):
        self.index = index
        self.address = address          # "host:port"
        self.sock: socket.socket | None = None
        self.decoder = FrameDecoder()
        self.worker_id = address        # replaced by the hello-ack
        self.pid: int | None = None
        self.warm: set[str] = set()     # world keys the worker holds
        self.busy_unit: int | None = None
        self.attempt = 0                # attempt number of busy_unit
        self.dispatched_at = 0.0
        self.last_seen = 0.0

    @property
    def connected(self) -> bool:
        return self.sock is not None


class Coordinator:
    def __init__(self, peers, spec: TaskSpec, *, max_redispatch: int = 2,
                 hang_timeout: float | None = None, respawn=None):
        if not peers:
            raise CoordinatorError("coordinator needs at least one peer")
        self.spec = spec
        self.max_redispatch = max_redispatch
        self.hang_timeout = hang_timeout
        #: ``respawn(pid) -> address`` replaces a lost local child with a
        #: fresh fork; ``None`` means peers are daemons to reconnect to
        self._respawn = respawn
        self.addresses = list(peers)
        self.peers = [_Peer(i, address) for i, address in enumerate(peers)]
        self.pending: deque[int] = deque()
        self.running: dict[int, set[_Peer]] = {}
        self.results: dict = {}
        #: unit -> last failure text, recovered units included
        self.reasons: dict[int, str] = {}
        #: unit -> failure text, for units given up on
        self.failures: dict[int, str] = {}
        self._dispatches: dict[int, int] = {}   # unit -> next attempt
        self._walls: list[float] = []
        self._selector = selectors.DefaultSelector()
        self._drain_started: float | None = None
        self.redispatches = 0     # re-queues after a failed dispatch
        self.steals = 0
        self.stolen_wasted = 0
        self.lost_workers: list[dict] = []
        self.placements: list[dict] = []
        self._per_worker: dict[str, dict] = {}

    # -- connection management ---------------------------------------------

    def _connect(self, peer: _Peer) -> bool:
        """Open and handshake ``peer``'s connection; False if unreachable."""
        host, _, port = peer.address.rpartition(":")
        try:
            sock = socket.create_connection((host, int(port)),
                                            timeout=CONNECT_TIMEOUT)
        except OSError:
            return False
        try:
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                              "world": self.spec.world_key})
            ack = recv_frame(sock)
        except (OSError, WireError):
            ack = None
        if (not isinstance(ack, dict) or ack.get("type") != "hello-ack"
                or ack.get("protocol") != PROTOCOL_VERSION):
            sock.close()
            return False
        sock.setblocking(False)
        peer.sock = sock
        peer.decoder = FrameDecoder()
        peer.worker_id = str(ack.get("worker", peer.address))
        peer.pid = ack.get("pid")
        peer.warm = set(ack.get("warm", ()))
        peer.last_seen = time.monotonic()
        self._per_worker.setdefault(peer.worker_id, {
            "address": peer.address, "units_completed": 0,
            "wall_seconds": 0.0, "warm_placements": 0})
        self._selector.register(sock, selectors.EVENT_READ, peer)
        return True

    def close(self) -> None:
        for peer in self._live():
            try:
                send_frame(peer.sock, {"type": "shutdown"})
            except OSError:
                pass
            peer.sock.close()
            peer.sock = None
        self._selector.close()

    def _live(self) -> list[_Peer]:
        return [p for p in self.peers if p.connected]

    # -- the run -----------------------------------------------------------

    def begin(self) -> None:
        """Connect every worker and place the first units (non-blocking).

        The workers start executing at once; :meth:`drain` later runs
        the event loop to the end.
        """
        if self._dispatches:
            raise CoordinatorError("coordinator already begun")
        units = range(self.spec.shard_count)
        self._dispatches = dict.fromkeys(units, 0)
        for peer in self.peers:
            self._connect(peer)
        if not self._live():
            for unit in units:
                self._give_up(
                    unit, f"no reachable workers (peers: {self.addresses})")
            return
        self.pending.extend(units)
        self._assign()

    def drain(self) -> dict[int, str]:
        """Run until every unit has a result or is given up; returns
        ``unit -> failure text`` (empty on full success)."""
        if self._drain_started is not None:
            raise CoordinatorError("coordinator already drained")
        # heartbeats sent while nobody was reading are still queued: a
        # worker is silent, and a hang budget runs, only from here on
        now = self._drain_started = time.monotonic()
        for peer in self._live():
            peer.last_seen = now
        while self.pending or self.running:
            self._assign()
            if not self._live():
                for unit in self.pending:
                    last = self.reasons.get(unit)
                    self._give_up(unit, "all workers lost" + (
                        f" (last failure: {last})" if last else ""))
                self.pending.clear()
                break
            for key, _ in self._selector.select(_TICK):
                if key.fileobj is key.data.sock:   # not lost meanwhile
                    self._pump(key.data)
            self._expire(time.monotonic())
            self._maybe_steal(time.monotonic())
        return dict(self.failures)

    def _expire(self, now: float) -> None:
        """Declare busy workers that went silent or overran the hang
        budget lost."""
        for peer in self._live():
            if peer.busy_unit is None:
                continue
            if now - peer.last_seen > HEARTBEAT_TIMEOUT:
                self._lose(peer, "heartbeat lost "
                           f"(silent for {HEARTBEAT_TIMEOUT}s)")
            elif (self.hang_timeout is not None
                  and now - max(peer.dispatched_at, self._drain_started)
                  > self.hang_timeout):
                self._lose(peer, f"worker hung on unit {peer.busy_unit}, "
                           f"no result within the {self.hang_timeout}s "
                           "hang deadline")

    # -- event handling ----------------------------------------------------

    def _pump(self, peer: _Peer) -> None:
        """Drain one readable socket into message handling."""
        try:
            data = peer.sock.recv(1 << 16)
        except BlockingIOError:      # spurious wakeup
            return
        except OSError as exc:
            self._lose(peer, f"recv failed: {exc}")
            return
        if not data:
            self._lose(peer, "connection closed by worker")
            return
        try:
            messages = peer.decoder.feed(data)
        except WireError as exc:
            self._lose(peer, f"protocol error: {exc}")
            return
        peer.last_seen = time.monotonic()
        for message in messages:
            self._handle(peer, message)

    def _handle(self, peer: _Peer, message: dict) -> None:
        kind = message.get("type")
        if kind == "result":
            unit = message["unit"]
            peer.busy_unit = None
            peer.warm = set(message.get("warm", peer.warm))
            wall = float(message.get("wall", 0.0))
            if unit in self.results:
                # a steal twin lost the race; identical bytes discarded
                self.stolen_wasted += 1
            else:
                result = message["result"]
                result.worker = peer.worker_id
                self.results[unit] = result
                self._walls.append(wall)
            stats = self._per_worker[peer.worker_id]
            stats["units_completed"] += 1
            stats["wall_seconds"] = round(stats["wall_seconds"] + wall, 6)
            # twins still executing stay busy until their (now wasted)
            # result drains; the unit itself is settled
            self.running.pop(unit, None)
        elif kind == "failed":
            unit = message["unit"]
            peer.busy_unit = None
            self.running.get(unit, set()).discard(peer)
            self._drop_unit(unit, f"worker {peer.worker_id}: "
                            f"{message.get('error', 'failed')}")
        # heartbeats only refresh last_seen; hello-ack duplicates and
        # unknown types are ignored (the wire checksum already
        # guarantees they are well-formed)

    def _drop_unit(self, unit: int, reason: str) -> None:
        """A unit lost one executor: re-queue it unless a twin survives
        or its dispatch budget is spent."""
        if unit in self.results:
            return
        self.reasons[unit] = reason
        if self.running.get(unit):
            return
        self.running.pop(unit, None)
        if self._dispatches[unit] > self.max_redispatch:
            self._give_up(unit, reason)
            return
        self.redispatches += 1
        self.pending.append(unit)

    def _give_up(self, unit: int, reason: str) -> None:
        self.reasons[unit] = self.failures[unit] = reason

    def _lose(self, peer: _Peer, reason: str) -> None:
        """Declare a worker lost: requeue its units, drop the socket, and
        replace it while work is queued."""
        self.lost_workers.append({
            "worker": peer.worker_id, "address": peer.address,
            "reason": reason, "busy_unit": peer.busy_unit,
        })
        self._selector.unregister(peer.sock)
        peer.sock.close()
        peer.sock = None
        peer.busy_unit = None
        for unit, runners in list(self.running.items()):
            if peer in runners:
                runners.discard(peer)
                self._drop_unit(unit,
                                f"worker {peer.worker_id} lost: {reason}")
        if not self.pending:
            return
        if self._respawn is not None:
            try:
                peer.address = self._respawn(peer.pid)
            except OSError:      # fork failed: the slot stays down
                return
        self._connect(peer)

    # -- scheduling --------------------------------------------------------

    def _idle(self) -> list[_Peer]:
        return [p for p in self._live() if p.busy_unit is None]

    def _choose(self, idle: list[_Peer]) -> _Peer:
        """Warm-first, then configuration order (deterministic)."""
        return min(idle, key=lambda p: (self.spec.world_key not in p.warm,
                                        p.index))

    def _assign(self) -> None:
        while self.pending:
            idle = self._idle()
            if not idle:
                return
            unit = self.pending[0]     # still queued if the send fails
            if self._send_task(self._choose(idle), unit,
                               self._dispatches[unit], steal=False):
                self.pending.popleft()
                self._dispatches[unit] += 1

    def _send_task(self, peer: _Peer, unit: int, attempt: int, *,
                   steal: bool) -> bool:
        try:
            send_frame(peer.sock, {"type": "task", "unit": unit,
                                   "attempt": attempt, "spec": self.spec})
        except OSError as exc:
            self._lose(peer, f"send failed: {exc}")
            return False
        warm = self.spec.world_key in peer.warm
        peer.busy_unit = unit
        peer.attempt = attempt
        peer.dispatched_at = time.monotonic()
        if warm:
            self._per_worker[peer.worker_id]["warm_placements"] += 1
        self.running.setdefault(unit, set()).add(peer)
        self.placements.append({
            "unit": unit, "attempt": attempt, "worker": peer.worker_id,
            "warm": warm, "steal": steal,
        })
        return True

    def _maybe_steal(self, now: float) -> None:
        if self.pending:
            return
        idle = self._idle()
        if not idle:
            return
        threshold = MIN_STEAL_SECONDS
        if self._walls:
            threshold = max(MIN_STEAL_SECONDS,
                            STEAL_FACTOR * statistics.median(self._walls))
        stragglers = [
            p for p in self._live()
            if p.busy_unit is not None
            and len(self.running.get(p.busy_unit, ())) == 1
            and now - p.dispatched_at > threshold
        ]
        stragglers.sort(key=lambda p: now - p.dispatched_at, reverse=True)
        for straggler in stragglers:
            if not idle:
                return
            thief = self._choose(idle)
            idle.remove(thief)
            # the twin repeats the straggler's attempt, clock included:
            # the unit is a pure function of (seed, scale, config, unit),
            # so twins tie, and they share one hang budget
            if self._send_task(thief, straggler.busy_unit, straggler.attempt,
                               steal=True):
                thief.dispatched_at = straggler.dispatched_at
                self.steals += 1

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "units": self.spec.shard_count,
            "peers": list(self.addresses),
            "placements": list(self.placements),
            "steals": self.steals,
            "stolen_wasted": self.stolen_wasted,
            "redispatches": self.redispatches,
            "lost_workers": list(self.lost_workers),
            "per_worker": {worker: dict(stats) for worker, stats
                           in self._per_worker.items()},
        }
