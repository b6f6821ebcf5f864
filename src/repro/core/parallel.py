"""Sharded parallel execution of the daily pipeline (§2.2's fleet).

MalNet ran four CnCHunter sandboxes side by side, each analyzing its own
slice of the day's binaries.  This module reproduces that topology with
real executors: samples are partitioned by sha256
(:func:`~repro.determinism.shard_of`) into *units*, each executor runs
the full :class:`~repro.core.pipeline.MalNet` pipeline over its unit
against its own copy of the world, and the parent merges the unit
outputs with :meth:`Datasets.merge <repro.core.datasets.Datasets.merge>`.

The hard invariant: **the merged parallel output is byte-identical to the
serial run** on the same ``(seed, scale)``.  Three properties carry it:

* every behavioral coin in the simulation is hash-derived, and the two
  shared RNG streams (sandbox + virtual internet) are reseeded per sample
  from ``(world seed, sha256)`` (:meth:`MalNet._reseed_for`), so a
  binary's analysis is a pure function of the sample;
* sharding by sha256 keeps deduplication unit-local: every occurrence of
  a hash lands in the same unit, so no executor needs another's seen-set;
* records carry ``origin`` tuples fixing their global creation order,
  which lets the merge reconstruct the serial insertion order exactly.

There is one executor path: a :class:`~repro.dist.coordinator.
Coordinator` driving ``repro worker`` daemons over TCP.  With ``peers``
those are remote daemons; without, the runner forks one
:class:`~repro.dist.worker.WorkerServer` child per worker onto a
loopback listener (:func:`~repro.dist.worker.fork_worker`).  A forked
child runs its first unit on the world it inherited at fork — no copy,
no regeneration — and regenerates the world from ``(seed, scale)`` for
any later unit: by then the parent's probing campaign may have mutated
the parent world, so the fork snapshot is only valid once, right after
:meth:`ShardedStudyRunner.start`.

**Failure handling**: a real fleet loses sandboxes.  A crashed worker
drops its connection, the coordinator sees EOF within a poll interval
and re-queues the unit — so a crash costs seconds.  ``shard_timeout``
is only a *hang* budget, per dispatch: a worker still running a unit
past it is declared lost like a crashed one.  A lost local child is
killed and replaced by a fresh fork that regenerates the world, while
work is still queued.  Each unit is dispatched at most ``1 +
max_redispatch`` times, and every re-dispatch takes the next attempt
number.  Because each unit's output is a pure function of ``(seed,
scale, config)``, a retried unit produces the same bytes it would have
produced on the first try.  Units that run out of dispatches land in
:attr:`ShardedStudyRunner.failed_shards` so a partial merge is
reported, never silent.
"""

from __future__ import annotations

import dataclasses
import time

from ..obs import EventLog, MetricsRegistry, NullEventLog, NullTracer, \
    Telemetry, Tracer
from ..world.generator import World
from .datasets import Datasets
from .pipeline import MalNet, PipelineConfig

__all__ = ["ShardedStudyRunner", "ShardResult", "execute_shard"]


@dataclasses.dataclass
class ShardResult:
    """One executor's output: its unit's datasets plus telemetry snapshots.

    ``counters`` is the executor's full metrics snapshot (counters *and*
    histograms — the name predates the histogram merge); ``spans`` and
    ``events`` are portable tracer/event-log snapshots, populated only
    when the parent ran with telemetry enabled.  ``wall_seconds`` is the
    executor-measured wall time of the whole unit task, ``attempt`` the
    dispatch attempt that produced this result (0 = first try), and
    ``worker`` the worker that ran it (set by the coordinator).
    """

    shard_index: int
    datasets: Datasets
    counters: dict
    spans: dict | None = None
    events: dict | None = None
    wall_seconds: float = 0.0
    attempt: int = 0
    worker: str | None = None


def execute_shard(seed: int, scale, config: PipelineConfig, attempt: int,
                  telemetry_on: bool, *,
                  world: World | None = None) -> ShardResult:
    """Run the pipeline over one sha256 unit — the executor body of the
    ``repro worker`` daemon.

    ``world`` is an already-generated private copy (a forked child's
    inherited world, or a daemon's warm-cache deepcopy); ``None``
    regenerates from ``(seed, scale)`` — same bytes either way, world
    generation is deterministic.  A fault plan's worker-crash draw
    raises :class:`~repro.netsim.faults.WorkerCrash`, on which the
    daemon drops the coordinator connection without a reply.

    The executor always keeps metrics (counter/histogram totals survive
    the merge); with ``telemetry_on`` it also runs a real tracer and
    event log whose snapshots the parent re-roots under a ``shard[i]``
    span (see :mod:`repro.obs.merge`) — parallel runs lose no spans or
    events.
    """
    started = time.perf_counter()
    plan = config.faults
    if plan is not None and plan.enabled:
        from ..netsim.faults import FaultInjector, WorkerCrash

        injector = FaultInjector(plan, seed)
        if injector.worker_crashes(config.shard_index, attempt):
            raise WorkerCrash(
                f"chaos crash: unit {config.shard_index} attempt {attempt}")
        if injector.worker_hangs(config.shard_index, attempt):
            time.sleep(plan.hang_seconds)
    if world is None:
        from ..world import generate_world

        world = generate_world(seed=seed, scale=scale)
    if telemetry_on:
        telemetry = Telemetry(metrics=MetricsRegistry(), tracer=Tracer(),
                              events=EventLog())
    else:
        telemetry = Telemetry(metrics=MetricsRegistry(), tracer=NullTracer(),
                              events=NullEventLog())
    malnet = MalNet(world, config, telemetry=telemetry)
    malnet.run()
    return ShardResult(
        shard_index=config.shard_index,
        datasets=malnet.datasets,
        counters=telemetry.metrics.snapshot(),
        spans=telemetry.tracer.snapshot() if telemetry_on else None,
        events=telemetry.events.snapshot() if telemetry_on else None,
        wall_seconds=time.perf_counter() - started,
        attempt=attempt,
    )


class ShardedStudyRunner:
    """Runs the daily pipeline across sha256-partitioned executors.

    Usage is two-phase so the parent can do useful work (the probing
    campaign) while the executors grind through the units::

        runner = ShardedStudyRunner(world, workers=4).start()
        ...                       # parent-side work overlaps execution
        shards = runner.join()    # [ShardResult, ...] in unit order

    Without ``peers``, :meth:`start` forks ``workers`` local worker
    children (one unit each by default).  With ``peers``
    (``["host:port", ...]``) it drives those ``repro worker`` daemons
    instead, cutting the corpus into ``unit_count`` fine-grained units
    (default 4× the fleet size) so the coordinator can place cache-aware
    and steal from stragglers.  ``unit_count`` also works locally; any
    unit count merges to the same digest.

    ``max_redispatch`` is the number of re-dispatches each unit gets
    after a failed dispatch (lost worker, ``failed`` frame or hang), so
    a unit runs at most ``1 + max_redispatch`` times.  ``shard_timeout``
    is the hang budget of each dispatch; a crashed worker never waits
    for it.  After :meth:`join`, :attr:`failed_shards` lists the unit
    indexes that never produced a result, :attr:`failures` keeps the
    last error text of every unit that had a failed dispatch, and
    :attr:`dist_stats` carries the coordinator's
    placement/steal/lost-worker/per-worker accounting for the manifest.
    Callers must treat a non-empty :attr:`failed_shards` as a partial
    merge.
    """

    def __init__(self, world: World, workers: int,
                 config: PipelineConfig | None = None,
                 shard_timeout: float | None = 600.0,
                 max_redispatch: int = 2,
                 telemetry_enabled: bool = False,
                 peers: list[str] | None = None,
                 unit_count: int | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if world.seed is None:
            raise ValueError(
                "sharded execution needs a seeded world: workers derive "
                "their randomness from (world.seed, sha256)")
        if unit_count is not None and unit_count < 1:
            raise ValueError("unit_count must be >= 1")
        from ..dist.plan import TaskSpec, default_unit_count

        self.world = world
        self.workers = workers
        self.config = config or PipelineConfig()
        #: when True, executors run real tracer/event-log instruments and
        #: ship their snapshots back for the cross-shard merge
        self.telemetry_enabled = telemetry_enabled
        #: seconds one dispatch may run before its worker is declared
        #: hung (``None``: wait forever)
        self.shard_timeout = shard_timeout
        #: re-dispatches granted to each unit after a failed dispatch
        self.max_redispatch = max_redispatch
        #: remote worker addresses; empty means forked local workers
        self.peers = list(peers or [])
        #: sha256-partition granularity: how many units the corpus is
        #: cut into (== workers on the plain local path)
        self.shard_count = unit_count or (
            default_unit_count(workers) if self.peers else workers)
        #: unit indexes with no result (set by ``join``)
        self.failed_shards: list[int] = []
        #: last error text per unit that had a failed dispatch (``join``)
        self.failures: dict[int, str] = {}
        #: unit re-dispatches after a failed dispatch (set by ``join``)
        self.redispatches = 0
        #: coordinator placement/steal/lost-worker accounting (``join``)
        self.dist_stats: dict = {}
        #: live forked local worker processes
        self.local_workers: list = []
        self._spec = TaskSpec(seed=world.seed, scale=world.scale,
                              config=self.config,
                              shard_count=self.shard_count,
                              telemetry=telemetry_enabled)
        self._coordinator = None
        self._drained = False

    def _fork_worker(self, world: World | None) -> str:
        """Fork one local worker child; returns its address."""
        from ..dist.worker import fork_worker

        process, address = fork_worker(world)
        self.local_workers.append(process)
        return address

    def _respawn(self, pid: int) -> str:
        """Kill the lost local child ``pid`` and fork a fresh one, which
        regenerates the world: the parent's probing campaign may have
        mutated the parent world since the first fork."""
        for process in self.local_workers:
            if process.pid == pid:
                process.kill()
                process.join()
                self.local_workers.remove(process)
                break
        return self._fork_worker(None)

    def _reap_workers(self, grace: float) -> None:
        """Wait up to ``grace`` seconds per local child, then kill it."""
        for process in self.local_workers:
            process.join(grace)
            if process.is_alive():
                process.kill()
                process.join()
        self.local_workers = []

    def start(self) -> "ShardedStudyRunner":
        """Connect the workers and place the first units (non-blocking)."""
        if self._coordinator is not None:
            raise RuntimeError("runner already started")
        from ..dist.coordinator import Coordinator

        try:
            peers = self.peers or [
                self._fork_worker(self.world)
                for _ in range(min(self.workers, self.shard_count))]
            self._coordinator = Coordinator(
                peers, self._spec, max_redispatch=self.max_redispatch,
                hang_timeout=self.shard_timeout,
                respawn=None if self.peers else self._respawn)
            self._coordinator.begin()
        except BaseException:
            self._reap_workers(0.0)
            raise
        return self

    def join(self) -> list[ShardResult]:
        """Wait for every unit; returns results ordered by unit index.

        Units that exhaust their dispatches are recorded in
        :attr:`failed_shards` / :attr:`failures` and simply absent from
        the returned list.  Local children are reaped before returning.
        """
        if self._coordinator is None:
            raise RuntimeError("runner not started")
        if self._drained:
            raise RuntimeError("runner already joined")
        self._drained = True
        coordinator = self._coordinator
        try:
            self.failed_shards = sorted(coordinator.drain())
        finally:
            coordinator.close()
            # healthy children exit on the shutdown frame; hung ones die
            self._reap_workers(0.0 if self.failed_shards else 5.0)
            self.failures = dict(coordinator.reasons)
            self.redispatches = coordinator.redispatches
            self.dist_stats = coordinator.stats()
        results = coordinator.results
        return [results[index] for index in sorted(results)]
