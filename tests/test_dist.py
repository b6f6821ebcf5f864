"""The distributed runner end-to-end: wire format, worker daemon,
coordinator scheduling, and the byte-identity guarantee over TCP.

The expensive sections run one smoke study per fault plan through the
real coordinator — in-process :class:`WorkerServer` threads for the
scheduling tests (correctness is GIL-independent), ``python -m repro
worker`` subprocesses for the SIGKILL test, where a worker must be
killable mid-unit without the digest moving, and the runner's own
forked local children for the orphan and local-loss tests.
"""

import dataclasses
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.cache import dataset_digest
from repro.core.parallel import ShardedStudyRunner
from repro.core.pipeline import PipelineConfig
from repro.core.study import run_study
from repro.dist import TaskSpec, WireError, coordinator, recv_frame, \
    send_frame
from repro.dist.wire import PROTOCOL_VERSION, FrameDecoder
from repro.dist.worker import WorkerServer, WorldCache, fork_worker
from repro.netsim.faults import FAULT_PLANS
from repro.obs import create_telemetry
from repro.world import StudyScale, generate_world

SCALE = StudyScale(sample_fraction=0.05, probe_days=4,
                   observe_duration=1800.0, observe_poll_interval=300.0,
                   scan_budget=120)
SEED = 1337
UNIT_COUNT = 8

MILD = PipelineConfig(faults=FAULT_PLANS["mild"])
# one unit straggles hard: the shape that must trigger a steal, and the
# run that must stay byte-identical when a worker is killed under it
STRAGGLER = PipelineConfig(faults=dataclasses.replace(
    FAULT_PLANS["mild"], name="mild-straggler",
    hang_shards=(2,), hang_attempts=1, hang_seconds=6.0))


def _serial(config):
    world = generate_world(seed=SEED, scale=SCALE)
    _malnet, _campaign, datasets = run_study(world, config=config)
    return dataset_digest(datasets)


@pytest.fixture(scope="module")
def serial_plain():
    return _serial(None)


@pytest.fixture(scope="module")
def serial_mild():
    return _serial(MILD)


@pytest.fixture(scope="module")
def serial_straggler():
    return _serial(STRAGGLER)


@pytest.fixture(scope="module")
def workers():
    """Two in-process worker daemons on ephemeral ports."""
    servers = [WorkerServer().start(), WorkerServer().start()]
    yield servers
    for server in servers:
        server.shutdown()


def _peers(servers):
    return [f"{s.host}:{s.port}" for s in servers]


_ANNOUNCE = re.compile(r"listening on ([\d.]+):(\d+)")


def _spawn_fleet(count):
    """``repro worker`` daemons as real subprocesses -> (procs, peers)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    procs, peers = [], []
    for _ in range(count):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)
        procs.append(proc)
        match = _ANNOUNCE.search(proc.stdout.readline())
        assert match, "worker did not announce its address"
        peers.append(f"{match.group(1)}:{match.group(2)}")
    return procs, peers


def _stop_fleet(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)


# -- wire format --------------------------------------------------------------


def test_frame_roundtrip():
    left, right = socket.socketpair()
    try:
        message = {"type": "task", "unit": 3, "payload": list(range(100))}
        send_frame(left, message)
        assert recv_frame(right) == message
    finally:
        left.close()
        right.close()


def test_clean_eof_is_none_midframe_eof_raises():
    left, right = socket.socketpair()
    left.close()
    try:
        assert recv_frame(right) is None    # EOF at a frame boundary
    finally:
        right.close()
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "heartbeat", "unit": 0})
        # deliver the header plus one payload byte, then hang up
        frame = right.recv(1 << 16)
        reader, writer = socket.socketpair()
        writer.sendall(frame[:5])
        writer.close()
        with pytest.raises(WireError):
            recv_frame(reader)
        reader.close()
    finally:
        left.close()
        right.close()


def test_corrupted_payload_is_rejected():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "result", "unit": 1})
        frame = bytearray(right.recv(1 << 16))
        frame[-1] ^= 0xFF                   # flip a pickle byte
        reader, writer = socket.socketpair()
        writer.sendall(bytes(frame))
        with pytest.raises(WireError):
            recv_frame(reader)
        reader.close()
        writer.close()
    finally:
        left.close()
        right.close()


def test_decoder_reassembles_fragmented_and_coalesced_frames():
    left, right = socket.socketpair()
    try:
        for unit in range(3):
            send_frame(left, {"type": "heartbeat", "unit": unit})
        stream = right.recv(1 << 20)
    finally:
        left.close()
        right.close()
    # one byte at a time: worst-case TCP fragmentation
    decoder = FrameDecoder()
    messages = []
    for offset in range(len(stream)):
        messages.extend(decoder.feed(stream[offset:offset + 1]))
    assert [m["unit"] for m in messages] == [0, 1, 2]
    # all three frames in one recv: coalescing
    assert [m["unit"] for m in FrameDecoder().feed(stream)] == [0, 1, 2]


def test_decoder_rejects_absurd_header():
    with pytest.raises(WireError):
        FrameDecoder().feed(b"\xff\xff\xff\xff")


# -- world cache --------------------------------------------------------------


def test_world_cache_leases_are_private_copies():
    cache = WorldCache(limit=2)
    tiny = StudyScale(sample_fraction=0.02, probe_days=2,
                      observe_duration=600.0, observe_poll_interval=300.0,
                      scan_budget=60)
    first = cache.lease(7, tiny)
    second = cache.lease(7, tiny)
    assert (cache.hits, cache.misses) == (1, 1)
    assert first is not second and first.internet is not second.internet
    # mutating a lease must not poison later leases
    first.probe_start = 12345.0
    third = cache.lease(7, tiny)
    assert third.probe_start == second.probe_start != 12345.0


def test_world_cache_evicts_least_recently_used():
    cache = WorldCache(limit=2)
    tiny = StudyScale(sample_fraction=0.02, probe_days=2,
                      observe_duration=600.0, observe_poll_interval=300.0,
                      scan_budget=60)
    for seed in (1, 2, 3):
        cache.lease(seed, tiny)
    assert len(cache.keys()) == 2
    assert cache.misses == 3
    cache.lease(3, tiny)                    # still resident
    assert cache.hits == 1
    cache.lease(1, tiny)                    # evicted: regenerates
    assert cache.misses == 4


# -- remote workers end-to-end ------------------------------------------------


def _dist_study(peers, config, unit_count=UNIT_COUNT, **kwargs):
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SCALE)
    _malnet, _campaign, datasets = run_study(
        world, config=config, telemetry=telemetry, peers=peers,
        unit_count=unit_count, **kwargs)
    return datasets, telemetry.manifest


def test_socket_transport_matches_serial(workers, serial_plain):
    datasets, manifest = _dist_study(_peers(workers), None)
    assert not datasets.failed_shards
    assert dataset_digest(datasets) == serial_plain
    dist = manifest["extra"]["dist"]
    assert dist["peers"] == _peers(workers)
    assert dist["units"] == UNIT_COUNT
    assert {p["unit"] for p in dist["placements"]} == set(range(UNIT_COUNT))
    per_worker = dist["per_worker"]
    assert len(per_worker) == 2
    assert sum(w["units_completed"] for w in per_worker.values()) \
        >= UNIT_COUNT
    # both daemons generated the world at most once; later units reuse it
    assert sum(s.worlds.hits for s in workers) >= UNIT_COUNT - 2


def test_socket_transport_matches_serial_under_mild_faults(workers,
                                                           serial_mild):
    datasets, manifest = _dist_study(_peers(workers), MILD)
    assert not datasets.failed_shards
    assert dataset_digest(datasets) == serial_mild
    # same (seed, scale) as the previous run: placement sees warm workers
    dist = manifest["extra"]["dist"]
    assert sum(w["warm_placements"]
               for w in dist["per_worker"].values()) >= 1


def test_socket_counter_totals_match_serial():
    """Remote ShardResults carry their telemetry snapshots over the
    wire, so the merged counters equal the serial run's — dedup'd
    record counters included.

    Runs against real subprocess daemons: in-process worker threads
    share this process's capture accumulators with the concurrently
    probing parent, which double-counts world-global rows — a test
    artifact a deployed (per-process) worker cannot exhibit.
    """
    def totals(**kwargs):
        telemetry = create_telemetry()
        world = generate_world(seed=SEED, scale=SCALE)
        run_study(world, telemetry=telemetry, **kwargs)
        return {
            (family.name, tuple(sorted(labels.items()))): child.value
            for family in telemetry.metrics.families()
            if family.kind == "counter"
            for labels, child in family.series()
        }

    procs, peers = _spawn_fleet(2)
    try:
        assert totals() == totals(peers=peers, unit_count=UNIT_COUNT)
    finally:
        _stop_fleet(procs)


def test_straggling_unit_is_stolen(workers, serial_straggler, monkeypatch):
    monkeypatch.setattr(coordinator, "MIN_STEAL_SECONDS", 0.3)
    monkeypatch.setattr(coordinator, "STEAL_FACTOR", 0.5)
    datasets, manifest = _dist_study(
        _peers(workers), STRAGGLER, unit_count=4)
    assert not datasets.failed_shards
    assert dataset_digest(datasets) == serial_straggler
    dist = manifest["extra"]["dist"]
    assert dist["steals"] >= 1
    assert any(p["steal"] for p in dist["placements"])


def test_unreachable_workers_fail_the_units_not_the_run():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()                           # nobody listens here now
    world = generate_world(seed=SEED, scale=SCALE)
    _malnet, _campaign, datasets = run_study(
        world, peers=[f"127.0.0.1:{dead_port}"],
        unit_count=3, shard_timeout=10.0, max_redispatch=0)
    assert sorted(datasets.failed_shards) == [0, 1, 2]
    assert datasets.profiles == []          # no unit ever ran


def test_socket_study_survives_a_sigkilled_worker(serial_straggler):
    procs, peers = _spawn_fleet(2)
    try:
        # the straggler unit hangs 6s: the study is guaranteed to still
        # be running when the axe falls
        axe = threading.Timer(2.0, procs[0].kill)
        axe.start()
        try:
            datasets, manifest = _dist_study(peers, STRAGGLER,
                                               unit_count=4)
        finally:
            axe.cancel()
        assert procs[0].wait(timeout=10) != 0   # it really died
        assert not datasets.failed_shards
        assert dataset_digest(datasets) == serial_straggler
        dist = manifest["extra"]["dist"]
        assert len(dist["lost_workers"]) >= 1
    finally:
        _stop_fleet(procs)


# -- forked local workers -----------------------------------------------------


def test_local_child_exits_when_its_coordinator_connection_closes():
    """A forked child serves exactly one connection: when the parent
    goes away (a SIGKILL closes its sockets the same way) the child
    exits — even mid-unit — instead of lingering as an orphan."""
    process, address = fork_worker()
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    try:
        send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                          "world": "-"})
        ack = recv_frame(sock)
        assert ack["type"] == "hello-ack" and ack["pid"] == process.pid
        send_frame(sock, {
            "type": "task", "unit": 2, "attempt": 0,   # hangs 6s
            "spec": TaskSpec(seed=SEED, scale=SCALE, config=STRAGGLER,
                             shard_count=4),
        })
        assert recv_frame(sock)["type"] == "heartbeat"   # mid-unit now
    finally:
        sock.close()
    process.join(5.0)
    assert process.exitcode is not None, "child outlived its coordinator"


def test_local_study_survives_a_sigkilled_child(serial_straggler,
                                                 monkeypatch):
    """SIGKILL one forked child mid-unit: the coordinator sees EOF at
    once, re-runs the unit on the surviving child (which regenerates
    the world), and the merge still equals the serial run."""
    runners, kills = [], []
    start = ShardedStudyRunner.start

    def start_then_kill(self):
        start(self)
        runners.append(self)
        victim = self.local_workers[1]

        def kill():
            os.kill(victim.pid, 9)
            kills.append(time.monotonic())

        threading.Timer(0.5, kill).start()
        return self

    monkeypatch.setattr(ShardedStudyRunner, "start", start_then_kill)
    # unit 1 of 2 hangs 6s on its first attempt, so its child is
    # mid-unit when killed; no steal may run it meanwhile
    monkeypatch.setattr(coordinator, "MIN_STEAL_SECONDS", 60.0)
    config = PipelineConfig(faults=dataclasses.replace(
        STRAGGLER.faults, hang_shards=(1,)))
    datasets, manifest = _dist_study(
        None, config, unit_count=None, workers=2, shard_timeout=60.0)
    assert time.monotonic() - kills[0] < 5.0
    assert runners[0].local_workers == []      # every child reaped
    assert not datasets.failed_shards
    assert dataset_digest(datasets) == serial_straggler
    lost = manifest["extra"]["dist"]["lost_workers"]
    assert len(lost) == 1 and lost[0]["busy_unit"] == 1


def test_hung_local_child_is_killed_and_replaced(monkeypatch):
    """A child still running its unit at the hang deadline is lost like
    a crashed one: it is killed, a fresh fork takes its slot, and the
    unit is retried on another worker."""
    monkeypatch.setattr(coordinator, "MIN_STEAL_SECONDS", 60.0)
    config = PipelineConfig(faults=dataclasses.replace(
        STRAGGLER.faults, hang_shards=(1,), hang_seconds=60.0))
    world = generate_world(seed=SEED, scale=SCALE)
    runner = ShardedStudyRunner(
        world, workers=2, config=config, shard_timeout=2.0,
        max_redispatch=1)
    runner.start()
    hung_pid = runner.local_workers[1].pid     # unit 1's child
    results = runner.join()
    assert runner.failed_shards == [] and len(results) == 2
    assert runner.redispatches == 1
    with pytest.raises(ProcessLookupError):    # killed and reaped
        os.kill(hung_pid, 0)
    placements = runner.dist_stats["placements"]
    hung = [p["worker"] for p in placements if p["attempt"] == 0
            and p["unit"] == 1]
    retry = [p for p in placements if p["attempt"] == 1]
    assert [p["unit"] for p in retry] == [1]
    assert retry[0]["worker"] not in hung
