"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's own files: :meth:`Recorder.wrap`
replaces a public function or method of the program with a timing
wrapper, and :class:`TimedLock` stands in for the service lock.  Nothing
inside ``src/`` changes.  Each span keeps its name, start, end, parent
span and run id (the root operation it belongs to: one study or one
request); a process writes its spans once, at exit, with :meth:`dump`.

:func:`derive` turns one traced unit's spans (a study, or one service
process) into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

from benchlib import median, self_times
from loadgen import CACHEABLE, READ_MIX

#: the ten read routes of the mix -> metric name fragment
READ_ROUTES = {route: route.strip("/").replace("/:", "_").replace("/", "_")
               for route, _weight, _path in READ_MIX}

#: every per-layer metric, in report order, with its unit
PER_LAYER = [
    ("import_s", "s"),
    ("world.generate.busy_s", "s"),
    ("feeds.feed_between.calls", "count"),
    ("feeds.feed_between.failed", "count"),
    ("feeds.feed_between.busy_s", "s"),
    ("feeds.vt.scan.calls", "count"),
    ("feeds.vt.scan.busy_s", "s"),
    ("intel.vt.is_malicious.calls", "count"),
    ("intel.vt.is_malicious.busy_s", "s"),
    ("sandbox.analyze_offline.calls", "count"),
    ("sandbox.analyze_offline.failed", "count"),
    ("sandbox.analyze_offline.busy_s", "s"),
    ("sandbox.activated_ratio", "ratio"),
    ("sandbox.probe_targets.calls", "count"),
    ("sandbox.probe_targets.busy_s", "s"),
    ("sandbox.live_ratio", "ratio"),
    ("sandbox.observe_live.calls", "count"),
    ("sandbox.observe_live.busy_s", "s"),
    ("pipeline.run_day.calls", "count"),
    ("pipeline.run_day.busy_s", "s"),
    ("pipeline.run_day.self_s", "s"),
    ("pipeline.complete.busy_s", "s"),
    ("probing.run.busy_s", "s"),
    ("probing.observations", "count"),
    ("parallel.start.busy_s", "s"),
    ("parallel.join.wait_s", "s"),
    ("parallel.shard_skew", "ratio"),
    ("parallel.redispatches", "count"),
    ("datasets.merge.busy_s", "s"),
    ("cache.dataset_digest.busy_s", "s"),
    ("service.digest.busy_s", "s"),
] + [(f"service.route.{name}.p50_ms", "ms")
     for name in READ_ROUTES.values()] + [
    ("service.handle.busy_s", "s"),
    ("service.not_modified_ratio", "ratio"),
    ("service.lock.wait_s", "s"),
    ("service.ingest.run_next_day.busy_s", "s"),
    ("service.checkpoint.snapshot.busy_s", "s"),
    ("service.checkpoint.save.calls", "count"),
    ("service.checkpoint.save.busy_s", "s"),
    ("service.checkpoint.bytes_written", "bytes"),
    ("bench.trace_overhead_ratio", "ratio"),
]


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, run: str | None = None):
        self.pid = os.getpid()
        #: run id given to root spans; None makes every root its own run
        self.run = run
        self.spans: list[tuple] = []
        #: spans other processes recorded and shipped back (pool workers)
        self.foreign: list[dict] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._next = 0
        self._guard = threading.Lock()

    def _new_id(self) -> str:
        with self._guard:
            self._next += 1
            return f"{os.getpid()}.{self._next}"

    def add(self, counter: str, value: float) -> None:
        with self._guard:
            self.counters[counter] = self.counters.get(counter, 0.0) + value

    def call(self, name: str, fn, args, kwargs, annotate=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = self._new_id()
        if stack:
            parent, run = stack[-1]
        else:
            parent, run = None, self.run or span_id
        stack.append((span_id, run))
        attrs = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs.update(annotate(result, args))
            return result
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, run, name, start, end,
                               attrs or None))

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` (a function, method, classmethod or
        staticmethod) with a version that records a span per call."""
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, annotate)

        setattr(owner, attr, kind(traced) if kind else traced)

    def as_dicts(self, spans=None) -> list[dict]:
        """Spans as dicts: the given own spans, or all of them."""
        own = [
            {"id": s[0], "parent": s[1], "run": s[2], "name": s[3],
             "start": s[4], "end": s[5], "attrs": s[6] or {}}
            for s in (self.spans if spans is None else spans)
        ]
        return own + self.foreign if spans is None else own

    def dump(self, path: str) -> None:
        """Write every span and counter of this process, once."""
        doc = {"pid": self.pid, "counters": self.counters,
               "spans": self.as_dicts()}
        with open(path, "w") as fh:
            json.dump(doc, fh)


class TimedLock:
    """Lock proxy that adds the time spent waiting to acquire it to the
    recorder's ``service.lock.wait_s`` counter."""

    def __init__(self, lock, recorder: Recorder):
        self._lock = lock
        self._recorder = recorder

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._lock.acquire(False):
            return True
        if not blocking:
            return False
        start = time.perf_counter()
        got = self._lock.acquire(True, timeout)
        self._recorder.add("service.lock.wait_s", time.perf_counter() - start)
        self._recorder.add("service.lock.contended", 1)
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# -- derivation --------------------------------------------------------------


def route_pattern(path: str) -> str:
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    if len(parts) == 2 and parts[0] == "profiles":
        return "/profiles/:sha256"
    return "/" + "/".join(parts)


def _under(span, by_id, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        ancestor = by_id.get(parent)
        if ancestor is None:
            return False
        if ancestor["name"] == name:
            return True
        parent = ancestor["parent"]
    return False


def derive(spans: list[dict], counters: dict) -> dict:
    """Per-layer metrics of one traced unit.

    A layer the unit never called reports 0 calls and 0 seconds.
    ``bench.trace_overhead_ratio`` is filled in by ``run.py``.
    """
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name, where=None):
        return [s for s in by_name.get(name, ()) if where is None or where(s)]

    def busy(items):
        return sum(s["end"] - s["start"] for s in items)

    def failed(items):
        return sum(1 for s in items if "error" in s["attrs"])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"import_s": counters.get("import_s", 0.0)}
    out["world.generate.busy_s"] = busy(named("world.generate"))
    for key in ("feeds.feed_between", "feeds.vt.scan",
                "intel.vt.is_malicious", "sandbox.analyze_offline",
                "sandbox.observe_live", "pipeline.run_day"):
        out[f"{key}.calls"] = len(named(key))
        out[f"{key}.busy_s"] = busy(named(key))
    for key in ("feeds.feed_between", "sandbox.analyze_offline"):
        out[f"{key}.failed"] = failed(named(key))
    analyzed = [s for s in named("sandbox.analyze_offline")
                if "error" not in s["attrs"]]
    out["sandbox.activated_ratio"] = ratio(
        sum(1 for s in analyzed if s["attrs"].get("activated")),
        len(analyzed))
    # liveness checks of the day loop; the probing campaign's calls to
    # the same method are part of probing.run
    liveness = named("sandbox.probe_targets",
                     lambda s: not _under(s, by_id, "probing.run"))
    out["sandbox.probe_targets.calls"] = len(liveness)
    out["sandbox.probe_targets.busy_s"] = busy(liveness)
    out["sandbox.live_ratio"] = ratio(
        sum(1 for s in liveness if s["attrs"].get("live")), len(liveness))
    selfs = self_times(spans)
    out["pipeline.run_day.self_s"] = sum(
        selfs[s["id"]] for s in named("pipeline.run_day"))
    out["pipeline.complete.busy_s"] = busy(named("pipeline.complete"))
    probing = named("probing.run")
    out["probing.run.busy_s"] = busy(probing)
    out["probing.observations"] = sum(
        s["attrs"].get("observations", 0) for s in probing)
    out["parallel.start.busy_s"] = busy(named("parallel.start"))
    joins = named("parallel.join")
    out["parallel.join.wait_s"] = busy(joins)
    walls = [w for s in joins for w in s["attrs"].get("shard_walls", ())]
    out["parallel.shard_skew"] = (max(walls) / min(walls)
                                  if walls and min(walls) > 0 else 0.0)
    out["parallel.redispatches"] = sum(
        s["attrs"].get("redispatches", 0) for s in joins)
    out["datasets.merge.busy_s"] = busy(named("datasets.merge"))
    out["cache.dataset_digest.busy_s"] = busy(named("cache.dataset_digest"))
    out["service.digest.busy_s"] = busy(named("service.digest"))
    handled = named("service.handle",
                    lambda s: s["attrs"].get("route") in READ_ROUTES)
    for route, key in READ_ROUTES.items():
        times = [s["end"] - s["start"] for s in handled
                 if s["attrs"].get("route") == route]
        out[f"service.route.{key}.p50_ms"] = \
            median(times) * 1e3 if times else 0.0
    out["service.handle.busy_s"] = busy(handled)
    cacheable = [s for s in handled if s["attrs"]["route"] in CACHEABLE]
    out["service.not_modified_ratio"] = ratio(
        sum(1 for s in cacheable if s["attrs"].get("status") == 304),
        len(cacheable))
    out["service.lock.wait_s"] = counters.get("service.lock.wait_s", 0.0)
    out["service.ingest.run_next_day.busy_s"] = busy(
        named("service.ingest.run_next_day"))
    out["service.checkpoint.snapshot.busy_s"] = busy(
        named("service.checkpoint.snapshot"))
    saves = named("service.checkpoint.save")
    out["service.checkpoint.save.calls"] = len(saves)
    out["service.checkpoint.save.busy_s"] = busy(saves)
    out["service.checkpoint.bytes_written"] = sum(
        s["attrs"].get("bytes", 0) for s in saves)
    out["bench.trace_overhead_ratio"] = 0.0
    return {name: out[name] for name, _unit in PER_LAYER}
