"""Helpers shared by the benchmark runner and its child processes.

Pure functions only (statistics, failure accounting, self time, host
facts) so the self-tests can exercise them without running a study.
"""

from __future__ import annotations

import math
import os
import platform
import statistics

#: percentiles a tail may be reported at, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def _rank(pct: float, count: int) -> int:
    # rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed operations)
    sort last, so a failure counts as missing every latency limit."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it, or None."""
    for pct in TAIL_CANDIDATES:
        if count - _rank(pct, count) >= TAIL_MIN_BEYOND:
            return pct
    return None


def latency_summary(latencies_s) -> dict:
    """Median and supported tail of a latency sample, in milliseconds.

    ``latencies_s`` holds one entry per attempted operation, ``inf`` for
    a failed one.
    """
    latencies_s = list(latencies_s)
    out = {"count": len(latencies_s),
           "p50_ms": percentile(latencies_s, 50.0) * 1e3}
    pct = tail_percentile(len(latencies_s))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail_ms"] = percentile(latencies_s, pct) * 1e3
    return out


# -- failure accounting ------------------------------------------------------


def batch_failures(attempted: int, quarantined: int, failed_shards: int,
                   digest_ok: bool) -> int:
    """Failed samples of one batch study.

    A digest mismatch means the whole output is wrong, so every attempted
    sample counts as failed; otherwise quarantined samples and failed
    shards do.
    """
    if not digest_ok:
        return attempted
    return min(attempted, quarantined + failed_shards)


def request_failed(status: int | None, revalidated: bool) -> bool:
    """Whether one HTTP exchange failed: no response (timeout or
    connection error), a 304 the client did not ask for, or any status
    other than 2xx/304."""
    if status is None:
        return True
    if status == 304:
        return not revalidated
    return not 200 <= status < 300


# -- spans -------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> self time: its duration minus the part of its interval
    covered by its direct children (clipped to the parent's interval)."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(start, c["start"]), min(end, c["end"]))
            for c in children.get(span["id"], ())
            if c["end"] > start and c["start"] < end)
        out[span["id"]] = (end - start) - covered
    return out


# -- host facts --------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_facts() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {"cpu_model": cpu_model(), "nproc": nproc,
            "python": platform.python_version()}
