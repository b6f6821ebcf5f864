"""The run flight recorder: one ``manifest.json`` per study run.

A study's telemetry artifacts answer "what did the pipeline measure";
the manifest answers "what run was this" — the provenance and accounting
a long-running study service needs to operate a fleet of runs: seed,
scale, fault plan, config/code fingerprints, cache behaviour, per-phase
durations (wall *and* simulated), per-shard timings and attempts,
quarantined samples with reasons, and failed shards.  It is emitted for
both live and cache-hit runs, so trendlines over artifact directories
never have gaps.

The builder takes plain values and is deliberately free of imports from
``repro.core`` — the study runner computes fingerprints and stats and
hands them in, keeping ``obs`` the bottom layer.
"""

from __future__ import annotations

import json
import os

__all__ = ["MANIFEST_VERSION", "MANIFEST_NAME", "build_manifest",
           "write_manifest", "read_manifest"]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


def build_manifest(*, study: dict, run: dict,
                   phases: dict | None = None,
                   cache: dict | None = None,
                   shards: list[dict] | None = None,
                   quarantined: list[dict] | None = None,
                   failed_shards: list[int] | None = None,
                   datasets: dict | None = None,
                   extra: dict | None = None) -> dict:
    """Assemble the manifest document.

    ``study``  — identity: seed, scale, workers, faults, fingerprints.
    ``run``    — wall accounting: started/finished unix time, wall_seconds,
                 whether the result came from the cache.
    ``phases`` — ``{phase: {count, wall_seconds, sim_seconds}}`` (the
                 ``world.*`` and ``study.*`` span aggregate).
    ``cache``  — lookup counters (hits/misses/rejected) + enabled flag.
    ``shards`` — per-shard records: shard, attempt, wall_seconds, sizes.
    ``quarantined`` — ``[{sha256, reason}]`` per-sample failures.
    ``datasets``    — the Table-1 size summary of the merged result.
    """
    return {
        "manifest_version": MANIFEST_VERSION,
        "study": dict(study),
        "run": dict(run),
        "phases": dict(phases or {}),
        "cache": dict(cache or {"enabled": False}),
        "shards": [dict(shard) for shard in (shards or [])],
        "quarantined": [dict(q) for q in (quarantined or [])],
        "failed_shards": list(failed_shards or []),
        "datasets": dict(datasets or {}),
        **({"extra": dict(extra)} if extra else {}),
    }


def write_manifest(directory: str, manifest: dict) -> str:
    """Persist ``manifest.json`` under ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(manifest, sink, indent=2, sort_keys=False, default=str)
        sink.write("\n")
    return path


def read_manifest(directory: str) -> dict:
    """Load the manifest from an artifact directory (or a direct path)."""
    path = directory
    if os.path.isdir(directory):
        path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as source:
        return json.load(source)
