"""Distributed study execution: coordinator, worker daemon, wire format.

Every parallel study runs its sha256 units through this package: the
sharded runner (:mod:`repro.core.parallel`) drives a coordinator over
TCP workers — remote ``repro worker`` daemons when given ``peers``,
otherwise worker children it forks onto loopback listeners.

``wire.py``
    length-prefixed framed messages over TCP, reusing the checksummed
    ``pack_entry``/``unpack_entry`` encoding from :mod:`repro.core.cache`
``plan.py``
    the fine-grained shard plan — sha256 unit partitioning, world cache
    keys, default unit counts
``coordinator.py``
    cache-aware unit placement, adaptive work stealing, EOF-, heartbeat-
    and hang-based lost-worker detection, one retry budget per unit
``worker.py``
    the ``repro worker`` daemon: accepts coordinator connections and
    executes shard units against a warm world cache; ``fork_worker``
    starts a one-connection local child

The deterministic-merge invariant — serial output byte-identical to any
merged parallel output — is unchanged: units are sha256-partitioned, so
any placement, steal, or re-dispatch schedule merges to the same digest.
"""

from .plan import TaskSpec, default_unit_count, world_key
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "TaskSpec",
    "WireError",
    "default_unit_count",
    "recv_frame",
    "send_frame",
    "world_key",
]
