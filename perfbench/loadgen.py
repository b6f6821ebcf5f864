"""Closed-loop HTTP load for the service workloads.

Each connection is one thread with one keep-alive HTTP/1.1 connection
that sends its next request only after the previous reply arrived (a
caller waiting for answers, so a closed loop).  Every request is timed
from send to the last body byte; a failed one records ``inf``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from benchlib import request_failed

#: the read mix: (route, weight in percent, path)
READ_MIX = (
    ("/profiles/:sha256", 30, None),
    ("/profiles", 10, "/profiles?limit=50"),
    ("/c2", 10, "/c2"),
    ("/rules", 10, "/rules"),
    ("/status", 10, "/status"),
    ("/digest", 10, "/digest"),
    ("/c2/lifespans", 5, "/c2/lifespans"),
    ("/summary/ddos", 5, "/summary/ddos"),
    ("/summary/exploits", 5, "/summary/exploits"),
    ("/metrics", 5, "/metrics"),
)
#: routes answered with an ETag; a third of their requests revalidate
CACHEABLE = frozenset({"/profiles/:sha256", "/profiles", "/c2", "/rules",
                       "/digest", "/c2/lifespans", "/summary/ddos",
                       "/summary/exploits"})
REVALIDATE_SHARE = 1 / 3
#: 80% of profile lookups go to the hottest 10% of known profiles
HOT_SHARE, HOT_FRACTION = 0.8, 0.1
TIMEOUT_S = 30.0


class HashPool:
    """Profile hashes the readers look up, hottest first.

    Seeded with the full profile list when the service is finalized
    before the load starts; otherwise it learns hashes from the
    ``/profiles`` replies of the mix itself.
    """

    def __init__(self, hashes=(), seed: int = 0):
        self._hashes = list(hashes)
        random.Random(seed).shuffle(self._hashes)
        self._known = set(self._hashes)
        self._lock = threading.Lock()

    def learn(self, hashes) -> None:
        with self._lock:
            for sha in hashes:
                if sha not in self._known:
                    self._known.add(sha)
                    self._hashes.append(sha)

    def pick(self, rng: random.Random) -> str | None:
        with self._lock:
            if not self._hashes:
                return None
            hot = max(1, int(len(self._hashes) * HOT_FRACTION))
            if rng.random() < HOT_SHARE or hot == len(self._hashes):
                return self._hashes[rng.randrange(hot)]
            return self._hashes[rng.randrange(hot, len(self._hashes))]


class Exchange:
    """One keep-alive connection; a failed exchange reports status None
    and reconnects on the next request."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def request(self, method: str, path: str, headers=None):
        """``(status, body, etag, seconds)``; status None on failure."""
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=TIMEOUT_S)
            self.conn.request(method, path, headers=headers or {})
            response = self.conn.getresponse()
            body = response.read()
            return (response.status, body, response.getheader("ETag"),
                    time.perf_counter() - start)
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b"", None, time.perf_counter() - start

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Reader(threading.Thread):
    """One connection sending the weighted read mix until stopped.

    ``latencies`` gets each request's seconds, ``inf`` if it failed;
    ``wrong`` counts replies whose content is incorrect (a finalized
    digest other than ``expected_digest``, a profile for another hash).
    """

    def __init__(self, port: int, pool: HashPool, seed: int,
                 expected_digest: str, stop: threading.Event):
        super().__init__(daemon=True)
        self.exchange = Exchange(port)
        self.pool = pool
        self.rng = random.Random(seed)
        self.expected_digest = expected_digest
        self.stop_event = stop
        self.latencies: list[float] = []
        self.wrong = 0
        self._routes = [route for route, _w, _p in READ_MIX]
        self._weights = [weight for _r, weight, _p in READ_MIX]
        self._paths = {route: path for route, _w, path in READ_MIX}

    def _next(self) -> tuple[str, str]:
        route = self.rng.choices(self._routes, self._weights)[0]
        if route == "/profiles/:sha256":
            sha = self.pool.pick(self.rng)
            if sha is not None:
                return route, f"/profiles/{sha}"
            route = "/profiles"   # nothing ingested yet to look up
        return route, self._paths[route]

    def run(self) -> None:
        etag = None
        while not self.stop_event.is_set():
            route, path = self._next()
            headers = {}
            revalidated = (route in CACHEABLE and etag is not None
                           and self.rng.random() < REVALIDATE_SHARE)
            if revalidated:
                headers["If-None-Match"] = etag
            status, body, tag, seconds = self.exchange.request(
                "GET", path, headers)
            failed = request_failed(status, revalidated)
            if tag:
                etag = tag
            if status == 200:
                self.wrong += not self._check(route, path, body)
            self.latencies.append(float("inf") if failed else seconds)
        self.exchange.close()

    def _check(self, route: str, path: str, body: bytes) -> bool:
        if route == "/digest":
            doc = json.loads(body)
            return (not doc["finalized"]
                    or doc["dataset_digest"] == self.expected_digest)
        if route == "/profiles":
            self.pool.learn(p["sha256"] for p in json.loads(body)["profiles"])
            return True
        if route == "/profiles/:sha256":
            return path.rsplit("/", 1)[1].encode() in body
        return True


def ingest_until_finalized(port: int, expected_digest: str) -> dict:
    """POST ``/ingest/day?days=1`` until the study is finalized, then
    check ``/digest``.  Returns per-day latencies and the ingest time."""
    exchange = Exchange(port)
    days: list[float] = []
    failed = 0
    started = time.perf_counter()
    finalized = False
    while not finalized:
        status, body, _tag, seconds = exchange.request(
            "POST", "/ingest/day?days=1")
        if request_failed(status, False):
            failed += 1
            days.append(float("inf"))
            if failed > 3:
                break
            continue
        days.append(seconds)
        finalized = json.loads(body)["finalized"]
    ingest_s = time.perf_counter() - started
    status, body, _tag, _seconds = exchange.request("GET", "/digest")
    digest = json.loads(body)["dataset_digest"] if status == 200 else None
    exchange.close()
    return {"day_latencies": days, "failed": failed, "ingest_s": ingest_s,
            "digest_ok": digest == expected_digest}
