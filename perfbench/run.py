"""Benchmark runner: runs one named workload against the program from
outside it and prints its metrics.

    python3 perfbench/run.py --workload study-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  The system under test always runs in
child processes (``batch.py`` for studies, ``serve.py`` for the
service); this process generates the load, times it, checks every
output against ``expected.json`` and prints, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The lines before
it name every metric the workload measures, with unit and sample count.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import loadgen
from benchlib import batch_failures, host_facts, latency_summary, median
from spans import PER_LAYER, derive

WORKLOADS = ("study-full", "study-full-w2", "service-read", "service-ingest")
#: set-ups measured per run, so set-up time is a median
MIN_SETUPS = 5
#: studies per batch run at least, however short ``--seconds`` is
MIN_STUDIES = 4
#: a child that has not answered by then has hung
CHILD_TIMEOUT_S = 150.0
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"


class Run:
    """State of one benchmark invocation: inputs, children, results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)
        self.world_seed = world_seed(seed, expected)
        self.expected = expected[str(self.world_seed)]
        self.out_dir = os.path.join(
            OUT_ROOT, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
        os.makedirs(self.out_dir, exist_ok=True)
        self.children: list[subprocess.Popen] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict = {}
        self.span_files: list[str] = []

    # -- children ------------------------------------------------------------

    def spawn(self, script: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdout=subprocess.PIPE, text=True)
        self.children.append(proc)
        # a hung child must not hang the run: kill it past the deadline
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        proc.watchdog = timer
        return proc

    def reap(self, proc: subprocess.Popen) -> list[str]:
        """Wait for a child; returns its remaining stdout lines."""
        out, _ = proc.communicate()
        proc.watchdog.cancel()
        self.children.remove(proc)
        if proc.returncode != 0:
            self.errors.append(f"{proc.args[1]} exited {proc.returncode}")
        return out.splitlines()

    def stop_all(self) -> None:
        for proc in list(self.children):
            proc.kill()
            self.reap(proc)

    def spans_path(self, label: str) -> str:
        path = os.path.join(self.out_dir, f"spans-{label}.json")
        self.span_files.append(path)
        return path

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


def world_seed(seed: int, expected: dict) -> int:
    """The world ``--seed`` selects: itself when its digests are
    recorded, else one of the recorded worlds."""
    if str(seed) in expected:
        return seed
    recorded = sorted(int(key) for key in expected)
    return recorded[seed % len(recorded)]


def last_json(lines: list[str]) -> dict:
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("child printed no result")


def gate(named: dict, throughput: tuple, latency: tuple) -> dict:
    """A workload's own metrics plus the gated ones of BENCHMARK.json,
    which every workload reports (see README.md, "Metrics")."""
    return {"named": named, "gated": {
        "setup_s": named["setup_s"],
        "throughput_per_s": throughput,
        "latency_p50_ms": latency,
        "peak_rss_mb": named["peak_rss_mb"],
    }}


# -- batch workloads ---------------------------------------------------------


def batch_iteration(run: Run, workers: int, spans: str | None) -> dict:
    """One fresh process: generate the world, run the study, digest it."""
    args = ["--seed", str(run.world_seed), "--workers", str(workers)]
    if spans:
        args += ["--spans", spans]
    started = time.perf_counter()
    proc = run.spawn("batch.py", *args)
    ready = proc.stdout.readline().strip()
    setup_s = time.perf_counter() - started
    result = last_json(run.reap(proc))
    run.check(ready == "ready", "batch child never reported ready")
    digest_ok = result["digest"] == run.expected["full"]
    run.check(digest_ok, f"study digest {result['digest'][:12]} != expected "
                         f"{run.expected['full'][:12]}")
    failed = batch_failures(result["attempted"], result["quarantined"],
                            result["failed_shards"], digest_ok)
    run.attempted += result["attempted"]
    run.failed += failed
    result.update(setup_s=setup_s, wall_s=setup_s + result["study_s"],
                  samples_per_s=result["profiles"]
                  / (setup_s + result["study_s"]))
    return result


def batch_setup(run: Run) -> float:
    """Set-up time of a process that exits once its world is ready."""
    started = time.perf_counter()
    proc = run.spawn("batch.py", "--seed", str(run.world_seed),
                     "--setup-only")
    ready = proc.stdout.readline().strip()
    setup_s = time.perf_counter() - started
    run.reap(proc)
    run.check(ready == "ready", "batch child never reported ready")
    return setup_s


def batch_workload(run: Run, workers: int) -> dict:
    started = time.perf_counter()
    if run.trace:
        # untraced and traced studies alternate, so the overhead ratio
        # compares neighbours in time
        base, traced = [], []
        while not traced or time.perf_counter() - started < run.seconds:
            base.append(batch_iteration(run, workers, None))
            path = run.spans_path(f"study-{len(traced)}")
            traced.append((batch_iteration(run, workers, path), path))
        ratio = (median(r["wall_s"] for r, _p in traced)
                 / median(r["wall_s"] for r in base))
        run.counts.update(studies=len(base) + len(traced),
                          samples=run.attempted)
        return per_layer_median([derive_file(p) for _r, p in traced], ratio)
    results = []
    while (len(results) < MIN_STUDIES
           or time.perf_counter() - started < run.seconds):
        results.append(batch_iteration(run, workers, None))
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        setups.append(batch_setup(run))
    run.counts.update(setups=len(setups), studies=len(results),
                      samples=run.attempted)
    named = {
        "setup_s": (median(setups), "s"),
        "study_s": (median(r["study_s"] for r in results), "s"),
        "samples_per_s": (median(r["samples_per_s"] for r in results),
                          "1/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in results), "MB"),
    }
    return gate(named, named["samples_per_s"],
                (named["study_s"][0] * 1e3, "ms"))


# -- service workloads -------------------------------------------------------


def start_service(run: Run, *args: str) -> tuple:
    """Spawn the launcher; set-up ends when ``/healthz`` answers."""
    started = time.perf_counter()
    proc = run.spawn("serve.py", "--seed", str(run.world_seed), *args)
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "port":
        run.reap(proc)
        raise RuntimeError("service launcher did not come up")
    port = int(line[1])
    exchange = loadgen.Exchange(port)
    status, _body, _tag, _s = exchange.request("GET", "/healthz")
    setup_s = time.perf_counter() - started
    exchange.close()
    run.check(status == 200, f"/healthz answered {status}")
    return proc, port, setup_s


def extra_setups(run: Run, count: int, *args: str,
                 checkpoints: bool = False) -> list[float]:
    """Set-up times of ``count`` services started and stopped at once."""
    times = []
    for index in range(count):
        scratch = os.path.join(run.out_dir, f"setup-{index}")
        extra = ("--checkpoint-dir", scratch) if checkpoints else ()
        proc, _port, setup_s = start_service(run, *args, *extra)
        stop_service(run, proc)
        shutil.rmtree(scratch, ignore_errors=True)
        times.append(setup_s)
    return times


def stop_service(run: Run, proc) -> dict:
    proc.send_signal(signal.SIGTERM)
    return last_json(run.reap(proc))


def collect_readers(run: Run, threads) -> list[float]:
    """Join the reader threads; returns every request latency."""
    latencies = []
    for thread in threads:
        thread.join(loadgen.TIMEOUT_S + 5)
        run.check(not thread.is_alive(), "reader did not stop")
        run.check(thread.wrong == 0, f"{thread.wrong} incorrect replies")
        latencies.extend(thread.latencies)
    run.attempted += len(latencies)
    run.failed += sum(1 for t in latencies if math.isinf(t))
    return latencies


def finalized_service(run: Run, spans: str | None = None) -> tuple:
    """A service that ingested and finalized the XL study in set-up."""
    args = ["--ingest-all"] + (["--spans", spans] if spans else [])
    proc, port, setup_s = start_service(run, *args)
    exchange = loadgen.Exchange(port)
    _status, body, _tag, _s = exchange.request("GET", "/profiles")
    hashes = [p["sha256"] for p in json.loads(body)["profiles"]]
    _status, body, _tag, _s = exchange.request("GET", "/digest")
    exchange.close()
    run.check(json.loads(body)["dataset_digest"] == run.expected["xl"],
              "finalized service digest != batch XL digest")
    return proc, port, setup_s, loadgen.HashPool(hashes, run.seed)


def measure_reads(run: Run, spans: str | None, seconds: float) -> dict:
    """Two connections of the read mix against a finalized service."""
    proc, port, setup_s, pool = finalized_service(run, spans)
    stop = threading.Event()
    readers = [loadgen.Reader(port, pool, run.seed * 100 + i,
                              run.expected["xl"], stop) for i in range(2)]
    started = time.perf_counter()
    for reader in readers:
        reader.start()
    time.sleep(seconds)
    stop.set()
    reads = collect_readers(run, readers)
    elapsed = time.perf_counter() - started
    rss = stop_service(run, proc)["peak_rss_mb"]
    ok = sum(1 for t in reads if not math.isinf(t))
    return {"setup_s": setup_s, "reads": reads, "rps": ok / elapsed,
            "peak_rss_mb": rss}


def service_read(run: Run) -> dict:
    if run.trace:
        base = measure_reads(run, None, run.seconds / 2)
        traced = measure_reads(run, run.spans_path("service"),
                               run.seconds / 2)
        run.counts.update(requests=len(base["reads"]) + len(traced["reads"]))
        return per_layer_median([derive_file(run.span_files[-1])],
                                base["rps"] / traced["rps"])
    setups = extra_setups(run, MIN_SETUPS - 1, "--ingest-all")
    measured = measure_reads(run, None, run.seconds)
    setups.append(measured["setup_s"])
    reads = latency_summary(measured["reads"])
    run.counts.update(setups=len(setups), requests=reads["count"])
    named = {
        "setup_s": (median(setups), "s"),
        "read_rps": (measured["rps"], "1/s"),
        **latency_metrics("read", reads),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    return gate(named, named["read_rps"], named["read_p50_ms"])


def ingest_cycle(run: Run, index: int, spans: str | None) -> dict:
    """A fresh service with mild faults and a checkpoint directory:
    one connection ingests day by day until finalized while the other
    sends the read mix."""
    checkpoints = os.path.join(run.out_dir, f"checkpoints-{index}")
    args = ["--faults", "mild", "--checkpoint-dir", checkpoints]
    if spans:
        args += ["--spans", spans]
    proc, port, setup_s = start_service(run, *args)
    expected = run.expected["xl_mild"]
    stop = threading.Event()
    reader = loadgen.Reader(port, loadgen.HashPool(), run.seed * 100 + index,
                            expected, stop)
    reader.start()
    ingest = loadgen.ingest_until_finalized(port, expected)
    stop.set()
    reads = collect_readers(run, [reader])
    rss = stop_service(run, proc)["peak_rss_mb"]
    shutil.rmtree(checkpoints, ignore_errors=True)
    run.check(ingest["digest_ok"],
              "finalized ingest digest != batch XL mild-fault digest")
    run.attempted += len(ingest["day_latencies"]) + 1
    run.failed += ingest["failed"] + (not ingest["digest_ok"])
    days = len(ingest["day_latencies"]) - ingest["failed"]
    return {"setup_s": setup_s, "reads": reads, "ingest": ingest,
            "days_per_s": days / ingest["ingest_s"], "peak_rss_mb": rss}


def service_ingest(run: Run) -> dict:
    started = time.perf_counter()
    if run.trace:
        base, traced = [], []
        while not traced or time.perf_counter() - started < run.seconds:
            base.append(ingest_cycle(run, 2 * len(traced), None))
            path = run.spans_path(f"ingest-{len(traced)}")
            traced.append((ingest_cycle(run, 2 * len(traced) + 1, path),
                           path))
        ratio = (median(c["ingest"]["ingest_s"] for c, _p in traced)
                 / median(c["ingest"]["ingest_s"] for c in base))
        run.counts.update(cycles=len(base) + len(traced))
        return per_layer_median([derive_file(p) for _c, p in traced], ratio)
    setups = extra_setups(run, MIN_SETUPS - 1, "--faults", "mild",
                          checkpoints=True)
    cycle_started = time.perf_counter()
    cycles = [ingest_cycle(run, 0, None)]
    # one study takes most of a run: start another only if half of it fits
    cycle_s = time.perf_counter() - cycle_started
    while time.perf_counter() - started + cycle_s / 2 < run.seconds:
        cycles.append(ingest_cycle(run, len(cycles), None))
    setups += [c["setup_s"] for c in cycles]
    reads = latency_summary(t for c in cycles for t in c["reads"])
    days = latency_summary(d for c in cycles
                           for d in c["ingest"]["day_latencies"])
    run.counts.update(setups=len(setups), cycles=len(cycles),
                      days=days["count"], requests=reads["count"])
    named = {
        "setup_s": (median(setups), "s"),
        "ingest_days_per_s": (median(c["days_per_s"] for c in cycles),
                              "1/s"),
        **latency_metrics("ingest_day", days),
        **latency_metrics("read", reads),
        "peak_rss_mb": (median(c["peak_rss_mb"] for c in cycles), "MB"),
    }
    return gate(named, named["ingest_days_per_s"], named["read_p50_ms"])


def latency_metrics(prefix: str, summary: dict) -> dict:
    """Median and the tail the sample supports, named by percentile."""
    out = {f"{prefix}_p50_ms": (summary["p50_ms"], "ms")}
    if "tail_pct" in summary:
        out[f"{prefix}_p{summary['tail_pct']:g}_ms"] = \
            (summary["tail_ms"], "ms")
    return out


# -- traced runs -------------------------------------------------------------


def derive_file(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return derive(doc["spans"], doc["counters"])


def per_layer_median(layers: list[dict], overhead: float) -> dict:
    """Median of each per-layer metric over the traced units."""
    merged = {name: median(layer[name] for layer in layers)
              for name, _unit in PER_LAYER}
    merged["bench.trace_overhead_ratio"] = overhead
    units = dict(PER_LAYER)
    return {"layers": {name: (value, units[name])
                       for name, value in merged.items()}}


# -- entry point -------------------------------------------------------------


def run_workload(run: Run) -> dict:
    if run.workload == "study-full":
        return batch_workload(run, 0)
    if run.workload == "study-full-w2":
        return batch_workload(run, 2)
    if run.workload == "service-read":
        return service_read(run)
    return service_ingest(run)


def report(run: Run, outcome: dict) -> dict:
    """Print every measured metric; returns the result object."""
    facts = host_facts()
    print(f"# {run.workload} seed={run.seed} world_seed={run.world_seed} "
          f"trace={int(run.trace)} cpu={facts['cpu_model']!r} "
          f"nproc={facts['nproc']} python={facts['python']}")
    print(f"# {run.workload} counts " + " ".join(
        f"{k}={v}" for k, v in sorted(run.counts.items())))
    if run.span_files:
        print(f"# {run.workload} span files: {' '.join(run.span_files)}")
    for error in run.errors:
        print(f"# {run.workload} ERROR {error}")
    ratio = run.failed / max(run.attempted, 1)
    print(f"{run.workload:16} {'failed_ratio':40} {ratio:.6g} "
          f"({run.failed}/{run.attempted})")
    section = outcome.get("named") or outcome["layers"]
    for name, (value, unit) in section.items():
        print(f"{run.workload:16} {name:40} {value:.6g} {unit}")
    metrics = outcome.get("gated") or outcome["layers"]
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def execute(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    try:
        outcome = run_workload(run)
    finally:
        run.stop_all()
        if not os.listdir(run.out_dir):
            os.rmdir(run.out_dir)
    return report(run, outcome)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: execute(name, args.seed, args.seconds,
                             bool(args.trace)) for name in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
