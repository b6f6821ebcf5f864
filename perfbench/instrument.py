"""Wrap the program's layer boundaries with spans (traced runs only).

Every wrapper goes around a public function or method the layers above
call, so a span's duration is what its caller waits for.  Untraced runs
never import this module.
"""

from __future__ import annotations

import os

from spans import Recorder, TimedLock, route_pattern


def install_study(rec: Recorder) -> None:
    """Feeds, threat intel, sandbox, day loop, probing and the pool."""
    from repro.core import parallel
    from repro.core.datasets import Datasets
    from repro.core.pipeline import MalNet
    from repro.core.probing import ProbingCampaign
    from repro.feeds.malwarebazaar import MalwareBazaarService
    from repro.feeds.virustotal import VirusTotalService
    from repro.sandbox.sandbox import CncHunterSandbox

    rec.wrap(VirusTotalService, "feed_between", "feeds.feed_between")
    rec.wrap(MalwareBazaarService, "feed_between", "feeds.feed_between")
    rec.wrap(VirusTotalService, "scan", "feeds.vt.scan")
    rec.wrap(VirusTotalService, "is_malicious", "intel.vt.is_malicious")
    rec.wrap(CncHunterSandbox, "analyze_offline", "sandbox.analyze_offline",
             lambda report, _args: {"activated": report.activated})
    rec.wrap(CncHunterSandbox, "probe_targets", "sandbox.probe_targets",
             lambda results, _args: {"live": any(r.engaged
                                                 for r in results)})
    rec.wrap(CncHunterSandbox, "observe_live", "sandbox.observe_live")
    rec.wrap(MalNet, "run_day", "pipeline.run_day")
    rec.wrap(MalNet, "complete", "pipeline.complete")
    rec.wrap(ProbingCampaign, "run", "probing.run",
             lambda observations, _args: {"observations": len(observations)})
    rec.wrap(Datasets, "merge", "datasets.merge")
    rec.wrap(parallel.ShardedStudyRunner, "start", "parallel.start")

    def harvest(shards, args):
        # spans the pool workers recorded ride back on their results
        for shard in shards:
            rec.foreign.extend(getattr(shard, "bench_spans", ()))
        return {"shard_walls": [s.wall_seconds for s in shards],
                "redispatches": args[0].redispatches}

    rec.wrap(parallel.ShardedStudyRunner, "join", "parallel.join", harvest)

    execute_shard = parallel.execute_shard

    def traced_shard(*args, **kwargs):
        # runs in a forked worker: ship only the spans it recorded
        mark = len(rec.spans)
        result = rec.call("parallel.shard", execute_shard, args, kwargs)
        result.bench_spans = rec.as_dicts(rec.spans[mark:])
        return result

    parallel.execute_shard = traced_shard


def install_service(rec: Recorder, service) -> None:
    """Request path, ingest, checkpoints and the service lock.

    Call after the service is built; world generation is wrapped by the
    launcher around the constructor.
    """
    from repro.core.study import DayRunner
    from repro.service import server
    from repro.service.handlers import ServiceApi
    from repro.service.state import CheckpointStore

    rec.wrap(server, "dataset_digest", "service.digest")
    rec.wrap(ServiceApi, "handle", "service.handle",
             lambda response, args: {"route": route_pattern(args[2]),
                                     "status": response[0]})
    rec.wrap(DayRunner, "run_next_day", "service.ingest.run_next_day")
    rec.wrap(DayRunner, "state_snapshot", "service.checkpoint.snapshot")
    rec.wrap(CheckpointStore, "save", "service.checkpoint.save",
             lambda path, _args: {"bytes": os.path.getsize(path)})
    service.lock = TimedLock(service.lock, rec)
