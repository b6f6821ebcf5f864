"""Service launcher: the system under test of the service workloads.

Builds a :class:`~repro.service.StudyService` on the XL corpus, and with
``--ingest-all`` ingests and finalizes every study day before it binds,
then serves the HTTP API on an ephemeral loopback port.  It prints
``port N`` once it serves; on SIGTERM it shuts down the way
``repro serve`` does, writes its spans (``--spans PATH``) and prints one
JSON line with its peak RSS.

    python3 perfbench/serve.py --seed 20220322 --ingest-all
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--faults", default=None)
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--ingest-all", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import PipelineConfig
    from repro.netsim.faults import FAULT_PLANS
    from repro.service import StudyService, build_server, serve_forever
    from repro.service import server as service_module
    from repro.world import XL_SCALE
    import_s = time.perf_counter() - started

    rec = None
    if args.spans:
        import instrument
        from spans import Recorder

        rec = Recorder()
        rec.add("import_s", import_s)
        instrument.install_study(rec)
        rec.wrap(service_module, "generate_world", "world.generate")

    config = PipelineConfig(
        faults=FAULT_PLANS[args.faults] if args.faults else None)
    service = StudyService(seed=args.seed, scale=XL_SCALE, config=config,
                           checkpoint_dir=args.checkpoint_dir)
    if rec is not None:
        instrument.install_service(rec, service)
    if args.ingest_all:
        service.ingest_days(None)
    server = build_server(service, host="127.0.0.1", port=0)
    port = server.server_address[1]
    serve_forever(server, service,
                  ready=lambda: print(f"port {port}", flush=True))

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if rec is not None:
        rec.dump(args.spans)
    print(json.dumps({"peak_rss_mb": usage / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
