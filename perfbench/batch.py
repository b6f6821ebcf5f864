"""One batch study in a fresh process: the system under test of the
``study-full`` and ``study-full-w2`` workloads.

Prints ``ready`` once the world is generated (``run.py`` times process
start to that line as set-up), then runs ``run_study`` and the dataset
digest and prints one JSON line of results.  With ``--spans PATH`` it
records spans around the layers and writes them to PATH at exit.

    python3 perfbench/batch.py --seed 20220322 --workers 2
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
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the world is ready")
    args = parser.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import FULL_SCALE, generate_world, run_study
    from repro.core.cache import dataset_digest
    import_s = time.perf_counter() - started

    rec = None
    if args.spans:
        import instrument
        from spans import Recorder

        rec = Recorder(run=f"study-{args.seed}-{os.getpid()}")
        rec.add("import_s", import_s)
        instrument.install_study(rec)

    def call(name, fn, *fargs, **kwargs):
        if rec is None:
            return fn(*fargs, **kwargs)
        return rec.call(name, fn, fargs, kwargs)

    world = call("world.generate", generate_world, seed=args.seed,
                 scale=FULL_SCALE)
    attempted = len(world.truth.all_samples)
    print("ready", flush=True)
    if args.setup_only:
        return

    started = time.perf_counter()
    _malnet, _campaign, datasets = run_study(world,
                                             workers=args.workers or None)
    digest = call("cache.dataset_digest", dataset_digest, datasets)
    study_s = time.perf_counter() - started

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if rec is not None:
        rec.dump(args.spans)
    print(json.dumps({
        "study_s": study_s,
        "digest": digest,
        "attempted": attempted,
        "profiles": len(datasets.profiles),
        "quarantined": sum(1 for p in datasets.profiles if p.quarantined),
        "failed_shards": len(datasets.failed_shards),
        "peak_rss_mb": usage / 1024.0,
    }), flush=True)


if __name__ == "__main__":
    main()
