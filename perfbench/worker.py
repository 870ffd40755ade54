"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload census --seed 1 [--trace] [--setup-only]

Imports ``coheyting`` from the checkout's ``src``, builds the inputs
(``setup_s`` covers the import and the set-up), runs the job and prints
one JSON object as its last line of output.  ``run.py`` starts one of
these per round, so every round pays the cold caches a CLI user pays.

A ``refclock.Sampler`` runs from the first line on.  Every time is given
twice: rescaled to the reference speed (``setup_s``, ``latencies``,
``job_s``) and as wall time (``wall_setup_s``, ``wall_latencies``,
``wall_job_s``); both leave out the sampler's own time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expect-wrong", action="store_true",
                        help="invert the first answer check (self-test)")
    args = parser.parse_args()
    if not (SRC / "coheyting" / "__init__.py").is_file():
        print(f"error: no coheyting sources under {SRC}", file=sys.stderr)
        return 2

    sampler = refclock.Sampler()
    sampler.start()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import coheyting

    if Path(coheyting.__file__).resolve().parent != SRC / "coheyting":
        print(f"error: imported coheyting from {coheyting.__file__}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=sampler.work)
        tracer.install()
    setup, job = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        state, stream = setup(rng, Path(tmp))
        setup_end = time.perf_counter()
        rnd = workloads.Round(flip_first_check=args.expect_wrong)
        if not args.setup_only:
            job(rnd, state)
        timeline = sampler.stop()
    result = {
        "setup_s": timeline.adjusted(start, setup_end),
        "wall_setup_s": timeline.wall(start, setup_end),
        "inputs": hashlib.sha256(repr(stream).encode()).hexdigest(),
    }
    if not args.setup_only:
        latencies = [timeline.adjusted(*span) for span in rnd.spans]
        wall = [timeline.wall(*span) for span in rnd.spans]
        result.update(
            job_s=sum(latencies),
            latencies=latencies,
            wall_job_s=sum(wall),
            wall_latencies=wall,
            failed=len(rnd.failed_ops),
            problems=rnd.problems,
            answers=rnd.answers.hexdigest(),
        )
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
