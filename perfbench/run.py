"""Benchmark entry point.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs rounds of one workload until ``--seconds`` are used (at least one
round), each round in a fresh interpreter (``worker.py``), all rounds with
the same seeded inputs.  Prints each metric with its unit, then, as the
last line, one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  In a traced run every round is a
pair, untraced then traced, and the traced answers must equal the
untraced ones.  Exits 1 when an answer is wrong, 2 when a round crashes.

Metrics are medians over rounds; ``setup_s`` is the median over at least
``MIN_SETUPS`` set-ups, adding set-up-only rounds when the job is long.
Times are rescaled to the reference speed of ``refclock``, so that a
neighbour's load on a shared host does not show as a regression; the
plain wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "laws", "frames", "search")
MIN_SETUPS = 5
DEADLINE_S = 170          # every run must end within 180 s
LADDER = (99.9, 99.5, 99, 98, 95, 90, 75, 50)


class RoundFailed(Exception):
    pass


def worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round exceeded the {DEADLINE_S} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    return next((p for p in LADDER if n * (100 - p) / 100 >= 10), 50)


def end_to_end(rounds: list[dict], setups: list[float], prefix: str,
               tail_p: float) -> dict[str, tuple[float, str]]:
    """Medians over rounds of the end-to-end metrics, from the rescaled
    times (``prefix`` "") or the wall times ("wall_")."""
    med = statistics.median
    lat = prefix + "latencies"
    return {
        "setup_s": (med(setups), "s"),
        "job_s": (med(r[prefix + "job_s"] for r in rounds), "s"),
        "ops_per_s": (med(len(r[lat]) / r[prefix + "job_s"] for r in rounds), "1/s"),
        "op_p50_ms": (med(percentile(r[lat], 50) * 1e3 for r in rounds), "ms"),
        "op_tail_ms": (med(percentile(r[lat], tail_p) * 1e3 for r in rounds), "ms"),
        "peak_rss_mb": (med(r["rss_mb"] for r in rounds), "MB"),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-wrong", action="store_true",
                        help="invert the first answer check of each round (self-test)")
    args = parser.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    flags = ["--expect-wrong"] if args.expect_wrong else []
    try:
        rounds, traced, setups, wall_setups = [], [], [], []
        while True:
            began = time.monotonic()
            rounds.append(worker(args.workload, args.seed, deadline, *flags))
            setups.append(rounds[-1]["setup_s"])
            wall_setups.append(rounds[-1]["wall_setup_s"])
            if args.trace:
                traced.append(worker(args.workload, args.seed, deadline, "--trace", *flags))
            used = time.monotonic() - start
            if used + (time.monotonic() - began) > args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            extra = worker(args.workload, args.seed, deadline, "--setup-only")
            setups.append(extra["setup_s"])
            wall_setups.append(extra["wall_setup_s"])
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r["latencies"]) for r in rounds + traced)
    failed = sum(r["failed"] for r in rounds + traced)
    problems = [p for r in rounds + traced for p in r["problems"]]
    answers = {r["answers"] for r in rounds + traced}
    if len(answers) > 1:
        failed += 1
        problems.append("rounds with the same seed gave different answers")
    correct = failed == 0

    n_ops = len(rounds[0]["latencies"])
    tail_p = tail_percentile(n_ops)
    w = args.workload
    print(f"provenance: git={git_sha()} python={platform.python_version()}"
          f" nproc={os.cpu_count()} seed={args.seed} workload={w}"
          f" rounds={len(rounds)} traced_rounds={len(traced)} set-ups={len(setups)}")
    e2e = end_to_end(rounds, setups, "", tail_p)
    wall = end_to_end(rounds, wall_setups, "wall_", tail_p)
    for name, (value, unit) in e2e.items():
        print(f"{w} {name}={value:.6g} {unit}  (wall time: {wall[name][0]:.6g} {unit})")
    for prefix in ("", "wall_"):
        lat = prefix + "latencies"
        print(f"{w} per round{' (wall time)' if prefix else ''}: job_s="
              + " ".join(f"{r[prefix + 'job_s']:.4g}" for r in rounds)
              + " op_p50_ms=" + " ".join(f"{percentile(r[lat], 50) * 1e3:.4g}" for r in rounds)
              + " op_tail_ms=" + " ".join(
                  f"{percentile(r[lat], tail_p) * 1e3:.4g}" for r in rounds))
    print(f"{w} op_tail_ms is p{tail_p:g} of {n_ops} ops per round"
          f" ({n_ops - math.ceil(tail_p / 100 * n_ops)} beyond it)")
    print(f"{w} fail_ratio={failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for problem in problems[:10]:
        print(f"{w} problem: {problem}")

    if args.trace:
        layers = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            statistics.median(r["job_s"] for r in traced) - e2e["job_s"][0]
        )
        metrics = {key: {"value": value, "unit": _layer_unit(key)}
                   for key, value in layers.items()}
    else:
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in e2e.items()}
    for key, metric in metrics.items():
        if args.trace:
            print(f"{w} {key}={metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(key: str) -> str:
    if key.endswith(("self_s", "overhead_s")):
        return "s"
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
