"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
1. a deliberately wrong expected answer gives fail_ratio > 0 and a non-zero
   exit;
2. two seeds give different case streams with the same (passing) verdicts,
   and one seed gives the same stream and answers twice;
3. without the library sources next to it the benchmark exits non-zero
   and prints no result;
4. the reference clock rescales and leaves out the sampler's own time as
   documented, on fabricated samples.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def timeline_ok() -> bool:
    """Samples at t = 1, 2, 3, ... each 0.1 s long, the reference task
    taking 2 * REF_S: wall time between samples counts once, sample time
    never, and rescaled time is half the wall time."""
    sampler = refclock.Sampler()
    sampler.origin = 0.0
    for k in range(1, 9):
        sampler.starts.append(float(k))
        sampler.ends.append(k + 0.1)
        sampler.durations.append(2 * refclock.REF_S)
    line = sampler.stop()
    wall = line.wall(0.5, 3.5)          # 0.5 + 0.9 + 0.9 + 0.4
    return abs(wall - 2.7) < 1e-9 and abs(line.adjusted(0.5, 3.5) - wall / 2) < 1e-9


def main() -> int:
    failures: list[str] = []
    py = sys.executable
    check(timeline_ok(), "the reference clock rescales and drops sample time", failures)

    proc = run([py, str(HERE / "run.py"), "--workload", "laws", "--seconds", "1",
                "--expect-wrong"], ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    check(proc.returncode != 0 and result.get("failed", 0) > 0
          and result.get("correct") is False,
          "a wrong expected answer fails the run", failures)

    rounds = {}
    for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
        proc = run([py, str(HERE / "worker.py"), "--workload", "laws", "--seed", str(seed)], ROOT)
        rounds[tag] = json.loads(proc.stdout.strip().splitlines()[-1])
    check(all(r["failed"] == 0 for r in rounds.values()),
          "every round passes", failures)
    check(rounds["a"]["inputs"] != rounds["c"]["inputs"],
          "two seeds give different case streams", failures)
    check(rounds["a"]["inputs"] == rounds["b"]["inputs"]
          and rounds["a"]["answers"] == rounds["b"]["answers"],
          "one seed gives the same case stream and answers", failures)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([py, f"{HERE.name}/run.py", "--workload", "census", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the sources the run fails and prints no result", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
