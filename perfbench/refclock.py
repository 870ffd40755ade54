"""A clock that discounts the machine's momentary speed.

On a shared host the same pure-Python code runs up to ~1.8x slower for
stretches of tens of milliseconds to minutes, when neighbours load the
physical cores.  Wall times then drift between two runs of the same code
by more than any useful bound.  ``Sampler`` corrects for that from inside
the process: a thread wakes every ``INTERVAL_S`` of wall time, takes the
interpreter lock from the measured code, runs a fixed reference task
(stdlib only, never the library) and records how long it took.  Between
two samples the machine runs at the speed those samples show.

- The process is pinned to one CPU, so a sample times the CPU the
  measured code runs on; unpinned, the sampler woke on the idle CPU and
  rescaled ``frames`` job times spread 0.18 across five seeds, pinned 0.01.
- A thread, not a ``SIGALRM`` handler: a Python signal handler receives the
  interrupted frame and so allocates its object, which moved the garbage
  collector's schedule and the ``frames`` peak memory between 159 and
  182 MB.  The thread makes the measured code allocate nothing.
- Each sample costs the measured code two thread wake-ups that are not
  taken out.  Sampling every 50 ms rather than 20 ms keeps the
  sub-millisecond ops they land in fewer than the ops beyond the latency
  tail's percentile.

``Timeline.adjusted(t0, t1)`` rescales the wall time between ``t0`` and
``t1`` by ``REF_S / (reference-task time)`` piece by piece, so it reads as
seconds on a machine where the reference task takes ``REF_S``, about the
uncontended speed of a 2-vCPU x86-64 VM running CPython 3.11.
``Timeline.wall(t0, t1)`` is the plain wall time with the samples' own
time taken out; it is printed next to the adjusted figure.  Both leave the
samples out, so sampling adds nothing to either.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

INTERVAL_S = 0.05
MIN_SAMPLES = 4
REF_S = 1.2e-4


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left=None, right=None):
        self.op, self.left, self.right = op, left, right


# a fixed order on 6 points as down-masks (p1, p2 > p0; p3 > p1; p4 > p2;
# p5 > p1, p2), every other one of its downsets, and the fixed term
# (x | (y & x)) \ (y \ (x \ y))
_BELOW = (0, 1, 1, 3, 5, 7)
_PICKS = tuple(
    m for m in range(1 << len(_BELOW))
    if all(not m >> p & 1 or _BELOW[p] & m == _BELOW[p] for p in range(len(_BELOW)))
)[::2]
_X, _Y = _Node("x"), _Node("y")
_TERM = _Node(
    "diff",
    _Node("or", _X, _Node("and", _Y, _X)),
    _Node("diff", _Y, _Node("diff", _X, _Y)),
)


def _closure(mask: int) -> int:
    out = mask
    for p, below in enumerate(_BELOW):
        if mask >> p & 1:
            out |= below
    return out


def _evaluate(node: _Node, x: int, y: int) -> int:
    op = node.op
    if op == "x":
        return x
    if op == "y":
        return y
    a, b = _evaluate(node.left, x, y), _evaluate(node.right, x, y)
    if op == "or":
        return a | b
    if op == "and":
        return a & b
    return _closure(a & ~b)


def reference_task() -> int:
    """Evaluate ``_TERM`` recursively at every pair of ``_PICKS``: object
    attributes, calls and bitmask ints, the style of the library's own term
    and closure code.  A task in this style followed the library's
    slowdowns about twice as closely as one built on sorting and tuple
    allocation.  It makes no object the garbage collector tracks, so it
    cannot move the collector's schedule, and with it the peak memory."""
    count = 0
    for x in _PICKS:
        for y in _PICKS:
            if _evaluate(_TERM, x, y):
                count += 1
    return count


class Sampler:
    """Runs ``reference_task`` from a thread and keeps its durations."""

    def __init__(self):
        self.starts: list[float] = []   # sample start
        self.ends: list[float] = []     # sample end
        self.durations: list[float] = []
        self.origin = 0.0
        self.spent = 0.0                # seconds inside samples so far
        self._running = False
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        # one CPU for the process, so a sample times the CPU the measured
        # thread runs on, not the idle one the scheduler would wake it on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.origin = time.perf_counter()
        self._running = True
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> "Timeline":
        self._running = False
        if self._thread is not None:
            self._thread.join()
        while len(self.durations) < MIN_SAMPLES:   # a very short process
            self._sample()
        return Timeline(self)

    def work(self) -> float:
        """Wall clock that stands still while a sample runs."""
        return time.perf_counter() - self.spent

    def _loop(self) -> None:
        # sleep releases the interpreter lock and waking takes it back, so
        # the measured code stands still through each sample
        while self._running:
            time.sleep(INTERVAL_S)
            self._sample()

    def _sample(self) -> None:
        clock = time.perf_counter
        entered = clock()
        reference_task()
        done = clock()
        self.starts.append(entered)
        self.durations.append(done - entered)
        left = clock()
        self.ends.append(left)
        self.spent += left - entered


class Timeline:
    """Cumulative wall and adjusted time at each sample boundary."""

    def __init__(self, sampler: Sampler):
        self.starts = sampler.starts
        self.ends = sampler.ends
        d = sampler.durations
        # gap k runs from the end of sample k-1 (or the origin) to the
        # start of sample k; its speed is the median of the four samples
        # around it, so one disturbed sample moves nothing
        self.factors = factors = [
            REF_S / statistics.median(d[max(k - 2, 0):k + 2]) for k in range(len(d) + 1)
        ]
        self.gap_begin = [sampler.origin] + self.ends
        self.cum_wall = [0.0]
        self.cum_adj = [0.0]
        for k, start in enumerate(self.starts):
            span = start - self.gap_begin[k]
            self.cum_wall.append(self.cum_wall[-1] + span)
            self.cum_adj.append(self.cum_adj[-1] + span * factors[k])

    def _at(self, t: float, scaled: bool) -> float:
        k = bisect.bisect_right(self.starts, t)      # t lies in gap k or sample k-1
        cum = self.cum_adj if scaled else self.cum_wall
        span = max(t - self.gap_begin[k], 0.0)        # 0 inside sample k-1
        return cum[k] + span * (self.factors[k] if scaled else 1.0)

    def wall(self, t0: float, t1: float) -> float:
        return self._at(t1, False) - self._at(t0, False)

    def adjusted(self, t0: float, t1: float) -> float:
        return self._at(t1, True) - self._at(t0, True)
