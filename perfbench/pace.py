"""The host's pace, sampled by a reference kernel that runs inside the operations.

The shared host's speed drifts: the same pure-Python loop runs in 0.17 s
for a few seconds, then in 0.26 s, and the mix of fast and slow phases
differs from one run to the next.  While a round runs, a `Sampler`
interrupts it every `INTERVAL_S` (SIGALRM) and times one unit of a fixed
pure-Python reference kernel.  `workloads.Recorder` takes the time spent
in the interrupts out of each operation and scales each stretch of
operations by the pace sampled during it:

    scaled = (wall seconds - interrupt seconds) * UNIT_S / (mean unit time in the stretch)

so a reported time is the time at the reference's pace.  Sampling inside
the operations follows phases that change in the middle of a multi-second
call, which probes run between operations miss.  Each sample runs the unit
twice and times the second run, so the unit works on caches it has just
warmed and not on what the program left in them; it runs with the garbage
collector off, so a program holding a large heap does not slow the
reference.  The kernel imports nothing from arcdiag: a change to the
program moves the operations' times, not the pace.
"""
from __future__ import annotations

import gc
import itertools
import signal
import time

clock = time.perf_counter

# seconds one reference unit takes on the host the figures in README.md
# come from; it only sets the scale of the reported times
UNIT_S = 0.0009
INTERVAL_S = 0.05
# samples a stretch of operations needs before it is scaled
STRETCH_SAMPLES = 4

_WORDS = [w for i, w in enumerate(itertools.permutations(range(1, 8))) if i % 80 == 0]


def unit() -> int:
    """One unit of reference work, in the program's idiom: tuples, dicts, sets and text."""
    total = 0
    for w in _WORDS:
        pos = {v: i for i, v in enumerate(w)}
        arcs = []
        for a, b in zip(w, w[1:]):
            if a > b:
                right = tuple(v for v in range(b + 1, a) if pos[v] > pos[a])
                arcs.append((b, a, right))
        inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])
        seen = {v for arc in arcs for v in arc[2]}
        total += inv + len(seen) + len(" ".join(f"{b}-{a}" for b, a, _ in arcs))
    return total


class Sampler:
    """Within `with sampler:`, times one reference unit every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.times: list[float] = []  # seconds of each timed unit
        self.spent = 0.0  # seconds spent in samples, warm-up units included
        self._busy = False
        self._saved = None

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        was_on = gc.isenabled()
        gc.disable()
        try:
            unit()
            t1 = clock()
            unit()
            t2 = clock()
        finally:
            if was_on:
                gc.enable()
            self._busy = False
        self.times.append(t2 - t1)
        self.spent += clock() - t0

    def __enter__(self) -> Sampler:
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


def report(sampler: Sampler) -> str:
    """The line a child process prints to hand its samples to the parent."""
    return " ".join(["pace", repr(sampler.spent), *map(repr, sampler.times)])


def parse_report(text: str) -> tuple[float, list[float]]:
    """Seconds spent sampling and unit times, from the last line of a child's output."""
    fields = text.rstrip("\n").rpartition("\n")[2].split()
    if len(fields) < 3 or fields[0] != "pace":
        raise ValueError(f"no pace line at the end of {text[-300:]!r}")
    return float(fields[1]), [float(t) for t in fields[2:]]
