"""Host-speed references that the end-to-end times are scaled by.

The machines this benchmark runs on are shared, and their speed drifts by a
quarter or more within minutes, in any interpreter work.  So each timed
operation is paired with a reference measured at the same time, and the
end-to-end times are reported at a fixed reference speed:

    scaled = raw * NOMINAL / reference

* In-process work runs under a ``Sampler``: a timer signal runs a fixed
  pure-Python scan, which shares no code with dsalign, every 10 ms.  An
  operation's reference is the mean scan time within 50 ms of it, and the
  scans that ran inside it are taken out of its time.  The mean, not the
  median: the host loses time in short bursts, which an operation's time
  sums over and which only the slowest scans see.
* A CLI child is paired with a bare ``python -c pass`` child.

The NOMINAL constants are round values near the references' medians in
quiet periods on the machine the bounds were set on (2 vCPUs, CPython
3.11.7), so scaled times read as milliseconds there.  Raw times are
printed and saved beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import synth

NOMINAL_REF_S = 0.0002
NOMINAL_BARE_S = 0.055
INTERVAL_S = 0.01
MARGIN_S = 0.05

_TEXT = synth.generate(2, 0)[0]


def _scan() -> int:
    """Split the text into words and count them, one character at a time."""
    counts: dict[str, int] = {}
    word: list[str] = []
    for ch in _TEXT:
        if ch.isalnum() or ch == "_":
            word.append(ch)
        elif word:
            key = "".join(word)
            counts[key] = counts.get(key, 0) + 1
            word = []
    return len(counts)


class Sampler:
    """Times ``_scan`` every INTERVAL_S seconds from a SIGALRM handler."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _scan()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds the sampler itself took between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def reference(self, start: float, end: float) -> float:
        """Mean scan time within MARGIN_S of ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:
            raise RuntimeError("no host-speed reference sample near the operation")
        return statistics.fmean(self.ends[i] - self.starts[i] for i in range(lo, hi))
