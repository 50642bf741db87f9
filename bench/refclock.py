"""Reference-normalised timing.

Wall time on a shared host drifts by up to 2x within seconds, and CPU time
tracks wall time, so neither repeats between runs.  This clock samples a fixed
pure-Python reference chunk *during* the measured work: an interval timer
(SIGALRM, one-shot and re-armed after each sample, so samples never nest)
interrupts the single benchmark thread every ``PERIOD_S`` of work and times one
chunk.  A measured interval is then reported as

    (wall - time spent in the sampler) * NOMINAL_CHUNK_S / mean(chunk times)

that is, in seconds of a host on which the chunk takes exactly
``NOMINAL_CHUNK_S``.  Work slowed by the host is matched by chunks slowed by
the host, so the ratio repeats where the wall time does not.
"""

from __future__ import annotations

import bisect
import random
from array import array
import signal
import time

# Passes of the reference chunk (about 1 ms on a 2-vCPU x86 VM under
# CPython 3.11).  Changing the chunk changes every normalised figure.
CHUNK_PASSES = 5
# The arbitrary unit of normalised time: the chunk's duration on the nominal host.
NOMINAL_CHUNK_S = 1e-3
# Work time between two samples.
PERIOD_S = 0.012


def _reference_dag(n: int = 100, m: int = 300, seed: int = 20111123):
    """A fixed random DAG in node order: predecessor lists and weights."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(rng.sample(pairs, m)):
        preds[v].append(u)
    return preds, [rng.uniform(0.5, 10.0) for _ in range(n)]


_PREDS, _WEIGHTS = _reference_dag()


def reference_chunk(passes: int = CHUNK_PASSES) -> float:
    """Forward passes over a fixed DAG: the dict and float work of ``evaluate``.

    A reference that does the same kind of work as the program is slowed by
    the same things (bench/README.md gives the comparison that chose it).
    """
    acc = 0.0
    for r in range(passes):
        speed = 0.5 + 0.1 * r
        finish: dict[int, float] = {}
        for t, preds in enumerate(_PREDS):
            start = max((finish[p] for p in preds), default=0.0)
            finish[t] = start + _WEIGHTS[t] / speed
        acc += max(finish.values())
    return acc


class RefClock:
    """Samples the reference chunk while running; converts wall intervals.

    Use as a context manager around the measured phase.  Intervals are taken
    with ``now()`` and converted with ``interval(t0, t1)``.
    """

    def __init__(self):
        # Sample k ran from _entry[k] to _exit[k]; _cum[k] is the sampler's
        # total time in samples 0..k-1.  Plain float arrays, so memory grows
        # by only 24 bytes a sample however long a run lasts.
        self._entry = array("d")
        self._exit = array("d")
        self._cum = array("d", [0.0])
        self._old_handler = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_chunk()
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        t2 = time.perf_counter()
        self._entry.append(t0)
        self._exit.append(t1)
        self._cum.append(self._cum[-1] + (t2 - t0))

    def __enter__(self) -> "RefClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        # A sample interrupts between bytecodes, so it lies wholly inside or
        # wholly outside any interval bounded by two perf_counter() calls.
        return bisect.bisect_left(self._entry, t0), bisect.bisect_right(self._exit, t1)

    def sampler_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in the sampler rather than the work."""
        i, j = self._window(t0, t1)
        return self._cum[j] - self._cum[i] if j > i else 0.0

    def chunk_times(self, t0: float, t1: float) -> list[float]:
        """Chunk times sampled in [t0, t1]; for an interval shorter than a
        sampling period, which may hold none, the samples on either side."""
        i, j = self._window(t0, t1)
        if j <= i:
            i, j = max(i - 1, 0), min(i + 1, len(self._entry))
        return [self._exit[k] - self._entry[k] for k in range(i, j)]

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_CHUNK_S / mean chunk time sampled in [t0, t1]."""
        chunks = self.chunk_times(t0, t1)
        if not chunks:
            raise ValueError("no reference sample taken yet")
        return NOMINAL_CHUNK_S * len(chunks) / sum(chunks)

    def work_time(self, t0: float, t1: float) -> float:
        """Raw wall seconds of [t0, t1] minus the sampler's share."""
        return (t1 - t0) - self.sampler_time(t0, t1)

    def interval(self, t0: float, t1: float) -> float:
        """Normalised seconds of the work done in [t0, t1]."""
        return self.work_time(t0, t1) * self.scale(t0, t1)

    def median_chunk_s(self) -> float:
        chunks = sorted(b - a for a, b in zip(self._entry, self._exit))
        return chunks[len(chunks) // 2] if chunks else float("nan")
