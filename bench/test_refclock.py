"""Reference-normalised timing of intervals, long and short."""

import time

from refclock import PERIOD_S, RefClock


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_intervals_are_normalised_and_exclude_the_sampler():
    with RefClock() as clock:
        busy(0.05)
        t0 = clock.now()
        busy(20 * PERIOD_S)
        t1 = clock.now()
        # Shorter than a sampling period: normalised with the samples around it.
        s0 = clock.now()
        busy(PERIOD_S / 10)
        s1 = clock.now()
        busy(0.05)
    assert len(clock.chunk_times(t0, t1)) >= 10
    assert 0 < clock.work_time(t0, t1) < t1 - t0
    assert clock.interval(t0, t1) > 0
    assert clock.chunk_times(s0, s1)
    assert clock.interval(s0, s1) > 0
