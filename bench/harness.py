"""Statistics, host-speed calibration, output checks and the result line.

Nothing here depends on ``trigroup``, so the harness tests can exercise it
without running a workload.
"""

from __future__ import annotations

import hashlib
import math
import signal
import statistics
import time
from dataclasses import dataclass, field

MIN_BEYOND = 10  # samples a reported tail percentile must leave above it
PROBE_ITERATIONS = 4_000
PROBE_REFERENCE_S = 0.0004  # the probe's time at the reference speed
PROBE_INTERVAL_S = 0.02  # between probes while an operation runs


def median(values) -> float:
    return statistics.median(values)


def probe() -> float:
    """Wall time of a fixed pure-Python loop (a few tenths of a millisecond):
    the host's speed at this moment.

    It allocates no container, so it never starts a garbage collection, and
    it imports nothing from ``trigroup``, so no change to the program moves it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(wall: float, probes) -> float:
    """A wall time at the reference speed, given the probe's times while it ran."""
    return wall * PROBE_REFERENCE_S / median(probes)


class HostClock:
    """Times operations in seconds at a fixed reference speed of the host.

    Other tenants of a shared host slow the CPU by 1.3 to 1.6 times, switching
    between the two speeds many times a second, and the share of slow time
    moves over minutes.  A median of plain wall times therefore moves by a
    quarter between runs, and the fastest repeat jumps between the two speeds.
    While an operation runs, a timer signal every ``interval`` seconds runs
    the probe, which is slowed with the operation; so do a probe just before
    and one just after.  The operation's wall time, less the time spent in
    the signal handler, is scaled by the probe's reference time over its
    median time.
    """

    def __init__(self, probe=probe, interval: float = PROBE_INTERVAL_S) -> None:
        self.probe = probe
        self.interval = interval
        self.walls: list[float] = []
        self.probes: list[float] = []

    def time(self, fn):
        """``(seconds at the reference speed, fn())``."""
        probes = [self.probe()]
        handled = 0.0

        def on_alarm(signum, frame):
            nonlocal handled
            start = time.perf_counter()
            probes.append(self.probe())
            handled += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            start = time.perf_counter()
            try:
                value = fn()
            finally:
                wall = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall -= handled
        probes.append(self.probe())
        self.walls.append(wall)
        self.probes += probes
        return scaled(wall, probes), value

    def describe(self) -> str:
        return (f"host speed: probe median {median(self.probes) * 1e6:.1f} us against the"
                f" reference {PROBE_REFERENCE_S * 1e6:g} us, over {len(self.probes)} probes;"
                f" times are wall times scaled by reference / probe median;"
                f" {len(self.walls)} timed operations took {sum(self.walls):.3f} s of wall time")


def tail(values, beyond: int = MIN_BEYOND) -> tuple[int, float] | None:
    """The highest integer percentile p with at least ``beyond`` samples
    above it, by nearest rank, and its value; None when that percentile
    would not lie above the median."""
    xs = sorted(values)
    n = len(xs)
    p = 100 * (n - beyond) // n
    if p <= 50:
        return None
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checker:
    """Counts checked operations; every mismatch is a failure, never retried."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{label}: {detail}" if detail else label)
        return ok

    def expect_exit(self, label: str, status: int, expected: int) -> bool:
        return self.check(
            label, status == expected, f"exit {status}, expected {expected}"
        )

    def expect_equal(self, label: str, got, want) -> bool:
        return self.check(label, got == want, f"got {got!r}, expected {want!r}")

    def fail(self, label: str, detail: str) -> None:
        self.check(label, False, detail)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class DeterminismGuard:
    """Reports of one configuration and seed must hash equal within a run.

    The first hash seen for a key is the reference; a later hash that
    differs is a failed operation on the checker.
    """

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.hashes: dict[str, str] = {}
        self.compared = 0

    def observe(self, key: str, data: bytes) -> None:
        h = digest(data)
        first = self.hashes.get(key)
        if first is None:
            self.hashes[key] = h
            return
        self.compared += 1
        self.checker.check(f"determinism {key}", h == first, "report bytes differ")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(checker: Checker, metrics: dict) -> dict:
    return {
        "correct": checker.attempted > 0 and checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": metrics,
    }
