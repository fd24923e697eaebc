"""A fixed pure-Python computation timed alongside the workload.

The machines this benchmark runs on are shared, and their speed drifts
by a quarter and more within seconds, for every process alike.  Before
each scenario whose last sample is older than ``PERIOD_S``, and every
``PERIOD_S`` while a scenario runs (from a SIGALRM handler), the
benchmark times ``work()``.  The sample before a scenario is taken
before its clock starts.  Each scenario's host time, less the handler's
time, is then scaled to a nominal machine:

    scaled = host seconds * NOMINAL_S / (median work() seconds during the scenario,
                                         or of the latest WINDOW samples if
                                         fewer than WINDOW fell in it)

A change to ``parley`` does not touch this code, so it moves the scaled
numbers exactly as it moves host time, while the drift of the machine
cancels.  ``work()`` allocates no object the garbage collector tracks,
so a collection of the program's objects never starts inside a sample,
where its time would be taken out of the program's.  It touches little
memory, so it neither evicts the program's data from the caches nor
depends on how much of its own data the program evicted.  The raw host
seconds are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

#: median duration of one ``work()`` call on the machine the bounds were
#: set on (Python 3.11, x86-64, 2 vCPUs)
NOMINAL_S = 0.0007
PERIOD_S = 0.025
#: fewest samples a scale is taken from, so that one interrupted or
#: lucky ``work()`` does not scale a short scenario alone
WINDOW = 8

_TABLE = {f"k{i}": i for i in range(64)}
_KEYS = tuple(_TABLE)


def work() -> int:
    """Dict lookups, string tests and integer arithmetic in a loop."""
    total = 0
    table, keys = _TABLE, _KEYS
    for i in range(3000):
        key = keys[i & 63]
        total += table[key] * (i % 7)
        if key.startswith("k1"):
            total ^= i
    return total


class SpeedSampler:
    """Samples of ``work()`` seconds.

    Entering the sampler installs the SIGALRM handler; ``timing()`` then
    arms the alarm around one scenario, so scenarios shorter than
    PERIOD_S are never interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: seconds spent in the handler, to be taken out of measured time
        self.stolen_s = 0.0
        self.sampled_at = 0.0
        self._busy = False
        self._previous = None
        self.sample()

    def sample(self, *_signal) -> None:
        if self._busy:  # a late alarm inside the handler itself
            return
        self._busy = True
        start = perf_counter()
        work()
        spent = perf_counter() - start
        self.samples.append(spent)
        self.stolen_s += spent
        self.sampled_at = perf_counter()
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    @contextmanager
    def timing(self):
        """Around one scenario: alarms every PERIOD_S (only while the
        sampler is entered)."""
        armed = self._previous is not None
        if armed:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple[int, float]:
        """Taken before a scenario starts its clock.  A fresh sample comes
        first if the last is stale; it gives the scale when no alarm fires
        during the scenario, and its time lies before the mark, so it is
        not taken out of the scenario's time."""
        if perf_counter() - self.sampled_at > PERIOD_S:
            self.sample()
        return len(self.samples), self.stolen_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(handler seconds, scale to the nominal machine) since ``mark``;
        with fewer than WINDOW samples since, the latest WINDOW give the
        scale."""
        count, stolen = mark
        during = self.samples[count:]
        if len(during) < WINDOW:
            during = self.samples[-WINDOW:]
        return self.stolen_s - stolen, NOMINAL_S / statistics.median(during)

