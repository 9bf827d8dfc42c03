"""A fixed reference loop that tracks how fast the CPU runs right now.

The benchmark host's CPU speed drifts: the same deterministic pass can take
1.5x longer a minute later, with process time equal to wall time, and the
slow stretches last from one second to whole runs.  While a run measures,
`SpeedMonitor` therefore times this loop every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, and timings are reported rescaled to a CPU on which one
loop takes ``REFERENCE_LOOP_S``:

    time at reference speed = own time * REFERENCE_LOOP_S / loop time then

where *own time* is wall time minus the time spent in the loop, and *loop
time then* is the harmonic mean of the loops timed during the interval and
the four on either side of it.

The loop mixes what the library does between its numeric kernels:
interpreted float arithmetic, closures, small-array numpy calls, evaluation
of compiled expression code, and dictionary, string and regular-expression
work with a wide code footprint.  It
lives here, outside ``src/``, so that no change to the library moves it.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

_clock = time.perf_counter

# One loop's nominal time: the unit that rescaled timings are expressed in.
REFERENCE_LOOP_S = 1e-3
# Seconds between two timed loops; the loop costs ~2-3% of the run.
INTERVAL_S = 0.05

_VEC = np.linspace(0.5, 2.0, 4)
_MAT = np.eye(4) * 2.0
_FNS = tuple((lambda t, c=c: t * c + 1.0) for c in range(24))
_DOC = {"cases": [{"name": f"case-{i}", "xs": [0.5 * i, 1.25, 3.0], "ok": i % 2 == 0}
                  for i in range(20)]}
_WORDS = re.compile(r"(\w+)-(\d+)")
_TEXT = " ".join(f"word-{i} other{i}" for i in range(100))
# Compiled expression code evaluated against a fresh environment, as
# meanreduce.expr.Expression is.
_CODE = compile("(_env['u'] ** 1.5 - _env['v'] ** 1.5) * _log(1.0 + _env['u'])", "<loop>", "eval")
_GLOBALS = {"__builtins__": {}, "_log": math.log}
_NAMES = frozenset(("u", "v"))


def reference_loop() -> float:
    """Fixed work of about a millisecond; returns a value so none is skipped."""
    total = 0.0
    for i in range(60):
        x = float(np.dot(_VEC, _VEC)) * 0.5 + i
        y = np.asarray((x, 1.0, 2.0, 3.0))
        total += float(_MAT @ y @ y) ** 0.5
    for j in range(30):
        values = sorted(f(float(j)) for f in _FNS)
        total += values[len(values) // 2] + sum(map(abs, values))
    for k in range(120):
        env = {"u": 1.0 + 0.01 * k, "v": 0.5}
        if not _NAMES.difference(env):
            total += float(eval(_CODE, _GLOBALS, {"_env": env}))  # noqa: S307
    for _ in range(2):
        doc = json.loads(json.dumps(_DOC, sort_keys=True))
        total += len(_WORDS.findall(_TEXT)) + len(f"{math.pi:.6g} {total!r} {doc['cases'][3]}")
        total += sum(sorted((c["xs"][0] for c in doc["cases"]), key=lambda v: -v))
    return total


def sample() -> float:
    """Seconds taken by one reference loop, now."""
    start = _clock()
    reference_loop()
    return _clock() - start


class Interval(NamedTuple):
    """A timed stretch: its wall time outside the loop, and the indices of
    the loops timed during it (``first`` up to, not including, ``last``)."""

    own_s: float
    first: int
    last: int


class SpeedMonitor:
    """Times the reference loop every ``interval`` seconds while entered.

    ``start()`` / ``stop(token)`` time a stretch of work as an `Interval`;
    `at_reference_speed` rescales it once the loops after it have run.
    `paused()` stops the timer, e.g. while a subprocess does the measuring.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedMonitor":
        sample()  # first calls into numpy and LAPACK are slower
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm(self.interval)
        return self

    def __exit__(self, *exc) -> None:
        self._arm(0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _arm(self, seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def _on_alarm(self, signum, frame) -> None:
        start = _clock()
        reference_loop()
        elapsed = _clock() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def paused(self):
        self._arm(0.0)
        try:
            yield
        finally:
            self._arm(self.interval)

    def start(self) -> tuple:
        return _clock(), self.spent, len(self.samples)

    def stop(self, token: tuple) -> Interval:
        t0, spent0, n0 = token
        return Interval(_clock() - t0 - (self.spent - spent0), n0, len(self.samples))

    def loop_time(self, interval: Interval, pad: int = 4) -> float:
        """Loop time during ``interval``: the harmonic mean of the loops timed
        in it and ``pad`` either side.  Loops are timed at even steps, so this
        averages the speed over time; a loop slowed by an interrupt weighs
        little."""
        near = self.samples[max(0, interval.first - pad):interval.last + pad]
        if not near:
            near = [sample()]
        return statistics.harmonic_mean(near)

    def at_reference_speed(self, interval: Interval) -> float:
        return interval.own_s * REFERENCE_LOOP_S / self.loop_time(interval)
