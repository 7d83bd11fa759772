"""Machine-speed calibration for the benchmark's timings.

On a shared machine the CPU's speed swings by up to 1.5x for seconds to
tens of seconds at a time, as other tenants come and go; a run's median
then moves with the weather instead of with the code. The benchmark
therefore times a fixed reference computation right before and right
after each timed operation and reports

    calibrated = raw * NOMINAL_MS / (mean of the two reference times)

that is, the time the operation would take on a machine where the
reference takes exactly NOMINAL_MS. Inside one interpreter a Sampler times
the reference every 0.25 s from a timer signal, so even a 3 s operation is
calibrated piece by piece; the sampler's own time is left out of every
operation it interrupts. The reference is an adaptive Simpson
integration of a transcendental integrand, written here and sharing no
code with mirrorphase, so a change to the package moves the raw time but
not the reference. Its mix of Python calls and libm functions resembles
the package's, which is why it tracks the swings closely: in a 50 s test
the raw time of a fixed gp_exact batch moved between 0.64 and 1.20 of its
median while its ratio to the reference stayed within 0.99 to 1.02.

Work done by fresh interpreters (set-up imports, CLI calls) is mostly
process start-up, reading bytecode and loading extension modules, which the
in-process reference tracks poorly (within about 10%). It is calibrated
instead against a fresh ``python -c "import numpy"`` timed between calls,
against NOMINAL_PROCESS_MS; over 200 s a CLI call's ratio to it stayed
within 0.95 to 1.03 while its raw time moved between 0.79 and 1.15.
"""

from __future__ import annotations

import bisect
import math
import signal
import subprocess
import sys
from time import perf_counter

NOMINAL_MS = 1.5
NOMINAL_PROCESS_MS = 150.0
SAMPLE_INTERVAL_S = 0.25


def _integrand(x: float) -> float:
    return math.hypot(math.sin(x), math.exp(-0.3 * x)) / (1.0 + x * x)


def _simpson(a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = _integrand(lm), _integrand(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def reference_ms(repeats: int = 1) -> float:
    """Median milliseconds of ``repeats`` runs of the fixed reference computation."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fa, fm, fb = _integrand(0.0), _integrand(5.0), _integrand(10.0)
        _simpson(0.0, 10.0, fa, fm, fb, 10.0 / 6.0 * (fa + 4.0 * fm + fb), 1e-11, 40)
        times.append((perf_counter() - start) * 1e3)
    times.sort()
    return times[len(times) // 2]


def process_reference_ms(env: dict, cwd) -> float:
    """Milliseconds for a fresh interpreter to start and import numpy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True,
                   timeout=120)
    return (perf_counter() - start) * 1e3


def calibrated(raw: float, before_ms: float, after_ms: float,
               nominal_ms: float = NOMINAL_MS) -> float:
    """``raw`` (any unit) scaled to the nominal reference speed."""
    return raw * nominal_ms / (0.5 * (before_ms + after_ms))


class Sampler:
    """Times the reference every SAMPLE_INTERVAL_S while active (a context manager).

    The SIGALRM handler runs between bytecodes of the main thread, so it
    never observes the package mid-update; it only reads the clock and runs
    the reference, which shares no state with anything else.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        # the alarm stays blocked meanwhile, so samples never interleave
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start = perf_counter()
            ref = reference_ms()
            self.ends.append(perf_counter())
            self.starts.append(start)
            self.refs.append(ref)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def span_ms(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and calibrated milliseconds of [t0, t1], without the samples inside it.

        Needs a sample at or after ``t1``: call :meth:`sample` first. Each
        stretch between two samples is scaled by the mean of their two
        reference times.
        """
        raw = calibrated_ms = 0.0
        k = max(0, bisect.bisect_right(self.starts, t0) - 1)
        cursor = t0
        while True:
            nxt = k + 1
            inside = nxt < len(self.starts) and self.starts[nxt] < t1
            stop = self.starts[nxt] if inside else t1
            stretch = max(0.0, stop - cursor)
            right = self.refs[nxt] if nxt < len(self.refs) else self.refs[k]
            raw += stretch
            calibrated_ms += stretch * NOMINAL_MS / (0.5 * (self.refs[k] + right))
            if not inside:
                return raw * 1e3, calibrated_ms * 1e3
            cursor = max(cursor, self.ends[nxt])
            k = nxt
