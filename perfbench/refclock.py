"""Wall time and reference time for the steps of a benchmark pass.

On a shared host the speed of one core changes from one 10 ms slice to
the next, by up to a factor of three, and its average drifts over tens of
seconds as other tenants come and go.  A fixed reference kernel runs
before the first step of a pass and after every step.  Its time against
its nominal `REFERENCE_KERNEL_S` is the host's slowdown at that moment; the
pass's slowdown is the time-weighted mean of those readings over the pass.
A step's reference seconds are its wall seconds divided by the pass's
slowdown: the seconds it would take on a host where the kernel takes
exactly its nominal time.  The kernel uses only numpy, never the library
under test, so a change to the library moves wall and reference seconds
alike.
"""

import time
from contextlib import contextmanager

import numpy as np

REFERENCE_KERNEL_S = 0.005  # nominal time of one kernel run; sets the scale

_rng = np.random.default_rng(0)
_SQUARE = [_rng.standard_normal((30, 30)) for _ in range(16)]
_TALL = [_rng.standard_normal((60, 30)) for _ in range(16)]


def kernel_seconds() -> float:
    """One run of the reference kernel: small matmuls and QRs in a Python
    loop, the same mix of interpreter and LAPACK work as the library."""
    start = time.perf_counter()
    for _ in range(4):
        for square, tall in zip(_SQUARE, _TALL):
            square @ square
            np.linalg.qr(tall)
    return time.perf_counter() - start


class Stopwatch:
    """Times the steps of one pass.  The reference kernel runs before the
    first step and after each one, and its own time is left out."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls_wall: dict[str, list[float]] = {}
        self.steps_wall: dict[str, float] = {}
        self.run_wall = 0.0
        self._weighted = 0.0  # sum of segment wall time x slowdown across it
        self._reading = kernel_seconds() / REFERENCE_KERNEL_S
        self._mark = time.perf_counter()

    def call(self, key: str, fn, *args):
        """Run fn(*args) and record its wall time under `key`."""
        start = time.perf_counter()
        out = fn(*args)
        self.calls_wall.setdefault(key, []).append(time.perf_counter() - start)
        return out

    @contextmanager
    def step(self, name: str):
        """A top-level span, followed by a slowdown reading."""
        index = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(index)
            span = self.tracer.spans[index]
            self.steps_wall[name] = self.steps_wall.get(name, 0.0) + span.end - span.start
            segment = time.perf_counter() - self._mark
            reading = kernel_seconds() / REFERENCE_KERNEL_S
            self.run_wall += segment
            self._weighted += segment * 0.5 * (self._reading + reading)
            self._reading = reading
            self._mark = time.perf_counter()

    @property
    def slowdown(self) -> float:
        return self._weighted / self.run_wall

    def ref(self, wall: float) -> float:
        """Reference seconds for `wall` seconds measured in this pass."""
        return wall / self.slowdown
