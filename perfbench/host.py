"""Host speed, sampled while the benchmark runs, to scale its timings by.

The benchmark runs on shared virtual machines whose speed drifts by a
third or more over minutes, so a run's wall times follow the host as much
as the program.  ``reference_s`` times a fixed pure-Python job (float math,
calls, tuples, a small dict) that nothing in vrusim changes; its time
tracks only the speed of the host.  A ``HostSampler`` takes it after every
simulation call of an iteration and after every set-up, and a timing
divided by the mean sample of its own stretch of the run, times
``REFERENCE_NOMINAL_S``, is that timing on a host of fixed speed.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from pathlib import Path

REFERENCE_STEPS = 1000
# about the mean of reference_s on the 2-vCPU virtual machine the baseline
# was taken on; a constant, so that scaled timings stay near wall seconds
REFERENCE_NOMINAL_S = 0.8e-3


def _dot(p: tuple[float, float], q: tuple[float, float]) -> float:
    return p[0] * q[0] + p[1] * q[1]


def reference_s() -> float:
    """Wall time of the fixed reference job (about a millisecond)."""
    t0 = time.perf_counter()
    acc = 0.0
    points: dict[int, tuple[float, float]] = {}
    for i in range(REFERENCE_STEPS):
        a = i * 0.001
        p = (math.cos(a) * i, math.sin(a) * i)
        points[i & 63] = p
        acc += _dot(p, points.get((i * 7) & 63, p))
    return time.perf_counter() - t0


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` on a host that runs the reference job in the nominal time.

    The host switches between a fast and a slow speed many times within a
    call, so a stretch's time grows with its share of slow time: the mean
    sample tracks that share, the median jumps from one speed to the other.
    Each sample is capped at three times the median, so that one the
    scheduler interrupted counts as slow, not as many samples.
    """
    cap = 3.0 * statistics.median(samples)
    return seconds * REFERENCE_NOMINAL_S / statistics.mean(min(s, cap) for s in samples)


class HostSampler:
    """Reference samples taken during a run, collected stretch by stretch.

    Samples go to a file, one per line, so that pool workers forked during
    an iteration add theirs too; ``take`` returns and clears them.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.path.write_text("", encoding="utf-8")

    def sample(self) -> None:
        s = reference_s()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{s!r}\n")

    def take(self) -> list[float]:
        samples = [float(line) for line in self.path.read_text(encoding="utf-8").split()]
        self.path.write_text("", encoding="utf-8")
        return samples

    def after_calls(self, mods, names) -> None:
        """Sample after every call of the ``(module, function)`` ``names`` in
        the modules of one set-up (each set-up imports vrusim afresh, so
        nothing needs unwrapping)."""
        for module, attr in names:
            owner = getattr(mods, module)
            setattr(owner, attr, self._sampled(getattr(owner, attr)))

    def _sampled(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.sample()

        return wrapper
