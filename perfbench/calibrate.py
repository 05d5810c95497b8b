"""Host-speed calibration for the end-to-end timings.

The host this benchmark was written on shares its CPUs with other
machines, and its speed drifts from minute to minute: over ten runs of
the same cells the slowest ``fig6_quick`` pass took 1.6x the fastest,
and the quartile spread of ``stream_ftl``'s ``wall_s`` was 38 % raw
and 8 % as reported.  Every run therefore also times a fixed calibration workload while it
runs, and reports its timings at the reference speed::

    reported = measured * REFERENCE_S / median(calibration times)

The calibration runs in a :class:`Calibrator`, a fresh interpreter of
its own that never imports the program, and only while the program
waits for it.  So what a program change leaves in its own interpreter
-- a thread holding the GIL, a trace hook, an interpreter setting --
does not slow the calibration, and the scaling cannot cancel it.  The
raw timings and the factor are printed to stderr on every run.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Seconds :func:`calibrate` took on the reference host (2-vCPU Xeon VM,
#: Python 3.11), median of quiet-period runs.
REFERENCE_S = 0.0150
ROUNDS = 7


def _unit() -> int:
    """Fixed work mixing the interpreter and small NumPy calls, like the engine."""
    total = 0
    table = {}
    for i in range(100_000):
        total += i * i
        table[i & 1023] = total
    values = np.arange(8_192, dtype=np.int64)
    for _ in range(100):
        values = (values * 3 + 1) % 1_000_003
        total += int(np.bincount(values & 1023).max())
    return total + len(table)


def calibrate(rounds: int = ROUNDS) -> float:
    """Median seconds of one calibration unit over ``rounds`` runs."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        _unit()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def speed_factor(samples) -> float:
    """Multiply measured times by this to get reference-speed times."""
    return REFERENCE_S / statistics.median(samples)


class Calibrator:
    """:func:`calibrate` in a separate process, timed on request."""

    def __init__(self) -> None:
        self.samples: list = []
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def sample(self, rounds: int = ROUNDS) -> None:
        """Time ``rounds`` calibration units and keep their median."""
        self._process.stdin.write(f"{rounds}\n")
        self._process.stdin.flush()
        self.samples.append(float(self._process.stdout.readline()))

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    calibrate()  # warm-up, discarded
    for line in sys.stdin:
        print(calibrate(int(line)), flush=True)
