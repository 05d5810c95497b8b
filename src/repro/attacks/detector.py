"""Response-time swap detection (the attacker's side channel).

"Memory swaps will block all memory requests to ensure memory integrity,
which leads to an increase in memory response time" (Section 3.2,
footnote).  The detector learns a baseline response latency online and
flags any request whose latency exceeds the baseline by a configurable
factor — it never sees scheme internals.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class SwapDetector:
    """Online threshold detector over response latencies."""

    def __init__(self, threshold_factor: float = 1.5, warmup: int = 8):
        if threshold_factor <= 1.0:
            raise ConfigError("threshold factor must exceed 1.0")
        if warmup < 1:
            raise ConfigError("warmup must be at least one sample")
        self.threshold_factor = threshold_factor
        self.warmup = warmup
        self._samples = 0
        self._baseline = 0.0
        self.detections = 0

    def snapshot(self) -> dict:
        """Learned baseline and counters (mid-run persistence)."""
        return {
            "baseline": self._baseline,
            "detections": self.detections,
            "samples": self._samples,
        }

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self._baseline = float(state["baseline"])
        self.detections = int(state["detections"])
        self._samples = int(state["samples"])

    def observe(self, latency_cycles: float) -> bool:
        """Record one response time; True when a swap is detected.

        The baseline tracks the *minimum* observed latency: plain writes
        dominate the stream, so the smallest latencies are unblocked
        requests, and anything threshold_factor above them was blocked.
        """
        if latency_cycles <= 0:
            raise ValueError("latency must be positive")
        if self._samples < self.warmup:
            self._samples += 1
            if self._baseline == 0.0 or latency_cycles < self._baseline:
                self._baseline = latency_cycles
            return False
        if latency_cycles < self._baseline:
            self._baseline = latency_cycles
            return False
        if latency_cycles > self._baseline * self.threshold_factor:
            self.detections += 1
            return True
        return False

    def observe_quiet(self, latencies: np.ndarray) -> int:
        """Record the leading samples that detect nothing; return how many.

        Equals calling :meth:`observe` on each sample of
        ``latencies[:k]`` (all returning False), where ``k`` is the
        returned count: the first sample that would detect, or that
        :meth:`observe` would reject, is left unrecorded for the scalar
        path.  Closed form: the baseline is the running minimum of every
        sample seen, and a sample can detect only once ``warmup``
        samples precede it.
        """
        n = int(latencies.size)
        if n == 0:
            return 0
        samples = self._samples
        # Before warm-up ends a zero baseline means "unset".
        baseline = (
            np.inf if self._baseline == 0.0 and samples < self.warmup else self._baseline
        )
        running = np.minimum.accumulate(latencies)
        before = np.empty(n, dtype=np.float64)
        before[0] = baseline
        np.minimum(running[:-1], baseline, out=before[1:])
        armed = np.arange(samples, samples + n) >= self.warmup
        stop = (latencies <= 0) | (
            armed & (latencies > before * self.threshold_factor)
        )
        hits = np.flatnonzero(stop)
        quiet = int(hits[0]) if hits.size else n
        if quiet:
            self._samples = max(samples, min(self.warmup, samples + quiet))
            self._baseline = float(min(baseline, running[quiet - 1]))
        return quiet
