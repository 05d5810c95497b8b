"""Attack workload interface.

An attack is an adaptive request generator: it emits the next logical
address to write and receives the response latency of each request — the
only feedback channel the paper's threat model grants ("the attacker can
use some instructions (e.g. rdtsc()) to measure the memory response
time"; internal wear-leveling state is never exposed).
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from ..errors import ConfigError


class AttackWorkload(abc.ABC):
    """Base class for adaptive attack write streams."""

    #: Registry name; subclasses override.
    name = "attack"

    def __init__(self, n_pages: int):
        if n_pages < 1:
            raise ConfigError("attack needs at least one target page")
        self.n_pages = n_pages
        self.writes_emitted = 0

    @abc.abstractmethod
    def next_write(self) -> int:
        """Logical address of the attacker's next write."""

    def next_writes(self, n: int) -> np.ndarray:
        """The next ``n`` write addresses as one array (batched protocol).

        Must emit exactly the sequence ``n`` calls of :meth:`next_write`
        would, including the ``writes_emitted`` side effect.  The base
        implementation draws scalars; attacks whose stream is closed-form
        (scan, repeat) override it with a vector expression.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        next_write = self.next_write
        return np.fromiter(
            (next_write() for _ in range(n)), dtype=np.int64, count=n
        )

    def peek_writes(self, n: int) -> np.ndarray:
        """Up to ``n`` next addresses, valid while no response flips the
        attacker's plan, without emitting them (speculative protocol).

        The caller serves a prefix of the run, emits it with
        :meth:`advance`, and then feeds its responses back
        (:meth:`observe_responses`).  The base implementation cannot
        know how long an adaptive plan holds, so it peeks one write by
        replaying :meth:`next_writes` on a copy of the state; attacks
        that know their feedback-free horizon override this and
        :meth:`advance`.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        state = copy.deepcopy(self.snapshot())
        try:
            return self.next_writes(min(n, 1))
        finally:
            self.restore(state)

    def advance(self, k: int) -> None:
        """Emit the first ``k`` addresses of the last :meth:`peek_writes`
        run: the writes actually served."""
        self.next_writes(k)

    def snapshot(self) -> dict:
        """Full mutable state: base counter plus the subclass hook."""
        return {"attack": self._snapshot_state(), "writes_emitted": self.writes_emitted}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self.writes_emitted = int(state["writes_emitted"])
        self._restore_state(state["attack"])

    def _snapshot_state(self) -> dict:
        """Subclass hook: attack-specific mutable state (default none)."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Subclass hook mirroring :meth:`_snapshot_state`."""

    def observe_response(self, latency_cycles: float) -> None:
        """Feed back the measured response time of the last request.

        Non-adaptive attacks ignore it; the inconsistent-write attack
        uses it to detect swap phases.
        """

    def observe_responses(self, latencies: np.ndarray) -> None:
        """Feed back a run of response times, oldest first.

        Must equal one :meth:`observe_response` call per latency; the
        base implementation is that loop.
        """
        observe = self.observe_response
        for latency in np.asarray(latencies, dtype=np.float64).tolist():
            observe(latency)

    @property
    def is_adaptive(self) -> bool:
        """Whether the attack reacts to response-time feedback.

        Detected from whether :meth:`observe_response` is overridden.
        Non-adaptive streams batch freely.  An adaptive attack's batch
        is speculative: :meth:`peek_writes` proposes the run its current
        plan dictates, the scheme serves it up to and including the
        first response the attacker could notice, and only the served
        prefix is emitted (:meth:`advance`) and observed.
        """
        return type(self).observe_response is not AttackWorkload.observe_response

    def _emit(self, logical: int) -> int:
        self.writes_emitted += 1
        return logical
