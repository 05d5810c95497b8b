"""Workload drivers.

A driver owns a position in an infinite write stream (a looping trace,
a chunked stream, or an adaptive attack) and hands demand writes to the
simulation engine through its one step protocol (:mod:`repro.engine`):
:meth:`WorkloadDriver.next_batch` yields the next ``n`` logical
addresses as an array without serving them, the engine serves them
through the scheme, and :meth:`WorkloadDriver.observe_batch` feeds the
per-request response costs back afterwards.  A driver never touches a
scheme itself; serving writes one at a time is the engine's
``batch_size=1``, not a separate driver loop.

An adaptive attack steers on the response time of every request, yet
its next addresses change only when a response flips its plan.  Its
batches are therefore *speculative*: :class:`AttackDriver` proposes the
run the current plan dictates, the scheme serves it up to and including
the first response the attacker could notice
(``write_batch(..., stop_at_visible=True)``), and ``observe_batch``
emits only the served prefix before replaying its responses.  The
unserved tail was never emitted, so the decision sequence is exactly
the serial one.

:class:`StreamDriver` is the streaming-first workload path: it pulls
``(ops, pages)`` chunks from a :class:`~repro.traces.stream.TraceStream`
and buffers only the current chunk's writes, so multi-billion-request
campaigns run at constant memory.  :class:`TraceDriver` is the
materialized adapter kept for small in-RAM traces; streamed and
materialized runs of the same workload are bit-identical
(``tests/test_engine_identity.py``).
"""

from __future__ import annotations

import abc

import numpy as np

from ..attacks.base import AttackWorkload
from ..config import TimingConfig
from ..errors import SimulationError
from ..traces.request import OP_WRITE
from ..traces.stream import TraceStream
from ..traces.trace import Trace

#: Consecutive writeless chunks after which a stream is declared broken
#: (an endless generator that stops yielding writes would otherwise spin
#: the refill loop forever).
_MAX_WRITELESS_CHUNKS = 100_000


class WorkloadDriver(abc.ABC):
    """Stateful source of demand writes."""

    @property
    def is_adaptive(self) -> bool:
        """Whether the stream steers on per-request feedback.

        An adaptive driver's batches are speculative (see the module
        docstring): the caller must serve them with
        ``write_batch(..., stop_at_visible=True)`` and report the served
        prefix through :meth:`observe_batch`.
        """
        return False

    @abc.abstractmethod
    def next_batch(self, n: int, speculative: bool = False) -> np.ndarray:
        """The next (up to) ``n`` logical addresses, without serving them.

        Drivers may return fewer than ``n`` addresses; an empty array
        means the stream is exhausted.  An adaptive driver returns more
        than one address only when the caller passes ``speculative``,
        promising to stop serving after the first visible response and
        to report what it served through :meth:`observe_batch`; a bare
        call returns one address.  When a batch is
        cut short by a failure, the unserved tail is *not* rewound —
        the engine stops at first failure, so only post-failure driver
        state (trace position, loop counter) can drift from a serial
        run; everything that reaches a :class:`LifetimeResult` stays
        bit-identical.
        """

    def observe_batch(self, physical_write_counts: np.ndarray) -> None:
        """Feed back the per-request physical write counts of a batch.

        For an adaptive driver the counts also say how many of the
        proposed addresses were served; the rest are dropped.
        """

    def snapshot(self) -> dict:
        """The driver's mutable position state as a plain state tree.

        Restoring it into a freshly constructed driver over the same
        workload reproduces the remaining write sequence bit-exactly
        (the sub-cell recovery contract, ``docs/robustness.md``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support mid-run snapshots"
        )

    def restore(self, state: dict) -> None:
        """Restore a position captured by :meth:`snapshot`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support mid-run snapshots"
        )

    @property
    @abc.abstractmethod
    def workload_name(self) -> str:
        """Label for result records."""


class TraceDriver(WorkloadDriver):
    """Loops a finite trace's write stream forever (paper methodology)."""

    def __init__(self, trace: Trace, n_pages: int):
        writes = trace.write_page_list()  # twl: allow(TWL007) reason=TraceDriver is the intentional materialized adapter
        if not writes:
            raise SimulationError(f"trace {trace.name!r} contains no writes")
        if trace.max_page >= n_pages:
            raise SimulationError(
                f"trace touches page {trace.max_page} outside array of {n_pages}"
            )
        self._writes = np.asarray(writes, dtype=np.int64)
        self._position = 0
        self._name = trace.name
        self.loops_completed = 0

    @property
    def workload_name(self) -> str:
        return self._name

    def next_batch(self, n: int, speculative: bool = False) -> np.ndarray:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        writes = self._writes
        length = writes.size
        out = np.empty(n, dtype=np.int64)
        position = self._position
        filled = 0
        while filled < n:
            take = min(n - filled, length - position)
            out[filled : filled + take] = writes[position : position + take]
            filled += take
            position += take
            if position == length:
                position = 0
                self.loops_completed += 1
        self._position = position
        return out

    def snapshot(self) -> dict:
        return {"loops_completed": self.loops_completed, "position": self._position}

    def restore(self, state: dict) -> None:
        self.loops_completed = int(state["loops_completed"])
        self._position = int(state["position"])


class StreamDriver(WorkloadDriver):
    """Loops a :class:`TraceStream`'s write stream at constant memory.

    Pulls one chunk at a time, keeps only that chunk's write addresses
    buffered, and rewinds finite streams at exhaustion (the paper's
    loop-to-failure methodology).  Positions and loop counters are plain
    Python ints, so multi-billion-request campaigns overflow nothing.

    Identity: for the same underlying request sequence this driver
    serves exactly the write sequence :class:`TraceDriver` serves — the
    chunk size only changes *delivery granularity* (``next_batch`` may
    return short batches at chunk boundaries, which the engine loop
    tolerates), never the sequence, so streamed runs stay bit-identical
    to materialized runs.
    """

    def __init__(self, stream: TraceStream, n_pages: int):
        self._stream = stream
        self._n_pages = n_pages
        self._buffer = np.empty(0, dtype=np.int64)
        self._offset = 0
        self._name = stream.name
        self.loops_completed = 0
        #: Total requests (reads included) consumed from the stream.
        self.requests_consumed = 0
        self._writes_this_loop = False
        #: Chunks consumed since the last rewind — the position hint the
        #: stream's :meth:`~repro.traces.stream.TraceStream.snapshot_position`
        #: needs (the base stream protocol cannot observe chunk pulls).
        self._chunks_this_loop = 0

    @property
    def workload_name(self) -> str:
        return self._name

    def _refill(self) -> None:
        """Pull chunks until the write buffer is non-empty."""
        stream = self._stream
        writeless = 0
        while True:
            chunk = stream.next_chunk()
            if chunk is None:
                if not self._writes_this_loop:
                    raise SimulationError(
                        f"stream {self._name!r} contains no writes"
                    )
                stream.rewind()
                self.loops_completed += 1
                self._writes_this_loop = False
                self._chunks_this_loop = 0
                continue
            ops, pages = chunk
            self._chunks_this_loop += 1
            self.requests_consumed += int(ops.size)
            writes = pages[ops == OP_WRITE]
            if writes.size == 0:
                writeless += 1
                if writeless >= _MAX_WRITELESS_CHUNKS:
                    raise SimulationError(
                        f"stream {self._name!r} yielded {writeless} "
                        "consecutive chunks without a write"
                    )
                continue
            if int(writes.max()) >= self._n_pages or int(writes.min()) < 0:
                bad = writes[(writes < 0) | (writes >= self._n_pages)][0]
                raise SimulationError(
                    f"stream {self._name!r} touches page {int(bad)} outside "
                    f"array of {self._n_pages}"
                )
            self._buffer = writes
            self._offset = 0
            self._writes_this_loop = True
            return

    def next_batch(self, n: int, speculative: bool = False) -> np.ndarray:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if self._offset >= self._buffer.size:
            self._refill()
        # Serve from the buffered chunk only: a short batch at a chunk
        # boundary is cheaper than concatenating across chunks, and the
        # engine loop tolerates it (batch segmentation cannot change
        # results under the batch-identity contract).
        take = min(n, self._buffer.size - self._offset)
        out = self._buffer[self._offset : self._offset + take]
        self._offset += take
        return out

    def snapshot(self) -> dict:
        # The unserved tail of the current chunk travels in the snapshot
        # (re-decoding it would need a chunk re-pull the stream position
        # has already moved past); the stream itself records only its
        # chunk-granular position.
        return {
            "buffer": self._buffer[self._offset :].copy(),
            "chunks_this_loop": self._chunks_this_loop,
            "loops_completed": self.loops_completed,
            "requests_consumed": self.requests_consumed,
            "stream": self._stream.snapshot_position(self._chunks_this_loop),
            "writes_this_loop": self._writes_this_loop,
        }

    def restore(self, state: dict) -> None:
        self._buffer = np.asarray(state["buffer"], dtype=np.int64)
        self._offset = 0
        self._chunks_this_loop = int(state["chunks_this_loop"])
        self.loops_completed = int(state["loops_completed"])
        self.requests_consumed = int(state["requests_consumed"])
        self._writes_this_loop = bool(state["writes_this_loop"])
        self._stream.restore_position(state["stream"])  # type: ignore[arg-type]


class AttackDriver(WorkloadDriver):
    """Drives an adaptive attack, feeding back response latencies.

    The response-time model matches the threat model's observable: a
    request that triggered k physical page writes blocks for k write
    latencies before the attacker's next request is served.
    """

    def __init__(self, attack: AttackWorkload, timing: TimingConfig = TimingConfig()):
        self.attack = attack
        self.timing = timing

    @property
    def workload_name(self) -> str:
        return self.attack.name

    @property
    def is_adaptive(self) -> bool:
        return self.attack.is_adaptive

    def next_batch(self, n: int, speculative: bool = False) -> np.ndarray:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        attack = self.attack
        if not attack.is_adaptive:
            return attack.next_writes(n)
        # An adaptive attack's run is valid only until a response flips
        # its plan, so it is proposed, not emitted: observe_batch emits
        # the served prefix.  Only a caller that truncates at the first
        # visible response gets more than one write.
        return attack.peek_writes(n if speculative else min(n, 1))

    def observe_batch(self, physical_write_counts: np.ndarray) -> None:
        attack = self.attack
        if not attack.is_adaptive:
            # observe_response is the no-op base implementation.
            return
        attack.advance(len(physical_write_counts))
        attack.observe_responses(
            float(self.timing.write_cycles) * physical_write_counts
        )

    def snapshot(self) -> dict:
        return {"attack": self.attack.snapshot()}

    def restore(self, state: dict) -> None:
        self.attack.restore(state["attack"])  # type: ignore[arg-type]
