"""The one supervised worker pool, shared by batch campaigns and ``serve``.

:class:`WorkerPool` is the only place in the package that constructs a
``ProcessPoolExecutor``.  :func:`repro.exec.executor.execute_cells` and
:class:`repro.serve.server.CampaignServer` each drive it from a single
thread, so it needs no lock.  It always uses spawn: fork is undefined
behaviour under the server's threads, and forked workers would inherit
its client sockets.  Workers exit once the process that started them
dies (a SIGKILLed campaign or server leaks no pool; ``PR_SET_PDEATHSIG``
would fire when the spawning *thread* exits, not the process).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional

__all__ = ["PARENT_POLL_SECONDS", "WorkerPool"]

#: Seconds between a worker's checks that its parent is still alive.
PARENT_POLL_SECONDS = 0.25


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(1)


def _watch_parent(parent: int) -> None:
    """Worker initializer: exit the worker once process ``parent`` dies."""
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


class WorkerPool:
    """A spawn worker pool with one rebuild-then-halve rule.

    The first ``max_rebuilds`` breaks rebuild it at full width; each
    further break halves the width (floor 1) and sets :attr:`degraded`.
    """

    def __init__(self, workers: int, max_rebuilds: int) -> None:
        self.workers = workers
        self.max_rebuilds = max_rebuilds
        self.rebuilds = 0
        self.degraded = False
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor; a fresh one starts after each rebuild."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_watch_parent,
                initargs=(os.getpid(),),
            )
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit to the live executor; a ``BrokenProcessPool`` raised at
        submission comes back on a failed future, like any other break."""
        try:
            return self.executor.submit(fn, *args)
        except BrokenProcessPool as error:
            failed: Future = Future()
            failed.set_exception(error)
            return failed

    def rebuild(self, broken: ProcessPoolExecutor) -> bool:
        """Replace ``broken``; False when an earlier observer of the same
        break already replaced it."""
        if broken is not self._executor:
            return False
        broken.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        self.rebuilds += 1
        if self.rebuilds > self.max_rebuilds:
            self.workers = max(1, self.workers // 2)
            self.degraded = True
        return True

    def looks_alive(self) -> bool:
        """False only when every spawned worker is dead (none yet is alive)."""
        processes = getattr(self._executor, "_processes", None)
        if not processes:
            return True
        return any(proc.is_alive() for proc in processes.values())

    def shutdown(self, wait: bool = False) -> None:
        """Stop the live executor, cancelling work not yet started."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
