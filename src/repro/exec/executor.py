"""Fault-tolerant process-pool execution of experiment cells.

:func:`execute_cells` takes a list of :class:`ExperimentCell` specs and
returns their results in input order, fanning the uncached cells out
across a supervised spawn worker pool (:class:`~repro.exec.pool.WorkerPool`,
the same supervisor :mod:`repro.serve` drives) when ``jobs > 1``.
Guarantees:

* **Bit-identical to serial.**  A cell's result is a pure function of
  its spec (all RNG streams derive from the cell seed), and workers
  receive only the spec, so ``jobs=N`` reproduces ``jobs=1`` exactly —
  enforced by ``tests/test_exec.py``.  The same purity makes *retries,
  pool rebuilds and resume* identity-preserving: re-running
  a cell can only reproduce the result the clean run would have
  produced (``tests/test_resilience.py`` enforces that too).
* **Failures keep their identity.**  Workers wrap any
  :class:`~repro.errors.ReproError` into a single-string
  :class:`~repro.errors.CellExecutionError` naming the failing cell
  (``cell twl_swp×scan seed=3: …``) — both because a bare pool
  traceback is useless at 40 cells, and because multi-argument
  exceptions like ``PageWornOutError`` do not survive unpickling
  across the pool boundary.
* **Partial progress is never lost.**  Results are written to the
  cache and the resume directory *as they complete*, before any
  sibling's failure can abort the campaign — including siblings that
  finished in the same completion batch as, or were still running at,
  the moment of a fail-fast abort.
* **Observable progress.**  Each completed cell emits one line —
  ``[12/40] twl_swp×scan seed=3 … 1.8s (cached)`` — through the
  ``progress`` callback (default: stderr), with per-cell wall-clock
  timing, measured where the cell runs (never queue wait), collected
  in the returned :class:`CellOutcome` records.

Resilience is governed by a :class:`~repro.exec.policy.FailurePolicy`
(retries with deterministic backoff, per-cell wall-clock timeout,
``fail-fast`` vs ``keep-going``) and an optional resume directory —
a second :class:`~repro.exec.cache.CellCache` (crash-safe resume).
A worker killed outright (OOM, SIGKILL) breaks the pool; the executor
re-submits the in-flight cells on a rebuilt pool, and past
``max_pool_rebuilds`` breaks each further break halves it.  At one
worker the cells run one at a time, so a break names its cell and is
charged to it like any other failure: a worker killer fails cells,
never the campaign process.  The per-cell timeout is enforced *inside*
the worker via a :class:`~repro.exec.deadline.CellDeadline` watchdog so
no pool teardown is needed to reclaim a hung cell — and it enforces on
any thread, which is how the campaign server drives cells.

Both stores are consulted in the parent before any work is scheduled
and written back from the parent as results arrive, so workers never
touch their files.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..engine import discard_snapshot
from ..engine import interrupt as engine_interrupt
from ..errors import (
    CampaignError,
    CellExecutionError,
    CellTimeoutError,
    error_context,
)
from .cache import CellCache
from .cells import CellResult, ExperimentCell, cell_snapshot_path, run_cell
from .deadline import CellDeadline, DeadlineReached
from .faults import maybe_inject
from .hashing import cell_fingerprint
from .policy import DEFAULT_FAILURE_POLICY, CellFailure, FailurePolicy
from .pool import WorkerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.setups import ExperimentSetup

#: ``progress=False`` silences output; ``None`` selects the default
#: stderr printer; a callable receives each formatted line.
ProgressHook = Union[None, bool, Callable[[str], None]]


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-/journal-served) cell with its timing."""

    cell: ExperimentCell
    result: CellResult
    seconds: float
    cached: bool
    #: True when the result came from the resume directory (a resumed
    #: campaign) rather than fresh execution; such outcomes also report
    #: ``cached=True``.
    resumed: bool = False


def _default_progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _resolve_progress(progress: ProgressHook) -> Optional[Callable[[str], None]]:
    if progress is None or progress is True:
        return _default_progress
    if progress is False:
        return None
    return progress


def _progress_line(
    index: int,
    total: int,
    cell: ExperimentCell,
    seconds: float,
    cached: bool,
    resumed: bool = False,
) -> str:
    suffix = ""
    if resumed:
        suffix = " (resumed)"
    elif cached:
        suffix = " (cached)"
    return f"[{index}/{total}] {cell.describe()} … {seconds:.1f}s{suffix}"


def _execute_one(
    cell: ExperimentCell, timeout: Optional[float] = None
) -> CellResult:
    """Run one cell the way every execution path runs it.

    When ``timeout`` is set, a :class:`~repro.exec.deadline.CellDeadline`
    watchdog guards the cell: expiry raises
    :class:`~repro.errors.CellTimeoutError` naming the cell.  The budget
    is enforced in the executing process, so a hung cell never requires
    tearing down the pool, and it works on *any* thread: pool workers,
    the serial path, asyncio executor threads under :mod:`repro.serve`.
    Only interpreters without the CPython async-exception hook degrade
    to unenforced (with a one-line warning from :meth:`CellDeadline.arm`).
    """
    guard: AbstractContextManager[object] = (
        CellDeadline(timeout) if timeout is not None else nullcontext()
    )
    try:
        with guard:
            with error_context(f"cell {cell.describe()}", CellExecutionError):
                # Pool workers are reused across cells: a kill armed for
                # a previous cell (but never reached) must not leak.
                engine_interrupt.clear()
                maybe_inject(cell)
                return run_cell(cell)
    except DeadlineReached:
        # A timed-out cell abandons its run: any snapshot it emitted
        # (plus stray atomic-write temp files) is dead state that
        # would otherwise leak into the cache directory — and worse,
        # seed a *resume* of a run we just declared over-budget.
        snapshot = cell_snapshot_path(cell)
        if snapshot is not None:
            try:
                discard_snapshot(snapshot)
            except OSError:
                pass
        raise CellTimeoutError(
            f"cell {cell.describe()} timed out after {timeout:.6g}s wall-clock"
        ) from None


def _execute_timed(
    cell: ExperimentCell, timeout: Optional[float] = None
) -> Tuple[CellResult, float]:
    """:func:`_execute_one` plus its own wall-clock seconds.

    The pool entry point (module-level so it pickles under spawn): the
    clock starts when a worker picks the cell up, so a cell queued
    behind a slow sibling never reports the wait as its own time.
    """
    start = time.perf_counter()
    result = _execute_one(cell, timeout)
    return result, time.perf_counter() - start


def execute_cells(
    cells: Sequence[ExperimentCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: ProgressHook = None,
    policy: Optional[FailurePolicy] = None,
    journal: Optional[CellCache] = None,
) -> List[CellOutcome]:
    """Run every cell, in parallel when ``jobs > 1``, returning outcomes.

    Results come back in input order regardless of completion order.
    ``policy`` (default: no retries, no timeout, ``fail-fast``) governs
    failure handling; ``journal`` is the resume directory: it is read
    before the cache (hits report ``resumed=True``), and every finished
    cell it did not itself serve is put into it, so a previous,
    interrupted run's results are served back.  Failed cells are not
    recorded and re-run on resume.

    Under ``fail-fast`` the first cell to exhaust its retry budget
    aborts the campaign with its :class:`~repro.errors.CellExecutionError`
    — but only after every already-finished sibling's result has been
    written to the cache and journal, so a repaired re-run resumes
    where the failure struck.  Under ``keep-going`` every runnable cell
    is finished and a single :class:`~repro.errors.CampaignError`
    summarizing the structured :class:`~repro.exec.policy.CellFailure`
    records is raised at the end.
    """
    policy = policy if policy is not None else DEFAULT_FAILURE_POLICY
    report = _resolve_progress(progress)
    total = len(cells)
    fingerprints = [cell_fingerprint(cell) for cell in cells]
    outcomes: List[Optional[CellOutcome]] = [None] * total
    failures: List[CellFailure] = []
    attempts: Dict[int, int] = {}
    pending: List[int] = []
    done = 0

    def note(line: str) -> None:
        if report:
            report(line)

    def finish(index: int, result: CellResult, seconds: float, source: str = "run") -> None:
        nonlocal done
        done += 1
        cell = cells[index]
        resumed = source == "journal"
        cached = source != "run"
        outcomes[index] = CellOutcome(
            cell, result, seconds, cached=cached, resumed=resumed
        )
        # Write-back precedes the progress line so an interrupt raised
        # by the progress hook (or Ctrl-C between cells) always leaves
        # this cell durably recorded — the resumability contract.
        if cache is not None and source != "cache":
            cache.put(cell, result, fingerprints[index])
        if journal is not None and not resumed:
            journal.put(cell, result, fingerprints[index])
        note(_progress_line(done, total, cell, seconds, cached=cached, resumed=resumed))

    def fail(index: int, error: BaseException, attempt_count: int) -> None:
        nonlocal done
        done += 1
        cell = cells[index]
        failures.append(
            CellFailure(
                cell=cell.describe(),
                fingerprint=fingerprints[index],
                error=str(error),
                attempts=attempt_count,
            )
        )
        note(
            f"[{done}/{total}] {cell.describe()} FAILED "
            f"after {attempt_count} attempt(s): {error}"
        )

    def charge(index: int, error: BaseException) -> bool:
        """Charge one failed attempt; True when a retry is granted.

        An exhausted cell is recorded under ``keep-going`` and raised
        under ``fail-fast`` (pool callers drain their siblings first).
        """
        if not isinstance(error, CellExecutionError):
            # An exception that escaped the worker wrapper (a
            # programming error); keep the cell identity.
            error = CellExecutionError(
                f"cell {cells[index].describe()}: {type(error).__name__}: {error}"
            )
        count = attempts.get(index, 0) + 1
        attempts[index] = count
        if count > policy.max_retries:
            if not policy.keep_going:
                raise error
            fail(index, error, count)
            return False
        delay = policy.retry_delay(fingerprints[index], count)
        note(
            f"[retry] {cells[index].describe()} attempt "
            f"{count + 1}/{policy.max_retries + 1} in {delay:.2f}s: {error}"
        )
        if delay > 0:
            time.sleep(delay)
        return True

    for index, cell in enumerate(cells):
        if journal is not None:
            resumed_result = journal.get(cell, fingerprints[index])
            if resumed_result is not None:
                finish(index, resumed_result, 0.0, source="journal")
                continue
        if cache is not None:
            hit = cache.get(cell, fingerprints[index])
            if hit is not None:
                finish(index, hit, 0.0, source="cache")
                continue
        pending.append(index)

    def run_serial(indices: Sequence[int]) -> None:
        for index in indices:
            while True:
                try:
                    result, seconds = _execute_timed(cells[index], policy.timeout)
                except CellExecutionError as error:
                    if charge(index, error):
                        continue
                else:
                    finish(index, result, seconds)
                break

    def run_pool(indices: Sequence[int]) -> None:
        """Run cells on a supervised spawn pool (:class:`WorkerPool`).

        Above one worker the pool is kept full: as many cells as it can
        hold running or queued for a worker.  A break there cannot be
        pinned on any one cell, so the in-flight cells go back to the
        queue uncharged and the pool is rebuilt (or halved, past
        ``max_pool_rebuilds``).  At one worker the cells run one at a
        time, so a break names its cell and is charged to it like any
        other :class:`~repro.errors.CellExecutionError`.
        """
        pool = WorkerPool(min(jobs, len(indices)), policy.max_pool_rebuilds)
        queue = list(indices)
        futures: Dict[Future, int] = {}
        try:
            while queue or futures:
                # ProcessPoolExecutor holds ``workers`` running cells
                # plus ``workers + 1`` queued for a worker; keeping no
                # more in flight makes every submitted cell one a worker
                # will start, so a fail-fast drain never waits on more.
                limit = 1 if pool.workers == 1 else 2 * pool.workers + 1
                while queue and len(futures) < limit:
                    index = queue.pop(0)
                    futures[pool.submit(_execute_timed, cells[index], policy.timeout)] = index
                executor, width = pool.executor, pool.workers
                settled, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                errors: List[Tuple[int, BaseException]] = []
                broken: List[int] = []
                for future in settled:
                    index = futures.pop(future)
                    error = future.exception()
                    if error is None:
                        # Bank every finished sibling before an error in
                        # this same batch can abort the campaign.
                        finish(index, *future.result())
                    elif isinstance(error, BrokenProcessPool) and width > 1:
                        broken.append(index)
                    else:
                        # At one worker a break is its one cell's failure.
                        errors.append((index, error))
                if broken or any(isinstance(e, BrokenProcessPool) for _, e in errors):
                    pool.rebuild(executor)
                if broken:
                    # A killed worker breaks every in-flight future at
                    # once, and none of them is provably the culprit.
                    queue[:0] = sorted(broken + list(futures.values()))
                    futures.clear()
                    action = (
                        "rebuilding" if pool.workers == width
                        else f"halving to {pool.workers} worker(s)" if pool.workers > 1
                        else "degrading to serial execution in one worker"
                    )
                    note(
                        f"[warning] worker pool broke {pool.rebuilds} time(s) (crashed "
                        f"worker?); {action} for {len(queue)} remaining cell(s)"
                    )
                retried: List[int] = []
                for index, error in errors:
                    try:
                        if charge(index, error):
                            retried.append(index)
                    except CellExecutionError:
                        # Fail-fast: first bank every cell already handed
                        # to the pool that still manages to finish.
                        for future in wait(set(futures)).done:
                            if future.exception() is None:
                                finish(futures[future], *future.result())
                        raise
                queue[:0] = retried
            pool.shutdown(wait=True)
        finally:
            pool.shutdown()

    if pending:
        if jobs <= 1 or len(pending) == 1:
            run_serial(pending)
        else:
            run_pool(pending)

    if cache is not None and report is not None and (total > 1 or cache.corrupt):
        report(cache.summary())
    if failures:
        raise CampaignError(failures)
    return [outcome for outcome in outcomes if outcome is not None]


def run_cells(
    cells: Sequence[ExperimentCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: ProgressHook = False,
    policy: Optional[FailurePolicy] = None,
    journal: Optional[CellCache] = None,
) -> List[CellResult]:
    """Like :func:`execute_cells` but returning bare results."""
    return [
        outcome.result
        for outcome in execute_cells(
            cells,
            jobs=jobs,
            cache=cache,
            progress=progress,
            policy=policy,
            journal=journal,
        )
    ]


def run_setup_cells(
    cells: Sequence[ExperimentCell],
    setup: "ExperimentSetup",
    progress: ProgressHook = None,
) -> List[CellResult]:
    """Run cells under an :class:`~repro.experiments.setups.ExperimentSetup`.

    Reads the setup's ``jobs``, ``cache_dir``, ``batch_size``,
    ``snapshot_every``, ``failure`` and ``resume`` fields — the single
    integration point
    through which every figure/ablation module gets parallelism,
    caching, the engine batch size and the failure policy (every cell
    runs at the setup's ``batch_size``).  A
    ``resume`` path opens (creating if needed) a
    :class:`~repro.exec.cache.CellCache` directory there, so an
    interrupted campaign restarted with the same setup skips every
    cell that directory already holds.  Progress defaults to
    the stderr printer only when a cell actually has to run or more
    than one is requested (a single cached lookup stays quiet so helper
    calls don't chatter).
    """
    cache = CellCache(setup.cache_dir) if getattr(setup, "cache_dir", None) else None
    cells = [replace(cell, batch_size=setup.batch_size) for cell in cells]
    snapshot_every = getattr(setup, "snapshot_every", 0)
    snapshot_dir = getattr(setup, "cache_dir", None)
    if snapshot_every > 0 and snapshot_dir:
        # Snapshots live next to the cache entries they protect; cells
        # that pin their own cadence keep it.
        cells = [
            replace(cell, snapshot_every=snapshot_every, snapshot_dir=snapshot_dir)
            if cell.snapshot_every == 0
            else cell
            for cell in cells
        ]
    if progress is None and len(cells) <= 1:
        progress = False
    resume = getattr(setup, "resume", None)
    journal = CellCache(resume) if resume else None
    return run_cells(
        cells,
        jobs=getattr(setup, "jobs", 1),
        cache=cache,
        progress=progress,
        policy=getattr(setup, "failure", None),
        journal=journal,
    )
