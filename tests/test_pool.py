"""The shared worker-pool supervisor (:mod:`repro.exec.pool`) and the
executor's use of it.

* pool workers exit when the process that started them dies;
* a ``BrokenProcessPool`` raised by ``submit`` itself arrives on a
  failed future instead of escaping;
* the rebuild rule: rebuild at full width within budget, then halve
  down to one worker, with identity-checked rebuilds;
* a worker killer can fail cells but never the campaign process (the
  campaign runs in a subprocess, so a regression fails the test with a
  SIGKILL status instead of killing the test runner);
* pool-mode cell timings exclude time spent queued behind a sibling.
"""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
from repro.config import ScaledArrayConfig
from repro.exec import FailurePolicy, FaultPlan, attack_cell, execute_cells, run_cells
from repro.exec.faults import FAULTS_ENV
from repro.exec.pool import PARENT_POLL_SECONDS, WorkerPool

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _grid():
    """The 2×2 scheme/attack grid of ``tests/test_resilience.py``."""
    return [
        attack_cell(scheme, attack, scaled=SCALED, seed=11)
        for scheme in ("nowl", "sr")
        for attack in ("repeat", "scan")
    ]


def _arm(monkeypatch, tmp_path, **kwargs):
    kwargs.setdefault("state_dir", str(tmp_path / "fault-state"))
    plan = FaultPlan(**kwargs)
    monkeypatch.setenv(FAULTS_ENV, plan.to_env())
    return plan


def _gone(pid: int) -> bool:
    """True when ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestWorkerPool:
    def test_rebuild_then_halve_to_one(self):
        pool = WorkerPool(4, max_rebuilds=1)
        widths = []
        try:
            for _ in range(4):
                assert pool.rebuild(pool.executor)
                widths.append(pool.workers)
                if len(widths) == 1:
                    assert not pool.degraded
        finally:
            pool.shutdown()
        assert widths == [4, 2, 1, 1]
        assert pool.rebuilds == 4
        assert pool.degraded

    def test_rebuild_is_identity_checked(self):
        pool = WorkerPool(2, max_rebuilds=0)
        try:
            stale = pool.executor
            assert pool.rebuild(stale)
            # A second observer of the same break adopts the replacement.
            assert not pool.rebuild(stale)
            assert pool.rebuilds == 1
            assert pool.workers == 1
            assert pool.executor is not stale
        finally:
            pool.shutdown()

    def test_submit_on_a_broken_pool_yields_a_failed_future(self):
        pool = WorkerPool(1, max_rebuilds=0)
        try:
            stale = pool.executor
            with pytest.raises(BrokenProcessPool):
                pool.submit(os._exit, 3).result(timeout=60)
            # The executor is now marked broken: submitting to it again
            # raises inside ProcessPoolExecutor.submit — the supervisor
            # must hand that back on a future, not raise it.
            assert pool.executor is stale
            future = pool.submit(os.getpid)
            assert future.done()
            assert isinstance(future.exception(), BrokenProcessPool)
            # Rebuilding recovers.
            assert pool.rebuild(stale)
            assert pool.submit(os.getpid).result(timeout=60) != os.getpid()
        finally:
            pool.shutdown()

    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        script = (
            "import multiprocessing, os, signal, sys\n"
            f"sys.path.insert(0, {SRC_ROOT!r})\n"
            "from repro.exec.pool import WorkerPool\n"
            "pool = WorkerPool(2, max_rebuilds=0)\n"
            "for future in [pool.submit(os.getpid) for _ in range(2)]:\n"
            "    future.result(timeout=60)\n"
            "pids = [child.pid for child in multiprocessing.active_children()]\n"
            "print(' '.join(map(str, pids)), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # Read only the pid line: orphaned workers would hold the pipe
        # open, so waiting for EOF would hang exactly when the test fails.
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        try:
            assert proc.wait(timeout=120) == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 10 * PARENT_POLL_SECONDS + 5.0
            while time.monotonic() < deadline and not all(map(_gone, pids)):
                time.sleep(0.05)
            survivors = [pid for pid in pids if not _gone(pid)]
            assert survivors == [], f"orphaned pool workers outlived their parent: {survivors}"
        finally:
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)


def _campaign_under_kills(tmp_path, on_error: str) -> subprocess.CompletedProcess:
    """Run the grid at jobs=2 under a kill-every-time plan, in a subprocess."""
    plan = FaultPlan(
        mode="kill", rate=1.0, times=100, state_dir=str(tmp_path / "fault-state")
    )
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {SRC_ROOT!r})\n"
        "from repro.config import ScaledArrayConfig\n"
        "from repro.errors import CampaignError, CellExecutionError\n"
        "from repro.exec import FailurePolicy, attack_cell, run_cells\n"
        f"scaled = ScaledArrayConfig(n_pages={SCALED.n_pages}, "
        f"endurance_mean={SCALED.endurance_mean})\n"
        "cells = [attack_cell(s, a, scaled=scaled, seed=11)\n"
        "         for s in ('nowl', 'sr') for a in ('repeat', 'scan')]\n"
        f"policy = FailurePolicy(max_pool_rebuilds=0, on_error={on_error!r})\n"
        "try:\n"
        "    run_cells(cells, jobs=2, policy=policy)\n"
        "except CampaignError as error:\n"
        "    print(json.dumps({'campaign': [f.cell for f in error.failures]}))\n"
        "except CellExecutionError as error:\n"
        "    print(json.dumps({'cell': str(error)}))\n"
        "else:\n"
        "    print(json.dumps({}))\n"
    )
    env = dict(os.environ, **{FAULTS_ENV: plan.to_env()})
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=300
    )


class TestWorkerKiller:
    """A worker that dies on every cell fails cells, not the campaign."""

    def test_keep_going_fails_every_cell(self, tmp_path):
        proc = _campaign_under_kills(tmp_path, "keep-going")
        assert proc.returncode == 0, (proc.returncode, proc.stderr.decode())
        outcome = json.loads(proc.stdout)
        assert sorted(outcome["campaign"]) == sorted(c.describe() for c in _grid())

    def test_fail_fast_names_one_cell(self, tmp_path):
        proc = _campaign_under_kills(tmp_path, "fail-fast")
        assert proc.returncode == 0, (proc.returncode, proc.stderr.decode())
        message = json.loads(proc.stdout)["cell"]
        named = [c.describe() for c in _grid() if c.describe() in message]
        assert len(named) == 1, message
        assert "BrokenProcessPool" in message

    def test_break_past_budget_halves_the_pool(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        _arm(monkeypatch, tmp_path, mode="kill", rate=1.0, times=1, max_total=1)
        lines = []
        policy = FailurePolicy(max_pool_rebuilds=0)
        results = run_cells(cells, jobs=4, policy=policy, progress=lines.append)
        assert results == clean
        assert any("halving to 2 worker(s)" in line for line in lines), lines


class TestPoolTimings:
    def test_queue_wait_is_not_charged_to_a_cell(self, monkeypatch, tmp_path):
        # The first two cells a worker picks up hang for 2 s, holding
        # both workers; the other two wait in the queue meanwhile.
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, max_total=2, hang_seconds=2.0,
        )
        outcomes = execute_cells(_grid(), jobs=2, progress=False)
        seconds = sorted(outcome.seconds for outcome in outcomes)
        assert seconds[2] >= 2.0, seconds
        assert seconds[1] < 1.0, seconds
