"""The ``serve_mix`` workload: a real ``twl-repro serve`` under a request mix.

A fresh server (``--workers 2``, UNIX socket, empty state dir) is
driven closed-loop from this process by two clients, each with its own
connection and session.  Every client sends a fixed, seeded sequence
of submissions of small attack cells:

* ``miss`` (15 %): a cell nobody submitted before — pool execution,
  cache put and journal fsync;
* ``journal`` (70 %): a repeat of one of the client's own earlier
  cells, answered from its session journal;
* ``cache`` (15 %): a cell the *other* client ran at least ``LAG``
  requests earlier, answered from the shared cache.  The client waits
  (untimed) until the other client has that result, so the answering
  source, and with it every server counter, is the same on every run.

85 % of requests are hits, so the median falls in the hit mode and the
99th percentile in the miss mode.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads
from calibrate import Calibrator, speed_factor
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))

#: Request kinds per block of 20: 15 % misses, 70 % journal, 15 % cache.
#: Cache hits append to the session journal with an fsync, journal hits
#: write nothing, so the median lands inside the journal-hit mode.
BLOCK_MISS, BLOCK_JOURNAL, BLOCK_CACHE = 3, 14, 3
LAG = 4
#: Submissions per client per second of ``--seconds`` (about the
#: closed-loop rate of one client here), so a run lasts about that long.
REQUESTS_PER_CLIENT_PER_SECOND = 120
CLIENTS = 2
MISS_SCHEMES = ("nowl", "sr")
MISS_ATTACKS = ("random", "scan")
TIMEOUT = 60.0


def small_scale():
    from repro.config import ScaledArrayConfig

    return ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


@dataclass
class Request:
    kind: str  # "miss" | "journal" | "cache"
    cell: Any
    #: (client, index) of the miss this cache hit waits for.
    after: Optional[Tuple[int, int]] = None


def plan_requests(seed: int, per_client: int) -> List[List[Request]]:
    """Each client's request sequence; a pure function of the arguments.

    Kinds come in shuffled blocks with exact shares and miss cells
    cycle through every scheme x attack pair, so the amount of work
    hardly varies with the seed; only its order and cells do.
    """
    from repro.exec import attack_cell

    rng = random.Random(seed)
    scaled = small_scale()
    block = ["miss"] * BLOCK_MISS + ["journal"] * BLOCK_JOURNAL + ["cache"] * BLOCK_CACHE
    pairs = [(scheme, attack) for scheme in MISS_SCHEMES for attack in MISS_ATTACKS]
    kinds: List[List[str]] = [[] for _ in range(CLIENTS)]
    for client in range(CLIENTS):
        while len(kinds[client]) < per_client:
            kinds[client].extend(rng.sample(block, len(block)))
    plans: List[List[Request]] = [[] for _ in range(CLIENTS)]
    misses: List[List[Tuple[int, Any]]] = [[] for _ in range(CLIENTS)]
    seen: List[Dict[int, Any]] = [{} for _ in range(CLIENTS)]  # id(cell) -> cell
    pending_pairs: List[Tuple[str, str]] = []
    serial = 0
    for index in range(per_client):
        for client in range(CLIENTS):
            other = 1 - client
            kind = kinds[client][index]
            own = list(seen[client].values())
            cross = [
                (j, cell) for j, cell in misses[other]
                if j <= index - LAG and id(cell) not in seen[client]
            ]
            if kind == "journal" and not own or kind == "cache" and not cross:
                kind = "miss"
            if kind == "miss":
                if not pending_pairs:
                    pending_pairs = rng.sample(pairs, len(pairs))
                scheme, attack = pending_pairs.pop()
                serial += 1
                cell = attack_cell(
                    scheme, attack, scaled=scaled, seed=100_000 + seed % 10_000 * 10_000 + serial
                )
                request = Request("miss", cell)
                misses[client].append((index, cell))
            elif kind == "journal":
                request = Request("journal", rng.choice(own))
            else:
                j, cell = rng.choice(cross)
                request = Request("cache", cell, after=(other, j))
            seen[client][id(request.cell)] = request.cell
            plans[client].append(request)
    return plans


def warmup_cells() -> list:
    """Two cells outside every plan: one per pool worker, run in set-up."""
    from repro.exec import attack_cell

    return [attack_cell("nowl", "scan", scaled=small_scale(), seed=s) for s in (1, 2)]


# ----------------------------------------------------------------------
# wire helpers


async def _frame(reader, writer, record: Dict[str, Any]) -> Dict[str, Any]:
    writer.write((json.dumps(record, sort_keys=True) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=TIMEOUT)
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


# ----------------------------------------------------------------------
# server process


class Server:
    """One ``twl-repro serve`` process and its state directory."""

    def __init__(self, root: str, state_dir: str, spans: Optional[str] = None) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir)
        # Relative to the checkout root, which is every process's cwd:
        # keeps the socket path short whatever the checkout's path.
        self.socket = os.path.relpath(os.path.join(state_dir, "s.sock"), root)
        self.address = ("unix", self.socket)
        serve_args = [
            "serve", "--state-dir", state_dir, "--unix", self.socket, "--workers", "2",
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans, *serve_args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.log = open(os.path.join(state_dir, "server.log"), "wb")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT
        )

    async def ready(self) -> float:
        """Seconds from launch to first ping answered plus warm-up."""
        from repro.serve.loadgen import open_connection, ping, submit_cell

        while not await ping(self.address, timeout=1.0):
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} in set-up")
            if time.monotonic() - self.started > TIMEOUT:
                raise RuntimeError("server did not answer a ping in set-up")
            await asyncio.sleep(0.02)

        async def warm(index: int, cell) -> None:
            reader, writer = await open_connection(self.address)
            try:
                response = await submit_cell(
                    reader, writer, cell, f"warmup-{index}", session="warmup", timeout=TIMEOUT
                )
            finally:
                writer.close()
            if not response.get("ok"):
                raise RuntimeError(f"warm-up submission failed: {response}")

        await asyncio.gather(*(warm(i, c) for i, c in enumerate(warmup_cells())))
        return time.monotonic() - self.started

    def _pids(self) -> List[int]:
        """The server and every live descendant (pool workers, trackers)."""
        pids, pending = [], [self.process.pid]
        while pending:
            pid = pending.pop()
            pids.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children") as handle:
                        pending.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its descendants."""
        total_kb = 0
        for pid in self._pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> bool:
        """SIGTERM drain; True when the server exited cleanly with 0."""
        descendants = self._pids()[1:]
        clean = False
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                clean = self.process.wait(timeout=TIMEOUT) == 0
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in descendants:
            _reap(pid)
        self.log.close()
        if not clean:
            with open(os.path.join(self.state_dir, "server.log"), "rb") as handle:
                sys.stderr.write(handle.read().decode(errors="replace")[-4000:])
        return clean


def _reap(pid: int) -> None:
    """Make sure a process the server started has ended."""
    deadline = time.monotonic() + 10.0
    while os.path.exists(f"/proc/{pid}"):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return  # a zombie is its parent's to reap
        except OSError:
            return
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                return
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


# ----------------------------------------------------------------------
# one session of load


@dataclass
class Session:
    wall_s: float
    latencies: Dict[str, List[float]]  # kind -> seconds
    completed: Dict[str, Dict[str, Any]]  # fingerprint -> {"kind", "payload"}
    demand: int
    attempted: int
    #: Submissions answered ok.
    ok: int
    failed: int
    stats: Dict[str, int]
    pings_ms: List[float]
    peak_rss_mb: float
    #: Host-speed calibrations right before and after the timed region.
    calibration_s: List[float]


async def _drive(
    server: Server, plans: List[List[Request]], seed: int, recorder: Optional[SpanRecorder]
) -> Tuple:
    from repro.exec import cell_fingerprint
    from repro.serve.loadgen import open_connection, submit_cell

    done = {
        (client, index): asyncio.Event()
        for client, plan in enumerate(plans)
        for index, request in enumerate(plan) if request.kind == "miss"
    }
    latencies: Dict[str, List[float]] = {"miss": [], "journal": [], "cache": []}
    completed: Dict[str, Dict[str, Any]] = {}
    bounds: List[float] = []
    counts = {"ok": 0, "failed": 0, "demand": 0}

    async def client(number: int, plan: List[Request]) -> None:
        reader, writer = await open_connection(server.address)
        try:
            for index, request in enumerate(plan):
                if request.after is not None:
                    await done[request.after].wait()
                start = time.perf_counter()
                request_id = f"c{number}-{index}"
                response = await submit_cell(
                    reader, writer, request.cell, request_id,
                    session=f"s{seed}-c{number}", timeout=TIMEOUT,
                )
                end = time.perf_counter()
                if recorder is not None:
                    recorder.record(f"serve.submit.{request.kind}", start, end, key=request_id)
                bounds.extend((start, end))
                latencies[request.kind].append(end - start)
                if not response.get("ok"):
                    counts["failed"] += 1
                    print(f"perfbench: request failed: {response}", file=sys.stderr)
                else:
                    counts["ok"] += 1
                    fingerprint = cell_fingerprint(request.cell)
                    answer = {"kind": response.get("kind"), "payload": response.get("payload")}
                    if request.kind == "miss":
                        counts["demand"] += int(answer["payload"]["demand_writes"])
                    known = completed.setdefault(fingerprint, answer)
                    if known != answer:
                        counts["failed"] += 1
                        print(f"perfbench: {fingerprint}: answers disagree", file=sys.stderr)
                if request.kind == "miss":
                    done[(number, index)].set()
        finally:
            writer.close()

    tasks = [asyncio.ensure_future(client(n, plan)) for n, plan in enumerate(plans)]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    wall = max(bounds) - min(bounds)
    return wall, latencies, completed, counts


async def _session(root: str, state_dir: str, seed: int, per_client: int,
                   spans: Optional[str]) -> Tuple[Session, float]:
    from repro.serve.loadgen import open_connection

    plans = plan_requests(seed, per_client)
    # Client-side spans of the traced session, keyed by request id.
    recorder = SpanRecorder() if spans is not None else None
    with Calibrator() as calibrator:
        # The first sample waits out the calibrator's start-up before the
        # server starts; only the two around the session are kept.
        calibrator.sample()
        server = Server(root, state_dir, spans)
        try:
            setup = await server.ready()
            calibrator.sample()
            wall, latencies, completed, counts = await _drive(server, plans, seed, recorder)
            calibrator.sample()
            reader, writer = await open_connection(server.address)
            try:
                pings = []
                for _ in range(20):
                    start = time.perf_counter()
                    await _frame(reader, writer, {"op": "ping", "id": "ping"})
                    pings.append((time.perf_counter() - start) * 1000.0)
                stats = (await _frame(reader, writer, {"op": "stats", "id": "stats"}))["stats"]
            finally:
                writer.close()
            rss = server.peak_rss_mb()
        finally:
            clean = server.stop()
    if recorder is not None:
        recorder.write_jsonl(spans[: -len(".jsonl")] + ".client.jsonl")
    attempted = sum(len(plan) for plan in plans)
    session = Session(
        wall_s=wall, latencies=latencies, completed=completed, demand=counts["demand"],
        attempted=attempted, ok=counts["ok"], failed=counts["failed"] + (0 if clean else 1),
        stats=stats, pings_ms=pings, peak_rss_mb=rss, calibration_s=calibrator.samples[1:],
    )
    return session, setup


async def _setup_only(root: str, state_dir: str) -> float:
    server = Server(root, state_dir)
    try:
        return await server.ready()
    finally:
        if not server.stop():
            raise RuntimeError("set-up server did not drain cleanly")


def _verify(sessions: List[Session], plans_cells: list) -> int:
    """Replay served results serially; count wrong or conflicting answers."""
    from repro.serve.loadgen import verify_bit_identity

    merged: Dict[str, Dict[str, Any]] = {}
    failed = 0
    for session in sessions:
        for fingerprint, answer in session.completed.items():
            if merged.setdefault(fingerprint, answer) != answer:
                failed += 1
    wrong = verify_bit_identity(merged, plans_cells)
    for fingerprint in wrong:
        print(f"perfbench: {fingerprint}: served result differs from serial", file=sys.stderr)
    return failed + len(wrong)


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(root: str, tmp: str, seed: int, seconds: float, spans: Optional[str]) -> Dict[str, Any]:
    """Run the workload; return ``attempted``, ``failed`` and measurements.

    With ``spans`` set this is the traced run: one untraced and one
    traced session, the server's spans written to ``spans``, and the
    per-layer metrics returned.
    """
    trace = spans is not None
    per_client = max(LAG + 1, int(round(REQUESTS_PER_CLIENT_PER_SECOND * seconds)))
    cells = [request.cell for plan in plan_requests(seed, per_client) for request in plan]
    try:
        if trace:
            plain, _ = asyncio.run(
                _session(root, os.path.join(tmp, "plain"), seed, per_client, None)
            )
            traced, _ = asyncio.run(
                _session(root, os.path.join(tmp, "traced"), seed, per_client, spans)
            )
            sessions = [plain, traced]
        else:
            main, setup = asyncio.run(
                _session(root, os.path.join(tmp, "main"), seed, per_client, None)
            )
            setups = [setup] + [
                asyncio.run(_setup_only(root, os.path.join(tmp, f"setup{i}")))
                for i in range(workloads.SETUP_SAMPLES - 1)
            ]
            sessions = [main]
        failed = sum(session.failed for session in sessions) + _verify(sessions, cells)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(session.attempted for session in sessions)
    if trace:
        metrics = layers.zero_metrics()
        stats = traced.stats
        for name in layers.SERVE_COUNTERS:
            metrics[f"serve.{name}"] = int(stats.get(name, 0))
        completed = stats.get("completed", 0)
        hits = stats.get("journal_hits", 0) + stats.get("cache_hits", 0)
        hit_latencies = traced.latencies["journal"] + traced.latencies["cache"]
        # Every submission of the untraced session, for the percentiles.
        plain_ms = [v * 1000.0 for values in plain.latencies.values() for v in values]
        with open(spans + ".totals.json") as handle:
            server_totals = {k: tuple(v) for k, v in json.load(handle)["totals"].items()}
        metrics.update(layers.exec_metrics(server_totals))
        metrics.update({
            "serve.submit_miss_ms": statistics.median(traced.latencies["miss"]) * 1000.0,
            "serve.submit_hit_ms": statistics.median(hit_latencies) * 1000.0,
            "serve.ping_ms": statistics.median(traced.pings_ms),
            "serve.req_p50_ms": statistics.median(plain_ms),
            "serve.req_p99_ms": _percentile(plain_ms, 99),
            "serve.hit_ratio": hits / completed if completed else 0,
            "trace.overhead_frac": layers.overhead_frac(traced.wall_s, plain.wall_s),
        })
        return {"attempted": attempted, "failed": failed, "per_layer": metrics}
    return {
        "attempted": attempted,
        "failed": failed,
        "speed_factor": speed_factor(main.calibration_s),
        "measured": {
            "setups": setups,
            "wall_s": main.wall_s,
            "demand_wps": main.demand / main.wall_s,
            "peak_rss_mb": main.peak_rss_mb,
            "requests": main.ok,
        },
    }
