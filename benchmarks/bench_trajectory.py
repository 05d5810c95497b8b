#!/usr/bin/env python
"""Committed benchmark trajectory: engine throughput per scheme.

Unlike the pytest-benchmark timings in ``bench_throughput.py`` (host
sensitive, results land in ``benchmarks/results/``), this script feeds a
*committed* trajectory: each PR that claims an engine speedup records a
``BENCH_<tag>.json`` artifact at the repo root, and CI re-runs the same
scenarios in smoke mode to fail on throughput regressions against the
best prior artifact.

Machine normalization
---------------------
Raw writes/second are meaningless across hosts, so every run first times
a frozen calibration workload — a fixed mix of small-array numpy
operations and Python-level bookkeeping chosen to resemble the
simulator's instruction mix, which never changes between PRs — and
records ``calibration_ops_per_sec`` alongside the raw numbers.  The
regression gate compares ``normalized = batched_wps /
calibration_ops_per_sec`` (a dimensionless "demand writes per
calibration op"), which is stable across machines of different speeds as
long as the artifact being compared against carries its own calibration.

Artifact schema (``twl-bench-trajectory/1``)::

    {
      "schema": "twl-bench-trajectory/1",
      "tag": "PR6",
      "writes": 200000, "batch_size": 4096, "n_pages": 1024,
      "attack": "scan",
      "calibration_ops_per_sec": <float>,
      "scenarios": {
        "<name>": {"batched_wps": <float>, "normalized": <float>},
        ...
      },
      "smoke_scenarios": { ... },   # same shape, measured at the smoke
                                    # write count; what CI gates against
      "baseline": {             # optional: raw numbers being compared to
        "tag": "PR2", "scenarios": {"<name>": <batched_wps>}, ...
      }
    }

Short smoke runs carry proportionally more fixed cost than full runs,
so the two are not comparable; a ``--smoke --check`` run gates against
committed ``smoke_scenarios`` only, and a full ``--check`` run against
``scenarios`` only.

Usage::

    PYTHONPATH=src python benchmarks/bench_trajectory.py            # full run, prints JSON
    PYTHONPATH=src python benchmarks/bench_trajectory.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_trajectory.py --output BENCH_PR7.json

``--check`` loads every ``BENCH_*.json`` at the repo root and exits
nonzero if any scenario's normalized throughput fell more than
``--tolerance`` (default 0.25) below the best prior artifact's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.attacks.registry import make_attack  # noqa: E402
from repro.config import TWLConfig  # noqa: E402
from repro.engine import SimulationEngine, SnapshotPlan  # noqa: E402
from repro.pcm.array import PCMArray  # noqa: E402
from repro.sim.drivers import AttackDriver, StreamDriver  # noqa: E402
from repro.traces import FTLWorkloadStream  # noqa: E402
from repro.wearlevel.registry import make_scheme  # noqa: E402

SCHEMA = "twl-bench-trajectory/1"

_N_PAGES = 1024
_BATCH_SIZE = 4096
_WRITES = 200_000
_SMOKE_WRITES = 40_000
_ATTACK = "scan"
_ROUNDS = 3

#: Sparse-trigger TWL (mirrors ``bench_throughput._TWL_SPARSE``).
_TWL_SPARSE = TWLConfig(toss_up_interval=120, inter_pair_swap_interval=4096)

#: The committed scenarios — same cases as ``bench_throughput.py``'s
#: batched comparison, which is what the recorded baselines measured.
SCENARIOS = (
    ("nowl", "nowl", {}),
    ("startgap", "startgap", {}),
    ("twl", "twl", {}),
    ("twl_sparse", "twl", {"config": _TWL_SPARSE}),
    ("sr", "sr", {}),
)

#: Adaptive-attack scenarios: ``(label, scheme, kwargs, attack)``.  The
#: inconsistent attack steers on every response time, so its batches are
#: speculative runs cut at the first visible response; a fall back to
#: one-write batches shows here as a >10x throughput drop.
ADAPTIVE_SCENARIOS = (("twl_inconsistent", "twl", {}, "inconsistent"),)

#: Streamed scenarios: the same batched engine fed through the
#: streaming pipeline (FTL dynamic generator -> StreamDriver) instead
#: of an attack driver, so a throughput regression in chunk refill or
#: the stream write-filter is caught the same way engine regressions
#: are.  Kept in their own table because the workload differs from the
#: attack scenarios; the regression gate matches scenarios by name, so
#: adding these never affects gating of the committed attack baselines.
_STREAM_CHUNK = 8192

STREAM_SCENARIOS = (
    ("twl_ftl_stream", "twl", {}),
    ("nowl_ftl_stream", "nowl", {}),
)

#: Snapshot-cadence scenario (``stream_snapshot``): the ``twl`` FTL
#: stream run again with crash-consistent snapshot emission armed at the
#: default cadence (docs/robustness.md, "sub-cell recovery").  The
#: recorded throughput gates like any scenario — by name, so artifacts
#: committed before the scenario existed are never cross-compared — and
#: the run itself enforces the cadence-cost guard: amortized overhead at
#: the default cadence (best per-emission cost x emissions/second the
#: no-snapshot baseline would schedule) must stay under
#: ``_SNAPSHOT_OVERHEAD_LIMIT``.  The amortized form keeps the guard
#: robust at the smoke write count, where a 100k-demand cadence fires
#: rarely and a paired throughput subtraction would be pure noise.
_SNAPSHOT_EVERY = 100_000
_SNAPSHOT_OVERHEAD_LIMIT = 0.03
_SNAPSHOT_COST_ROUNDS = 5


#: Raw batched writes/second measured on the pre-refactor engine (the
#: PR 2 batched write protocol), same scenarios/host class, immediately
#: before the structure-of-arrays rewrite landed.  Kept verbatim so the
#: speedup column in committed artifacts has a fixed denominator.
BASELINE_PR2 = {
    "tag": "PR2-batched",
    "writes": _WRITES,
    "scenarios": {
        "nowl": 2503763,
        "startgap": 672843,
        "twl": 277170,
        "twl_sparse": 1123145,
        "sr": 425371,
    },
}


def calibrate(rounds: int = 5) -> float:
    """Host speed via a frozen numpy + Python workload (ops/second).

    The mix — small-array modular arithmetic, gathers, sorts, scalar
    ``int()`` round-trips — mirrors what the vectorized engine core
    actually spends time on, so the ratio raw/calibration cancels the
    host's speed on exactly that kind of work.  DO NOT change this
    function: committed artifacts are only comparable while every run
    calibrates with the same workload.
    """
    ops = 400
    best = float("inf")
    for _ in range(rounds):
        arange = np.arange(4096, dtype=np.int64)
        buffer = np.zeros(_N_PAGES, dtype=np.int64)
        accumulator = 0
        start = time.perf_counter()
        for i in range(ops):
            shifted = (arange + i) % _N_PAGES
            window = shifted[:128]
            buffer[window] += 1
            np.sort(window)
            accumulator += int(window.min()) + int(buffer.max())
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    assert accumulator != 0  # keep the loop un-elidable
    return ops / best


def measure_scenario(
    scheme_name: str,
    scheme_kwargs: dict,
    writes: int,
    rounds: int = _ROUNDS,
    attack_name: str = _ATTACK,
) -> float:
    """Best-of-``rounds`` batched demand writes/second for one scenario."""
    best = 0.0
    for _ in range(rounds):
        array = PCMArray.uniform(_N_PAGES, 10**9)
        scheme = make_scheme(scheme_name, array, seed=1, **scheme_kwargs)
        attack = make_attack(attack_name, scheme.logical_pages, seed=1)
        engine = SimulationEngine(
            scheme, AttackDriver(attack), batch_size=_BATCH_SIZE
        )
        start = time.perf_counter()
        served = engine.drive(writes)
        elapsed = time.perf_counter() - start
        if served != writes:
            raise RuntimeError(
                f"{scheme_name}: served {served} of {writes} writes"
            )
        best = max(best, served / elapsed)
    return best


def measure_stream_scenario(
    scheme_name: str, scheme_kwargs: dict, writes: int, rounds: int = _ROUNDS
) -> float:
    """Best-of-``rounds`` streamed demand writes/second for one scenario."""
    best = 0.0
    for _ in range(rounds):
        array = PCMArray.uniform(_N_PAGES, 10**9)
        scheme = make_scheme(scheme_name, array, seed=1, **scheme_kwargs)
        stream = FTLWorkloadStream(
            scheme.logical_pages, seed=1, chunk_size=_STREAM_CHUNK
        )
        engine = SimulationEngine(
            scheme, StreamDriver(stream, scheme.logical_pages), batch_size=_BATCH_SIZE
        )
        start = time.perf_counter()
        served = engine.drive(writes)
        elapsed = time.perf_counter() - start
        if served != writes:
            raise RuntimeError(
                f"{scheme_name} (streamed): served {served} of {writes} writes"
            )
        best = max(best, served / elapsed)
    return best


def measure_snapshot_scenario(
    writes: int, baseline_wps: float, rounds: int = _ROUNDS
) -> dict:
    """Streamed ``twl`` throughput with snapshot emission armed.

    Returns the scenario entry: with-snapshot throughput (``batched_wps``
    filled in by the caller's normalization), the best-of-``rounds``
    per-emission cost, and the amortized overhead fraction the default
    cadence implies against ``baseline_wps`` (the no-snapshot
    ``twl_ftl_stream`` number from the same run).
    """

    def build(tmp: str) -> SimulationEngine:
        array = PCMArray.uniform(_N_PAGES, 10**9)
        scheme = make_scheme("twl", array, seed=1)
        stream = FTLWorkloadStream(
            scheme.logical_pages, seed=1, chunk_size=_STREAM_CHUNK
        )
        plan = SnapshotPlan(
            path=os.path.join(tmp, "bench.snap"),
            every=_SNAPSHOT_EVERY,
            resume=False,
        )
        return SimulationEngine(
            scheme,
            StreamDriver(stream, scheme.logical_pages),
            batch_size=_BATCH_SIZE,
            snapshots=plan,
        )

    best = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            engine = build(tmp)
            start = time.perf_counter()
            served = engine.drive(writes)
            elapsed = time.perf_counter() - start
            if served != writes:
                raise RuntimeError(
                    f"twl (snapshotted): served {served} of {writes} writes"
                )
            best = max(best, served / elapsed)
        # Per-emission cost, timed directly (min over several emissions:
        # robust to one slow fsync) so the cadence guard does not depend
        # on subtracting two noisy throughput measurements.
        engine = build(tmp)
        engine.drive(min(writes, _SNAPSHOT_EVERY // 10))
        cost = float("inf")
        for _ in range(_SNAPSHOT_COST_ROUNDS):
            start = time.perf_counter()
            engine.emit_snapshot()
            cost = min(cost, time.perf_counter() - start)
    overhead = cost * baseline_wps / _SNAPSHOT_EVERY
    return {
        "batched_wps": round(best, 1),
        "snapshot_ms": round(cost * 1e3, 3),
        "snapshot_every": _SNAPSHOT_EVERY,
        "overhead_at_cadence": round(overhead, 5),
    }


def collect(writes: int, tag: str) -> dict:
    """Run calibration plus every scenario; return the artifact dict."""
    calibration = calibrate()
    scenarios = {}
    for label, scheme_name, kwargs in SCENARIOS:
        wps = measure_scenario(scheme_name, kwargs, writes)
        scenarios[label] = {
            "batched_wps": round(wps, 1),
            "normalized": round(wps / calibration, 3),
        }
    for label, scheme_name, kwargs, attack_name in ADAPTIVE_SCENARIOS:
        wps = measure_scenario(scheme_name, kwargs, writes, attack_name=attack_name)
        scenarios[label] = {
            "batched_wps": round(wps, 1),
            "normalized": round(wps / calibration, 3),
        }
    for label, scheme_name, kwargs in STREAM_SCENARIOS:
        wps = measure_stream_scenario(scheme_name, kwargs, writes)
        scenarios[label] = {
            "batched_wps": round(wps, 1),
            "normalized": round(wps / calibration, 3),
        }
    snapshot = measure_snapshot_scenario(
        writes, scenarios["twl_ftl_stream"]["batched_wps"]
    )
    snapshot["normalized"] = round(snapshot["batched_wps"] / calibration, 3)
    scenarios["stream_snapshot"] = snapshot
    return {
        "schema": SCHEMA,
        "tag": tag,
        "writes": writes,
        "batch_size": _BATCH_SIZE,
        "n_pages": _N_PAGES,
        "attack": _ATTACK,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(calibration, 1),
        "scenarios": scenarios,
    }


def load_artifacts() -> list:
    """Every committed ``BENCH_*.json`` with a matching schema."""
    artifacts = []
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if data.get("schema") == SCHEMA and "scenarios" in data:
            data["_path"] = path.name
            artifacts.append(data)
    return artifacts


def check_regression(
    current: dict, artifacts: list, tolerance: float, key: str = "scenarios"
) -> list:
    """Compare normalized throughput against the best prior artifact.

    ``key`` selects which committed section to gate against
    (``scenarios`` for full runs, ``smoke_scenarios`` for smoke runs —
    the two write counts are not comparable).  Returns a list of
    human-readable failure strings (empty = pass).  A scenario present
    in a prior artifact but missing from the current run is also a
    failure: silently dropping a scenario must not make the gate
    greener.
    """
    failures = []
    best_prior: dict = {}
    for artifact in artifacts:
        for name, entry in artifact.get(key, {}).items():
            value = float(entry["normalized"])
            if name not in best_prior or value > best_prior[name][0]:
                best_prior[name] = (value, artifact.get("_path", "?"))
    for name, (prior, source) in sorted(best_prior.items()):
        entry = current["scenarios"].get(name)
        if entry is None:
            failures.append(f"{name}: scenario missing from current run")
            continue
        now = float(entry["normalized"])
        floor = prior * (1.0 - tolerance)
        if now < floor:
            failures.append(
                f"{name}: normalized {now:.3f} < floor {floor:.3f} "
                f"(best prior {prior:.3f} from {source}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"quick CI mode: {_SMOKE_WRITES} writes instead of {_WRITES}",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on regression vs the best committed BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop below the best prior normalized value",
    )
    parser.add_argument(
        "--tag", default="local", help="tag recorded in the artifact"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the artifact JSON here (otherwise print to stdout)",
    )
    args = parser.parse_args(argv)

    writes = _SMOKE_WRITES if args.smoke else _WRITES
    current = collect(writes, args.tag)
    if not args.smoke:
        current["baseline"] = BASELINE_PR2
        current["speedup_vs_baseline"] = {
            name: round(
                current["scenarios"][name]["batched_wps"] / float(raw), 2
            )
            for name, raw in BASELINE_PR2["scenarios"].items()
            if name in current["scenarios"]
        }
        # Committed full artifacts also carry the smoke reference CI
        # gates against (smoke and full write counts aren't comparable).
        smoke = collect(_SMOKE_WRITES, args.tag)
        current["smoke_writes"] = smoke["writes"]
        current["smoke_scenarios"] = smoke["scenarios"]
    rendered = json.dumps(current, indent=2, sort_keys=False)
    if args.output is not None:
        args.output.write_text(rendered + "\n")
        print(f"wrote {args.output}")
    print(rendered)

    # Within-run cadence guard, independent of committed artifacts (so
    # artifacts recorded before the scenario existed never gate it):
    # amortized snapshot cost at the default cadence must stay small
    # enough that leaving --snapshot-every on costs no meaningful
    # throughput (docs/robustness.md).
    snapshot = current["scenarios"]["stream_snapshot"]
    overhead = float(snapshot["overhead_at_cadence"])
    print(
        f"\nsnapshot cadence overhead: {overhead:.2%} at "
        f"every={snapshot['snapshot_every']} demands "
        f"({snapshot['snapshot_ms']} ms/emission; "
        f"limit {_SNAPSHOT_OVERHEAD_LIMIT:.0%})"
    )
    if overhead > _SNAPSHOT_OVERHEAD_LIMIT:
        print("SNAPSHOT CADENCE REGRESSION: overhead above limit")
        return 1

    if args.check:
        artifacts = load_artifacts()
        if not artifacts:
            print("no committed BENCH_*.json artifacts found; nothing to check")
            return 0
        key = "smoke_scenarios" if args.smoke else "scenarios"
        failures = check_regression(current, artifacts, args.tolerance, key)
        if failures:
            print("\nBENCHMARK REGRESSION:")
            for line in failures:
                print(f"  {line}")
            return 1
        print("\nno benchmark regression vs committed artifacts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
