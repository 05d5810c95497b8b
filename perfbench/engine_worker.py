"""One engine workload in its own process (started by ``run.py``).

Prints one JSON line on stdout.  ``ready`` is the ``time.monotonic()``
instant the first cell is about to start (the parent, which stamped
the same clock before starting this process, turns it into
``setup_s``).  With ``--setup-only`` the process stops there.

Untraced, the cell set runs again and again, each time cold (a fresh
empty cache directory), until ``--seconds`` have passed; every pass is
reported, with the host speed sampled before the first pass and after
every cell (``calibrate.py``).  Traced, it runs the cells once traced, which fixes the exact
counts for the seed, then untraced within the time left to measure the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Calibration rounds after each cell: enough for a median, cheap next
#: to a cell.
CELL_ROUNDS = 3

#: Longest the untraced comparison of a traced run may take, so the run
#: ends well inside its budget even when the traced pass is slow.
COMPARE_S = 40.0


def run_pass(cells, reference, cache_dir: str, calibrator: Optional[Calibrator] = None) -> dict:
    """Run every cell once, cold, through the executor the CLI uses.

    With ``calibrator`` given, the host speed is sampled after every
    cell, from the executor's progress hook (where the CLI prints its
    progress line); the time that takes is left out of ``wall_s``.
    """
    from repro.exec import CellCache, execute_cells

    paused = 0.0

    def sample_between_cells(line: str) -> None:
        nonlocal paused
        start = time.perf_counter()
        calibrator.sample(CELL_ROUNDS)
        paused += time.perf_counter() - start

    progress = sample_between_cells if calibrator is not None else False
    os.makedirs(cache_dir)
    try:
        start = time.perf_counter()
        try:
            outcomes = execute_cells(cells, jobs=1, cache=CellCache(cache_dir), progress=progress)
        except Exception:  # noqa: BLE001 - a failed campaign is a measured outcome
            traceback.print_exc()
            outcomes = []
        wall = time.perf_counter() - start - paused
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    results = [outcome.result for outcome in outcomes]
    wrong = workloads.mismatches(cells, results, reference)
    for name in wrong:
        print(f"perfbench: {name}: result differs from the reference", file=sys.stderr)
    return {
        "wall_s": wall,
        "demand": sum(int(result.demand_writes) for result in results),
        "cell_seconds": [outcome.seconds for outcome in outcomes],
        "attempted": len(cells),
        "failed": len(wrong),
    }


def overhead_frac(cells, reference, traced: dict, cache_dir: str, deadline: float) -> tuple:
    """Traced against untraced time over the same cells, and the untraced report.

    Runs the cells again untraced, one at a time, while the cell's
    traced time still fits before ``deadline`` (``time.monotonic()``), so
    a slow host cannot push the traced run past its time limit; the
    ratio covers the cells that ran.
    """
    plain = []
    # A failed traced pass has no cell timings, and then nothing to compare.
    for index, seconds in enumerate(traced["cell_seconds"]):
        if time.monotonic() + seconds >= deadline:
            break
        plain.append(run_pass([cells[index]], reference, f"{cache_dir}{index}"))
    finished = len(plain)
    # Both sides are the executor's own per-cell timings (CellOutcome.seconds).
    untraced = sum(sum(p["cell_seconds"]) for p in plain)
    report = {
        "attempted": sum(p["attempted"] for p in plain),
        "failed": sum(p["failed"] for p in plain),
    }
    if not untraced:
        return 0, report
    return sum(traced["cell_seconds"][:finished]) / untraced - 1.0, report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.ENGINE_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="seconds a traced run may take in all")
    args = parser.parse_args()

    import repro  # noqa: F401  (part of set-up)

    cells = workloads.engine_cells(args.workload, args.seed)
    reference = workloads.load_reference(args.workload)
    ready = time.monotonic()
    report: dict = {"ready": ready}
    if not args.setup_only:
        passes = []
        if args.trace:
            deadline = time.monotonic() + args.budget
            recorder = SpanRecorder()
            layers.install(recorder)
            try:
                traced = run_pass(cells, reference, os.path.join(args.tmp, "traced"))
            finally:
                recorder.uninstall()
            print(
                f"perfbench: traced pass took {traced['wall_s']:.1f} s"
                f" of the run's {args.budget:.0f} s budget",
                file=sys.stderr,
            )
            if args.spans:
                recorder.write_jsonl(args.spans)
            metrics = layers.engine_metrics(recorder, traced["wall_s"])
            metrics["trace.overhead_frac"], plain = overhead_frac(
                cells, reference, traced, os.path.join(args.tmp, "plain"),
                min(deadline, time.monotonic() + COMPARE_S),
            )
            passes = [traced, plain]
            report["per_layer"] = metrics
        else:
            with Calibrator() as calibrator:
                calibrator.sample()
                begin = time.perf_counter()
                while not passes or time.perf_counter() - begin < args.seconds:
                    pass_dir = os.path.join(args.tmp, f"pass{len(passes)}")
                    passes.append(run_pass(cells, reference, pass_dir, calibrator))
            report["calibration_s"] = calibrator.samples
        report["passes"] = passes
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
