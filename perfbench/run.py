"""The repository benchmark: one workload, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6_quick --seed 0 --seconds 6 --trace 0

Workloads: ``fig6_quick``, ``fig6_batched``, ``stream_ftl`` (engine
workloads, each in its own process) and ``serve_mix`` (a real
``twl-repro serve`` process driven from this one).  See README.md for
what each measures and why it exists.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1`` (spans are written to
``.perfbench_out/``).  A wrong result makes ``correct`` false and the
exit code 1.  Everything the run writes stays inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import servemix  # noqa: E402
import workloads  # noqa: E402
from calibrate import speed_factor  # noqa: E402

WORKLOADS = workloads.ENGINE_WORKLOADS + ("serve_mix",)
#: Units of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "demand_wps": "1/s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
}
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0


def _worker(args, tmp: str, extra: List[str], deadline: float) -> Dict[str, Any]:
    """Start one engine worker, wait for it, return its report plus ``setup_s``."""
    command = [
        sys.executable, os.path.join(HERE, "engine_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp, *extra,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    started = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"{args.workload} worker ran past the run budget")
    if process.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with {process.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def run_engine(args, tmp: str, spans: str, deadline: float) -> Dict[str, Any]:
    if args.trace:
        # Leave the untraced overhead pass what the run budget allows.
        budget = str(deadline - time.monotonic() - 15.0)
        report = _worker(
            args, os.path.join(tmp, "traced"), ["--spans", spans, "--budget", budget], deadline
        )
        passes = report["passes"]
        return {
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "per_layer": report["per_layer"],
        }
    setups = [
        _worker(args, os.path.join(tmp, f"setup{i}"), ["--setup-only"], deadline)["setup_s"]
        for i in range(workloads.SETUP_SAMPLES - 1)
    ]
    report = _worker(args, os.path.join(tmp, "main"), [], deadline)
    setups.append(report["setup_s"])
    passes = report["passes"]
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "speed_factor": speed_factor(report["calibration_s"]),
        "measured": {
            "setups": setups,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "demand_wps": statistics.median(p["demand"] / p["wall_s"] for p in passes),
            "peak_rss_mb": report["peak_rss_mb"],
            "requests": passes[0]["attempted"],
        },
    }


def end_to_end(measured: Dict[str, Any], factor: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Times are multiplied, and rates divided, by the host speed
    ``factor`` (``calibrate.py``).
    """
    raw = {
        "setup_s": statistics.median(measured["setups"]),
        "wall_s": measured["wall_s"],
        "demand_wps": measured["demand_wps"],
        "peak_rss_mb": measured["peak_rss_mb"],
        "req_per_s": measured["requests"] / measured["wall_s"],
    }
    print(f"perfbench: measured {json.dumps(raw)}; speed factor {factor:.4f}", file=sys.stderr)
    scaled = {name: value * factor for name, value in raw.items() if name.endswith("_s")}
    scaled.update({name: raw[name] / factor for name in ("demand_wps", "req_per_s")})
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    return scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.chdir(ROOT)
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    os.makedirs(tmp)
    try:
        if args.workload == "serve_mix":
            outcome = servemix.run(
                ROOT, tmp, args.seed, args.seconds, spans if args.trace else None
            )
        else:
            outcome = run_engine(args, tmp, spans, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is still using it
    if args.trace:
        metrics = {
            name: {"value": outcome["per_layer"][name], "unit": unit}
            for name, unit in layers.PER_LAYER
        }
        print(f"perfbench: spans written to {spans}", file=sys.stderr)
    else:
        values = end_to_end(outcome["measured"], outcome["speed_factor"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
