"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import engine_worker  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
import servemix  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _tiny_cells():
    from repro.exec import attack_cell

    scaled = servemix.small_scale()
    return [
        attack_cell("twl", "inconsistent", scaled=scaled, seed=5),
        replace(attack_cell("sr", "scan", scaled=scaled, seed=5), batch_size=64),
    ]


def _run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# span recorder


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return "inner"

        def outer(self):
            return self.inner() + self.inner()

    recorder.patch(Layer, "inner", recorder.wrap(Layer.__dict__["inner"], "inner", method=True))
    recorder.patch(
        Layer, "outer", recorder.wrap(Layer.__dict__["outer"], "outer", method=True, detail=True)
    )
    try:
        assert Layer().outer() == "innerinner"
    finally:
        recorder.uninstall()
    totals = recorder.totals()
    # outer: ticks 0..5; inner: 1..2 and 3..4.
    assert totals["outer"] == (1, 5.0, 3.0)
    assert totals["inner"] == (2, 2.0, 2.0)
    (span,) = recorder.spans
    assert span[1] == "outer" and span[4] is None


def test_super_chain_joins_the_outer_span():
    recorder = SpanRecorder()

    class Base:
        def write(self):
            return 1

    class Child(Base):
        def write(self):
            return super().write() + 1

    for cls in (Base, Child):
        recorder.patch(cls, "write", recorder.wrap(cls.__dict__["write"], "w", method=True))
    try:
        assert Child().write() == 2
    finally:
        recorder.uninstall()
    assert recorder.totals()["w"][0] == 1


def test_uninstall_restores_every_patched_function(tmp_path):
    recorder = SpanRecorder()
    layers.install(recorder)
    patches = recorder.patches
    try:
        assert len(patches) > 20
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
    finally:
        recorder.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
    assert recorder.patches == []
    recorder.write_jsonl(str(tmp_path / "spans.jsonl"))


def test_tracing_leaves_results_unchanged(tmp_path):
    cells = _tiny_cells()
    reference = {
        workloads.label(c): d
        for c, d in zip(cells, map(workloads.result_digest, _run(cells)))
    }
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        traced = engine_worker.run_pass(cells, reference, str(tmp_path / "cache"))
    finally:
        recorder.uninstall()
    assert traced["failed"] == 0
    metrics = layers.engine_metrics(recorder, traced["wall_s"])
    assert metrics["engine.steps"] > 0
    assert metrics["attack.observe_response.calls"] > 0
    assert metrics["scheme.write_batch.calls"] > 0
    assert metrics["exec.fingerprint.calls"] == 3 * len(cells)
    lines = (tmp_path / "spans.jsonl")
    recorder.write_jsonl(str(lines))
    records = [json.loads(line) for line in lines.read_text().splitlines()]
    keyed = [r for r in records if r["name"] == "exec.run_cell"]
    assert len(keyed) == len(cells) and all(r["key"] for r in keyed)


def _run(cells):
    from repro.exec import run_cells

    return run_cells(cells)


# ----------------------------------------------------------------------
# output checks


def test_wrong_result_counts_as_failed(tmp_path):
    cells = _tiny_cells()
    reference = {
        workloads.label(c): d
        for c, d in zip(cells, map(workloads.result_digest, _run(cells)))
    }
    good = engine_worker.run_pass(cells, reference, str(tmp_path / "a"))
    assert (good["attempted"], good["failed"]) == (2, 0)
    reference[workloads.label(cells[0])] = "0" * 64
    bad = engine_worker.run_pass(cells, reference, str(tmp_path / "b"))
    assert (bad["attempted"], bad["failed"]) == (2, 1)


def test_wrong_served_result_counts_as_failed():
    from repro.exec import cell_fingerprint, encode_result

    cells = _tiny_cells()[:1]
    kind, payload = encode_result(_run(cells)[0])
    answer = json.loads(json.dumps({"kind": kind, "payload": payload}))
    fingerprint = cell_fingerprint(cells[0])
    session = servemix.Session(
        wall_s=1.0, latencies={}, completed={fingerprint: answer}, demand=0, attempted=1, ok=1,
        failed=0, stats={}, pings_ms=[], peak_rss_mb=1.0, calibration_s=[],
    )
    assert servemix._verify([session], cells) == 0
    wrong = json.loads(json.dumps(answer))
    wrong["payload"]["demand_writes"] += 1
    session.completed[fingerprint] = wrong
    assert servemix._verify([session], cells) == 1


def test_references_cover_every_cell():
    for workload in workloads.ENGINE_WORKLOADS:
        reference = workloads.load_reference(workload)
        labels = sorted(workloads.label(c) for c in workloads.cli_cells(workload))
        assert sorted(reference) == labels


def test_fig6_workloads_differ_only_in_batch_size():
    quick = workloads.engine_cells("fig6_quick", 3)
    batched = workloads.engine_cells("fig6_batched", 3)
    assert [replace(c, batch_size=1) for c in batched] == quick
    assert {c.batch_size for c in batched} == {workloads.BATCH_SIZE}
    assert {c.seed for c in quick} == {2017}


def test_seed_orders_the_cli_cells():
    cli = workloads.cli_cells("fig6_quick")
    orders = [workloads.engine_cells("fig6_quick", seed) for seed in (0, 1)]
    assert orders[0] == workloads.engine_cells("fig6_quick", 0)
    assert orders[0] != orders[1]
    for order in orders:
        assert sorted(map(workloads.label, order)) == sorted(map(workloads.label, cli))


# ----------------------------------------------------------------------
# serve plan


def test_serve_plan_is_seeded_and_mixed():
    plan = servemix.plan_requests(7, 200)
    again = servemix.plan_requests(7, 200)
    from repro.exec import cell_fingerprint

    def shape(plans):
        return [[(r.kind, cell_fingerprint(r.cell), r.after) for r in p] for p in plans]

    assert shape(plan) == shape(again)
    kinds = [r.kind for p in plan for r in p]
    share = {kind: kinds.count(kind) / len(kinds) for kind in ("miss", "journal", "cache")}
    assert 0.1 < share["miss"] < 0.25 and share["journal"] > 0.6 and share["cache"] > 0.1
    for client, requests in enumerate(plan):
        submitted = set()
        for index, request in enumerate(requests):
            fingerprint = cell_fingerprint(request.cell)
            if request.kind == "miss":
                assert fingerprint not in submitted
            elif request.kind == "journal":
                assert fingerprint in submitted
            else:
                other, j = request.after
                assert other != client and j <= index - servemix.LAG
                assert plan[other][j].kind == "miss" and plan[other][j].cell is request.cell
                assert fingerprint not in submitted
            submitted.add(fingerprint)


# ----------------------------------------------------------------------
# the contract, end to end


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "stream_ftl", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


EXACT = ("engine.steps", "exec.fingerprint.calls", "pcm.apply_batch.calls")


def _exact_counts(metrics):
    return {
        name: entry["value"] for name, entry in metrics.items()
        if name in EXACT or name.endswith(".calls") or (
            name.startswith("serve.") and entry["unit"] == "count"
        )
    }


@pytest.mark.parametrize("workload,seconds", [("stream_ftl", "1"), ("serve_mix", "0.5")])
def test_traced_runs_repeat_exact_counts(workload, seconds):
    counts = []
    for _ in range(2):
        proc = _run_bench("--workload", workload, "--seed", "4", "--seconds", seconds,
                          "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert [name for name in result["metrics"]] == [name for name, _ in layers.PER_LAYER]
        counts.append(_exact_counts(result["metrics"]))
    assert counts[0] == counts[1]
    assert any(value > 0 for value in counts[0].values())
