"""The functions a traced run wraps, and the per-layer metrics it reports.

Every wrapper is installed from here, around public functions of one
layer each, and removed by :meth:`spans.SpanRecorder.uninstall`:

====================  ==================================================
layer                 wrapped (span name)
====================  ==================================================
``repro.engine``      ``SimulationEngine.run`` (``engine.run``)
``repro.sim.drivers`` ``drive`` / ``next_batch`` / ``observe_batch``
``repro.attacks``     ``next_write`` / ``next_writes`` / ``observe_response``
``repro.wearlevel``,  ``write`` / ``write_batch`` per scheme class
``repro.core``        (``scheme.<name>.write``)
``repro.pcm``         ``PCMArray.apply_batch``
``repro.traces``      ``TraceStream.next_chunk``
``repro.sim.runner``  ``build_array`` / ``make_scheme`` / ``make_attack``
                      / ``make_stream`` (``sim.*``)
``repro.exec``        ``run_cell``, ``cell_fingerprint``,
                      ``CellCache.get`` / ``CellCache.put``
====================  ==================================================

``repro.serve`` is measured from the client (``servemix.py``).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Tuple

from spans import SpanRecorder

#: Registry names of the scheme classes the workloads run.
SCHEME_LABELS = {
    "BloomWearLeveling": "bwl",
    "SecurityRefresh": "sr",
    "TossUpWearLeveling": "twl",
    "NoWearLeveling": "nowl",
}
PER_SCHEME = ("bwl", "sr", "twl", "nowl")

#: The stats-op counters reported as ``serve.<name>``.
SERVE_COUNTERS = (
    "submitted",
    "completed",
    "journal_hits",
    "cache_hits",
    "coalesced",
    "rejected_overloaded",
    "failed",
    "pool_rebuilds",
)

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("engine.steps", "count"),
    ("engine.demand_per_step", "writes/step"),
    ("engine.self_s", "s"),
    ("driver.drive.self_s", "s"),
    ("driver.next_batch.self_s", "s"),
    ("driver.observe_batch.self_s", "s"),
    ("attack.next_write_s", "s"),
    ("attack.next_write.calls", "count"),
    ("attack.next_writes_s", "s"),
    ("attack.next_writes.calls", "count"),
    ("attack.observe_response_s", "s"),
    ("attack.observe_response.calls", "count"),
    ("scheme.write.self_s", "s"),
    ("scheme.write.calls", "count"),
    ("scheme.write_batch.self_s", "s"),
    ("scheme.write_batch.calls", "count"),
    *[(f"scheme.{label}.write_batch.self_s", "s") for label in PER_SCHEME],
    ("pcm.apply_batch_s", "s"),
    ("pcm.apply_batch.calls", "count"),
    ("pcm.writes_per_apply", "writes/call"),
    ("traces.next_chunk_s", "s"),
    ("traces.next_chunk.calls", "count"),
    ("sim.build_s", "s"),
    ("exec.run_cell_s", "s"),
    ("exec.overhead_s", "s"),
    ("exec.fingerprint_us", "us"),
    ("exec.fingerprint.calls", "count"),
    ("exec.cache_get_s", "s"),
    ("exec.cache_put_s", "s"),
    ("serve.submit_miss_ms", "ms"),
    ("serve.submit_hit_ms", "ms"),
    ("serve.ping_ms", "ms"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
    *[(f"serve.{name}", "count") for name in SERVE_COUNTERS],
    ("serve.hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def _classes(base: type) -> Iterator[type]:
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())


def _patch_methods(recorder: SpanRecorder, base: type, attrs, span_for) -> None:
    """Wrap ``attrs`` on ``base`` and every subclass that defines them.

    ``span_for(attr)`` gives the span name, or a class -> name callable.
    """
    for cls in _classes(base):
        for attr in attrs:
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            recorder.patch(cls, attr, recorder.wrap(fn, span_for(attr), method=True))


def _patch_function(recorder: SpanRecorder, module, attr: str, name: str, **options) -> None:
    """Wrap ``module.attr`` in every ``repro`` module that binds it."""
    original = getattr(module, attr)
    wrapper = recorder.wrap(original, name, detail=True, **options)
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if mod.__dict__.get(attr) is original:
            recorder.patch(mod, attr, wrapper)


def _scheme_span(attr: str):
    def name(cls: type) -> str:
        return f"scheme.{SCHEME_LABELS.get(cls.__name__, cls.__name__)}.{attr}"

    return name


def _count_engine(recorder: SpanRecorder, args: tuple, outcome) -> None:
    recorder.count("engine.steps", outcome.batches)
    recorder.count("engine.demand", outcome.demand_writes)


def _count_applied(recorder: SpanRecorder, args: tuple, result) -> None:
    recorder.count("pcm.apply_batch.writes", len(args[1]))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public functions (see the module table)."""
    import repro.attacks.registry  # noqa: F401  (registers every attack class)
    import repro.core.twl  # noqa: F401  (defines the TWL scheme class)
    import repro.exec.executor  # noqa: F401
    import repro.serve.server  # noqa: F401  (binds cell_fingerprint too)
    import repro.traces.io  # noqa: F401  (defines every stream class)
    from repro.attacks.base import AttackWorkload
    from repro.engine.core import SimulationEngine
    from repro.exec import cache, cells, hashing
    from repro.pcm.array import PCMArray
    from repro.sim import runner
    from repro.sim.drivers import WorkloadDriver
    from repro.traces import registry as traces_registry
    from repro.traces.stream import TraceStream
    from repro.wearlevel.base import WearLeveler

    engine_run = SimulationEngine.__dict__["run"]
    recorder.patch(
        SimulationEngine,
        "run",
        recorder.wrap(engine_run, "engine.run", detail=True, method=True, after=_count_engine),
    )
    _patch_methods(
        recorder, WorkloadDriver, ("drive", "next_batch", "observe_batch"),
        lambda attr: f"driver.{attr}",
    )
    _patch_methods(
        recorder, AttackWorkload, ("next_write", "next_writes", "observe_response"),
        lambda attr: f"attack.{attr}",
    )
    _patch_methods(recorder, WearLeveler, ("write", "write_batch"), _scheme_span)
    recorder.patch(
        PCMArray,
        "apply_batch",
        recorder.wrap(
            PCMArray.__dict__["apply_batch"], "pcm.apply_batch", method=True,
            after=_count_applied,
        ),
    )
    _patch_methods(recorder, TraceStream, ("next_chunk",), lambda attr: "traces.next_chunk")
    _patch_function(recorder, runner, "build_array", "sim.build_array")
    _patch_function(recorder, runner, "make_scheme", "sim.make_scheme")
    _patch_function(recorder, runner, "make_attack", "sim.make_attack")
    _patch_function(recorder, traces_registry, "make_stream", "sim.make_stream")
    fingerprint = hashing.cell_fingerprint
    _patch_function(
        recorder, cells, "run_cell", "exec.run_cell", key=lambda args: fingerprint(args[0])
    )
    _patch_function(recorder, hashing, "cell_fingerprint", "exec.fingerprint")
    for attr in ("get", "put"):
        recorder.patch(
            cache.CellCache,
            attr,
            recorder.wrap(
                cache.CellCache.__dict__[attr], f"exec.cache_{attr}", detail=True, method=True,
                key=lambda args: fingerprint(args[1]),
            ),
        )


def _sum(totals, prefix: str, suffix: str, field: int) -> float:
    return sum(
        entry[field] for name, entry in totals.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def zero_metrics() -> Dict[str, float]:
    return {name: 0 for name, _ in PER_LAYER}


def engine_metrics(recorder: SpanRecorder, traced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced engine pass (``trace.overhead_frac`` aside)."""
    totals = recorder.totals()
    counters = recorder.counters()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    metrics = zero_metrics()
    steps = counters.get("engine.steps", 0)
    applies = calls("pcm.apply_batch")
    metrics.update({
        "engine.steps": steps,
        "engine.demand_per_step": counters.get("engine.demand", 0) / steps if steps else 0,
        "engine.self_s": own("engine.run"),
        "driver.drive.self_s": own("driver.drive"),
        "driver.next_batch.self_s": own("driver.next_batch"),
        "driver.observe_batch.self_s": own("driver.observe_batch"),
        "scheme.write.self_s": _sum(totals, "scheme.", ".write", 2),
        "scheme.write.calls": int(_sum(totals, "scheme.", ".write", 0)),
        "scheme.write_batch.self_s": _sum(totals, "scheme.", ".write_batch", 2),
        "scheme.write_batch.calls": int(_sum(totals, "scheme.", ".write_batch", 0)),
        "pcm.apply_batch_s": total("pcm.apply_batch"),
        "pcm.apply_batch.calls": applies,
        "pcm.writes_per_apply": (
            counters.get("pcm.apply_batch.writes", 0) / applies if applies else 0
        ),
        "traces.next_chunk_s": total("traces.next_chunk"),
        "traces.next_chunk.calls": calls("traces.next_chunk"),
        "sim.build_s": sum(
            total(f"sim.{fn}")
            for fn in ("build_array", "make_scheme", "make_attack", "make_stream")
        ),
        "exec.run_cell_s": total("exec.run_cell"),
        "exec.overhead_s": traced_wall - total("exec.run_cell"),
    })
    for attr in ("next_write", "next_writes", "observe_response"):
        metrics[f"attack.{attr}_s"] = total(f"attack.{attr}")
        metrics[f"attack.{attr}.calls"] = calls(f"attack.{attr}")
    for label in PER_SCHEME:
        metrics[f"scheme.{label}.write_batch.self_s"] = own(f"scheme.{label}.write_batch")
    metrics.update(exec_metrics(totals))
    return metrics


def exec_metrics(totals) -> Dict[str, float]:
    """``exec.*`` fingerprint and cache metrics from span totals."""
    empty = (0, 0.0, 0.0)
    fingerprint = totals.get("exec.fingerprint", empty)
    return {
        "exec.fingerprint_us": fingerprint[1] * 1e6,
        "exec.fingerprint.calls": fingerprint[0],
        "exec.cache_get_s": totals.get("exec.cache_get", empty)[1],
        "exec.cache_put_s": totals.get("exec.cache_put", empty)[1],
    }


def overhead_frac(traced_wall: float, plain_wall: float) -> float:
    return traced_wall / plain_wall - 1.0 if plain_wall else 0
