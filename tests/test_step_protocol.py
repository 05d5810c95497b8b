"""The engine's one step protocol and its batched default.

Every run steps ``next_batch`` → ``write_batch`` → ``observe_batch``.
``batch_size=1`` is the per-write reference the identity suite compares
every other batch size against, so a one-address step must go through
the scalar oracle (the base-class ``WearLeveler.write_batch`` loop over
``write()``), never through a scheme's vectorized override.  Every other
entry point defaults to :data:`repro.engine.DEFAULT_BATCH_SIZE`.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.attacks.registry import make_attack
from repro.cli import build_parser
from repro.engine import DEFAULT_BATCH_SIZE, SimulationEngine
from repro.exec import ExperimentCell
from repro.experiments.setups import ExperimentSetup
from repro.pcm.array import PCMArray
from repro.sim import (
    measure_attack_lifetime,
    measure_scheme_overheads,
    measure_stream_lifetime,
    measure_trace_lifetime,
    run_to_failure,
)
from repro.sim.drivers import AttackDriver, WorkloadDriver
from repro.wearlevel.base import WearLeveler
from repro.wearlevel.registry import make_scheme, scheme_names


def _default(function, name="batch_size"):
    return inspect.signature(function).parameters[name].default


def _field_default(cls, name="batch_size"):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def test_every_default_is_the_engine_default():
    defaults = {
        "SimulationEngine": _default(SimulationEngine.__init__),
        "run_to_failure": _default(run_to_failure),
        "measure_attack_lifetime": _default(measure_attack_lifetime),
        "measure_trace_lifetime": _default(measure_trace_lifetime),
        "measure_stream_lifetime": _default(measure_stream_lifetime),
        "measure_scheme_overheads": _default(measure_scheme_overheads),
        "ExperimentCell": _field_default(ExperimentCell),
        "ExperimentSetup": _field_default(ExperimentSetup),
        "cli --batch-size": build_parser().get_default("batch_size"),
    }
    assert defaults == dict.fromkeys(defaults, DEFAULT_BATCH_SIZE)
    assert DEFAULT_BATCH_SIZE > 1


def _overriding_classes():
    """Scheme classes whose own ``write_batch`` replaces the base loop."""
    classes = set()
    for name in scheme_names():
        scheme = make_scheme(name, PCMArray.uniform(64, 10**6), seed=1)
        for cls in type(scheme).__mro__:
            if cls is WearLeveler:
                break
            if "write_batch" in cls.__dict__:
                classes.add(cls)
    return sorted(classes, key=lambda cls: cls.__qualname__)


@pytest.fixture
def override_calls(monkeypatch):
    """Record every call that reaches a scheme's overridden write_batch."""
    calls = []
    for cls in _overriding_classes():
        original = cls.__dict__["write_batch"]

        def spy(self, *args, _original=original, _cls=cls, **kwargs):
            calls.append(_cls.__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "write_batch", spy)
    return calls


@pytest.mark.parametrize("attack_name", ["scan", "inconsistent"])
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_batch_size_one_never_calls_an_override(override_calls, scheme_name, attack_name):
    def drive(batch_size):
        array = PCMArray.uniform(64, 10**6)
        scheme = make_scheme(scheme_name, array, seed=3)
        attack = make_attack(attack_name, scheme.logical_pages, seed=3)
        engine = SimulationEngine(scheme, AttackDriver(attack), batch_size=batch_size)
        assert engine.drive(600) == 600
        return array.write_counts()

    serial = drive(1)
    assert override_calls == []
    # The spy does see the batched path whenever the scheme overrides it.
    batched = drive(64)
    scheme_class = type(make_scheme(scheme_name, PCMArray.uniform(64, 10), seed=3))
    assert bool(override_calls) == (scheme_class.write_batch is not WearLeveler.write_batch)
    assert np.array_equal(serial, batched)


class _CountingDriver(WorkloadDriver):
    """Hammers page ``i % pages`` in order; implements only ``next_batch``
    (and the label every driver needs)."""

    def __init__(self, pages: int):
        self._pages = pages
        self._position = 0

    @property
    def workload_name(self) -> str:
        return "counting"

    def next_batch(self, n: int, speculative: bool = False) -> np.ndarray:
        out = (self._position + np.arange(n, dtype=np.int64)) % self._pages
        self._position += n
        return out


@pytest.mark.parametrize("batch_size", [1, 7, DEFAULT_BATCH_SIZE])
def test_next_batch_only_driver_runs_to_failure(batch_size):
    scheme = make_scheme("nowl", PCMArray.uniform(8, 100), seed=0)
    result = run_to_failure(scheme, _CountingDriver(8), batch_size=batch_size)
    assert result.failed
    assert result.workload == "counting"
    # Page 0 reaches endurance 100 on the 793rd write (8 * 99 + 1).
    assert result.demand_writes == 793
    assert result.failure.physical_page == 0
