"""Scheme overhead measurement.

The Figure-9 timing model needs each scheme's *measured* swap behaviour
on each workload (swap writes per demand write, swap events per demand
write).  This module configures a :class:`repro.engine.SimulationEngine`
with a :class:`repro.engine.SchemeOverheadsObserver` — the ad-hoc
counter plumbing that used to live here is now an observer any caller
can attach to any run.
"""

from __future__ import annotations

from ..engine import (
    DEFAULT_BATCH_SIZE,
    SchemeOverheads,
    SchemeOverheadsObserver,
    SimulationEngine,
)
from ..errors import SimulationError
from ..wearlevel.base import WearLeveler
from .drivers import WorkloadDriver

__all__ = ["SchemeOverheads", "measure_scheme_overheads"]


def measure_scheme_overheads(
    scheme: WearLeveler,
    driver: WorkloadDriver,
    n_demand_writes: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SchemeOverheads:
    """Drive ``n_demand_writes`` and report the scheme's overhead ratios."""
    if n_demand_writes < 1:
        raise ValueError("need at least one demand write")
    observer = SchemeOverheadsObserver()
    engine = SimulationEngine(
        scheme, driver, batch_size=batch_size, observers=(observer,)
    )
    engine.run(n_demand_writes)
    if engine.demand_served == 0:
        raise SimulationError("driver produced no writes")
    assert observer.overheads is not None
    return observer.overheads
