"""Wear-evolution timelines.

Records wear-distribution snapshots while a workload drives a scheme,
so the *dynamics* of leveling become visible: how fast the wear Gini
falls (or fails to), when utilization diverges between schemes, how the
maximum wear fraction races toward 1.0 under an attack.  Used by the
``wear_timeline`` example and available to downstream analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..engine import SimulationEngine
from ..errors import SimulationError
from ..pcm.stats import WearStatistics
from ..sim.drivers import WorkloadDriver
from ..wearlevel.base import WearLeveler


@dataclass(frozen=True)
class TimelinePoint:
    """One snapshot along a run."""

    demand_writes: int
    stats: WearStatistics


class WearTimeline:
    """Drives a workload in slices, snapshotting wear after each slice."""

    def __init__(self, scheme: WearLeveler, driver: WorkloadDriver):
        self.scheme = scheme
        self.driver = driver
        self._engine = SimulationEngine(scheme, driver)
        self.points: List[TimelinePoint] = []
        self._demand_total = 0

    def run(self, total_demand: int, snapshots: int = 20) -> List[TimelinePoint]:
        """Drive ``total_demand`` writes, taking ``snapshots`` snapshots.

        Stops early (with a final snapshot) if the array fails.
        """
        if total_demand < 1:
            raise SimulationError("need at least one demand write")
        if snapshots < 1:
            raise SimulationError("need at least one snapshot")
        slice_demand = max(1, total_demand // snapshots)
        remaining = total_demand
        while remaining > 0 and not self.scheme.array.failed:
            served = self._engine.drive(min(slice_demand, remaining))
            if served == 0:
                break
            remaining -= served
            self._demand_total += served
            self.points.append(
                TimelinePoint(
                    demand_writes=self._demand_total,
                    stats=WearStatistics.from_array(self.scheme.array),
                )
            )
        return self.points

    def series(self, field: str) -> List[float]:
        """Extract one statistic across all snapshots.

        >>> # fields match WearStatistics attributes, e.g. "wear_gini".
        """
        if not self.points:
            return []
        if not hasattr(self.points[0].stats, field):
            raise SimulationError(f"unknown wear statistic {field!r}")
        return [float(getattr(point.stats, field)) for point in self.points]

    def demand_axis(self) -> List[int]:
        """Demand-write coordinates of the snapshots."""
        return [point.demand_writes for point in self.points]
