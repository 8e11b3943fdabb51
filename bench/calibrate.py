"""Machine-speed calibration for the benchmark's timings.

The benchmark is meant to run on shared hosts whose speed drifts: other
tenants can slow every core by half for a minute at a time, far longer than
one run, so no median within a run removes it. A fixed pure-Python reference
loop, timed just before each measured call, tracks that drift. The call's
host time is multiplied by ``NOMINAL_S`` over that reference time, which
reports it in seconds of a nominal machine on which the reference loop takes
``NOMINAL_S``. The reference times are kept in the result file.

The reference loop does what the simulator's hot paths do (a heap of frozen
dataclass events, attribute reads, dictionary updates, scans over a list of
small objects, f-string records) and nothing from ``autopark``, so a change
to the package cannot move it. Never edit it: that would rescale every
timing the benchmark has recorded.
"""

from __future__ import annotations

import heapq
import statistics
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.025  # reference loop time on the nominal machine
SPACING_S = 0.2  # least host time between two reference runs


@dataclass(frozen=True)
class _Event:
    at: int
    seq: int
    kind: str

    def __lt__(self, other: "_Event") -> bool:
        return (self.at, self.seq) < (other.at, other.seq)


class _Cell:
    __slots__ = ("state", "owner")

    def __init__(self) -> None:
        self.state = "vacant"
        self.owner: int | None = None


def reference_work() -> int:
    heap: list[_Event] = []
    trace: list[str] = []
    cells = [_Cell() for _ in range(48)]
    owners: dict[int, _Cell] = {}
    busy = 0
    for i in range(5000):
        heapq.heappush(heap, _Event((i * 7919) % 10007, i, "arrival" if i % 3 else "done"))
        if len(heap) <= 40:
            continue
        event = heapq.heappop(heap)
        trace.append(f"t={event.at} seq={event.seq} kind={event.kind}")
        cell = cells[event.seq % len(cells)]
        if event.kind == "arrival" and cell.state == "vacant":
            cell.state, cell.owner = "occupied", event.seq
            owners[event.seq] = cell
        elif cell.owner is not None:
            del owners[cell.owner]
            cell.state, cell.owner = "vacant", None
        busy = sum(1 for c in cells if c.state != "vacant")
    return busy + len(trace)


class Calibrator:
    """Reference-loop timings taken between measured calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def run(self) -> None:
        start = perf_counter()
        reference_work()
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        """Host-to-nominal scale for the call about to be timed.

        Taken from the latest reference run, which is repeated first when
        SPACING_S has passed since it: speed drifts within seconds, so the
        run nearest the call tracks it best.
        """
        if perf_counter() - self._last >= SPACING_S:
            self.run()
        return NOMINAL_S / self.samples[-1]

    def median_scale(self) -> float:
        return NOMINAL_S / statistics.median(self.samples)
