"""Deterministic discrete-event engine.

A single priority queue of events drives the whole simulation. Each event is
a (timestamp, insertion sequence, payload) tuple and is its own heap entry.
The sequence is unique, so the heap orders the tuples in C and never compares
two payloads. Dispatch order is therefore a pure function of the schedule
calls, and repeated runs of the same scenario produce byte-identical traces.
The clock only moves when an event fires; there is no wall-clock coupling
anywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .model import AutoparkError, Vehicle


class SchedulingInPastError(AutoparkError):
    """An event was scheduled before the current simulation time."""


@dataclass(frozen=True)
class Arrival:
    vehicle: Vehicle

    kind = "arrival"

    def detail(self) -> str:
        v = self.vehicle
        return f"vehicle={v.vehicle_id} length_mm={v.length_mm} phone={v.phone}"


@dataclass(frozen=True)
class InboundSms:
    phone: str
    body: str

    kind = "sms_in"

    def detail(self) -> str:
        return f"phone={self.phone} body={self.body}"


@dataclass(frozen=True)
class PaymentConfirmed:
    ticket_id: int

    kind = "payment"

    def detail(self) -> str:
        return f"ticket={self.ticket_id}"


class DeviceDone(NamedTuple):
    """A device motion has finished. One per motion, so a plain tuple; the
    scenario payloads stay dataclasses, whose equality includes their type."""

    device_id: str
    action_id: int

    kind = "device_done"

    def detail(self) -> str:
        return f"device={self.device_id} action={self.action_id}"


@dataclass(frozen=True)
class IrradianceChange:
    w_per_m2: float

    kind = "irradiance"

    def detail(self) -> str:
        return f"w_per_m2={self.w_per_m2:g}"


@dataclass(frozen=True)
class BeltFault:
    belt_id: str

    kind = "fault"

    def detail(self) -> str:
        return f"belt={self.belt_id}"


@dataclass(frozen=True)
class FaultCleared:
    kind = "fault_cleared"

    def detail(self) -> str:
        return "-"


Payload = (
    Arrival
    | InboundSms
    | PaymentConfirmed
    | DeviceDone
    | IrradianceChange
    | BeltFault
    | FaultCleared
)


class SimEvent(NamedTuple):
    at_ms: int
    seq: int
    payload: Payload

    def trace_line(self) -> str:
        return (
            f"t={self.at_ms} seq={self.seq} "
            f"kind={self.payload.kind} detail={self.payload.detail()}"
        )


class Simulation:
    """Event queue, clock, and trace for one run.

    handler receives each event in dispatch order; advance is called with the
    elapsed milliseconds before each clock move (for time integration such
    as battery bookkeeping); check runs after every dispatch so invariant
    scans sit directly on the event boundary. Domain records (phase changes,
    action starts, ...) are appended to ``trace`` between the event lines.

    The simulation holds its hooks and they hold the parts they drive, never
    the simulation. A part that schedules events itself (a ``GarageSession``'s
    device fleet) holds it through a ``weakref.proxy``, so that a dropped run
    is freed by reference counting.
    """

    def __init__(
        self,
        handler: Callable[[SimEvent], None] | None = None,
        advance: Callable[[int], None] | None = None,
        check: Callable[[], None] | None = None,
    ):
        self.clock_ms = 0
        self.trace: list[str] = []
        self._heap: list[SimEvent] = []
        self._next_seq = 0
        self.handler = handler
        self.advance = advance
        self.check = check

    def schedule(self, at_ms: int, payload: Payload) -> SimEvent:
        if at_ms < self.clock_ms:
            raise SchedulingInPastError(
                f"cannot schedule at t={at_ms}ms, clock is {self.clock_ms}ms"
            )
        event = SimEvent(at_ms, self._next_seq, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pending(self) -> int:
        return len(self._heap)

    def _advance_clock(self, to_ms: int) -> None:
        if to_ms > self.clock_ms:
            if self.advance is not None:
                self.advance(to_ms - self.clock_ms)
            self.clock_ms = to_ms

    def _dispatch(self, event: SimEvent) -> None:
        self._advance_clock(event.at_ms)
        self.trace.append(event.trace_line())
        if self.handler is not None:
            self.handler(event)
        if self.check is not None:
            self.check()

    def run_until(self, t_end_ms: int) -> None:
        """Dispatch every event with at <= t_end_ms, then move the clock there."""
        if t_end_ms < self.clock_ms:
            raise SchedulingInPastError(
                f"cannot run to t={t_end_ms}ms, clock is {self.clock_ms}ms"
            )
        heap = self._heap
        while heap and heap[0][0] <= t_end_ms:
            self._dispatch(heapq.heappop(heap))
        self._advance_clock(t_end_ms)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Dispatch until the queue is empty; the clock ends on the last event.

        Raises once max_events dispatches leave events still queued.
        """
        heap = self._heap
        for _ in range(max_events):
            if not heap:
                return
            self._dispatch(heapq.heappop(heap))
        if heap:
            raise AutoparkError(f"exceeded {max_events} events; runaway schedule?")
