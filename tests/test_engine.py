import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopark.engine import (
    Arrival,
    FaultCleared,
    IrradianceChange,
    PaymentConfirmed,
    SchedulingInPastError,
    Simulation,
)
from autopark.model import Vehicle


def test_events_dispatch_in_time_order():
    seen = []
    sim = Simulation(handler=lambda e: seen.append(e.at_ms))
    sim.schedule(3000, FaultCleared())
    sim.schedule(1000, FaultCleared())
    sim.schedule(2000, FaultCleared())
    sim.run_until_idle()
    assert seen == [1000, 2000, 3000]
    assert sim.clock_ms == 3000


def test_ties_break_by_schedule_order():
    seen = []
    sim = Simulation(handler=lambda e: seen.append(e.seq))
    first = sim.schedule(500, PaymentConfirmed(1))
    second = sim.schedule(500, PaymentConfirmed(2))
    assert (first.seq, second.seq) == (0, 1)
    sim.run_until_idle()
    assert seen == [0, 1]


def test_scheduling_in_past_rejected():
    sim = Simulation()
    sim.schedule(1000, FaultCleared())
    sim.run_until(5000)
    with pytest.raises(SchedulingInPastError):
        sim.schedule(4999, FaultCleared())
    sim.schedule(5000, FaultCleared())  # at the clock is allowed


def test_handler_may_schedule_followups():
    seen = []
    sim = Simulation()

    def handler(event):
        seen.append(event.at_ms)
        if event.at_ms < 300:
            sim.schedule(event.at_ms + 100, FaultCleared())

    sim.handler = handler
    sim.schedule(100, FaultCleared())
    sim.run_until_idle()
    assert seen == [100, 200, 300]


def test_run_until_stops_at_boundary():
    seen = []
    sim = Simulation(handler=lambda e: seen.append(e.at_ms))
    sim.schedule(1000, FaultCleared())
    sim.schedule(2000, FaultCleared())
    sim.schedule(2001, FaultCleared())
    sim.run_until(2000)
    assert seen == [1000, 2000]
    assert sim.clock_ms == 2000
    assert sim.pending() == 1


def test_advance_hook_sees_every_gap():
    gaps = []
    sim = Simulation(advance=gaps.append)
    sim.schedule(250, FaultCleared())
    sim.schedule(1000, FaultCleared())
    sim.run_until(1500)
    assert gaps == [250, 750, 500]
    assert sum(gaps) == sim.clock_ms


def test_check_hook_runs_after_each_dispatch():
    calls = []
    sim = Simulation(check=lambda: calls.append(sim.clock_ms))
    sim.schedule(10, FaultCleared())
    sim.schedule(20, FaultCleared())
    sim.run_until_idle()
    assert calls == [10, 20]


def test_trace_lines_are_exact():
    sim = Simulation()
    vehicle = Vehicle("v1", 4200, "+97455512345")
    sim.schedule(5000, Arrival(vehicle))
    sim.schedule(6000, IrradianceChange(250.0))
    sim.run_until_idle()
    assert sim.trace == [
        "t=5000 seq=0 kind=arrival detail=vehicle=v1 length_mm=4200 phone=+97455512345",
        "t=6000 seq=1 kind=irradiance detail=w_per_m2=250",
    ]


def test_note_interleaves_with_dispatch_lines():
    sim = Simulation()
    sim.handler = lambda e: sim.trace.append("handled")
    sim.schedule(1, FaultCleared())
    sim.run_until_idle()
    assert sim.trace == ["t=1 seq=0 kind=fault_cleared detail=-", "handled"]


def test_runaway_schedule_is_caught():
    sim = Simulation()
    sim.handler = lambda e: sim.schedule(e.at_ms, FaultCleared())
    sim.schedule(0, FaultCleared())
    with pytest.raises(Exception, match="runaway"):
        sim.run_until_idle(max_events=100)


def test_an_event_is_its_own_heap_entry():
    sim = Simulation()
    payload = FaultCleared()
    event = sim.schedule(5, payload)
    assert event == (5, 0, payload)


def test_dispatched_events_are_not_retained():
    # An event is a tuple, which takes no weak reference; its payload does,
    # and lives exactly as long as the event that alone holds it.
    refs = []

    def handler(event):
        if refs:
            assert refs[-1]() is None, "the previous event is still referenced"
        refs.append(weakref.ref(event.payload))

    sim = Simulation(handler=handler)
    for at_ms in (10, 20, 20, 30):
        sim.schedule(at_ms, FaultCleared())
    sim.run_until(20)
    sim.run_until_idle()
    assert len(refs) == 4


class Unordered:
    """A payload that defines no ordering, so comparing two raises TypeError.
    Each dispatch schedules one follow-up per delay in ``followups``."""

    kind = "unordered"

    def __init__(self, followups: tuple[int, ...] = ()):
        self.followups = followups

    def detail(self) -> str:
        return "-"


@settings(max_examples=200, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 5), st.lists(st.integers(0, 2), max_size=3)),
        min_size=1,
        max_size=30,
    ),
    cuts=st.lists(st.integers(0, 8), max_size=4),
)
def test_dispatch_order_is_time_then_schedule_order(schedule, cuts):
    """Many events share a time and handlers schedule follow-ups at the
    current clock; dispatch still follows (at_ms, seq), and cutting the run
    with run_until changes nothing."""

    def run(cut_points):
        sim = Simulation()
        scheduled, dispatched = [], []

        def handler(event):
            dispatched.append((event.at_ms, event.seq))
            for delay in event.payload.followups:
                followup = sim.schedule(sim.clock_ms + delay, Unordered())
                scheduled.append((followup.at_ms, followup.seq))

        sim.handler = handler
        for at_ms, followups in schedule:
            event = sim.schedule(at_ms, Unordered(tuple(followups)))
            scheduled.append((event.at_ms, event.seq))
        for cut in sorted(cut_points):
            sim.run_until(cut)
        sim.run_until_idle()
        return scheduled, dispatched

    scheduled, dispatched = run(())
    assert dispatched == sorted(scheduled)
    assert run(cuts) == (scheduled, dispatched)
