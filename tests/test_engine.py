import inspect
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopark import engine
from autopark.devices import Action, BeltId
from autopark.engine import (
    Arrival,
    FaultCleared,
    IrradianceChange,
    PackedList,
    PaymentConfirmed,
    SchedulingInPastError,
    Simulation,
    Trace,
    bill_line,
    device_done_line,
    duplicate_line,
    event_line,
    halted_line,
    phase_line,
    reject_phone_line,
    reject_ticket_line,
    reject_vehicle_line,
    request_line,
    resumed_line,
    sms_out_line,
    start_line,
    timer_line,
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


def test_an_input_at_a_dispatched_millisecond_is_refused():
    """After an event at 1000 ms has dispatched, an input at 1000 ms would
    dispatch after it, where a file run puts it before; a completion there
    is still taken."""
    sim = Simulation()
    sim.schedule(1000, FaultCleared())
    sim.run_until(1000)
    with pytest.raises(SchedulingInPastError, match="has dispatched"):
        sim.schedule(1000, FaultCleared())
    sim.schedule_done(1000, FaultCleared())
    sim.schedule(1001, FaultCleared())


def test_an_input_at_a_millisecond_reached_without_dispatch_is_taken():
    seen = []
    sim = Simulation(handler=lambda event: seen.append(event.at_ms))
    sim.schedule(1000, FaultCleared())
    sim.run_until(3000)
    sim.schedule(3000, FaultCleared())  # the clock reached 3000 ms, but nothing dispatched there
    sim.run_until_idle()
    assert seen == [1000, 3000]


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


def test_the_engine_adds_no_trace_record():
    # Dispatch records are the handler's to write (a session writes them).
    sim = Simulation()
    sim.schedule(5000, Arrival(Vehicle("v1", 4200, "+97455512345")))
    sim.schedule(6000, IrradianceChange(250.0))
    sim.schedule(6000, PaymentConfirmed(1))
    sim.run_until_idle()
    assert len(sim.trace) == 0
    assert list(sim.trace) == []


@pytest.mark.parametrize("chunk", [PackedList.CHUNK, 2], ids=["open", "packed"])
def test_trace_reads_like_a_list_of_lines(monkeypatch, chunk):
    monkeypatch.setattr(PackedList, "CHUNK", chunk)
    trace = Trace()
    assert len(trace) == 0
    assert list(trace) == []
    assert trace[:] == []
    with pytest.raises(IndexError):
        trace[0]
    for ticket in range(5):
        trace.add(timer_line, 1000 * ticket, "start", ticket)
    trace.add(resumed_line, 9000)
    lines = [f"t={1000 * n} timer=start ticket={n}" for n in range(5)] + ["t=9000 mode=Normal"]
    assert len(trace) == 6
    assert list(trace) == lines
    assert [trace[i] for i in range(-6, 6)] == lines + lines
    for cut in (slice(None), slice(2, 4), slice(-2, None), slice(None, None, -2), slice(7, 9)):
        assert trace[cut] == lines[cut]
    for index in (6, -7):
        with pytest.raises(IndexError):
            trace[index]


RENDERERS = [value for name, value in vars(engine).items() if name.endswith("_line")]


def test_every_renderer_takes_a_fixed_count_of_values():
    """A packed chunk regroups its flat values by each renderer's argument
    count, so no renderer may take a default or ``*args``."""
    for render in RENDERERS:
        code = render.__code__
        assert render.__defaults__ is None and code.co_kwonlyargcount == 0, render
        assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS), render


times = st.integers(0, 2**40)
ids = st.integers(0, 10**6)
texts = st.text(max_size=6)
belts = st.one_of(
    st.sampled_from(["entrance", "exit", "platform"]).map(BeltId),
    st.integers(0, 30).map(lambda face: BeltId("slot", face)),
)
amounts = st.decimals(allow_nan=False, allow_infinity=False, places=2)
event_values = st.lists(st.one_of(texts, ids, st.floats(0, 1000)), max_size=3).map(tuple)

# The values after the time that each renderer takes, each of the type a run
# records there; an input event's field names and values may both be empty.
VALUES = {
    event_line: (ids, texts, st.lists(texts, max_size=3).map(tuple), event_values),
    device_done_line: (ids, texts, ids),
    request_line: (texts, texts),
    start_line: (texts, ids, texts, texts),
    phase_line: (ids, texts, texts),
    timer_line: (texts, ids),
    reject_vehicle_line: (texts, texts),
    reject_phone_line: (texts, texts),
    reject_ticket_line: (texts, ids),
    duplicate_line: (ids,),
    halted_line: (belts,),
    resumed_line: (),
    bill_line: (ids, ids, amounts),
    sms_out_line: (texts, texts, ids),
}
records = st.one_of([st.tuples(st.just(render), times, *values) for render, values in VALUES.items()])


def test_the_record_strategies_cover_every_renderer():
    assert set(VALUES) == set(RENDERERS)


@settings(max_examples=150, deadline=None)
@given(chunk=st.sampled_from([1, 2, 3, 7]), added=st.lists(records, max_size=40))
def test_packed_records_read_back_record_for_record(chunk, added):
    """Records packed as flat values come back as the same tuples, each value
    of its own type (a ``Decimal`` stays one, a ``BeltId`` too), and render
    the same lines, read by iteration, index and slice."""
    lines = [record[0](*record[1:]) for record in added]
    with mock.patch.object(PackedList, "CHUNK", chunk):
        trace = Trace()
        for record in added:
            trace.add(*record)
        read = list(PackedList.__iter__(trace))
        assert read == added
        assert [tuple(map(type, r)) for r in read] == [tuple(map(type, r)) for r in added]
        assert [PackedList.__getitem__(trace, i) for i in range(len(added))] == added
        assert list(trace) == lines
        assert [trace[i] for i in range(-len(added), 0)] == lines
        assert trace[1::2] == lines[1::2]


@pytest.mark.parametrize("input_first", [True, False])
def test_an_input_dispatches_before_a_completion_at_its_millisecond(input_first):
    """Whichever is scheduled first, an input at a motion's completion
    millisecond dispatches before it, and each keeps the seq of its schedule
    call; the clock still orders events of different milliseconds."""
    seen = []
    sim = Simulation(handler=seen.append)
    early = Action(1, "rotator", "rotate slot=1 dir=cw faces=1", 1999, ())
    done = Action(2, "gate:entrance", "open", 2000, ())
    payload = IrradianceChange(250.0)
    sim.schedule_done(1999, early)
    if input_first:
        sim.schedule(2000, payload)
        sim.schedule_done(2000, done)
    else:
        sim.schedule_done(2000, done)
        sim.run_until(1000)
        sim.schedule(2000, payload)
    sim.run_until_idle()
    assert [event.payload for event in seen] == [early, payload, done]
    assert [event.seq for event in seen] == ([0, 1, 2] if input_first else [0, 2, 1])


def test_runaway_schedule_is_caught():
    sim = Simulation()
    sim.handler = lambda e: sim.schedule_done(e.at_ms, FaultCleared())
    sim.schedule(0, FaultCleared())
    with pytest.raises(Exception, match="runaway"):
        sim.run_until_idle(max_events=100)


def test_an_event_is_its_own_heap_entry():
    sim = Simulation()
    payload = FaultCleared()
    event = sim.schedule(5, payload)
    assert event == (5, 0, 0, payload)
    assert (event.at_ms, event.seq, event.payload) == (5, 0, payload)


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

    def __init__(self, followups: tuple[int, ...] = ()):
        self.followups = followups


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
    """Many events share a time and handlers schedule follow-ups, those at
    the current clock as completions (an input there is refused); dispatch
    still follows (at_ms, seq), and cutting the run with run_until changes
    nothing."""

    def run(cut_points):
        sim = Simulation()
        scheduled, dispatched = [], []

        def handler(event):
            dispatched.append((event.at_ms, event.seq))
            for delay in event.payload.followups:
                push = sim.schedule if delay else sim.schedule_done
                followup = push(sim.clock_ms + delay, Unordered())
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
