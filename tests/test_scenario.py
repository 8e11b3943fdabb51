"""Scenario text parsing, rendering, and end-to-end runs."""

import gc
import os
import pickle  # noqa: F401  (see test_a_dropped_session_is_freed_without_the_collector)
import re
import string
import subprocess
import sys
import weakref
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autopark
from autopark.devices import BeltId, belt_roster
from autopark.model import (
    AutoparkError,
    GarageConfig,
    InvalidConfigError,
    TicketPhase,
    Vehicle,
)
from autopark.scenario import (
    EVENT_KINDS,
    GarageSession,
    Scenario,
    ScenarioEvent,
    ScenarioParseError,
    SimSettings,
    UnsortedEventsError,
    _format_t,
    parse_event_line,
    parse_scenario,
    random_scenario,
    render_event,
    render_scenario,
    run_scenario,
)
from autopark.engine import (
    Arrival,
    BeltFault,
    FaultCleared,
    InboundSms,
    InputEvent,
    IrradianceChange,
    PackedList,
    bill_line,
    event_line,
    field_pairs,
    halted_line,
)

from test_fuzz import event_line as fuzzed_event_line
from test_golden_digests import paid_day

SMALL = """
# three floors, six slots each
config floors=3 slots_per_floor=6
t=5 kind=arrival vehicle=car-1 length_mm=4200 phone=+97455512345
t=120 kind=sms_in phone=+97455512345 body=retrieve please
t=200 kind=payment ticket=1
"""


def test_parse_small_scenario():
    scenario = parse_scenario(SMALL)
    assert scenario.config.floors == 3
    assert scenario.config.slots_per_floor == 6
    assert len(scenario.events) == 3
    arrival = scenario.events[0]
    assert arrival.t_ms == 5000
    assert arrival.payload.vehicle.vehicle_id == "car-1"
    assert arrival.payload.vehicle.phone == "+97455512345"


def test_body_with_spaces_continues_previous_value():
    scenario = parse_scenario(SMALL)
    sms = scenario.events[1].payload
    assert isinstance(sms, InboundSms)
    assert sms.body == "retrieve please"


def test_comments_and_blank_lines_ignored():
    text = "config floors=2\n\n# nothing here\nt=1 kind=fault_cleared  # inline too\n"
    scenario = parse_scenario(text)
    assert scenario.config.floors == 2
    assert len(scenario.events) == 1


def test_fractional_seconds_become_milliseconds():
    scenario = parse_scenario("t=1.25 kind=fault_cleared\n")
    assert scenario.events[0].t_ms == 1250


def test_config_defaults_when_absent():
    scenario = parse_scenario("t=0 kind=fault_cleared\n")
    assert scenario.config == GarageConfig()
    assert scenario.settings == SimSettings()


def test_settings_keys_split_from_garage_keys():
    text = (
        "config floors=2 battery_initial_soc=0.5 irradiance_w_per_m2=250\n"
        "config battery_capacity_ah=2.5\n"
    )
    scenario = parse_scenario(text)
    assert scenario.config.floors == 2
    assert scenario.settings.battery_initial_soc == 0.5
    assert scenario.settings.irradiance_w_per_m2 == 250
    assert scenario.settings.battery_capacity_ah == 2.5


def test_billing_rate_parses_as_decimal():
    scenario = parse_scenario("config billing_rate_per_minute=0.25\n")
    assert scenario.config.billing_rate_per_minute == Decimal("0.25")


def test_unsorted_events_rejected():
    text = "t=10 kind=fault_cleared\nt=9 kind=fault_cleared\n"
    with pytest.raises(UnsortedEventsError) as err:
        parse_scenario(text)
    assert err.value.line_no == 2


def test_config_after_events_rejected():
    text = "t=0 kind=fault_cleared\nconfig floors=2\n"
    with pytest.raises(ScenarioParseError, match="precede"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("configfloors=5\n", "line 1: event needs t= and kind="),
        ("config_x floors=5\n", "line 1: stray token 'config_x'"),
    ],
)
def test_only_the_word_config_starts_a_config_line(text, message):
    """A line whose first token is not exactly ``config`` is an event line,
    and these are not valid ones."""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    assert parse_scenario("config  floors=5\n").config.floors == 5


def test_an_event_value_cannot_hold_a_hash():
    """In a file ``#`` starts a comment, so a value holding one would lose
    its tail on the way through ``render_scenario`` and ``parse_scenario``;
    the event line is refused where it is read."""
    line = "t=2 kind=sms_in phone=+1 body=car #5 please"
    with pytest.raises(ScenarioParseError) as err:
        parse_event_line(line, GarageConfig())
    assert str(err.value) == "line 1: event values cannot contain '#'"
    assert parse_scenario(line).events[0].payload.body == "car"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("t=0 kind=teleport", "unknown event kind"),
        ("kind=arrival vehicle=v length_mm=1 phone=+9741234567", "needs t="),
        ("t=0 kind=payment", "needs ticket="),
        ("t=0 kind=payment ticket=1 extra=2", "unknown field"),
        ("t=0 kind=payment ticket=soon", "bad value for ticket"),
        ("t=-1 kind=fault_cleared", "t must be >= 0"),
        ("t=0 kind=payment ticket=1 ticket=2", "duplicate key"),
        ("stray t=0 kind=fault_cleared", "stray token"),
        ("t=0 kind=irradiance w_per_m2=1200", "out of range"),
        ("t=0 kind=fault belt=nowhere", "unknown belt"),
        ("t=0 kind=fault belt=slot:9", "no such belt"),
        ("t=0 kind=arrival vehicle=v length_mm=0 phone=+9741234567", "length"),
        ("t=0 kind=arrival vehicle=v length_mm=4000 phone=car", "phone"),
        ("t=0 kind=arrival vehicle=a,b length_mm=4000 phone=+9741234567", "','"),
        ('t=1 kind=sms_in phone=a"b body=hi', "line 7: invalid phone number"),
        ("t=nan kind=fault_cleared", "t must be >= 0"),
        ("t=inf kind=fault_cleared", "t must be >= 0"),
        ("t=-inf kind=fault_cleared", "t must be >= 0"),
        ("t=0 kind=irradiance w_per_m2=nan", "out of range"),
        # The refused value as written: %g would name 1000, inside the range.
        ("t=0 kind=irradiance w_per_m2=1000.0000001", r"\[0, 1000\]: 1000\.0000001$"),
        ("t=0 kind=irradiance w_per_m2=-0.0000001", r"\[0, 1000\]: -0\.0000001$"),
        ("t=1e306 kind=fault_cleared", "line 7: 1e\\+306 s does not fit the millisecond clock"),
        (f"t=0 kind=sms_in phone=+1 body={'x' * 161}", "line 7: body of 161 chars exceeds 160"),
        ("t=1_000 kind=fault_cleared", "bad value for t: '1_000'"),
        ("t=1 kind=payment ticket=\u0661\u0662", "bad value for ticket"),
        ("t=0 kind=irradiance w_per_m2=\u0665\u0660", "bad value for w_per_m2"),
        ("t=0 kind=arrival vehicle=v length_mm=4_000 phone=+9741234567", "bad value for length"),
    ],
)
def test_bad_event_lines(line, fragment):
    with pytest.raises(ScenarioParseError, match=fragment):
        parse_event_line(line, GarageConfig(), line_no=7)


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("config floors=2\nt=0 kind=nope\n")
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_unknown_config_key_rejected():
    with pytest.raises(ScenarioParseError, match="unknown config key"):
        parse_scenario("config wheels=4\n")


@pytest.mark.parametrize(
    "pair,fragment",
    [
        ("belt_transit_s=inf", "belt_transit_s must be > 0 and finite"),
        ("belt_transit_s=nan", "belt_transit_s must be > 0 and finite"),
        ("step_angle_main_deg=nan", "step angles"),
        ("step_angle_gate_deg=inf", "step angles"),
        ("rotation_gear_ratio=inf", "rotation_gear_ratio"),
        ("rotation_gear_ratio=nan", "rotation_gear_ratio"),
        ("billing_rate_per_minute=nan", "billing_rate_per_minute"),
        ("billing_rate_per_minute=inf", "billing_rate_per_minute"),
        ("billing_rate_per_minute=snan", "billing_rate_per_minute"),
        ("bus_voltage_v=inf", "bus_voltage_v"),
        ("bus_voltage_v=nan", "bus_voltage_v"),
        ("battery_capacity_ah=-1", "battery_capacity_ah"),
        ("battery_capacity_ah=inf", "battery_capacity_ah"),
        ("battery_initial_soc=5", "battery_initial_soc"),
        ("battery_initial_soc=nan", "battery_initial_soc"),
        ("irradiance_w_per_m2=-5", "irradiance_w_per_m2"),
        ("irradiance_w_per_m2=nan", "irradiance_w_per_m2"),
        ("irradiance_w_per_m2=2000", "irradiance_w_per_m2"),
        ("sms_delivery_delay_s=1.0", "unknown config key"),
        ("belt_transit_s=1e306", "belt_transit_s is too large"),
        ("platform_load_s=1e306", "platform_load_s is too large"),
        ("gate_actuation_s=1e306", "gate_actuation_s is too large"),
        # A lift over two floors of 1e305 s, and a half turn of three 1e305 s faces.
        ("elevation_per_floor_s=1e305", "elevation_per_floor_s is too large"),
        ("rotation_per_slot_s=1e305", "rotation_per_slot_s is too large"),
        ("floors=\u0663", "bad value for floors"),
        ("billing_rate_per_minute=0_05", "bad value for billing_rate_per_minute"),
    ],
)
def test_bad_config_values(pair, fragment):
    with pytest.raises(AutoparkError, match=fragment):
        parse_scenario(f"config {pair}\nt=0 kind=fault_cleared\n")


def test_settings_bounds_accept_their_edges():
    text = "config battery_capacity_ah=0 battery_initial_soc=0 irradiance_w_per_m2=0\n"
    assert run_scenario(parse_scenario(text)).report.aggregates.pv_wh == 0.0


def test_session_validates_settings():
    with pytest.raises(InvalidConfigError, match="battery_initial_soc"):
        GarageSession(settings=SimSettings(battery_initial_soc=1.5))


def test_invalid_config_value_rejected():
    with pytest.raises(ScenarioParseError, match="bad value"):
        parse_scenario("config floors=many\n")


def test_render_event_round_trips():
    config = GarageConfig()
    lines = [
        "t=0 kind=arrival vehicle=v1 length_mm=4500 phone=+97455512345",
        "t=0.5 kind=sms_in phone=+97455512345 body=get my car",
        "t=61 kind=payment ticket=3",
        "t=61 kind=irradiance w_per_m2=437.5",
        "t=100 kind=fault belt=slot:3",
        "t=120 kind=fault_cleared",
    ]
    for line in lines:
        event = parse_event_line(line, config)
        assert render_event(event) == line


@pytest.mark.parametrize("body", ["car #5 x=y", "car  5", "car 5 x=y"])
def test_render_event_refuses_a_value_that_would_not_read_back(body):
    event = ScenarioEvent(2000, InboundSms("+1", body))
    with pytest.raises(ValueError, match=re.escape(f"kind=sms_in body={body!r}")):
        render_event(event)


# Canonical text for every field any event kind has, as render_event writes it.
_T_TEXT = st.integers(0, 10**9).map(
    lambda ms: f"{ms // 1000}.{ms % 1000:03d}".rstrip("0").rstrip(".")
)
_WORD = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="=#"), min_size=1
)
_FIELD_TEXT = {
    "vehicle": st.text(string.ascii_letters + string.digits + "-_", min_size=1, max_size=12),
    "length_mm": st.integers(1, 20_000).map(str),
    "phone": st.from_regex(r"\+?[0-9]{1,15}", fullmatch=True),
    "body": st.lists(_WORD, max_size=6).map(" ".join),
    "ticket": st.integers(-(10**6), 10**9).map(str),
    "w_per_m2": st.floats(0.0, 1000.0).map(repr),
    "belt": st.sampled_from([str(belt) for belt in belt_roster(GarageConfig().slots_per_floor)]),
}


@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
@given(data=st.data())
def test_render_event_inverts_parse_for_every_kind(kind, data):
    pairs = [f"{key}={data.draw(_FIELD_TEXT[key], label=key)}" for key in EVENT_KINDS[kind].fields]
    line = " ".join([f"t={data.draw(_T_TEXT, label='t')}", f"kind={kind}", *pairs])
    assert render_event(parse_event_line(line, GarageConfig())) == line


def test_render_scenario_round_trips():
    scenario = parse_scenario(SMALL)
    text = render_scenario(scenario)
    assert parse_scenario(text) == scenario
    # and the rendering is stable
    assert render_scenario(parse_scenario(text)) == text


def test_random_scenarios_round_trip():
    for seed in range(12):
        scenario = random_scenario(seed)
        assert parse_scenario(render_scenario(scenario)) == scenario


def test_random_scenario_is_reproducible():
    assert random_scenario(42) == random_scenario(42)
    assert random_scenario(42) != random_scenario(43)


def test_random_scenario_events_sorted():
    for seed in range(12):
        times = [e.t_ms for e in random_scenario(seed).events]
        assert times == sorted(times)


def test_random_scenario_mixes_payloads():
    kinds = set()
    for seed in range(30):
        kinds.update(type(e.payload).__name__ for e in random_scenario(seed).events)
    assert {"Arrival", "InboundSms", "PaymentConfirmed"} <= kinds
    assert "BeltFault" in kinds or "IrradianceChange" in kinds


def test_run_small_scenario_milestones():
    result = run_scenario(parse_scenario(SMALL))
    row = result.report.rows[0]
    assert row.vehicle_id == "car-1"
    assert row.status == "Closed"
    assert row.entry_ms == 5000
    assert row.parked_ms == 34000
    assert row.request_ms == 120000
    assert row.ready_ms == 145000
    assert row.exit_ms == 200000  # ticket closes when payment lands
    assert row.parking_latency_ms == 29000
    assert row.retrieval_latency_ms == 25000
    assert row.amount == Decimal("0.10")
    agg = result.report.aggregates
    assert agg.max_parking_latency_ms == 29000
    assert agg.max_retrieval_latency_ms == 25000
    assert agg.occupancy_peak == 1
    # one car alone never needs two motors at once
    assert agg.max_concurrent_motors == 1


def test_rejected_arrival_reported_with_reason():
    text = (
        "config floors=3 slots_per_floor=6\n"
        "t=0 kind=arrival vehicle=lorry length_mm=5100 phone=+97455500001\n"
    )
    result = run_scenario(parse_scenario(text))
    row = result.report.rows[0]
    assert row.status == "rejected:TooLong"
    assert row.entry_ms == 0
    assert row.parked_ms is None
    assert row.amount is None


def test_run_result_holds_the_session_trace_itself():
    result = run_scenario(parse_scenario(SMALL))
    assert result.trace is result.session.sim.trace


def test_trace_is_nonempty_and_ordered():
    result = run_scenario(parse_scenario(SMALL))
    dispatches = [line for line in result.trace if " seq=" in line]
    assert dispatches
    times = [int(line.split()[0].removeprefix("t=")) for line in dispatches]
    assert times == sorted(times)


def test_dispatch_lines_are_exact():
    session = GarageSession()
    session.schedule(ScenarioEvent(5000, Arrival(Vehicle("v1", 4200, "+97455512345"))))
    session.schedule(ScenarioEvent(6000, IrradianceChange(250.0)))
    session.run_until(6000)
    assert list(session.sim.trace) == [
        "t=5000 seq=0 kind=arrival detail=vehicle=v1 length_mm=4200 phone=+97455512345",
        "ticket=1 phase=AwaitingEntry->Parking t=5000",
        "t=5000 act=request device=gate:entrance ticket=1",
        "t=5000 timer=start ticket=1",
        "t=5000 sms=out kind=welcome number=+97455512345 ref=1",
        "t=5000 act=start device=gate:entrance action=1 op=open ticket=1",
        "t=6000 seq=1 kind=irradiance detail=w_per_m2=250.0",
    ]


def test_records_of_the_handling_follow_their_dispatch_line():
    session = GarageSession()
    session.schedule(ScenarioEvent(1, BeltFault("entrance")))
    session.schedule(ScenarioEvent(2, FaultCleared()))
    session.run_until_idle()
    assert list(session.sim.trace) == [
        "t=1 seq=0 kind=fault detail=belt=entrance",
        "t=1 mode=Halted reason=belt:entrance",
        "t=2 seq=1 kind=fault_cleared detail=-",
        "t=2 mode=Normal",
    ]


def test_a_motion_is_its_own_completion_event():
    """Each completion the engine dispatches carries the very ``Action`` the
    fleet started, and traces its ``device_done`` line from it as before."""
    scenario = random_scenario(3, 18)
    session = GarageSession(scenario.config, scenario.settings)
    handle, fleet, trace = session.sim.handler, session.fleet, session.sim.trace
    completions = []

    def handler(event):
        at_ms, seq, payload = event
        if not isinstance(payload, InputEvent):
            started = fleet.active.get(fleet.by_name[payload.device_id])
            completions.append((len(trace), at_ms, seq, payload, started))
        handle(event)

    session.sim.handler = handler
    for event in scenario.events:
        session.schedule(event)
    session.run_until_idle()
    lines = list(trace)
    assert completions
    for index, at_ms, seq, payload, started in completions:
        assert payload is started
        assert lines[index] == (
            f"t={at_ms} seq={seq} kind=device_done "
            f"detail=device={started.device_id} action={started.action_id}"
        )
    assert lines == list(run_scenario(scenario).trace)


def test_irradiance_traces_every_digit_of_its_scenario_value():
    result = run_scenario(parse_scenario("t=1 kind=irradiance w_per_m2=123.4567\n"))
    assert list(result.trace) == ["t=1000 seq=0 kind=irradiance detail=w_per_m2=123.4567"]


def test_an_sms_body_traces_whole_on_its_dispatch_line():
    session = GarageSession()
    session.schedule(ScenarioEvent(1000, InboundSms("+97455512345", "please bring my car")))
    session.run_until_idle()
    assert list(session.sim.trace)[0] == (
        "t=1000 seq=0 kind=sms_in detail=phone=+97455512345 body=please bring my car"
    )


def test_dispatch_detail_is_the_tail_of_the_scenario_line():
    """Each input event's dispatch line shows its ``kind=`` and, as
    ``detail=``, the pairs its scenario line writes (``-`` for none)."""
    for seed in range(50):
        scenario = random_scenario(seed, 18)
        # The input events are scheduled first and in order, so seq i is event i.
        tails = {}
        for line in run_scenario(scenario).trace:
            match = re.fullmatch(r"t=\d+ seq=(\d+) (kind=.*)", line)
            if match and int(match[1]) < len(scenario.events):
                tails[int(match[1])] = match[2]
        assert len(tails) == len(scenario.events), seed
        for seq, event in enumerate(scenario.events):
            kind, _, pairs = render_event(event).split(" ", 1)[1].partition(" ")
            assert tails[seq] == f"{kind} detail={pairs or '-'}", (seed, seq)


def _records(trace) -> list[tuple]:
    """A trace's records rather than its lines: ``PackedList``'s own reads
    give them unrendered."""
    return list(PackedList.__iter__(trace))


def _input_events(trace, config: GarageConfig) -> tuple[ScenarioEvent, ...]:
    """The input events a trace holds: each dispatch record written as a
    scenario line in ``render_event``'s grammar, then parsed back."""
    events = []
    for record in _records(trace):
        if record[0] is event_line:
            _, t_ms, _, kind, fields, values = record
            line = " ".join([f"t={_format_t(t_ms)} kind={kind}", *field_pairs(fields, values)])
            events.append(parse_event_line(line, config))
    return tuple(events)


def _assert_the_trace_rebuilds_its_scenario(scenario: Scenario, result) -> None:
    events = _input_events(result.trace, scenario.config)
    assert events == scenario.events
    replay = run_scenario(scenario._replace(events=events))
    assert list(replay.trace) == list(result.trace)


@pytest.mark.parametrize("seed", range(0, 1000, 50))
def test_a_corpus_trace_rebuilds_its_scenario(seed):
    scenario = random_scenario(seed, 18)
    _assert_the_trace_rebuilds_its_scenario(scenario, run_scenario(scenario))


def _parsed(lines: list[str]) -> list[ScenarioEvent]:
    """The lines that parse on the default garage, as events."""
    events = []
    for line in lines:
        try:
            events.append(parse_event_line(line, GarageConfig()))
        except AutoparkError:
            continue
    return events


def _canonical_lines(kind: str):
    """Lines of one event kind as ``render_event`` writes them, each field
    drawn from ``_FIELD_TEXT``."""
    fields = EVENT_KINDS[kind].fields
    return st.tuples(_T_TEXT, *[_FIELD_TEXT[key] for key in fields]).map(
        lambda drawn: " ".join([f"t={drawn[0]}", f"kind={kind}", *field_pairs(fields, drawn[1:])])
    )


awkward_lines = st.one_of(
    fuzzed_event_line, st.sampled_from(sorted(EVENT_KINDS)).flatmap(_canonical_lines)
)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 999), st.lists(awkward_lines, max_size=12))
def test_a_fuzzed_trace_rebuilds_its_scenario(seed, lines):
    """A corpus scenario with awkward event lines mixed in: the fuzz suite's
    lines that parse, and canonical lines with any field value (bodies of
    many words, unknown tickets, irradiance with every digit), at any time."""
    scenario = random_scenario(seed, 18)
    events = sorted(scenario.events + tuple(_parsed(lines)), key=lambda event: event.t_ms)
    scenario = scenario._replace(events=tuple(events))
    try:
        result = run_scenario(scenario)
    except AutoparkError:
        return  # a run the package refuses, such as a bill too large to compute
    _assert_the_trace_rebuilds_its_scenario(scenario, result)


def test_random_scenarios_run_clean_with_invariants():
    for seed in range(8):
        result = run_scenario(random_scenario(seed))
        assert result.report.aggregates.max_concurrent_motors <= 2


# Every event kind, and two motions in flight at the midpoint.
LIFETIME_SEED = 11


@pytest.fixture
def collector_off():
    """The cyclic collector off, with nothing left for it when the test starts."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _stepped_session(scenario: Scenario) -> GarageSession:
    session = GarageSession(scenario.config, scenario.settings)
    for event in scenario.events:
        session.schedule(event)
    session.run_until(scenario.events[len(scenario.events) // 2].t_ms)
    assert session.fleet.active
    return session


def test_a_generated_scenario_leaves_nothing_for_the_collector(collector_off):
    random_scenario(LIFETIME_SEED, 18)  # its dry run is a whole session
    assert gc.collect() == 0


@pytest.mark.parametrize("chunk", [PackedList.CHUNK, 3], ids=["open", "packed"])
@pytest.mark.parametrize(
    "run",
    [lambda s: run_scenario(s).session, _stepped_session],
    ids=["run_scenario", "stepped"],
)
def test_a_dropped_session_is_freed_without_the_collector(collector_off, monkeypatch, run, chunk):
    # The first pack in a process imports pickle, whose pure-Python exception
    # classes, replaced by the C ones, are then garbage in cycles once; this
    # module imports pickle, so that the count here is the session's alone.
    monkeypatch.setattr(PackedList, "CHUNK", chunk)
    session = run(random_scenario(LIFETIME_SEED, 18))
    refs = [weakref.ref(part) for part in (session, session.sim, session.fleet)]
    del session
    assert [ref() for ref in refs] == [None, None, None]
    assert gc.collect() == 0


@pytest.mark.parametrize("seed", range(4))
def test_a_trace_read_mid_run_begins_the_final_trace(seed):
    """A record renders the same line whenever it is read: the lines read at
    each run_until cut begin the trace the whole run leaves."""
    scenario = random_scenario(seed, 18)
    session = GarageSession(scenario.config, scenario.settings)
    for event in scenario.events:
        session.schedule(event)
    read = []
    for event in scenario.events:
        session.run_until(event.t_ms)
        read.append(list(session.sim.trace))
    session.run_until_idle()
    final = list(session.sim.trace)
    assert final == list(run_scenario(scenario).trace)
    for lines in read:
        assert final[: len(lines)] == lines


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 999), data=st.data())
def test_a_trace_read_at_any_cut_begins_the_final_trace(seed, data):
    """As above, with run_until cuts anywhere on the clock: between events,
    before the first and past the last. Only traces are compared, since a
    report depends on where the clock stops."""
    scenario = random_scenario(seed, 18)
    first, last = scenario.events[0].t_ms, scenario.events[-1].t_ms
    cut = st.one_of(
        st.integers(0, first), st.integers(first, last), st.integers(last, last + 600_000)
    )
    cuts = sorted(data.draw(st.lists(cut, max_size=8), label="cuts"))
    session = GarageSession(scenario.config, scenario.settings)
    for event in scenario.events:
        session.schedule(event)
    read = []
    for t_ms in cuts:
        session.run_until(t_ms)
        read.append(list(session.sim.trace))
    session.run_until_idle()
    final = list(session.sim.trace)
    assert final == list(run_scenario(scenario).trace)
    for lines in read:
        assert final[: len(lines)] == lines


SMALL_CHUNK = 7  # items per pickled chunk in the packed-history tests, so chunks close often


def _reads_like(packed, plain: list) -> None:
    """Every read of a packed history gives what the plain list gives."""
    n = len(plain)
    chunk = PackedList.CHUNK
    assert n > 3 * chunk
    assert len(packed) == n
    assert list(packed) == plain
    assert [packed[i] for i in range(-n, n)] == plain + plain
    for cut in (
        slice(None),
        slice(chunk - 1, 3 * chunk + 1),
        slice(-2 * chunk - 1, None),
        slice(None, None, -3),
        slice(1, n + 5, chunk + 1),
    ):
        assert packed[cut] == plain[cut]
    for item in (plain[0], plain[chunk - 1], plain[chunk], plain[n // 2], plain[-1]):
        assert item in packed
    assert "t=-1 absent" not in packed
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            packed[index]


def _histories(session: GarageSession) -> tuple:
    """The session's trace records, trace lines and modem lines, read plainly."""
    trace = session.sim.trace
    return _records(trace), list(trace), list(session.gateway.log)


@pytest.mark.parametrize(
    "scenario",
    [random_scenario(LIFETIME_SEED, 18), paid_day("irradiance_w_per_m2=250", 30)],
    ids=["random", "paid_day"],
)
def test_a_packed_history_reads_like_the_plain_one(monkeypatch, scenario):
    """Chunks of a few records close all through a stepped run. Each read
    gives what the same run gives held in plain lists, and a read made
    mid-run, at a chunk boundary too, begins the final history."""
    monkeypatch.setattr(PackedList, "CHUNK", 10**9)
    plain_records, plain_trace, plain_log = _histories(run_scenario(scenario).session)

    monkeypatch.setattr(PackedList, "CHUNK", SMALL_CHUNK)
    session = GarageSession(scenario.config, scenario.settings)
    for event in scenario.events:
        session.schedule(event)
    boundaries = 0
    for event in scenario.events:
        session.run_until(event.t_ms)
        trace, log = session.sim.trace, session.gateway.log
        boundaries += len(trace) % SMALL_CHUNK == 0
        assert list(trace) == plain_trace[: len(trace)]
        assert list(log) == plain_log[: len(log)]
    assert boundaries
    session.run_until_idle()

    records, _, _ = _histories(session)
    assert records == plain_records
    _reads_like(session.sim.trace, plain_trace)
    _reads_like(session.gateway.log, plain_log)


def test_a_packed_bill_and_halt_read_back_the_same(monkeypatch):
    """A bill record's Decimal and a halt record's BeltId come back out of
    their pickled chunk equal and of their own types."""
    monkeypatch.setattr(PackedList, "CHUNK", SMALL_CHUNK)
    trace = run_scenario(random_scenario(LIFETIME_SEED, 18)).trace
    records = _records(trace)
    packed = len(records) - len(records) % SMALL_CHUNK
    bill = next(i for i, record in enumerate(records) if record[0] is bill_line)
    halt = next(i for i, record in enumerate(records) if record[0] is halted_line)
    assert bill < packed and halt < packed
    assert type(PackedList.__getitem__(trace, bill)[-1]) is Decimal
    assert type(PackedList.__getitem__(trace, halt)[-1]) is BeltId
    assert trace[bill] == bill_line(*records[bill][1:])
    assert trace[halt] == halted_line(*records[halt][1:])


def _packed_bytes_per_item(packed: PackedList) -> float:
    chunks = packed._chunks
    assert chunks
    return sum(map(len, chunks)) / (len(chunks) * PackedList.CHUNK)


def test_a_long_day_packs_its_history_small():
    """A packed trace record is a renderer's memo reference and its values,
    with no tuple around them, and a packed log chunk is compressed: the AT
    exchanges repeat the same few lines."""
    session = run_scenario(paid_day("irradiance_w_per_m2=250", 120), check=False).session
    assert _packed_bytes_per_item(session.sim.trace) < 19
    assert _packed_bytes_per_item(session.gateway.log) < 6


def test_a_short_run_loads_neither_pickle_nor_zlib():
    """History shorter than one chunk is never packed. ``-S`` keeps ``site``
    from importing either module on its own."""
    src = str(Path(autopark.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from autopark import random_scenario, run_scenario\n"
        "from autopark.engine import PackedList\n"
        "session = run_scenario(random_scenario(3, 18)).session\n"
        "assert len(session.sim.trace) < PackedList.CHUNK > len(session.gateway.log)\n"
        "print(sorted({'pickle', 'zlib'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_paid_cycle_leaves_no_program_behind(collector_off):
    """Once a car is parked, fetched and paid for, nothing in the live session,
    its trace included, holds the programs that moved it."""
    session = GarageSession()
    for event in parse_scenario(SMALL).events:
        session.schedule(event)
    fleet, programs = session.fleet, []

    def note_programs():
        for action in fleet.active.values():
            if all(ref() is not action.owner for _, ref in programs):
                programs.append((action.owner.label, weakref.ref(action.owner)))

    session.sim.check = note_programs
    session.run_until_idle()
    assert session.garage.tickets[1].phase is TicketPhase.CLOSED
    assert [label for label, _ in programs] == ["parking", "retrieval", "exit"]
    assert [ref() for _, ref in programs] == [None, None, None]
