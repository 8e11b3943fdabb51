"""Scenario text parsing, rendering, and end-to-end runs."""

import gc
import string
import weakref
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autopark.devices import belt_roster
from autopark.model import AutoparkError, GarageConfig, InvalidConfigError
from autopark.scenario import (
    EVENT_KINDS,
    GarageSession,
    Scenario,
    ScenarioParseError,
    SimSettings,
    UnsortedEventsError,
    parse_event_line,
    parse_scenario,
    random_scenario,
    render_event,
    render_scenario,
    run_scenario,
)
from autopark.engine import InboundSms

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


# Canonical text for every field any event kind has, as render_event writes it.
_T_TEXT = st.integers(0, 10**9).map(
    lambda ms: f"{ms // 1000}.{ms % 1000:03d}".rstrip("0").rstrip(".")
)
_WORD = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="="), min_size=1
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


@pytest.mark.parametrize(
    "run",
    [lambda s: run_scenario(s).session, _stepped_session],
    ids=["run_scenario", "stepped"],
)
def test_a_dropped_session_is_freed_without_the_collector(collector_off, run):
    session = run(random_scenario(LIFETIME_SEED, 18))
    refs = [weakref.ref(part) for part in (session, session.sim, session.fleet)]
    del session
    assert [ref() for ref in refs] == [None, None, None]
    assert gc.collect() == 0
