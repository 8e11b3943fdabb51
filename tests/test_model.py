from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autopark.model import (
    GarageConfig,
    InvalidConfigError,
    KinematicsConfig,
    NegativeDurationError,
    SlotAddress,
    SlotMatrix,
    SlotState,
    TicketPhase,
    Vehicle,
    billed_minutes,
    is_valid_phone,
    ms_from_s,
    new_garage,
    occupancy_count,
    parse_number,
)


def test_default_config_is_valid():
    GarageConfig().validate()


def test_capacity_and_slot_angle():
    config = GarageConfig()
    assert config.floors * config.slots_per_floor == 18
    assert config.slot_angle_deg == 60.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"floors": 0},
        {"slots_per_floor": 0},
        {"max_vehicle_length_mm": 0},
        {"billing_rate_per_minute": Decimal("-1")},
        {"bus_voltage_v": 0.0},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        GarageConfig(**kwargs).validate()


def test_gate_step_must_divide_quarter_turn():
    kin = KinematicsConfig(step_angle_gate_deg=7.0)
    with pytest.raises(InvalidConfigError):
        GarageConfig(kinematics=kin).validate()


def test_slot_pitch_must_be_integral_steps():
    # 7 slots: 360/7 degrees per face, not a multiple of the platform step
    with pytest.raises(InvalidConfigError):
        GarageConfig(slots_per_floor=7).validate()


def test_gear_ratio_restores_integral_pitch():
    # 0.9 degree platform step divides 45 degrees exactly
    kin = KinematicsConfig(rotation_gear_ratio=2.0)
    GarageConfig(slots_per_floor=8, kinematics=kin).validate()


def test_time_conversions_round_trip():
    assert ms_from_s(1.5) == 1500
    assert ms_from_s(0.0006) == 1
    assert ms_from_s(0.0015) == 2  # ties round to even


@pytest.mark.parametrize(
    "number,ok",
    [
        ("+97455512345", True),
        ("97455512345", True),
        ("+974 555", False),
        ("", False),
        ("+", False),
        ("cars", False),
        ("+\u0663\u0663", False),  # Arabic-Indic digits
        ("+974\n", False),
    ],
)
def test_phone_validation(number, ok):
    assert is_valid_phone(number) is ok


@pytest.mark.parametrize(
    "kind,text,value",
    [
        (int, "12", 12),
        (int, "-007", -7),
        (float, "+1.5", 1.5),
        (float, ".5", 0.5),
        (float, "5.", 5.0),
        (float, "1E-3", 0.001),
        (float, "-Infinity", float("-inf")),
        (Decimal, "0.05", Decimal("0.05")),
        (Decimal, "1e2", Decimal("1e2")),
    ],
)
def test_number_grammar_accepts_ascii_numbers(kind, text, value):
    assert parse_number(kind, text) == value


@pytest.mark.parametrize(
    "text",
    [
        "\u0663",  # Arabic-Indic three
        "\uff11\uff12",  # fullwidth one two
        "1_000",
        " 1",
        "1\n",
        "",
        "+",
        ".",
        "e3",
        "1e",
        "0x10",
        "\u221e",
    ],
)
def test_number_grammar_rejects_everything_else(text):
    for kind in (int, float, Decimal):
        with pytest.raises(ValueError, match="not a number"):
            parse_number(kind, text)


def test_vehicle_rejects_bad_fields():
    with pytest.raises(ValueError):
        Vehicle("", 4000, "+97455512345")
    with pytest.raises(ValueError):
        Vehicle("v1", 0, "+97455512345")
    with pytest.raises(ValueError):
        Vehicle("v1", 4000, "not a phone")


def test_slot_address_ordering_and_text():
    assert SlotAddress(0, 5) < SlotAddress(1, 0)
    assert str(SlotAddress(2, 3)) == "2/3"


def test_ticket_phases_only_advance():
    garage = new_garage(GarageConfig())
    vehicle = Vehicle("v1", 4000, "+97455512345")
    ticket = garage.issue_ticket(vehicle, SlotAddress(0, 0), 5000)
    assert ticket.phase is TicketPhase.AWAITING_ENTRY
    ticket.advance(TicketPhase.PARKING)
    ticket.advance(TicketPhase.PARKED)
    with pytest.raises(ValueError):
        ticket.advance(TicketPhase.PARKING)


def test_issue_ticket_counts_and_numbers():
    garage = new_garage(GarageConfig())
    vehicle = Vehicle("v1", 4000, "+97455512345")
    ticket = garage.issue_ticket(vehicle, SlotAddress(1, 2), 0)
    assert ticket.ticket_id == 1
    assert garage.next_ticket_id == 2
    assert garage.vehicles_entered == 1
    assert garage.tickets[1] is ticket
    assert garage.active == {1: ticket}
    assert garage.active_by_phone == {"+97455512345": ticket}
    assert occupancy_count(garage) == (0, 18)


def test_occupancy_counts_track_cells():
    garage = new_garage(GarageConfig())
    garage.slots.set_cell(SlotAddress(0, 0), SlotState.RESERVED, 1)
    assert occupancy_count(garage) == (0, 17)
    garage.slots.set_cell(SlotAddress(0, 0), SlotState.OCCUPIED, 1)
    assert occupancy_count(garage) == (1, 17)


@given(st.data())
def test_slot_counts_match_a_recount_after_every_set_cell(data):
    floors = data.draw(st.integers(1, 5), label="floors")
    per_floor = data.draw(st.integers(1, 8), label="slots_per_floor")
    slots = SlotMatrix(floors, per_floor)
    cell = st.tuples(
        st.integers(0, floors - 1), st.integers(0, per_floor - 1), st.sampled_from(SlotState)
    )
    peak = 0
    for ticket_id, (floor, slot, state) in enumerate(data.draw(st.lists(cell, max_size=30)), 1):
        owner = None if state is SlotState.VACANT else ticket_id
        slots.set_cell(SlotAddress(floor, slot), state, owner)
        recount = {s: sum(c is s for row in slots._state for c in row) for s in SlotState}
        assert slots.counts() == recount
        peak = max(peak, recount[SlotState.OCCUPIED])
        assert slots.occupied_peak == peak
        slots.counts()[state] += 1  # a copy: the caller cannot shift the tally
        assert slots.counts() == recount


def test_slot_matrix_consistency_guard():
    garage = new_garage(GarageConfig())
    with pytest.raises(ValueError):
        garage.slots.set_cell(SlotAddress(0, 0), SlotState.VACANT, 7)
    with pytest.raises(ValueError):
        garage.slots.set_cell(SlotAddress(0, 0), SlotState.OCCUPIED, None)
    # A value equal to a member is not one: the grid scans test members by
    # identity, so it would pass the row comparison and crash the cell loop.
    for state, ticket_id in (("reserved", 7), ("occupied", 7), ("vacant", None)):
        with pytest.raises(ValueError, match="not a slot state"):
            garage.slots.set_cell(SlotAddress(0, 0), state, ticket_id)
    assert garage.slots.state_at(SlotAddress(0, 0)) is SlotState.VACANT
    assert occupancy_count(garage) == (0, 18)


@pytest.mark.parametrize(
    "entry_ms,exit_ms,minutes",
    [
        (0, 0, 0),
        (0, 1, 1),
        (0, 60_000, 1),
        (0, 60_001, 2),
        (5_000, 61_001, 1),
        (0, 3_600_000, 60),
    ],
)
def test_billed_minutes_rounds_up(entry_ms, exit_ms, minutes):
    assert billed_minutes(entry_ms, exit_ms) == minutes


def test_billed_minutes_rejects_negative_span():
    with pytest.raises(NegativeDurationError):
        billed_minutes(1000, 999)
