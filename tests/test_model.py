from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autopark.model import (
    MAX_CELLS,
    GarageConfig,
    GarageState,
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
        {"billing_rate_per_minute": Decimal("-0")},  # it would bill Due: -0.00
        {"billing_rate_per_minute": Decimal("-0E+3")},
        {"bus_voltage_v": 0.0},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        GarageConfig(**kwargs).validate()


def test_a_vehicle_length_limit_with_no_exact_float_is_refused():
    """The length sensors' beams sit at float positions: past 2**53 the first
    arrival once ended in a bare OverflowError."""
    GarageConfig(max_vehicle_length_mm=2**53).validate()
    for length in (2**53 + 1, 10**400):
        with pytest.raises(InvalidConfigError) as err:
            GarageConfig(max_vehicle_length_mm=length).validate()
        assert str(err.value) == "max_vehicle_length_mm must be > 0 and <= 2**53"


def test_a_garage_too_large_to_hold_is_refused():
    """The cell count is bounded on the config alone, before any grid is built."""
    GarageConfig(floors=MAX_CELLS // 5, slots_per_floor=5).validate()
    for floors, slots_per_floor in ((MAX_CELLS // 5 + 1, 5), (100_000_000, 6)):
        with pytest.raises(InvalidConfigError) as err:
            GarageConfig(floors=floors, slots_per_floor=slots_per_floor).validate()
        cells = floors * slots_per_floor
        assert str(err.value) == f"floors * slots_per_floor must be <= {MAX_CELLS}, not {cells}"


def test_slot_pitch_must_be_integral_steps():
    # 7 slots: 360/7 degrees per face, not a multiple of the platform step
    with pytest.raises(InvalidConfigError):
        GarageConfig(slots_per_floor=7).validate()
    # The slot counts that validate are those that divide the ring's steps.
    valid = []
    for slots in range(1, 1201):
        try:
            GarageConfig(floors=1, slots_per_floor=slots).validate()
        except InvalidConfigError as err:
            assert str(err) == (
                f"platform step 0.6 deg does not divide the {360.0 / slots} deg slot pitch"
            )
        else:
            valid.append(slots)
    assert valid == [slots for slots in range(1, 601) if 600 % slots == 0]


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"floors": 2.0}, "floors must be int, not 2.0"),
        ({"floors": True}, "floors must be int, not True"),
        ({"slots_per_floor": 6.0}, "slots_per_floor must be int, not 6.0"),
        ({"max_vehicle_length_mm": 5000.5}, "max_vehicle_length_mm must be int, not 5000.5"),
        ({"billing_rate_per_minute": 0.05}, "billing_rate_per_minute must be Decimal, not 0.05"),
        ({"billing_rate_per_minute": 1}, "billing_rate_per_minute must be Decimal, not 1"),
        ({"bus_voltage_v": False}, "bus_voltage_v must be float, not False"),
        ({"bus_voltage_v": "12"}, "bus_voltage_v must be float, not '12'"),
        # An int past 2**53 would be written whole and read back rounded.
        ({"bus_voltage_v": 2**53 + 1}, "bus_voltage_v must be float, not 9007199254740993"),
        ({"kinematics": (10.0, 5.0, 8.0, 3.0, 2.0)}, "kinematics must be KinematicsConfig"),
        (
            {"kinematics": KinematicsConfig(gate_actuation_s=True)},
            "gate_actuation_s must be float, not True",
        ),
    ],
)
def test_a_config_value_of_the_wrong_type_is_refused(kwargs, message):
    with pytest.raises(InvalidConfigError) as err:
        GarageConfig(**kwargs).validate()
    assert str(err.value).startswith(message)


def test_a_float_field_takes_an_int():
    kinematics = KinematicsConfig(belt_transit_s=10, rotation_per_slot_s=3)
    GarageConfig(bus_voltage_v=2**53, kinematics=kinematics).validate()


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


def test_slot_address_has_text_but_no_order():
    assert str(SlotAddress(2, 3)) == "2/3"
    with pytest.raises(TypeError):
        SlotAddress(0, 5) < SlotAddress(1, 0)


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


def test_the_next_ticket_id_is_the_object_the_ticket_takes():
    """The controller reserves a cell under ``next_ticket_id`` before it
    issues the ticket, so both must hold one id object, past the ids Python
    keeps one object each for."""
    garage = new_garage(GarageConfig())
    for i in range(300):
        next_id = garage.next_ticket_id
        ticket = garage.issue_ticket(Vehicle(f"v{i}", 4000, f"+974{i}"), SlotAddress(0, 0), 0)
        assert ticket.ticket_id is next_id == i + 1


def test_occupancy_counts_track_cells():
    garage = new_garage(GarageConfig())
    garage.slots.set_cell(SlotAddress(0, 0), SlotState.RESERVED, 1)
    assert occupancy_count(garage) == (0, 17)
    garage.slots.set_cell(SlotAddress(0, 0), SlotState.OCCUPIED, 1)
    assert occupancy_count(garage) == (1, 17)


@given(st.data())
def test_slot_counts_match_a_recount_after_every_set_cell(data):
    """Every cell reads back what was last written to it, and the counts and
    the peak match a recount of those writes."""
    floors = data.draw(st.integers(1, 5), label="floors")
    per_floor = data.draw(st.integers(1, 8), label="slots_per_floor")
    slots = SlotMatrix(floors, per_floor)
    garage = GarageState(GarageConfig(), slots)  # occupancy_count reads only the slots
    cell = st.tuples(
        st.integers(0, floors - 1), st.integers(0, per_floor - 1), st.sampled_from(SlotState)
    )
    written: dict[SlotAddress, tuple[SlotState, int | None]] = {}
    peak = 0
    for ticket_id, (floor, slot, state) in enumerate(data.draw(st.lists(cell, max_size=30)), 1):
        owner = None if state is SlotState.VACANT else ticket_id
        slots.set_cell(SlotAddress(floor, slot), state, owner)
        written[SlotAddress(floor, slot)] = (state, owner)
        for addr in slots.addresses():
            assert (slots.state_at(addr), slots.ticket_at(addr)) == written.get(
                addr, (SlotState.VACANT, None)
            )
        states = [state for state, _ in written.values()]
        occupied = states.count(SlotState.OCCUPIED)
        vacant = floors * per_floor - occupied - states.count(SlotState.RESERVED)
        peak = max(peak, occupied)
        assert slots.occupied_peak == peak
        assert occupancy_count(garage) == (occupied, vacant)


def test_slot_matrix_consistency_guard():
    garage = new_garage(GarageConfig())
    with pytest.raises(ValueError):
        garage.slots.set_cell(SlotAddress(0, 0), SlotState.VACANT, 7)
    with pytest.raises(ValueError):
        garage.slots.set_cell(SlotAddress(0, 0), SlotState.OCCUPIED, None)
    # A held cell's ticket is an int: the scan names any other id a fault.
    for ticket_id in ("7", 7.0, True):
        with pytest.raises(ValueError, match="need an int ticket id"):
            garage.slots.set_cell(SlotAddress(0, 0), SlotState.RESERVED, ticket_id)
    # A value equal to a member is not one.
    for state, ticket_id in (("reserved", 7), ("occupied", 7), ("vacant", None)):
        with pytest.raises(ValueError, match="not a slot state"):
            garage.slots.set_cell(SlotAddress(0, 0), state, ticket_id)
    assert garage.slots.state_at(SlotAddress(0, 0)) is SlotState.VACANT
    assert occupancy_count(garage) == (0, 18)


@pytest.mark.parametrize(
    "addr",
    [
        SlotAddress(-1, 0),
        SlotAddress(0, -1),
        SlotAddress(3, 0),
        SlotAddress(0, 6),
        SlotAddress(1.0, 0),
    ],
    ids=str,
)
def test_an_address_off_the_grid_is_refused(addr):
    """A negative index no longer reads a cell from the row's end, and one
    past an edge no longer names a cell of the next floor."""
    slots = SlotMatrix(3, 6)
    with pytest.raises(IndexError, match=f"no cell {addr} on the 3x6 grid"):
        slots.set_cell(addr, SlotState.RESERVED, 7)
    with pytest.raises(IndexError):
        slots.state_at(addr)
    with pytest.raises(IndexError):
        slots.ticket_at(addr)
    assert not slots._reserved and not slots._occupied


def test_a_cell_key_has_one_address_for_the_life_of_the_grid():
    """On a 4x6 grid each key's address is its floor and slot, handed out as
    one object before and after the cell is held and vacated; a key off the
    grid has none."""
    slots = SlotMatrix(4, 6)
    first = [slots.address(key) for key in range(24)]
    assert first == [SlotAddress(*divmod(key, 6)) for key in range(24)]
    for key, addr in enumerate(first):
        slots.set_cell(addr, SlotState.OCCUPIED, key + 1)
        slots.set_cell(SlotAddress(*divmod(key, 6)), SlotState.VACANT, None)
        assert slots.address(key) is addr == SlotAddress(*divmod(key, 6))
    assert slots.first_vacant() is first[0]
    for key in (-1, 24, 3.0, True, "3"):
        with pytest.raises(IndexError, match=f"no cell key {key!r} on the 4x6 grid"):
            slots.address(key)
    assert len(slots._addresses) == 24


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
