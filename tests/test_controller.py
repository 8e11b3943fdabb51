import dataclasses
import random
import re
from decimal import Decimal
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autopark.controller import (
    EXIT_PLAN,
    HOMING_PLAN,
    GarageController,
    InvariantViolationError,
    NoVacancyError,
    Program,
    Step,
    UnknownActionError,
    _parking_plan,
    _retrieval_plan,
    allocate_slot,
    check_invariants,
    compute_bill,
)
from autopark.devices import ENTRANCE_BELT, EXIT_BELT, PLATFORM_BELT, BeltId
from autopark.engine import (
    Arrival,
    BeltFault,
    FaultCleared,
    InboundSms,
    PackedList,
    PaymentConfirmed,
)
from autopark.model import (
    GarageConfig,
    InvalidEventError,
    KinematicsConfig,
    SlotAddress,
    SlotState,
    TicketPhase,
    Vehicle,
    billed_minutes,
    new_garage,
)
from autopark.report import format_report
from autopark.scenario import (
    GarageSession,
    ScenarioEvent,
    parse_scenario,
    random_scenario,
    run_scenario,
)
from test_golden_digests import paid_day
from test_invariant_scan import _CountingCells

GOLDEN = Path(__file__).parent / "golden"


def vehicle(i: int, length: int = 4200) -> Vehicle:
    return Vehicle(f"v{i}", length, f"+97455{i:05d}")


def drive(events, config=None, check=True) -> GarageSession:
    session = GarageSession(config, check=check)
    for at_ms, payload in events:
        session.sim.schedule(at_ms, payload)
    session.run_until_idle()
    return session


def sent_bodies(session: GarageSession) -> list[str]:
    """The bodies of every SMS sent, from the ``>> <body><CTRL-Z>`` modem log lines."""
    return [
        line.removeprefix(">> ").removesuffix("<CTRL-Z>")
        for line in session.gateway.log
        if line.endswith("<CTRL-Z>")
    ]


def starts(session, device_prefix=""):
    return [
        line
        for line in session.sim.trace
        if "act=start" in line and f"device={device_prefix}" in line
    ]


# -- single car, nearest slot ---------------------------------------------------


def test_single_parking_milestones():
    session = drive([(5000, Arrival(vehicle(1)))])
    ticket = session.garage.tickets[1]
    assert ticket.slot == SlotAddress(0, 0)
    assert ticket.phase is TicketPhase.PARKED
    assert ticket.parked_ms == 34_000
    assert session.garage.slots.state_at(SlotAddress(0, 0)) is SlotState.OCCUPIED


def test_accept_ordering_matches_gate_timer_sms():
    session = drive([(5000, Arrival(vehicle(1)))])
    assert session.sim.trace[:6] == [
        "t=5000 seq=0 kind=arrival detail=vehicle=v1 length_mm=4200 phone=+9745500001",
        "ticket=1 phase=AwaitingEntry->Parking t=5000",
        "t=5000 act=request device=gate:entrance ticket=1",
        "t=5000 timer=start ticket=1",
        "t=5000 sms=out kind=welcome number=+9745500001 ref=1",
        "t=5000 act=start device=gate:entrance action=1 op=open ticket=1",
    ]


@pytest.mark.parametrize("chunk", [PackedList.CHUNK, 2], ids=["open", "packed"])
def test_welcome_exchange_matches_golden_log(monkeypatch, chunk):
    monkeypatch.setattr(PackedList, "CHUNK", chunk)
    session = drive([(5000, Arrival(Vehicle("v1", 4200, "+97455512345")))])
    expected = (GOLDEN / "welcome_exchange.log").read_text().splitlines()
    assert list(session.gateway.log) == expected


def test_full_cycle_retrieve_and_pay():
    session = drive(
        [
            (5000, Arrival(vehicle(1))),
            (120_000, InboundSms("+9745500001", "car please")),
            (300_000, PaymentConfirmed(1)),
        ]
    )
    ticket = session.garage.tickets[1]
    assert ticket.exit_ms == 120_000  # the retrieval request stops billing
    assert ticket.ready_ms == 145_000
    assert ticket.closed_ms == 300_000
    assert ticket.phase is TicketPhase.CLOSED
    assert session.garage.active == {} and session.garage.active_by_phone == {}
    assert ticket.amount_due == Decimal("0.10")
    assert session.garage.slots.state_at(SlotAddress(0, 0)) is SlotState.VACANT
    assert sent_bodies(session) == [
        "Parked at 00:00:05. Ticket 1. Reply to this number to retrieve your car.",
        "Retrieved at 00:02:00. Duration 2 min. Due: 0.10.",
    ]


def test_billing_timer_runs_accept_to_request_exactly():
    session = drive(
        [
            (5000, Arrival(vehicle(1))),
            (65_001, InboundSms("+9745500001", "now")),
        ]
    )
    # 60.001 s inside the garage crosses into the second billed minute
    assert session.garage.tickets[1].amount_due == Decimal("0.10")


# -- slot allocation -------------------------------------------------------------


def test_slots_fill_lowest_floor_first():
    events = [(i * 120_000, Arrival(vehicle(i + 1))) for i in range(8)]
    session = drive(events)
    expected = [SlotAddress(i // 6, i % 6) for i in range(8)]
    assert [session.garage.tickets[i + 1].slot for i in range(8)] == expected


def test_allocate_slot_matches_exhaustive_scan():
    rng = random.Random(42)
    for _ in range(300):
        garage = new_garage(GarageConfig())
        addresses = list(garage.slots.addresses())
        for addr in addresses:
            roll = rng.random()
            if roll < 0.4:
                garage.slots.set_cell(addr, SlotState.OCCUPIED, 900 + addr.floor * 10 + addr.slot)
            elif roll < 0.5:
                garage.slots.set_cell(addr, SlotState.RESERVED, 800 + addr.floor * 10 + addr.slot)
        vacant = [a for a in addresses if garage.slots.state_at(a) is SlotState.VACANT]
        if not vacant:
            with pytest.raises(NoVacancyError):
                allocate_slot(garage.slots, 1)
        else:
            assert allocate_slot(garage.slots, 1) == vacant[0]  # addresses() is floor-major


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_allocation_reuses_vacated_cells_first_free(data):
    """Writes and allocations interleaved, vacating included: each allocation
    takes the first vacant cell in floor-major order, reused cells and cells
    never handed out alike."""
    floors = data.draw(st.integers(1, 4), label="floors")
    per_floor = data.draw(st.integers(1, 6), label="slots_per_floor")
    slots = new_garage(GarageConfig(floors=floors, slots_per_floor=per_floor)).slots
    write = st.tuples(
        st.integers(0, floors - 1), st.integers(0, per_floor - 1), st.sampled_from(SlotState)
    )
    steps = st.lists(st.one_of(st.none(), write), max_size=40)  # None allocates
    for ticket_id, step in enumerate(data.draw(steps, label="steps"), 1):
        if step is not None:
            floor, slot, state = step
            owner = None if state is SlotState.VACANT else ticket_id
            slots.set_cell(SlotAddress(floor, slot), state, owner)
            continue
        vacant = [a for a in slots.addresses() if slots.state_at(a) is SlotState.VACANT]
        if not vacant:
            with pytest.raises(NoVacancyError):
                allocate_slot(slots, ticket_id)
            continue
        assert allocate_slot(slots, ticket_id) == vacant[0]
        assert (slots.state_at(vacant[0]), slots.ticket_at(vacant[0])) == (
            SlotState.RESERVED, ticket_id
        )


def _counting_grid(floors: int, slots_per_floor: int):
    slots = new_garage(GarageConfig(floors=floors, slots_per_floor=slots_per_floor)).slots
    slots._reserved = _CountingCells(slots._reserved)
    slots._occupied = _CountingCells(slots._occupied)
    return slots


def _allocation_reads(slots, ticket_id: int) -> int:
    _CountingCells.reads = 0
    allocate_slot(slots, ticket_id)
    return _CountingCells.reads


def test_filling_a_garage_bottom_up_reads_a_few_keys_per_allocation(monkeypatch):
    """The low-water mark keeps each allocation's walk short: it steps past
    the one key the last allocation took, whatever the garage has held."""
    monkeypatch.setattr(_CountingCells, "reads", 0)
    slots = _counting_grid(20, 24)
    reads = [_allocation_reads(slots, ticket_id) for ticket_id in range(1, slots.cells + 1)]
    assert max(reads) <= 3
    assert [slots.address(key) for key in sorted(slots._reserved)] == list(slots.addresses())
    with pytest.raises(NoVacancyError):
        allocate_slot(slots, slots.cells + 1)


def test_allocation_reads_do_not_grow_with_the_garage(monkeypatch):
    """With five held cells, a 200x300 garage's allocations read no more
    keys than a 3x6 garage's, vacated cells reused included."""
    monkeypatch.setattr(_CountingCells, "reads", 0)

    def reads(floors: int, slots_per_floor: int) -> list[int]:
        slots = _counting_grid(floors, slots_per_floor)
        out = [_allocation_reads(slots, ticket_id) for ticket_id in range(1, 6)]
        for key in (3, 1):
            slots.set_cell(slots.address(key), SlotState.VACANT, None)
        out += [_allocation_reads(slots, ticket_id) for ticket_id in range(6, 9)]
        assert sorted(slots._reserved) == [0, 1, 2, 3, 4, 5]
        return out

    small, big = reads(3, 6), reads(200, 300)
    assert all(b <= s for b, s in zip(big, small, strict=True)), (big, small)


# -- rejections -------------------------------------------------------------------


def test_too_long_vehicle_rejected_at_the_gate():
    session = drive([(1000, Arrival(vehicle(1, length=5001)))])
    assert session.garage.tickets == {}
    assert session.controller.arrivals[0].reason == "TooLong"
    assert starts(session) == []  # gate never moved
    assert sent_bodies(session) == []


def test_exactly_max_length_is_accepted():
    session = drive([(1000, Arrival(vehicle(1, length=5000)))])
    assert session.garage.tickets[1].phase is TicketPhase.PARKED


def test_duplicate_phone_rejected_while_ticket_active():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (60_000, Arrival(Vehicle("v2", 4000, "+9745500001"))),
        ]
    )
    assert session.controller.arrivals[1].reason == "DuplicatePhone"
    assert len(session.garage.tickets) == 1


def test_phone_reusable_after_ticket_closes():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (120_000, InboundSms("+9745500001", "out")),
            (240_000, PaymentConfirmed(1)),
            (600_000, Arrival(Vehicle("v2", 4000, "+9745500001"))),
        ]
    )
    assert session.controller.arrivals[1].ticket_id == 2
    assert session.garage.tickets[2].phase is TicketPhase.PARKED


def test_full_garage_rejects_with_no_vacancy():
    config = GarageConfig(floors=1)
    events = [(i * 120_000, Arrival(vehicle(i + 1))) for i in range(6)]
    events.append((6 * 120_000, Arrival(vehicle(7))))
    session = drive(events, config=config)
    assert session.controller.arrivals[6].reason == "NoVacancy"
    assert len(session.garage.tickets) == 6


# -- retrieval edge cases ----------------------------------------------------------


def test_unknown_phone_gets_no_motion():
    session = drive([(1000, InboundSms("+99999", "hello?"))])
    assert starts(session) == []
    assert any("reject=UnknownPhone" in line for line in session.sim.trace)


def test_text_during_parking_is_not_retrievable_yet():
    session = drive(
        [
            (5000, Arrival(vehicle(1))),
            (10_000, InboundSms("+9745500001", "changed my mind")),
        ]
    )
    assert any("reject=UnknownPhone" in line for line in session.sim.trace)
    assert session.garage.tickets[1].phase is TicketPhase.PARKED


def test_second_text_while_retrieving_is_idempotent():
    session = drive(
        [
            (5000, Arrival(vehicle(1))),
            (120_000, InboundSms("+9745500001", "come")),
            (125_000, InboundSms("+9745500001", "hurry up")),
        ]
    )
    assert any("retrieval=duplicate" in line for line in session.sim.trace)
    bills = [line for line in session.sim.trace if " bill ticket=" in line]
    assert len(bills) == 1
    assert session.garage.tickets[1].exit_ms == 120_000  # first text set the clock


def test_payment_validation():
    session = GarageSession()
    session.sim.schedule(5000, Arrival(vehicle(1)))
    session.run_until_idle()
    session.controller.handle_payment(9, 40_000)
    session.controller.handle_payment(1, 40_000)
    assert session.sim.trace[-2:] == [
        "t=40000 reject=UnknownTicket ticket=9",
        "t=40000 reject=WrongPhase ticket=1",
    ]
    assert session.garage.tickets[1].phase is TicketPhase.PARKED


# -- concurrency and the relay budget ------------------------------------------------


def test_burst_of_arrivals_respects_motor_budget():
    events = [(i * 3000, Arrival(vehicle(i + 1))) for i in range(6)]
    session = drive(events)  # per-event invariant scan enforces the budget
    assert session.fleet.relays.max_concurrent <= 2
    for ticket in session.garage.tickets.values():
        assert ticket.phase is TicketPhase.PARKED


def test_mixed_traffic_drains_through_single_exit_bay():
    session = GarageSession()
    for i in range(5):
        session.sim.schedule(i * 7000, Arrival(vehicle(i + 1)))
        session.sim.schedule(200_000 + i * 4000, InboundSms(f"+97455{i + 1:05d}", "retrieve"))
    session.run_until_idle()
    # only one car fits the exit bay; the rest stall until payments drain it
    phases = [session.garage.tickets[i + 1].phase for i in range(5)]
    assert phases.count(TicketPhase.AWAITING_PAYMENT) == 1
    assert phases.count(TicketPhase.RETRIEVING) == 4
    for ticket_id in range(1, 6):
        session.sim.schedule(session.sim.clock_ms + 1000, PaymentConfirmed(ticket_id))
        session.run_until_idle()
    for ticket_id in range(1, 6):
        assert session.garage.tickets[ticket_id].phase is TicketPhase.CLOSED
    assert session.fleet.relays.max_concurrent == 2


def test_exit_bay_stages_one_car_at_a_time():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (60_000, Arrival(vehicle(2))),
            (200_000, InboundSms("+9745500001", "a")),
            (201_000, InboundSms("+9745500002", "b")),
            (400_000, PaymentConfirmed(1)),
            (500_000, PaymentConfirmed(2)),
        ]
    )
    tickets = session.garage.tickets
    # the second car cannot reach the exit belt until the first one departs
    assert tickets[1].ready_ms is not None
    assert tickets[2].ready_ms > 400_000
    assert session.garage.tickets[2].phase is TicketPhase.CLOSED


def test_entrance_belt_held_until_car_boards_platform():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (1000, Arrival(vehicle(2))),
        ]
    )
    # first conveyor run ends t=12s, second cannot start before the car boards
    entrance_starts = starts(session, "belt:entrance")
    t_values = [int(line.split()[0].removeprefix("t=")) for line in entrance_starts]
    assert t_values[0] == 2000
    assert t_values[1] >= 19_000  # after car 1 leaves the belt
    assert session.garage.tickets[2].phase is TicketPhase.PARKED


# -- faults and halting ---------------------------------------------------------------


def test_fault_halts_new_motions_but_not_inflight():
    session = drive(
        [
            (5000, Arrival(vehicle(1))),
            (8000, BeltFault("slot:2")),
            (30_000, FaultCleared()),
        ]
    )
    halted_window = [
        line
        for line in session.sim.trace
        if line.startswith("t=") and "act=start" in line
    ]
    for line in halted_window:
        t = int(line.split()[0].removeprefix("t="))
        assert not 8000 < t < 30_000
    assert session.garage.tickets[1].phase is TicketPhase.PARKED
    assert session.garage.tickets[1].parked_ms == 47_000  # 17s of work after resume


def test_arrival_during_halt_is_rejected():
    session = drive(
        [
            (0, BeltFault("entrance")),
            (1000, Arrival(vehicle(1))),
            (2000, FaultCleared()),
            (10_000, Arrival(vehicle(2))),
        ]
    )
    assert session.controller.arrivals[0].reason == "Halted"
    assert session.controller.arrivals[1].ticket_id == 1


def test_retrieval_during_halt_is_rejected():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (60_000, BeltFault("exit")),
            (61_000, InboundSms("+9745500001", "now please")),
            (70_000, FaultCleared()),
        ]
    )
    assert any("reject=Halted" in line for line in session.sim.trace)
    assert session.garage.tickets[1].phase is TicketPhase.PARKED


def test_payment_during_halt_closes_but_defers_motion():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (100_000, InboundSms("+9745500001", "out")),
            (200_000, BeltFault("slot:4")),
            (210_000, PaymentConfirmed(1)),
            (260_000, FaultCleared()),
        ]
    )
    assert session.garage.tickets[1].phase is TicketPhase.CLOSED
    exit_gate_starts = starts(session, "gate:exit")
    first = int(exit_gate_starts[0].split()[0].removeprefix("t="))
    assert first == 260_000  # deferred to the all-clear


def test_one_clearing_resumes_every_faulted_belt():
    """Faults on the entrance and the exit belt, then one ``fault_cleared``:
    a whole cycle through both belts runs after it."""
    session = drive(
        [
            (0, BeltFault("entrance")),
            (1000, BeltFault("exit")),
            (2000, FaultCleared()),
            (3000, Arrival(vehicle(1))),
            (120_000, InboundSms("+9745500001", "out")),
            (300_000, PaymentConfirmed(1)),
        ]
    )
    assert sum("mode=Normal" in line for line in session.sim.trace) == 1
    assert len(starts(session, "belt:entrance")) == 1
    assert len(starts(session, "belt:exit")) == 2  # onto the exit belt, then out
    assert session.garage.tickets[1].phase is TicketPhase.CLOSED
    assert session.fleet.gates["exit"].open is False  # the exit program ran to its end


def test_fault_on_a_belt_the_garage_lacks_fails_at_dispatch():
    session = GarageSession()
    session.sim.schedule(1000, BeltFault("slot:99"))  # the 3x6 garage has slots 0-5
    with pytest.raises(KeyError):
        session.run_until_idle()


def test_fault_on_a_belt_the_garage_lacks_is_refused_when_scheduled():
    session = GarageSession()
    with pytest.raises(InvalidEventError, match="no such belt: slot:99"):
        session.schedule(ScenarioEvent(1000, BeltFault("slot:99")))
    assert session.sim.pending() == 0


def test_clear_without_fault_is_a_noop():
    session = drive([(1000, FaultCleared()), (2000, Arrival(vehicle(1)))])
    assert session.garage.tickets[1].phase is TicketPhase.PARKED


# -- homing -------------------------------------------------------------------------


def test_platform_homes_after_work():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (120_000, Arrival(vehicle(2))),  # slot 0/1 needs a rotation
        ]
    )
    platform = session.fleet.platform
    assert platform.floor_pos == 0
    assert platform.face == 0
    assert any("ticket=-" in line for line in session.sim.trace)


def test_homing_records_name_their_program_with_a_dash():
    """The homing program's holder is ``"-"``: its claim on the platform is
    held in that name and its request and start records read ``ticket=-``."""
    session = GarageSession()
    session.sim.schedule(0, Arrival(vehicle(1)))
    session.sim.schedule(120_000, Arrival(vehicle(2)))  # slot 0/1 needs a rotation
    session.run_until(152_000)
    assert session.controller.claims == {"platform": "-"}
    session.run_until_idle()
    assert [line for line in session.sim.trace if line.endswith(" ticket=-")] == [
        "t=152000 act=request device=elevator ticket=-",
        "t=152000 act=start device=elevator action=15 op=lift floor=0 travel=0 ticket=-",
        "t=152000 act=request device=rotator ticket=-",
        "t=152000 act=start device=rotator action=16 op=rotate slot=0 dir=ccw faces=1 ticket=-",
    ]


def test_homing_yields_to_new_work():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (35_000, InboundSms("+9745500001", "back already")),
        ]
    )
    assert session.garage.tickets[1].phase is TicketPhase.AWAITING_PAYMENT
    assert session.fleet.platform.floor_pos == 0
    assert session.fleet.platform.face == 0


# -- billing math ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry_ms,exit_ms,rate,expected",
    [
        (0, 3_600_000, "0.05", "3.00"),
        (0, 61_000, "1", "2"),
        (0, 60_000, "0.05", "0.05"),
        (0, 0, "0.05", "0.00"),
        (0, 1, "0.05", "0.05"),
        (0, 60_000, "0.005", "0.01"),
        (0, 1_800_000, "0.07", "2.10"),
    ],
)
def test_compute_bill(entry_ms, exit_ms, rate, expected):
    assert compute_bill(entry_ms, exit_ms, Decimal(rate)) == Decimal(expected)


# -- invariant scanner ------------------------------------------------------------------


def test_invariants_hold_on_fresh_and_busy_garages():
    session = GarageSession()
    check_invariants(session.controller)
    session.sim.schedule(0, Arrival(vehicle(1)))
    session.run_until_idle()
    check_invariants(session.controller)


def test_invariants_catch_orphaned_cell():
    session = GarageSession()
    session.garage.slots.set_cell(SlotAddress(0, 0), SlotState.OCCUPIED, 404)
    with pytest.raises(InvariantViolationError):
        check_invariants(session.controller)


def test_unknown_device_completion_is_an_error():
    session = GarageSession()
    with pytest.raises(UnknownActionError):
        session.controller.on_device_done("belt:entrance", 999, 0)


# -- claims ---------------------------------------------------------------------

# Two cars with one vehicle id: the first waits for payment on the exit belt
# while the second rides the entrance belt.
SHARED_VEHICLE_ID = (
    "t=0 kind=arrival vehicle=v1 length_mm=4000 phone=+1111\n"
    "t=100 kind=sms_in phone=+1111 body=back\n"
    "t=200 kind=arrival vehicle=v1 length_mm=4000 phone=+2222\n"
)


def _shared_id_scenario(cars) -> str:
    """Cars drawing their vehicle ids from a small pool, each with its own
    phone: an arrival, maybe a retrieval text, maybe a payment after it.
    Every car is accepted, so tickets follow the order of arrival."""
    events = []
    for ticket_id, (arrive_s, vehicle_id, retrieve_after_s, pay_after_s) in enumerate(
        sorted(cars, key=lambda car: car[0]), start=1
    ):
        phone = f"+974555{ticket_id:05d}"
        events.append((arrive_s, f"kind=arrival vehicle={vehicle_id} length_mm=4200 phone={phone}"))
        if retrieve_after_s is None:
            continue
        events.append((arrive_s + retrieve_after_s, f"kind=sms_in phone={phone} body=out"))
        if pay_after_s is not None:
            pay_s = arrive_s + retrieve_after_s + pay_after_s
            events.append((pay_s, f"kind=payment ticket={ticket_id}"))
    events.sort(key=lambda event: event[0])
    return "".join(f"t={t_s} {rest}\n" for t_s, rest in events)


def _cars(pool: list[str]):
    car = st.tuples(
        st.integers(0, 600),
        st.sampled_from(pool),
        st.one_of(st.none(), st.integers(30, 900)),
        st.one_of(st.none(), st.integers(0, 600)),
    )
    return st.lists(car, min_size=1, max_size=8)


shared_id_scenarios = st.integers(2, 3).flatmap(
    lambda n: _cars([f"v{i}" for i in range(1, n + 1)])
).map(_shared_id_scenario)


@example(SHARED_VEHICLE_ID)
@settings(max_examples=60, deadline=None)
@given(shared_id_scenarios)
def test_cars_may_share_a_vehicle_id(text):
    """Claims belong to tickets, which are unique; a vehicle id need not be."""
    scenario = parse_scenario(text)
    checked = run_scenario(scenario)
    unchecked = run_scenario(scenario, check=False)
    assert list(checked.trace) == list(unchecked.trace)
    for fmt in ("csv", "json-lines"):
        assert format_report(checked.report, fmt) == format_report(unchecked.report, fmt)


def test_every_claim_is_freed_after_a_paid_day():
    session = run_scenario(paid_day("floors=3 slots_per_floor=6", 12)).session
    assert all(t.phase is TicketPhase.CLOSED for t in session.garage.tickets.values())
    assert session.controller.claims == {}


def test_a_day_shares_each_cell_address_and_each_bill():
    """Twelve paying cars on the 3x6 garage, staying 15 to 17 minutes: every
    ticket that used one cell holds the grid's one address for it, and every
    bill of equal minutes is one amount object, closed tickets included."""
    events = []
    for i in range(12):
        t_ms = 240_000 * (i + 1)
        exit_ms = t_ms + 900_000 + 60_000 * (i % 3)
        events += [
            (t_ms, Arrival(vehicle(i + 1))),
            (exit_ms, InboundSms(vehicle(i + 1).phone, "out")),
            (exit_ms + 300_000, PaymentConfirmed(i + 1)),
        ]
    session = drive(events)
    tickets = list(session.garage.tickets.values())
    assert all(t.phase is TicketPhase.CLOSED for t in tickets)
    slots = session.garage.slots
    cells: dict[SlotAddress, list] = {}
    bills: dict[int, list] = {}
    for ticket in tickets:
        assert ticket.slot is slots.address(slots.key(ticket.slot))
        cells.setdefault(ticket.slot, []).append(ticket.slot)
        minutes = billed_minutes(ticket.entry_ms, ticket.exit_ms)
        bills.setdefault(minutes, []).append(ticket.amount_due)
    assert len(cells) < len(tickets) and sorted(bills) == [15, 16, 17]
    for shared in (*cells.values(), *bills.values()):
        assert len({id(value) for value in shared}) == 1


def test_an_unpaid_car_keeps_its_exit_belt_claim_until_it_leaves():
    """The retrieval claims the exit belt for its ticket and keeps it; the
    exit program, under the same ticket, frees it once the car is through."""
    session = GarageSession()
    claims = session.controller.claims
    scan = session.sim.check
    held: list[int | None] = []

    def record() -> None:
        scan()
        held.append(claims.get(EXIT_BELT))

    session.sim.check = record
    session.sim.schedule(0, Arrival(vehicle(1)))
    session.sim.schedule(100_000, InboundSms(vehicle(1).phone, "out"))
    session.run_until_idle()
    assert session.garage.tickets[1].phase is TicketPhase.AWAITING_PAYMENT
    assert claims == {EXIT_BELT: 1}
    session.sim.schedule(300_000, PaymentConfirmed(1))
    session.run_until_idle()
    assert session.garage.tickets[1].phase is TicketPhase.CLOSED
    assert claims == {}
    # One unbroken hold by ticket 1, from the retrieval's first step to the
    # exit program's run of the belt.
    first = held.index(1)
    last = len(held) - held[::-1].index(1)
    assert set(held[first:last]) == {1}
    assert set(held[:first]) | set(held[last:]) == {None}


# Car v2 is asked back and never pays, so it waits on the exit belt; car v1
# is then asked back and its retrieval waits to stage onto that belt. Cars
# v3 and v4 arrive after both.
UNPAID_CAR_THEN_ARRIVALS = (
    "t=0 kind=arrival vehicle=v1 length_mm=4200 phone=+97455500001\n"
    "t=60 kind=arrival vehicle=v2 length_mm=4200 phone=+97455500002\n"
    "t=200 kind=sms_in phone=+97455500002 body=out\n"
    "t=300 kind=sms_in phone=+97455500001 body=out\n"
    "t=400 kind=arrival vehicle=v3 length_mm=4200 phone=+97455500003\n"
    "t=500 kind=arrival vehicle=v4 length_mm=4200 phone=+97455500004\n"
)


def test_an_unpaid_car_does_not_delay_parking_for_later_arrivals():
    """The garage stays live while a customer has not paid: the retrieval
    waiting behind the unpaid car holds nothing, so every later arrival
    parks, and v3, parked into the cell v2 left, takes exactly as long as v2
    took to park there in an idle garage."""
    result = run_scenario(parse_scenario(UNPAID_CAR_THEN_ARRIVALS))
    rows = {row.vehicle_id: row for row in result.report.rows}
    assert {vehicle_id: row.status for vehicle_id, row in rows.items()} == {
        "v1": "Retrieving",
        "v2": "AwaitingPayment",
        "v3": "Parked",
        "v4": "Parked",
    }
    tickets = result.session.garage.tickets
    assert tickets[3].slot == tickets[2].slot
    assert rows["v3"].parking_latency_ms == rows["v2"].parking_latency_ms
    assert result.session.controller.claims == {EXIT_BELT: 2}


# -- plans ---------------------------------------------------------------------
# The step kinds, the frozen step record, the four step-list builders and the
# per-program lock scan that the cached plans replaced, kept as the reference
# they must match.


class Kind(Enum):
    OPEN_GATE = "open_gate"
    CLOSE_GATE = "close_gate"
    CONVEY = "convey"
    LOAD_PLATFORM = "load_platform"
    ELEVATE = "elevate"
    ROTATE = "rotate"
    TRANSFER_TO_SLOT = "transfer_to_slot"
    TRANSFER_FROM_SLOT = "transfer_from_slot"


@dataclasses.dataclass(frozen=True)
class OracleStep:
    kind: Kind
    gate: str | None = None
    belt: BeltId | None = None
    target: int | None = None
    car_onto: BeltId | None = None
    car_rides: bool = False
    car_off: BeltId | None = None
    bay: str | None = None
    platform: bool = False
    done: object = None  # what the motion's end does to the ticket
    stages: BeltId | None = None  # a belt claimed ahead of the lock, for the car to come


def oracle_parking_steps(slot: SlotAddress) -> list[OracleStep]:
    return [
        OracleStep(Kind.OPEN_GATE, gate="entrance", bay="entrance"),
        OracleStep(Kind.CONVEY, belt=ENTRANCE_BELT, car_onto=ENTRANCE_BELT, bay="entrance"),
        OracleStep(Kind.CLOSE_GATE, gate="entrance", bay="entrance"),
        OracleStep(Kind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_off=ENTRANCE_BELT, platform=True),
        OracleStep(Kind.ELEVATE, target=slot.floor, platform=True),
        OracleStep(Kind.ROTATE, target=slot.slot, platform=True),
        OracleStep(
            Kind.TRANSFER_TO_SLOT,
            belt=BeltId("slot", slot.slot),
            platform=True,
            done=GarageController._parked,
        ),
    ]


def oracle_retrieval_steps(slot: SlotAddress) -> list[OracleStep]:
    # The exit belt is staged before the platform is taken, so a retrieval
    # waiting for it holds nothing (the exit-staging wedge).
    return [
        OracleStep(Kind.ELEVATE, target=slot.floor, stages=EXIT_BELT, platform=True),
        OracleStep(Kind.ROTATE, target=slot.slot, platform=True),
        OracleStep(
            Kind.TRANSFER_FROM_SLOT,
            belt=BeltId("slot", slot.slot),
            platform=True,
            done=GarageController._vacate,
        ),
        OracleStep(Kind.ELEVATE, target=0, platform=True),
        OracleStep(Kind.ROTATE, target=0, platform=True),
        OracleStep(Kind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_onto=EXIT_BELT, platform=True),
        OracleStep(Kind.CONVEY, belt=EXIT_BELT, car_rides=True, done=GarageController._bill),
    ]


def oracle_exit_steps() -> list[OracleStep]:
    return [
        OracleStep(Kind.OPEN_GATE, gate="exit", bay="exit"),
        OracleStep(Kind.CONVEY, belt=EXIT_BELT, car_rides=True, car_off=EXIT_BELT, bay="exit"),
        OracleStep(Kind.CLOSE_GATE, gate="exit", bay="exit"),
    ]


def oracle_homing_steps() -> list[OracleStep]:
    return [
        OracleStep(Kind.ELEVATE, target=0, platform=True),
        OracleStep(Kind.ROTATE, target=0, platform=True),
    ]


def oracle_lock_scan(steps: list[OracleStep]) -> tuple[str | None, int, int]:
    """(bay name, last bay step, last platform step), as a program scanned them."""
    bay_steps = [i for i, s in enumerate(steps) if s.bay]
    platform_steps = [i for i, s in enumerate(steps) if s.platform]
    return (
        steps[bay_steps[0]].bay if bay_steps else None,
        bay_steps[-1] if bay_steps else -1,
        platform_steps[-1] if platform_steps else -1,
    )


def oracle_motion(step: OracleStep) -> tuple[str, tuple]:
    """The ``DeviceFleet`` starter and the arguments that move the oracle
    step's device, as the controller once chose them from its kind."""
    if step.gate is not None:
        return "gate_actuate", (step.gate, "open" if step.kind is Kind.OPEN_GATE else "close")
    if step.belt is not None:
        return "belt_start_convey", (step.belt,)
    if step.kind is Kind.ELEVATE:
        return "elevator_goto_floor", (step.target,)
    return "platform_rotate_to_slot", (step.target,)


def oracle_claims(steps: list[OracleStep]) -> list[tuple[tuple, tuple]]:
    """Each step's (claims, frees). The step claims the belt it stages, its
    bay or the platform, the belt its car moves onto, the belt it rides and
    the belt it leaves; it frees the belt its car leaves, and its lock if it
    is the last step under it. So the retrieval's exit belt, which no retrieval step leaves,
    is kept for the exit program."""
    _, bay_last, platform_last = oracle_lock_scan(steps)
    expected = []
    for i, step in enumerate(steps):
        lock = step.bay or ("platform" if step.platform else None)
        rides = step.belt if step.car_rides else None
        named = (step.stages, lock, step.car_onto, rides, step.car_off)
        claims = tuple(dict.fromkeys(claim for claim in named if claim is not None))
        frees = tuple(
            claim
            for claim in claims
            if claim == step.car_off or (claim == lock and i in (bay_last, platform_last))
        )
        expected.append((claims, frees))
    return expected


def assert_plan_matches(steps, expected: list[OracleStep]) -> None:
    """Each step starts its oracle's motion with arguments of the same types,
    holds and frees its claims, and carries its end's effect."""
    assert len(steps) == len(expected)
    for step, want, (claims, frees) in zip(steps, expected, oracle_claims(expected)):
        assert type(step) is Step
        start, args = oracle_motion(want)
        assert (step.start, step.args) == (start, args), (step, want)
        assert list(map(type, step.args)) == list(map(type, args)), (step, want)
        assert (step.claims, step.frees) == (claims, frees), (step, want)
        assert step.done is want.done, (step, want)


def test_step_keeps_its_field_names_order_and_defaults():
    assert Step._fields == ("start", "args", "device", "claims", "frees", "done")
    assert Step._field_defaults == {"claims": (), "frees": (), "done": None}


def every_plan(config: GarageConfig):
    for floor in range(config.floors):
        for slot in range(config.slots_per_floor):
            addr = SlotAddress(floor, slot)
            yield _parking_plan(addr), oracle_parking_steps(addr)
            yield _retrieval_plan(addr), oracle_retrieval_steps(addr)
    yield EXIT_PLAN, oracle_exit_steps()
    yield HOMING_PLAN, oracle_homing_steps()


@pytest.mark.parametrize("floors,slots_per_floor", [(3, 6), (20, 24)])
def test_plans_match_the_step_builders_they_replaced(floors, slots_per_floor):
    for steps, expected in every_plan(GarageConfig(floors=floors, slots_per_floor=slots_per_floor)):
        assert_plan_matches(steps, expected)


@pytest.mark.parametrize("floors,slots_per_floor", [(3, 6), (20, 24)])
def test_step_device_is_the_device_the_fleet_starts(floors, slots_per_floor):
    session = GarageSession(GarageConfig(floors=floors, slots_per_floor=slots_per_floor))
    for steps, _ in every_plan(session.config):
        program = Program(steps)
        for step in steps:
            action = getattr(session.fleet, step.start)(*step.args, 0, program)
            assert action.device_id == step.device, step
            assert action.owner is program
            session.fleet.complete_action(action.device_id, action.action_id)


def _covering_claim(step: Step) -> str | BeltId:
    """The claim a step must hold to move its device: a gate's bay, the
    entrance or exit belt itself, and the platform for every other device."""
    if step.start == "gate_actuate":
        return step.args[0]
    if step.start == "belt_start_convey" and step.args[0] in (ENTRANCE_BELT, EXIT_BELT):
        return step.args[0]
    return "platform"


@pytest.mark.parametrize("floors,slots_per_floor", [(3, 6), (20, 24)])
def test_every_step_holds_the_claim_covering_its_device(floors, slots_per_floor):
    """No two programs move one device at once, so the controller never
    meets a busy device and waits only for relay power."""
    config = GarageConfig(floors=floors, slots_per_floor=slots_per_floor)
    plans = [steps for steps, _ in every_plan(config)]
    assert plans[-2:] == [EXIT_PLAN, HOMING_PLAN]
    for steps in plans:
        for step in steps:
            assert _covering_claim(step) in step.claims, step


def test_programs_for_one_slot_share_the_plan_but_not_their_place():
    first = Program(_retrieval_plan(SlotAddress(1, 4)), 1)
    second = Program(_retrieval_plan(SlotAddress(1, 4)), 2)
    assert first.steps is second.steps
    assert (first.holder, second.holder) == (1, 2)
    first.idx += 3
    assert second.idx == 0
    assert Program(HOMING_PLAN).holder == "-"


_MOTION_LINE = re.compile(r"^t=\d+ act=(request|start) device=(\S+) .*ticket=(\S+)$")


@pytest.mark.parametrize("seed", range(50))
def test_every_start_names_the_device_its_request_named(seed):
    """Per ticket, requests and starts alternate and each start drives the
    device its request named; only the last request may still be waiting."""
    waiting: dict[str, str | None] = {}  # ticket -> device requested, not yet started
    for line in run_scenario(random_scenario(seed, 18)).trace:
        match = _MOTION_LINE.match(line)
        if match is None:
            continue
        act, device, ticket = match.groups()
        if act == "request":
            assert waiting.get(ticket) is None, line
            waiting[ticket] = device
        else:
            assert waiting.get(ticket) == device, line
            waiting[ticket] = None


# -- closed form ---------------------------------------------------------------

# Slot counts whose pitch the default 0.6 degree platform step divides.
_SLOT_COUNTS = [n for n in range(1, 31) if 600 % n == 0]


@settings(max_examples=100, deadline=None)
@given(
    slots_per_floor=st.sampled_from(_SLOT_COUNTS),
    floors=st.integers(1, 20),
    cell=st.floats(0, 1, exclude_max=True),
    timings_ms=st.tuples(*[st.integers(1, 30_000)] * 5),
)
def test_lone_car_parks_in_the_sum_of_its_steps(slots_per_floor, floors, cell, timings_ms):
    """With the cells before its own taken, a lone car takes two gate swings,
    two belt runs, one platform load, the lift to its floor and the turn to
    its slot by the shorter arc, one after another."""
    gate_ms, belt_ms, load_ms, floor_ms, face_ms = timings_ms
    kinematics = KinematicsConfig(
        belt_transit_s=belt_ms / 1000,
        platform_load_s=load_ms / 1000,
        elevation_per_floor_s=floor_ms / 1000,
        rotation_per_slot_s=face_ms / 1000,
        gate_actuation_s=gate_ms / 1000,
    )
    config = GarageConfig(floors=floors, slots_per_floor=slots_per_floor, kinematics=kinematics)
    index = int(cell * floors * slots_per_floor)
    target = SlotAddress(*divmod(index, slots_per_floor))
    # The earlier cells belong to no ticket of the run, so the scan is off.
    session = GarageSession(config, check=False)
    for earlier in range(index):
        taken = SlotAddress(*divmod(earlier, slots_per_floor))
        session.garage.slots.set_cell(taken, SlotState.OCCUPIED, 1000 + earlier)
    session.sim.schedule(7000, Arrival(vehicle(1)))
    session.run_until_idle()
    ticket = session.garage.tickets[1]
    assert ticket.slot == target and ticket.phase is TicketPhase.PARKED
    faces = min(target.slot, slots_per_floor - target.slot)
    expected_ms = (
        2 * gate_ms + 2 * belt_ms + load_ms + target.floor * floor_ms + faces * face_ms
    )
    assert ticket.parked_ms - ticket.entry_ms == expected_ms
