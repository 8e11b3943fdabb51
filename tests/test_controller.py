import dataclasses
import random
from decimal import Decimal
from pathlib import Path

import pytest

from autopark.controller import (
    EXIT_PLAN,
    HOMING_PLAN,
    InvariantViolationError,
    NoVacancyError,
    Program,
    Step,
    StepKind,
    UnknownActionError,
    _parking_plan,
    _retrieval_plan,
    allocate_slot,
    check_invariants,
    compute_bill,
)
from autopark.devices import ENTRANCE_BELT, EXIT_BELT, PLATFORM_BELT, BeltId
from autopark.engine import Arrival, BeltFault, FaultCleared, InboundSms, PaymentConfirmed
from autopark.model import (
    GarageConfig,
    SlotAddress,
    SlotState,
    TicketPhase,
    Vehicle,
    new_garage,
)
from autopark.scenario import GarageSession

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


def test_welcome_exchange_matches_golden_log():
    session = drive([(5000, Arrival(Vehicle("v1", 4200, "+97455512345")))])
    expected = (GOLDEN / "welcome_exchange.log").read_text().splitlines()
    assert session.gateway.log == expected


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
            assert allocate_slot(garage.slots, 1) == min(vacant)


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
    assert session.controller.arrivals[1].accepted
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
    assert session.controller.arrivals[1].accepted


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
    assert platform.angle_deg == 0.0
    assert any("ticket=-" in line for line in session.sim.trace)


def test_homing_yields_to_new_work():
    session = drive(
        [
            (0, Arrival(vehicle(1))),
            (35_000, InboundSms("+9745500001", "back already")),
        ]
    )
    assert session.garage.tickets[1].phase is TicketPhase.AWAITING_PAYMENT
    assert session.fleet.platform.floor_pos == 0
    assert session.fleet.platform.angle_deg == 0.0


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


def test_invariants_catch_stale_timer():
    session = GarageSession()
    session.garage.timers.start(SlotAddress(1, 1), 5000)
    with pytest.raises(InvariantViolationError):
        check_invariants(session.controller)


def test_invariants_catch_count_drift():
    session = GarageSession()
    session.garage.vehicles_entered = 3
    with pytest.raises(InvariantViolationError):
        check_invariants(session.controller)


def test_unknown_device_completion_is_an_error():
    session = GarageSession()
    with pytest.raises(UnknownActionError):
        session.controller.on_device_done("belt:entrance", 999, 0)


# -- plans ---------------------------------------------------------------------
# The frozen step record, the four step-list builders and the per-program lock
# scan that the cached plans replaced, kept as the reference they must match.


@dataclasses.dataclass(frozen=True)
class OracleStep:
    kind: StepKind
    gate: str | None = None
    belt: BeltId | None = None
    target: int | None = None
    car_onto: BeltId | None = None
    car_rides: bool = False
    car_off: BeltId | None = None
    bay: str | None = None
    platform: bool = False


def oracle_parking_steps(slot: SlotAddress) -> list[OracleStep]:
    return [
        OracleStep(StepKind.OPEN_GATE, gate="entrance", bay="entrance"),
        OracleStep(StepKind.CONVEY, belt=ENTRANCE_BELT, car_onto=ENTRANCE_BELT, bay="entrance"),
        OracleStep(StepKind.CLOSE_GATE, gate="entrance", bay="entrance"),
        OracleStep(
            StepKind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_off=ENTRANCE_BELT, platform=True
        ),
        OracleStep(StepKind.ELEVATE, target=slot.floor, platform=True),
        OracleStep(StepKind.ROTATE, target=slot.slot, platform=True),
        OracleStep(StepKind.TRANSFER_TO_SLOT, belt=BeltId("slot", slot.slot), platform=True),
    ]


def oracle_retrieval_steps(slot: SlotAddress) -> list[OracleStep]:
    return [
        OracleStep(StepKind.ELEVATE, target=slot.floor, platform=True),
        OracleStep(StepKind.ROTATE, target=slot.slot, platform=True),
        OracleStep(StepKind.TRANSFER_FROM_SLOT, belt=BeltId("slot", slot.slot), platform=True),
        OracleStep(StepKind.ELEVATE, target=0, platform=True),
        OracleStep(StepKind.ROTATE, target=0, platform=True),
        OracleStep(StepKind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_onto=EXIT_BELT, platform=True),
        OracleStep(StepKind.CONVEY, belt=EXIT_BELT, car_rides=True),
    ]


def oracle_exit_steps() -> list[OracleStep]:
    return [
        OracleStep(StepKind.OPEN_GATE, gate="exit", bay="exit"),
        OracleStep(StepKind.CONVEY, belt=EXIT_BELT, car_rides=True, car_off=EXIT_BELT, bay="exit"),
        OracleStep(StepKind.CLOSE_GATE, gate="exit", bay="exit"),
    ]


def oracle_homing_steps() -> list[OracleStep]:
    return [
        OracleStep(StepKind.ELEVATE, target=0, platform=True),
        OracleStep(StepKind.ROTATE, target=0, platform=True),
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


def assert_plan_matches(plan, expected: list[OracleStep]) -> None:
    assert len(plan.steps) == len(expected)
    for step, want in zip(plan.steps, expected):
        assert type(step) is Step
        for f in dataclasses.fields(OracleStep):
            got, wanted = getattr(step, f.name), getattr(want, f.name)
            assert got == wanted and type(got) is type(wanted), (f.name, step, want)
    assert (plan.bay_name, plan.bay_last, plan.platform_last) == oracle_lock_scan(expected)


def test_step_keeps_its_field_names_order_and_defaults():
    fields = dataclasses.fields(OracleStep)
    assert Step._fields == tuple(f.name for f in fields)
    assert Step._field_defaults == {
        f.name: f.default for f in fields if f.default is not dataclasses.MISSING
    }


@pytest.mark.parametrize("floors,slots_per_floor", [(3, 6), (20, 24)])
def test_plans_match_the_step_builders_they_replaced(floors, slots_per_floor):
    for floor in range(floors):
        for slot in range(slots_per_floor):
            addr = SlotAddress(floor, slot)
            assert_plan_matches(_parking_plan(addr), oracle_parking_steps(addr))
            assert_plan_matches(_retrieval_plan(addr), oracle_retrieval_steps(addr))
    assert_plan_matches(EXIT_PLAN, oracle_exit_steps())
    assert_plan_matches(HOMING_PLAN, oracle_homing_steps())


def test_programs_for_one_slot_share_the_plan_but_not_their_place():
    first = Program("retrieval", _retrieval_plan(SlotAddress(1, 4)), 1, "v1")
    second = Program("retrieval", _retrieval_plan(SlotAddress(1, 4)), 2, "v2")
    assert first.plan is second.plan
    assert (first.ticket_label, second.ticket_label) == ("1", "2")
    first.idx += 3
    assert second.idx == 0
    assert second.current is first.plan.steps[0]
    assert first.current is first.plan.steps[3]
    first.idx = len(first.plan.steps)
    assert first.done and not second.done
    assert Program("homing", HOMING_PLAN).ticket_label == "-"
