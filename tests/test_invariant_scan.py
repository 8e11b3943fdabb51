"""The per-event invariant scan against the scan it replaced.

``oracle_check_invariants`` is the earlier scan, kept as the reference: three
passes over every cell built as ``SlotAddress`` objects and two passes over
every ticket ever issued. It is copied unchanged except that
``not ticket.is_active``, since deleted from ``ParkingTicket``, is spelled out
as ``ticket.phase is TicketPhase.CLOSED``. The current scan must accept every
state the reference accepts on the seeded corpus, and reject every
corruption of a guarded field that the reference rejects.
"""

import pytest

from autopark.controller import GarageController, InvariantViolationError, check_invariants
from autopark.devices import ELEVATOR_MOTOR, ENTRANCE_BELT, EXIT_BELT
from autopark.engine import Arrival, InboundSms, PaymentConfirmed
from autopark.model import SlotAddress, SlotState, TicketPhase, Vehicle
from autopark.scenario import GarageSession, random_scenario


def oracle_check_invariants(controller: GarageController) -> None:
    """Structural scan run after every event dispatch.

    Verifies the ticket/slot bijection, timer consistency, the conservation
    count, the relay budget, belt exclusivity, and platform alignment.
    """
    garage = controller.garage
    fleet = controller.fleet
    slots = garage.slots

    owners: dict[int, SlotAddress] = {}
    for addr in slots.addresses():
        state = slots.state_at(addr)
        ticket_id = slots.ticket_at(addr)
        if state is SlotState.VACANT:
            continue
        if ticket_id in owners:
            raise InvariantViolationError(
                f"ticket {ticket_id} owns both {owners[ticket_id]} and {addr}"
            )
        owners[ticket_id] = addr
        ticket = garage.tickets.get(ticket_id)
        if ticket is None or ticket.phase is TicketPhase.CLOSED:
            raise InvariantViolationError(f"cell {addr} held by dead ticket {ticket_id}")
        allowed = (
            (TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING)
            if state is SlotState.RESERVED
            else (TicketPhase.PARKED, TicketPhase.RETRIEVING)
        )
        if ticket.phase not in allowed:
            raise InvariantViolationError(
                f"cell {addr} is {state.value} but ticket {ticket_id} is {ticket.phase.value}"
            )

    for ticket in garage.tickets.values():
        owns = ticket.ticket_id in owners
        if ticket.phase in (TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING, TicketPhase.PARKED):
            if not owns or owners[ticket.ticket_id] != ticket.slot:
                raise InvariantViolationError(
                    f"ticket {ticket.ticket_id} ({ticket.phase.value}) does not hold its slot"
                )
        if ticket.phase in (TicketPhase.AWAITING_PAYMENT, TicketPhase.CLOSED) and owns:
            raise InvariantViolationError(
                f"ticket {ticket.ticket_id} ({ticket.phase.value}) still holds a cell"
            )

    for addr in slots.addresses():
        entry = garage.timers.entry_at(addr)
        ticket_id = slots.ticket_at(addr)
        ticket = garage.tickets.get(ticket_id) if ticket_id is not None else None
        running = (
            ticket is not None
            and ticket.phase
            in (TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING, TicketPhase.PARKED)
        )
        if running and entry != ticket.entry_ms:
            raise InvariantViolationError(f"timer at {addr} should be {ticket.entry_ms}")
        if not running and entry is not None:
            raise InvariantViolationError(f"stale timer at {addr}")

    if garage.vehicles_entered != len(garage.tickets):
        raise InvariantViolationError(
            f"entered {garage.vehicles_entered} != tickets {len(garage.tickets)}"
        )
    counts = garage.phase_counts()
    in_transit = (
        counts[TicketPhase.AWAITING_ENTRY]
        + counts[TicketPhase.PARKING]
        + counts[TicketPhase.RETRIEVING]
        + counts[TicketPhase.AWAITING_PAYMENT]
    )
    if in_transit + counts[TicketPhase.PARKED] + counts[TicketPhase.CLOSED] != (
        garage.vehicles_entered
    ):
        raise InvariantViolationError("vehicle count does not split into transit/parked/exited")

    if len(fleet.relays.powered) > fleet.relays.budget:
        raise InvariantViolationError("relay budget exceeded")
    active_motors = [m for a in fleet.active_actions() for m in a.motors]
    if len(active_motors) != len(set(active_motors)):
        raise InvariantViolationError("a motor is held by two actions")
    if set(fleet.relays.powered) != set(active_motors):
        raise InvariantViolationError(
            f"powered {sorted(fleet.relays.powered)} != active {sorted(set(active_motors))}"
        )

    occupants = [b.occupant for b in fleet.belts.values() if b.occupant is not None]
    if len(occupants) != len(set(occupants)):
        raise InvariantViolationError(f"a vehicle sits on two belts: {occupants}")

    platform = fleet.platform
    if not 0 <= platform.floor_pos < garage.config.floors:
        raise InvariantViolationError(f"platform floor {platform.floor_pos} out of range")
    if not platform.busy:
        pitch = garage.config.slot_angle_deg
        if (platform.angle_deg % pitch) > 1e-9 or not 0 <= platform.angle_deg < 360:
            raise InvariantViolationError(f"platform angle {platform.angle_deg} misaligned")


@pytest.mark.parametrize("seed", range(50))
def test_scan_agrees_with_oracle_after_every_event(seed):
    scenario = random_scenario(seed, 18)
    session = GarageSession(scenario.config, scenario.settings, check=False)
    scans = 0

    def both() -> None:
        nonlocal scans
        oracle_check_invariants(session.controller)
        check_invariants(session.controller)
        scans += 1

    session.sim.check = both
    for event in scenario.events:
        session.schedule(event)
    session.run_until_idle()
    assert scans >= len(scenario.events)


def _vehicle(i: int) -> Vehicle:
    return Vehicle(f"v{i}", 4200, f"+97455{i:05d}")


def busy_session() -> GarageSession:
    """A garage with a ticket in every live phase, the platform at rest.

    At 640 s on the 3x6 garage: ticket 1 Closed (its slot 0/0 reused by
    ticket 7), 2 AwaitingPayment with no cell, 3 Retrieving still in 0/2,
    4-6 Parked in 0/3-0/5, 7 Parking in 0/0 with its car on the entrance
    belt; car 2 waits on the exit belt; two motors are powered.
    """
    session = GarageSession()
    for i in range(1, 7):
        session.sim.schedule((i - 1) * 60_000, Arrival(_vehicle(i)))
    for i in range(1, 4):
        session.sim.schedule(399_000 + i * 1000, InboundSms(_vehicle(i).phone, "car please"))
    session.sim.schedule(600_000, PaymentConfirmed(1))
    session.sim.schedule(635_000, Arrival(_vehicle(7)))
    session.run_until(640_000)
    return session


def test_busy_session_has_every_live_phase():
    session = busy_session()
    phases = {t.ticket_id: t.phase for t in session.garage.tickets.values()}
    assert phases == {
        1: TicketPhase.CLOSED,
        2: TicketPhase.AWAITING_PAYMENT,
        3: TicketPhase.RETRIEVING,
        4: TicketPhase.PARKED,
        5: TicketPhase.PARKED,
        6: TicketPhase.PARKED,
        7: TicketPhase.PARKING,
    }
    assert session.garage.slots.ticket_at(SlotAddress(0, 2)) == 3
    assert session.garage.slots.ticket_at(SlotAddress(0, 0)) == 7
    assert not session.fleet.platform.busy
    assert len(session.fleet.relays.powered) == 2
    oracle_check_invariants(session.controller)
    check_invariants(session.controller)


PARKED_CELL = SlotAddress(0, 3)  # ticket 4
EMPTY_CELL = SlotAddress(1, 0)


def _set_direct(grid: str, addr: SlotAddress, value):
    def corrupt(session: GarageSession) -> None:
        getattr(session.garage.slots, grid)[addr.floor][addr.slot] = value

    return corrupt


def _set_phase(ticket_id: int, phase: TicketPhase):
    def corrupt(session: GarageSession) -> None:
        session.garage.tickets[ticket_id].phase = phase

    return corrupt


def _set_cell(addr: SlotAddress, state: SlotState, ticket_id: int | None):
    return lambda session: session.garage.slots.set_cell(addr, state, ticket_id)


def _shift_timer(session: GarageSession) -> None:
    session.garage.timers._entry[PARKED_CELL.floor][PARKED_CELL.slot] += 1


def _belts_share_car(session: GarageSession) -> None:
    session.fleet.belt(EXIT_BELT).occupant = session.fleet.belt(ENTRANCE_BELT).occupant


def _set_platform(**values):
    def corrupt(session: GarageSession) -> None:
        for name, value in values.items():
            setattr(session.fleet.platform, name, value)

    return corrupt


MUTATIONS = {
    "set_cell_reserves_parked_cell": _set_cell(PARKED_CELL, SlotState.RESERVED, 4),
    "set_cell_dead_ticket": _set_cell(PARKED_CELL, SlotState.OCCUPIED, 404),
    "set_cell_second_cell_for_ticket": _set_cell(EMPTY_CELL, SlotState.OCCUPIED, 4),
    "set_cell_vacates_parked_cell": _set_cell(PARKED_CELL, SlotState.VACANT, None),
    "set_cell_closed_ticket_holds_cell": _set_cell(EMPTY_CELL, SlotState.OCCUPIED, 1),
    "set_cell_awaiting_payment_holds_cell": _set_cell(SlotAddress(0, 1), SlotState.OCCUPIED, 2),
    "state_written_vacant": _set_direct("_state", PARKED_CELL, SlotState.VACANT),
    "state_written_occupied": _set_direct("_state", EMPTY_CELL, SlotState.OCCUPIED),
    "state_written_reserved": _set_direct("_state", PARKED_CELL, SlotState.RESERVED),
    "ticket_written_dead": _set_direct("_ticket", PARKED_CELL, 404),
    "ticket_written_other_live": _set_direct("_ticket", PARKED_CELL, 5),
    "ticket_written_none": _set_direct("_ticket", PARKED_CELL, None),
    "ticket_written_on_vacant_cell": _set_direct("_ticket", SlotAddress(0, 1), 4),
    "running_timer_entry": _shift_timer,
    "running_timer_stopped": lambda session: session.garage.timers.stop(PARKED_CELL),
    "stale_timer_on_vacant_cell": lambda session: session.garage.timers.start(EMPTY_CELL, 5000),
    "stale_timer_on_retrieving_cell": (
        lambda session: session.garage.timers.start(SlotAddress(0, 2), 5000)
    ),
    "phase_parked_to_awaiting_payment": _set_phase(4, TicketPhase.AWAITING_PAYMENT),
    "phase_parked_to_retrieving": _set_phase(4, TicketPhase.RETRIEVING),
    "phase_parking_to_parked": _set_phase(7, TicketPhase.PARKED),
    "phase_retrieving_to_parked": _set_phase(3, TicketPhase.PARKED),
    "phase_awaiting_payment_to_parked": _set_phase(2, TicketPhase.PARKED),
    "slot_of_parked_ticket_other_floor": (
        lambda session: setattr(session.garage.tickets[4], "slot", SlotAddress(1, 3))
    ),
    "slot_of_parked_ticket_same_floor": (
        lambda session: setattr(session.garage.tickets[4], "slot", SlotAddress(0, 1))
    ),
    "vehicles_entered": lambda session: setattr(
        session.garage, "vehicles_entered", session.garage.vehicles_entered + 1
    ),
    "relay_powers_idle_motor": (
        lambda session: session.fleet.relays.powered.__setitem__(ELEVATOR_MOTOR, 10.0)
    ),
    "relay_drops_running_motor": lambda session: session.fleet.relays.powered.popitem(),
    "two_belts_one_car": _belts_share_car,
    "platform_floor_out_of_range": _set_platform(floor_pos=3),
    "platform_floor_negative": _set_platform(floor_pos=-1),
    "platform_angle_misaligned": _set_platform(angle_deg=100.0),
    "platform_angle_full_turn": _set_platform(angle_deg=360.0),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_corruption_fails_both_scans(name):
    session = busy_session()
    MUTATIONS[name](session)
    with pytest.raises(InvariantViolationError):
        oracle_check_invariants(session.controller)
    with pytest.raises(InvariantViolationError):
        check_invariants(session.controller)


def _shift_counts(session: GarageSession) -> None:
    counts = session.garage.slots._counts
    counts[SlotState.VACANT] -= 1
    counts[SlotState.OCCUPIED] += 1


INDEX_CORRUPTIONS = {
    "parked_ticket_missing_from_active": lambda session: session.garage.active.pop(4),
    "phone_missing_from_index": (
        lambda session: session.garage.active_by_phone.pop(_vehicle(2).phone)
    ),
    "cell_counts_drift": _shift_counts,
}


@pytest.mark.parametrize("name", sorted(INDEX_CORRUPTIONS))
def test_corrupt_index_fails_scan(name):
    """State the earlier scan had no counterpart for: the active-ticket and
    phone indexes, and the per-state cell counts."""
    session = busy_session()
    INDEX_CORRUPTIONS[name](session)
    with pytest.raises(InvariantViolationError):
        check_invariants(session.controller)
