"""The per-event invariant scan against the scan it replaced.

``oracle_check_invariants`` is the earlier scan, kept as the reference: a
pass over every cell built as ``SlotAddress`` objects and three passes over
every ticket ever issued. It is copied unchanged except for seven things.
``not ticket.is_active``, since deleted from ``ParkingTicket``, is spelled out
as ``ticket.phase is TicketPhase.CLOSED``. The per-cell timer grid it
compared, since deleted, is replaced by the clock it mirrored: each ticket's
``exit_ms`` is None exactly while the ticket is AwaitingEntry, Parking or
Parked, and a vacant cell names no ticket. It reads the running motions from
``fleet.active``, which files each under the device it moves; so where it
cross-checked each busy device's action against each action's device, it
now checks by brute force, walking every device for the names its motions
go by, that each running motion is filed under the device it names. It
reads the powered motors off those motions, since ``fleet.active`` is the
one record of them too: the relay bank's set of powered motors, which it
compared with the motions' motors and counted against the budget, is
deleted, so it counts the motions' distinct motors instead. It
reads who sits on each belt from the controller's claim table, which holds
ticket ids where the belts held vehicle ids, so its message names a
ticket's car. Its alignment test, which took the platform's float angle to
the nearest multiple of the slot pitch, is now the scan's face test: the
platform's turn is kept as the whole slot face it faces, an int in
``range(slots_per_floor)``, at rest and mid-turn alike. (As a remainder
``angle % pitch``, the alignment test once flagged slot 5 of a valid
25-slot garage: 72.0 % 14.4 is just under the pitch.) The current scan must
accept every state the reference accepts on the seeded corpus, and reject
every corruption of a guarded field that the reference rejects, with the
message its visit of the held cells gives. The grid now stores only its
held cells, in a dict of reserved and a dict of occupied cells, and the
reference reads it unchanged through ``state_at`` and ``ticket_at``. Faults
only the dicts can hold (a key in both, a key off the grid or not an int)
are pinned against the scan alone, in ``DICT_CORRUPTIONS``.

Run as a script, it steps a wider seed range with both scans after every
event, checks that no car is left Parking once each run is idle, and prints
how many scans it made:
``PYTHONPATH=src python tests/test_invariant_scan.py --seeds 0-999``.
"""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopark import controller
from autopark.controller import (
    GarageController,
    InvariantViolationError,
    UnknownActionError,
    _claimed_counts,
    _scan_cells,
    check_invariants,
)
from autopark.devices import (
    ELEVATOR_MOTOR,
    ENTRANCE_BELT,
    EXIT_BELT,
    MOTOR_BUDGET,
    ROTATOR,
    ROTATOR_MOTORS,
    BeltId,
)
from autopark.engine import Arrival, InboundSms, PaymentConfirmed
from autopark.model import (
    GarageConfig,
    InvalidConfigError,
    ParkingTicket,
    SlotAddress,
    SlotState,
    TicketPhase,
    Vehicle,
)
from autopark.scenario import GarageSession, random_scenario

SEEDS = range(50)
MAX_VEHICLES = 18


def oracle_check_invariants(controller: GarageController) -> None:
    """Structural scan run after every event dispatch.

    Verifies the ticket/slot bijection, the billing clocks, the conservation
    count, the relay budget, belt exclusivity, and the platform's face.
    """
    garage = controller.garage
    fleet = controller.fleet
    slots = garage.slots

    owners: dict[int, SlotAddress] = {}
    for addr in slots.addresses():
        state = slots.state_at(addr)
        ticket_id = slots.ticket_at(addr)
        if state is SlotState.VACANT:
            if ticket_id is not None:
                raise InvariantViolationError(f"vacant cell {addr} names ticket {ticket_id}")
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

    for ticket in garage.tickets.values():
        running = ticket.phase in (
            TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING, TicketPhase.PARKED
        )
        if running != (ticket.exit_ms is None):
            raise InvariantViolationError(
                f"ticket {ticket.ticket_id} ({ticket.phase.value}) has exit_ms {ticket.exit_ms}"
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

    active_motors = [m for a in fleet.active.values() for m in a.motors]
    if len(set(active_motors)) > MOTOR_BUDGET:
        raise InvariantViolationError("relay budget exceeded")
    if len(active_motors) != len(set(active_motors)):
        raise InvariantViolationError("a motor is held by two actions")
    for device, action in fleet.active.items():
        if action.device_id not in _device_names(fleet, device):
            raise InvariantViolationError(f"action {action.action_id} is misfiled")

    occupants = [h for claim, h in controller.claims.items() if isinstance(claim, BeltId)]
    if len(occupants) != len(set(occupants)):
        raise InvariantViolationError(f"a ticket's car sits on two belts: {occupants}")

    platform = fleet.platform
    if not 0 <= platform.floor_pos < garage.config.floors:
        raise InvariantViolationError(f"platform floor {platform.floor_pos} out of range")
    face = platform.face
    if type(face) is not int or not 0 <= face < garage.config.slots_per_floor:
        raise InvariantViolationError(f"platform face {face} out of range")


def _device_names(fleet, device) -> tuple[str, ...]:
    """The names a device's motions go by in the trace, found by walking
    every device of the fleet."""
    if device is fleet.platform:
        return (ELEVATOR_MOTOR, ROTATOR)
    for belt_id, belt in fleet.belts.items():
        if device is belt:
            return (f"belt:{belt_id}",)
    for name, gate in fleet.gates.items():
        if device is gate:
            return (f"gate:{name}",)
    return ()


def scan_both(seed: int) -> int:
    """Step ``random_scenario(seed, 18)`` with the oracle and the scan after
    every event, and return the number of scans. The fast path must accept
    every state on its own, without falling back to the visit of the held
    cells. Once the run is idle no car may still be Parking: an unpaid car
    on the exit belt must not strand a later arrival on its way in.
    """
    scenario = random_scenario(seed, MAX_VEHICLES)
    session = GarageSession(scenario.config, scenario.settings, check=False)
    scans = 0

    def both() -> None:
        nonlocal scans
        oracle_check_invariants(session.controller)
        check_invariants(session.controller)
        assert _claimed_counts(session.garage)
        scans += 1

    session.sim.check = both
    for event in scenario.events:
        session.schedule(event)
    session.run_until_idle()
    assert scans >= len(scenario.events)
    active = session.garage.active.values()
    parking = [ticket.ticket_id for ticket in active if ticket.phase is TicketPhase.PARKING]
    assert parking == [], f"seed {seed}: tickets {parking} still Parking at idle"
    return scans


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_agrees_with_oracle_after_every_event(seed):
    scan_both(seed)


def _vehicle(i: int) -> Vehicle:
    return Vehicle(f"v{i}", 4200, f"+97455{i:05d}")


def busy_session() -> GarageSession:
    """A garage with a ticket in every live phase, the platform at rest.

    At 670 s on the 3x6 garage: ticket 1 Closed (its slot 0/0 reused by
    ticket 7), 2 AwaitingPayment with no cell, 3 Retrieving still in 0/2,
    4-6 Parked in 0/3-0/5, 7 Parking in 0/0 with its car on the platform
    moving into the cell, 8 Parking in 0/1 (ticket 2's old cell) with its
    car on the entrance belt. Car 2 waits unpaid on the exit belt, so
    ticket 3's retrieval waits to stage onto it and holds nothing; two
    motors are powered, the entrance belt and slot 0's belt.
    """
    session = GarageSession()
    for i in range(1, 7):
        session.sim.schedule((i - 1) * 60_000, Arrival(_vehicle(i)))
    for i in range(1, 4):
        session.sim.schedule(399_000 + i * 1000, InboundSms(_vehicle(i).phone, "car please"))
    session.sim.schedule(600_000, PaymentConfirmed(1))
    session.sim.schedule(650_000, Arrival(_vehicle(7)))
    session.sim.schedule(660_000, Arrival(_vehicle(8)))
    session.run_until(670_000)
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
        8: TicketPhase.PARKING,
    }
    assert session.garage.slots.ticket_at(SlotAddress(0, 2)) == 3
    assert session.garage.slots.ticket_at(SlotAddress(0, 0)) == 7
    assert session.garage.slots.ticket_at(SlotAddress(0, 1)) == 8
    assert session.controller.claims[EXIT_BELT] == 2
    assert 3 not in session.controller.claims.values()
    assert session.fleet.platform not in session.fleet.active
    powered = {m for action in session.fleet.active.values() for m in action.motors}
    assert powered == {"belt:entrance", "belt:slot:0"}
    oracle_check_invariants(session.controller)
    check_invariants(session.controller)
    assert _claimed_counts(session.garage)


def test_cell_left_by_retrieving_car_may_be_reserved_again():
    """Car 2 pays and leaves, so car 3's retrieval stages onto the exit belt
    and takes the platform. Car 3 has left 0/2 on the platform, still
    Retrieving, while new ticket 9 has reserved that cell."""
    session = busy_session()
    session.sim.schedule(700_000, PaymentConfirmed(2))
    session.sim.schedule(730_000, Arrival(_vehicle(9)))
    session.run_until(735_000)
    tickets = session.garage.tickets
    assert tickets[3].phase is TicketPhase.RETRIEVING
    assert tickets[9].phase is TicketPhase.PARKING
    assert tickets[3].slot == tickets[9].slot == SlotAddress(0, 2)
    assert session.garage.slots.ticket_at(SlotAddress(0, 2)) == 9
    oracle_check_invariants(session.controller)
    check_invariants(session.controller)
    assert _claimed_counts(session.garage)


class _CountingCells(dict):
    """A grid dict that counts every read the scan or allocation can make of it."""

    reads = 0


def _counted(name: str):
    method = getattr(dict, name)

    def read(self, *args):
        _CountingCells.reads += 1
        return method(self, *args)

    return read


for _name in ("__getitem__", "get", "__len__", "__contains__", "__iter__", "keys", "items"):
    setattr(_CountingCells, _name, _counted(_name))


def _grid_reads(floors: int, slots_per_floor: int, monkeypatch) -> int:
    """Park five cars, then count the grid reads of one passing scan."""
    session = GarageSession(GarageConfig(floors=floors, slots_per_floor=slots_per_floor))
    for i in range(1, 6):
        session.sim.schedule((i - 1) * 60_000, Arrival(_vehicle(i)))
    session.run_until_idle()
    assert [t.phase for t in session.garage.active.values()] == [TicketPhase.PARKED] * 5
    slots = session.garage.slots
    slots._reserved = _CountingCells(slots._reserved)
    slots._occupied = _CountingCells(slots._occupied)
    monkeypatch.setattr(_CountingCells, "reads", 0)
    check_invariants(session.controller)
    return _CountingCells.reads


def test_a_passing_scan_reads_as_much_of_a_large_grid_as_of_a_small_one(monkeypatch):
    """The scan's cost does not grow with the empty cells: with the same five
    cars parked, a 3x6 and a 200x300 garage cost one passing scan the same
    reads of the grid, and neither calls the visit of the held cells."""

    def refuse(garage):
        raise AssertionError("a passing scan visited the held cells")

    monkeypatch.setattr(controller, "_scan_cells", refuse)
    small = _grid_reads(3, 6, monkeypatch)
    assert 5 <= small == _grid_reads(200, 300, monkeypatch)


PARKED_CELL = SlotAddress(0, 3)  # ticket 4
RETRIEVING_CELL = SlotAddress(0, 2)  # ticket 3
EMPTY_CELL = SlotAddress(1, 0)


def _put_entry(cells: str, addr: SlotAddress | int, value):
    """Write one entry of ``_reserved`` or ``_occupied`` directly, at a cell
    or at a raw key."""

    def corrupt(session: GarageSession) -> None:
        slots = session.garage.slots
        key = slots.key(addr) if type(addr) is SlotAddress else addr
        getattr(slots, cells)[key] = value

    return corrupt


def _drop_entry(cells: str, addr: SlotAddress):
    def corrupt(session: GarageSession) -> None:
        slots = session.garage.slots
        del getattr(slots, cells)[slots.key(addr)]

    return corrupt


def _move_entry(addr: SlotAddress, source: str, target: str):
    def corrupt(session: GarageSession) -> None:
        slots = session.garage.slots
        key = slots.key(addr)
        getattr(slots, target)[key] = getattr(slots, source).pop(key)

    return corrupt


def _set_phase(ticket_id: int, phase: TicketPhase):
    def corrupt(session: GarageSession) -> None:
        session.garage.tickets[ticket_id].phase = phase

    return corrupt


def _set_slot(ticket_id: int, addr: SlotAddress):
    return lambda session: setattr(session.garage.tickets[ticket_id], "slot", addr)


def _set_cell(addr: SlotAddress, state: SlotState, ticket_id: int | None):
    return lambda session: session.garage.slots.set_cell(addr, state, ticket_id)


def _set_exit(ticket_id: int, exit_ms: int | None):
    return lambda session: setattr(session.garage.tickets[ticket_id], "exit_ms", exit_ms)


def _move_parked_onto_later_ticket_cell(session: GarageSession) -> None:
    """Ticket 4 leaves 0/3 cleanly and names 0/5, which ticket 6 holds: the
    grids hold only what ticket 6 claims, but ticket 4 claims the same cell."""
    _set_cell(PARKED_CELL, SlotState.VACANT, None)(session)
    _set_slot(4, SlotAddress(0, 5))(session)


def _reserve_parked_cell_for_parking_ticket(session: GarageSession) -> None:
    """Ticket 7's reservation moves from 0/0 to 0/3, which ticket 4 occupies,
    and ticket 7 names 0/3 as its slot."""
    _drop_entry("_reserved", SlotAddress(0, 0))(session)
    _put_entry("_reserved", PARKED_CELL, 7)(session)
    _set_slot(7, PARKED_CELL)(session)


def _move_timed_ticket_off_grid(session: GarageSession) -> None:
    """Ticket 2, which holds no cell, becomes timed with a slot past the top
    floor; the visit of the held cells must name it without reading past
    the grid."""
    _set_phase(2, TicketPhase.AWAITING_ENTRY)(session)
    _set_slot(2, SlotAddress(3, 0))(session)


def _belts_share_car(session: GarageSession) -> None:
    claims = session.controller.claims
    claims[EXIT_BELT] = claims[ENTRANCE_BELT]


def _give_running_motion_a_third_motor(session: GarageSession) -> None:
    """Slot 0's conveying also powers the idle elevator motor, so three
    motors run."""
    active = session.fleet.active
    belt = session.fleet.belts[BeltId("slot", 0)]
    active[belt] = active[belt]._replace(motors=(*active[belt].motors, ELEVATOR_MOTOR))


def _entrance_motion_names_its_motor_twice(session: GarageSession) -> None:
    active = session.fleet.active
    belt = session.fleet.belts[ENTRANCE_BELT]
    active[belt] = active[belt]._replace(motors=active[belt].motors * 2)


def _action_takes_motors_of_other(session: GarageSession) -> None:
    """The two running conveyors (belt:entrance and belt:slot:0) both claim
    belt:slot:0's motor."""
    active = session.fleet.active
    (first_device, first), (_, second) = active.items()
    active[first_device] = first._replace(motors=second.motors)


def _refile_entrance_motion(session: GarageSession) -> None:
    """The entrance belt's conveying is filed under the idle exit belt."""
    fleet = session.fleet
    fleet.active[fleet.belts[EXIT_BELT]] = fleet.active.pop(fleet.belts[ENTRANCE_BELT])


def _file_gate_motion_under_both_gates(session: GarageSession) -> None:
    """The exit gate starts to open, and its one motion is filed under the
    entrance gate as well."""
    fleet = session.fleet
    swing = fleet.gate_actuate("exit", "open", session.sim.clock_ms)
    fleet.active[fleet.gates["entrance"]] = swing


def _set_platform(**values):
    def corrupt(session: GarageSession) -> None:
        for name, value in values.items():
            setattr(session.fleet.platform, name, value)

    return corrupt


# Each corruption of ``busy_session`` with the exact message
# ``check_invariants`` raises for it: the one its visit of the held cells
# gives.
MUTATIONS = {
    "set_cell_reserves_parked_cell": (
        _set_cell(PARKED_CELL, SlotState.RESERVED, 4),
        "cell 0/3 is reserved but ticket 4 is Parked",
    ),
    "set_cell_dead_ticket": (
        _set_cell(PARKED_CELL, SlotState.OCCUPIED, 404),
        "cell 0/3 held by dead ticket 404",
    ),
    "set_cell_second_cell_for_ticket": (
        _set_cell(EMPTY_CELL, SlotState.OCCUPIED, 4),
        "ticket 4 holds 1/0 but its slot is 0/3",
    ),
    "set_cell_vacates_parked_cell": (
        _set_cell(PARKED_CELL, SlotState.VACANT, None),
        "ticket 4 (Parked) does not hold its slot",
    ),
    "set_cell_closed_ticket_holds_cell": (
        _set_cell(EMPTY_CELL, SlotState.OCCUPIED, 1),
        "cell 1/0 held by dead ticket 1",
    ),
    "set_cell_awaiting_payment_holds_cell": (
        _set_cell(SlotAddress(0, 1), SlotState.OCCUPIED, 2),
        "cell 0/1 is occupied but ticket 2 is AwaitingPayment",
    ),
    # Direct writes to the grid's dicts: a claimed entry that is missing, an
    # entry no ticket claims, an entry in the wrong dict, a wrong id.
    "state_written_vacant": (
        _drop_entry("_occupied", PARKED_CELL),
        "ticket 4 (Parked) does not hold its slot",
    ),
    "state_written_occupied": (
        _put_entry("_occupied", EMPTY_CELL, 404),
        "cell 1/0 held by dead ticket 404",
    ),
    "state_written_reserved": (
        _move_entry(PARKED_CELL, "_occupied", "_reserved"),
        "cell 0/3 is reserved but ticket 4 is Parked",
    ),
    "ticket_written_dead": (
        _put_entry("_occupied", PARKED_CELL, 404),
        "cell 0/3 held by dead ticket 404",
    ),
    "ticket_written_other_live": (
        _put_entry("_occupied", PARKED_CELL, 5),
        "ticket 5 holds 0/3 but its slot is 0/4",
    ),
    "ticket_written_none": (
        _put_entry("_occupied", PARKED_CELL, None),
        "cell 0/3 names ticket None, not an int",
    ),
    "ticket_written_on_vacant_cell": (
        _put_entry("_reserved", SlotAddress(1, 1), 4),
        "ticket 4 holds 1/1 but its slot is 0/3",
    ),
    "retrieving_cell_written_to_parked_owner": (
        _put_entry("_occupied", RETRIEVING_CELL, 5),
        "ticket 5 holds 0/2 but its slot is 0/4",
    ),
    "ticket_written_str": (
        _put_entry("_occupied", PARKED_CELL, "4"),
        "cell 0/3 names ticket '4', not an int",
    ),
    "parking_ticket_reserves_parked_cell": (
        # Each dict holds as many entries as it has claims; only the key held
        # in both gives the fault away.
        _reserve_parked_cell_for_parking_ticket,
        "cell 0/3 is both reserved and occupied",
    ),
    "retrieving_cell_set_to_awaiting_payment_owner": (
        _set_cell(RETRIEVING_CELL, SlotState.OCCUPIED, 2),
        "ticket 2 holds 0/2 but its slot is 0/1",
    ),
    "clock_stopped_on_parked_ticket": (
        _set_exit(4, 200_000),
        "ticket 4 (Parked) has exit_ms 200000",
    ),
    "clock_running_on_retrieving_ticket": (
        _set_exit(3, None),
        "ticket 3 (Retrieving) has exit_ms None",
    ),
    "phase_parked_to_awaiting_payment": (
        _set_phase(4, TicketPhase.AWAITING_PAYMENT),
        "cell 0/3 is occupied but ticket 4 is AwaitingPayment",
    ),
    "phase_parked_to_retrieving": (
        _set_phase(4, TicketPhase.RETRIEVING),
        "ticket 4 (Retrieving) has exit_ms None",
    ),
    "phase_parking_to_parked": (
        _set_phase(7, TicketPhase.PARKED),
        "cell 0/0 is reserved but ticket 7 is Parked",
    ),
    "phase_retrieving_to_parked": (
        _set_phase(3, TicketPhase.PARKED),
        "ticket 3 (Parked) has exit_ms 402000",
    ),
    "phase_awaiting_payment_to_parked": (
        _set_phase(2, TicketPhase.PARKED),
        "ticket 2 (Parked) does not hold its slot",
    ),
    "slot_of_parked_ticket_other_floor": (
        _set_slot(4, SlotAddress(1, 3)),
        "ticket 4 holds 0/3 but its slot is 1/3",
    ),
    "slot_of_parked_ticket_same_floor": (
        _set_slot(4, SlotAddress(0, 1)),
        "ticket 4 holds 0/3 but its slot is 0/1",
    ),
    "slot_of_parked_ticket_on_retrieving_cell": (
        _set_slot(4, RETRIEVING_CELL),
        "ticket 4 holds 0/3 but its slot is 0/2",
    ),
    "slot_of_parking_ticket_on_retrieving_cell": (
        _set_slot(7, RETRIEVING_CELL),
        "ticket 7 holds 0/0 but its slot is 0/2",
    ),
    "slot_of_parked_ticket_on_later_ticket_cell": (
        _move_parked_onto_later_ticket_cell,
        "ticket 4 (Parked) does not hold its slot",
    ),
    "slot_of_parked_ticket_negative": (
        # Python reads row[-1] as the last cell, which ticket 6 holds.
        _set_slot(6, SlotAddress(0, -1)),
        "ticket 6 holds 0/5 but its slot is 0/-1",
    ),
    "slot_of_timed_ticket_off_grid": (
        _move_timed_ticket_off_grid,
        "ticket 2 (AwaitingEntry) does not hold its slot",
    ),
    "relay_powers_idle_motor": (_give_running_motion_a_third_motor, "relay budget exceeded"),
    "two_actions_one_motor": (_action_takes_motors_of_other, "a motor is held by two actions"),
    "one_action_one_motor_twice": (
        _entrance_motion_names_its_motor_twice,
        "a motor is held by two actions",
    ),
    "motion_filed_under_other_device": (
        _refile_entrance_motion,
        "action 75 on belt:entrance is filed under another device",
    ),
    "gate_motion_filed_under_both_gates": (
        _file_gate_motion_under_both_gates,
        "action 79 on gate:exit is filed under another device",
    ),
    "two_belts_one_car": (_belts_share_car, "a ticket's car sits on two belts: [8, 8]"),
    "platform_floor_out_of_range": (
        _set_platform(floor_pos=3),
        "platform floor 3 out of range",
    ),
    "platform_floor_negative": (_set_platform(floor_pos=-1), "platform floor -1 out of range"),
    "platform_face_fractional": (_set_platform(face=1.5), "platform face 1.5 out of range"),
    "platform_face_full_turn": (_set_platform(face=6), "platform face 6 out of range"),
    "platform_face_negative": (_set_platform(face=-1), "platform face -1 out of range"),
    "platform_face_float": (_set_platform(face=2.0), "platform face 2.0 out of range"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_corruption_fails_both_scans(name):
    corrupt, message = MUTATIONS[name]
    session = busy_session()
    corrupt(session)
    with pytest.raises(InvariantViolationError):
        oracle_check_invariants(session.controller)
    with pytest.raises(InvariantViolationError) as err:
        check_invariants(session.controller)
    assert str(err.value) == message


def test_a_dropped_motion_leaves_no_motor_powered_and_cannot_complete():
    """The entrance belt's conveying leaves the table of running motions. Its
    motor goes with it, as the table is the one record of the powered
    motors, so both scans accept the state; the motion's completion, still
    pending on the engine, then names an action no program owns and ends
    the run."""
    session = busy_session()
    fleet = session.fleet
    dropped = fleet.active.pop(fleet.belts[ENTRANCE_BELT])
    assert [action.motors for action in fleet.active.values()] == [("belt:slot:0",)]
    assert fleet.load_w() == 10.0
    oracle_check_invariants(session.controller)
    check_invariants(session.controller)
    with pytest.raises(UnknownActionError) as err:
        session.run_until_idle()
    assert str(err.value) == f"no program owns action {dropped.action_id} (belt:entrance)"
    assert dropped.action_id == 75


@pytest.mark.parametrize("face", [6, -1, 1.5, 2.0])
def test_a_face_off_the_ring_fails_both_scans_mid_turn(face):
    """As at rest (``MUTATIONS``), a turning platform's face is a whole slot
    of the 3x6 garage's ring: 2.0 names slot 2 but is not an int."""
    session = GarageSession()
    session.fleet.platform_rotate_to_slot(3, 0)
    assert session.fleet.platform in session.fleet.active
    session.fleet.platform.face = face
    with pytest.raises(InvariantViolationError):
        oracle_check_invariants(session.controller)
    with pytest.raises(InvariantViolationError) as err:
        check_invariants(session.controller)
    assert str(err.value) == f"platform face {face} out of range"


def test_a_turn_on_any_valid_garage_is_whole_faces():
    """On every garage that validates, the platform turns to each face, where
    both scans accept it; a turn from a face to itself is clockwise by no
    face, takes no time and powers no motor, and a half turn breaks its tie
    clockwise. Pitches not exact in binary included: on 25 slots the float
    angle once turned from slot 21 to itself by 3.55271e-15 faces ccw."""
    counts = []
    for slots in range(1, 601):  # a pitch under the 0.6 degree platform step never validates
        try:
            GarageConfig(slots_per_floor=slots).validate()
        except InvalidConfigError:
            continue
        counts.append(slots)
        session = GarageSession(GarageConfig(floors=1, slots_per_floor=slots))
        fleet = session.fleet
        fleet.schedule_done = lambda at_ms, action: None  # completed by hand below

        def turn(slot):
            action = fleet.platform_rotate_to_slot(slot, 0)
            fleet.complete_action(action.device_id, action.action_id)
            return action

        for face in range(slots):
            turn(face)
            assert fleet.platform.face == face
            oracle_check_invariants(session.controller)
            check_invariants(session.controller)
            still = turn(face)
            assert (still.op, still.duration_ms, still.motors) == (
                f"rotate slot={face} dir=cw faces=0", 0, ()
            )
            if slots % 2 == 0:
                half = turn((face + slots // 2) % slots)
                assert half.op.endswith(f" dir=cw faces={slots // 2}")
    assert 25 in counts and 600 in counts


INDEX_CORRUPTIONS = {
    "parked_ticket_missing_from_active": (
        lambda session: session.garage.active.pop(4),
        "cell 0/3 held by dead ticket 4",
    ),
    "phone_missing_from_index": (
        lambda session: session.garage.active_by_phone.pop(_vehicle(2).phone),
        "7 active tickets but 6 active phones",
    ),
}

# Grid states the dense grid of the earlier scan could not hold, so the
# oracle, which reads each cell through ``state_at`` and ``ticket_at``, has no
# counterpart for some of them: a key in both dicts, a key off the grid and a
# key that is not an int.
DICT_CORRUPTIONS = {
    "cell_in_both_dicts": (
        _put_entry("_reserved", PARKED_CELL, 4),
        "cell 0/3 is both reserved and occupied",
    ),
    "cell_key_off_grid": (
        _put_entry("_reserved", 18, 7),
        "cell key 18 is not on the 3x6 grid",
    ),
    "cell_key_negative": (
        _put_entry("_occupied", -1, 404),
        "cell key -1 is not on the 3x6 grid",
    ),
    "cell_key_not_int": (
        lambda session: session.garage.slots._occupied.update({"3": 4}),
        "cell key '3' is not on the 3x6 grid",
    ),
    # Ids equal to the claiming ticket's without being ints, in each of the
    # fast path's three reads: Parked, Parking and Retrieving.
    "parked_cell_names_float_id": (
        _put_entry("_occupied", PARKED_CELL, 4.0),
        "cell 0/3 names ticket 4.0, not an int",
    ),
    "reserved_cell_names_float_id": (
        _put_entry("_reserved", SlotAddress(0, 0), 7.0),
        "cell 0/0 names ticket 7.0, not an int",
    ),
    "retrieving_cell_names_float_id": (
        _put_entry("_occupied", SlotAddress(0, 2), 3.0),
        "cell 0/2 names ticket 3.0, not an int",
    ),
}


@pytest.mark.parametrize("name", sorted(DICT_CORRUPTIONS))
def test_dict_fault_fails_both_paths(name):
    """The fast path declines each dict fault, and the visit of the held
    cells names it."""
    corrupt, message = DICT_CORRUPTIONS[name]
    session = busy_session()
    corrupt(session)
    assert not _claimed_counts(session.garage)
    with pytest.raises(InvariantViolationError) as err:
        _scan_cells(session.garage)
    assert str(err.value) == message
    with pytest.raises(InvariantViolationError) as err:
        check_invariants(session.controller)
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(INDEX_CORRUPTIONS))
def test_corrupt_index_fails_scan(name):
    """State the earlier scan had no counterpart for: the active-ticket and
    phone indexes."""
    corrupt, message = INDEX_CORRUPTIONS[name]
    session = busy_session()
    corrupt(session)
    with pytest.raises(InvariantViolationError) as err:
        check_invariants(session.controller)
    assert str(err.value) == message


# Two corruptions at once, by name, and the message that wins. The scan
# raises for the first check it fails, in a fixed order: the grid and the
# billing clocks, the phone index, the relay budget, a motor held twice, the
# device each motion is filed under, the cars on belts, the platform's
# floor, then its face. Each pair straddles one step of that order; the
# messages were recorded from the scan before its loops were rewritten, except those of the pairs with a
# misfiled motion, which were recorded when the fleet's table of running
# motions became the one record of them, and those of the pairs with a dict
# fault, which were recorded when the grid came to store only its held
# cells. That change also deleted the occupied count, and with it the pairs
# on either side of its step. The messages that name a running motion, the
# cars on belts or the count of active tickets were recorded again when
# ``busy_session`` was rebuilt for the retrieval that stages onto the exit
# belt first. When the running motions became the one record of the powered
# motors, the check of the powered set was deleted with the pairs on either
# side of its step. A running motion given a third motor then leaves two
# distinct motors once the other motion takes its motors, so that pair was
# re-pinned to the motor held twice, and the budget was paired instead with
# a motion that names its one motor twice, which keeps three distinct
# motors.
FAULT_PAIRS = {
    ("ticket_written_dead", "phone_missing_from_index"): "cell 0/3 held by dead ticket 404",
    ("clock_stopped_on_parked_ticket", "phone_missing_from_index"): (
        "ticket 4 (Parked) has exit_ms 200000"
    ),
    ("set_cell_dead_ticket", "clock_running_on_retrieving_ticket"): (
        "cell 0/3 held by dead ticket 404"
    ),
    ("phone_missing_from_index", "relay_powers_idle_motor"): "7 active tickets but 6 active phones",
    ("relay_powers_idle_motor", "two_actions_one_motor"): "a motor is held by two actions",
    ("relay_powers_idle_motor", "one_action_one_motor_twice"): "relay budget exceeded",
    ("two_actions_one_motor", "motion_filed_under_other_device"): (
        "a motor is held by two actions"
    ),
    ("motion_filed_under_other_device", "two_belts_one_car"): (
        "action 75 on belt:entrance is filed under another device"
    ),
    ("two_belts_one_car", "platform_floor_out_of_range"): (
        "a ticket's car sits on two belts: [8, 8]"
    ),
    ("platform_floor_out_of_range", "platform_face_fractional"): "platform floor 3 out of range",
    ("platform_face_fractional", "cell_key_off_grid"): "cell key 18 is not on the 3x6 grid",
}


@pytest.mark.parametrize("pair", sorted(FAULT_PAIRS), ids="+".join)
def test_the_earlier_check_names_two_coexisting_faults(pair):
    corruptions = {**MUTATIONS, **INDEX_CORRUPTIONS, **DICT_CORRUPTIONS}
    for names in (pair, pair[::-1]):
        session = busy_session()
        for name in names:
            corruptions[name][0](session)
        with pytest.raises(InvariantViolationError) as err:
            check_invariants(session.controller)
        assert str(err.value) == FAULT_PAIRS[pair]


def _writes(session: GarageSession):
    """Direct writes to one entry of the grid's dicts or one live ticket's
    phase, slot or exit time, drawn from the values the busy garage already
    holds plus a few it must not. A closed ticket's record is frozen (see the
    test below)."""
    garage = session.garage
    slots = garage.slots
    # Keys one past each end of the 3x6 grid's 18 cells.
    keys = st.integers(-1, slots.floors * slots.slots_per_floor)
    dicts = st.sampled_from(["_reserved", "_occupied"])
    ticket_ids = sorted(garage.tickets)
    live_ids = sorted(garage.active)
    exits = sorted({t.exit_ms for t in garage.tickets.values() if t.exit_ms is not None})
    # Ids as drawn for a cell: None, every ticket's, a dead one, and values
    # equal to an id without being an int (4.0 for 4, True for 1).
    ids = [None, *ticket_ids, 404, *map(float, ticket_ids), True, False]

    def put(name, key, value):
        """Insert or overwrite; the key may be held in the other dict too."""
        return lambda: getattr(slots, name).__setitem__(key, value), ("put", name, key, value)

    def drop(name, key):
        return lambda: getattr(slots, name).pop(key, None), ("drop", name, key)

    def retype(name, key):
        """Swap a held entry's id for the float equal to it."""
        cells = getattr(slots, name)

        def apply():
            if key in cells:
                cells[key] = float(cells[key])

        return apply, ("retype", name, key)

    def ticket_write(name: str, values):
        def write(ticket_id, value):
            ticket = garage.tickets[ticket_id]
            return lambda: setattr(ticket, name, value), (name, ticket_id, value)

        return st.builds(write, st.sampled_from(live_ids), values)

    # Slots one past each edge of the 3x6 grid reach the fast path's
    # off-grid guards.
    addresses = st.builds(SlotAddress, st.integers(-1, 3), st.integers(-1, 6))
    return st.one_of(
        st.builds(put, dicts, keys, st.sampled_from(ids)),
        st.builds(drop, dicts, keys),
        st.builds(retype, dicts, st.sampled_from(sorted({*slots._reserved, *slots._occupied}))),
        ticket_write("phase", st.sampled_from(TicketPhase)),
        ticket_write("exit_ms", st.sampled_from([None, *exits, 5000])),
        ticket_write("slot", addresses),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_path_accepts_nothing_the_cell_loop_rejects(data):
    """Ids equal to a ticket's without being ints (4.0 for 4, True for 1)
    are drawn, and the fast path declines them. Keys equal to an int without
    being one (3.0 for 3) are not: the fast path finds such a key by hash, so
    it accepts what the visit of the held cells names a fault. ``set_cell``
    computes every key itself, so only a direct write makes one."""
    session = busy_session()
    writes = data.draw(st.lists(_writes(session), min_size=1, max_size=3))
    for apply, _ in writes:
        apply()
    garage = session.garage
    try:
        _scan_cells(garage)
        loop_fault = None
    except InvariantViolationError as err:
        loop_fault = str(err)
    try:
        sound = _claimed_counts(garage)
    except InvariantViolationError as err:
        # Only a wrong billing clock on sound grids, which the loop names too.
        assert str(err) == loop_fault
    else:
        if sound:
            assert loop_fault is None
    try:
        oracle_check_invariants(session.controller)
    except InvariantViolationError:
        with pytest.raises(InvariantViolationError):
            check_invariants(session.controller)


def test_closed_ticket_reopened_by_direct_write_is_caught():
    """A paid ticket's record is frozen, so the write that would reopen it
    raises where it is made; the scan need not read closed tickets."""
    session = busy_session()
    closed = session.garage.tickets[1]
    with pytest.raises(AttributeError):
        closed.phase = TicketPhase.PARKED
    assert closed.phase is TicketPhase.CLOSED and closed.closed_ms == 600_000
    assert closed._fields == ParkingTicket.__slots__
    check_invariants(session.controller)


def _motion_writes(session: GarageSession):
    """Direct writes to the motion state: the running motions, with the
    motors they power, and the devices they are filed under, and the claims
    on the belts, drawn from the values the busy garage already holds plus a
    few it must not."""
    fleet = session.fleet
    devices = [*fleet.belts.values(), fleet.platform, *fleet.gates.values()]
    running, actions = list(fleet.active), list(fleet.active.values())
    names = [*fleet.by_name, "belt:nowhere"]
    motors = sorted({*(m for a in actions for m in a.motors), ELEVATOR_MOTOR, *ROTATOR_MOTORS})
    claims = session.controller.claims
    cars = sorted({h for claim, h in claims.items() if isinstance(claim, BeltId)} | {4})

    def rewrite(device, field, value):
        def apply():
            if device in fleet.active:
                fleet.active[device] = fleet.active[device]._replace(**{field: value})

        return apply, ("action", device, field, value)

    def drop(device):
        return lambda: fleet.active.pop(device, None), ("drop", device)

    def file(device, action):
        return lambda: fleet.active.__setitem__(device, action), ("file", device, action)

    def ride(belt, car):
        def apply():
            if car is None:
                claims.pop(belt, None)
            else:
                claims[belt] = car

        return apply, ("ride", belt, car)

    motor_sets = st.lists(st.sampled_from(motors), max_size=3).map(tuple)
    busy, belts = st.sampled_from(running), list(fleet.belts)
    return st.one_of(
        st.builds(rewrite, busy, st.just("motors"), motor_sets),
        st.builds(rewrite, busy, st.just("device_id"), st.sampled_from(names)),
        st.builds(drop, busy),
        st.builds(file, st.sampled_from(devices), st.sampled_from(actions)),
        st.builds(ride, st.sampled_from(belts), st.sampled_from([None, *cars])),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_motion_checks_agree_with_the_oracle(data):
    """The scan's checks of the running motions, which read the devices
    by name, give the verdict of the oracle's walk over every device: it
    rejects what the oracle rejects, and only that."""
    session = busy_session()
    writes = data.draw(st.lists(_motion_writes(session), min_size=1, max_size=3))
    for apply, _ in writes:
        apply()
    try:
        oracle_check_invariants(session.controller)
    except InvariantViolationError:
        with pytest.raises(InvariantViolationError):
            check_invariants(session.controller)
    else:
        check_invariants(session.controller)


if __name__ == "__main__":
    from test_golden_digests import _seed_range

    parser = argparse.ArgumentParser(
        description="Run the oracle and the scan after every event of a seeded corpus."
    )
    parser.add_argument(
        "--seeds",
        type=_seed_range,
        default=SEEDS,
        metavar="A-B",
        help="inclusive seed range (default: the tests' 0-49)",
    )
    args = parser.parse_args()
    scans = sum(scan_both(seed) for seed in args.seeds)
    print(
        f"seeds {args.seeds.start}-{args.seeds.stop - 1}: {scans} scans, all passed,"
        " no car Parking at idle"
    )
