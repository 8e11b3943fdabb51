"""Garage controller: the decision logic over the simulated hardware.

Arrivals, retrieval requests, payments, and device completions all funnel
through here. Each accepted vehicle gets a step program (a fixed sequence of
gate, belt, and platform motions); programs compete for three scarce things:
the entrance/exit bays, the single platform, and the two-motor relay budget.
Each step is one record holding everything about its motion: the device it
drives and names in the trace, the belts its car moves between, the lock it
runs under and whether it is the last step under that lock; the controller
starts it on the fleet directly. Contention is resolved by a FIFO wait
queue. A belt fault halts the issuing of new motions garage-wide until the
fault is cleared; motions already in flight run to completion.

Billing charges every started minute between the entrance acceptance and the
retrieval request, both captured on the millisecond clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from enum import Enum
from functools import cache
from typing import Callable, NamedTuple

from .devices import (
    ELEVATOR_MOTOR,
    EXIT_BELT,
    ENTRANCE_BELT,
    PLATFORM_BELT,
    ROTATOR,
    Action,
    BeltId,
    DeviceFleet,
    device_name,
    read_length_sensors,
)
from .model import (
    AutoparkError,
    GarageState,
    ParkingTicket,
    SlotAddress,
    SlotMatrix,
    SlotState,
    TicketPhase,
    Vehicle,
    billed_minutes,
)
from .sms import SmsGateway, compose_message


class NoVacancyError(AutoparkError):
    """Every slot is reserved or occupied."""


class UnknownActionError(AutoparkError):
    """A completion arrived for an action the controller is not tracking."""


class BillTooLargeError(AutoparkError):
    """The bill has more digits than the money arithmetic carries."""


class InvariantViolationError(AutoparkError):
    """A structural invariant of the garage state failed."""


class ControllerMode(str, Enum):
    NORMAL = "Normal"
    HALTED = "Halted"


class StepKind(str, Enum):
    OPEN_GATE = "open_gate"
    CLOSE_GATE = "close_gate"
    CONVEY = "convey"
    LOAD_PLATFORM = "load_platform"
    ELEVATE = "elevate"
    ROTATE = "rotate"
    TRANSFER_TO_SLOT = "transfer_to_slot"
    TRANSFER_FROM_SLOT = "transfer_from_slot"


class Step(NamedTuple):
    """One motion in a program: the device it drives, the belts its car moves
    between, and the long-held lock it runs under."""

    kind: StepKind
    gate: str | None = None
    belt: BeltId | None = None
    target: int | None = None  # floor or slot index
    car_onto: BeltId | None = None  # the car moves onto this idle, empty belt at start
    car_rides: bool = False  # the car must already sit on the belt this step runs
    car_off: BeltId | None = None  # the car has left this belt when the step ends
    lock: str | None = None  # entrance | exit | platform, held during this step
    releases: bool = False  # the last step under its lock: frees it when it ends
    device: str = ""  # the device named in the trace


def _plan(*steps: Step) -> tuple[Step, ...]:
    """The steps with the device each drives named and the last step under
    each lock marked as releasing it."""
    last = {step.lock: i for i, step in enumerate(steps)}
    planned = []
    for i, step in enumerate(steps):
        if step.gate:
            device = device_name("gate", step.gate)
        elif step.belt:
            device = device_name("belt", step.belt)
        else:
            device = ELEVATOR_MOTOR if step.kind is StepKind.ELEVATE else ROTATOR
        releases = step.lock is not None and last[step.lock] == i
        planned.append(step._replace(device=device, releases=releases))
    return tuple(planned)


@dataclass(eq=False)
class Program:
    """A ticket's progress through its steps.

    Programs compare and hash by identity: the wait queue and the lock owners
    track the program object, not its current field values. Programs for one
    slot share one step tuple; each keeps its own ``idx``.
    """

    label: str  # parking | retrieval | exit | homing
    steps: tuple[Step, ...]
    ticket_id: int | None = None
    vehicle_id: str | None = None
    idx: int = 0
    ticket_label: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ticket_label = "-" if self.ticket_id is None else str(self.ticket_id)


@dataclass(frozen=True)
class ArrivalRecord:
    at_ms: int
    vehicle: Vehicle
    accepted: bool
    ticket_id: int | None
    reason: str | None  # TooLong | NoVacancy | DuplicatePhone | Halted


def allocate_slot(slots: SlotMatrix, ticket_id: int) -> SlotAddress:
    """Reserve the first vacant cell scanning floors bottom-up, slots in order."""
    for floor, states in enumerate(slots._state):
        if SlotState.VACANT in states:
            addr = SlotAddress(floor, states.index(SlotState.VACANT))
            slots.set_cell(addr, SlotState.RESERVED, ticket_id)
            return addr
    raise NoVacancyError("no vacant slot")


def compute_bill(entry_ms: int, exit_ms: int, rate_per_minute: Decimal) -> Decimal:
    """Charge for every started minute; a zero-length stay costs nothing."""
    minutes = billed_minutes(entry_ms, exit_ms)
    try:
        return (rate_per_minute * minutes).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    except InvalidOperation:
        raise BillTooLargeError(
            f"bill at {rate_per_minute} per minute is too large to compute"
        ) from None


# A slot's plans depend only on its address and are immutable, so each is
# built once: at most two per cell of any garage run in the process.
@cache
def _parking_plan(slot: SlotAddress) -> tuple[Step, ...]:
    return _plan(
        Step(StepKind.OPEN_GATE, gate="entrance", lock="entrance"),
        Step(StepKind.CONVEY, belt=ENTRANCE_BELT, car_onto=ENTRANCE_BELT, lock="entrance"),
        Step(StepKind.CLOSE_GATE, gate="entrance", lock="entrance"),
        Step(StepKind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_off=ENTRANCE_BELT, lock="platform"),
        Step(StepKind.ELEVATE, target=slot.floor, lock="platform"),
        Step(StepKind.ROTATE, target=slot.slot, lock="platform"),
        Step(StepKind.TRANSFER_TO_SLOT, belt=BeltId("slot", slot.slot), lock="platform"),
    )


@cache
def _retrieval_plan(slot: SlotAddress) -> tuple[Step, ...]:
    return _plan(
        Step(StepKind.ELEVATE, target=slot.floor, lock="platform"),
        Step(StepKind.ROTATE, target=slot.slot, lock="platform"),
        Step(StepKind.TRANSFER_FROM_SLOT, belt=BeltId("slot", slot.slot), lock="platform"),
        Step(StepKind.ELEVATE, target=0, lock="platform"),
        Step(StepKind.ROTATE, target=0, lock="platform"),
        Step(StepKind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_onto=EXIT_BELT, lock="platform"),
        Step(StepKind.CONVEY, belt=EXIT_BELT, car_rides=True),
    )


EXIT_PLAN = _plan(
    Step(StepKind.OPEN_GATE, gate="exit", lock="exit"),
    Step(StepKind.CONVEY, belt=EXIT_BELT, car_rides=True, car_off=EXIT_BELT, lock="exit"),
    Step(StepKind.CLOSE_GATE, gate="exit", lock="exit"),
)

HOMING_PLAN = _plan(
    Step(StepKind.ELEVATE, target=0, lock="platform"),
    Step(StepKind.ROTATE, target=0, lock="platform"),
)


class GarageController:
    """Single-threaded controller reacting to simulation events."""

    def __init__(
        self,
        garage: GarageState,
        fleet: DeviceFleet,
        gateway: SmsGateway,
        trace: Callable[[str], None] | None = None,
    ):
        self.garage = garage
        self.fleet = fleet
        self.gateway = gateway
        self.mode = ControllerMode.NORMAL
        self.arrivals: list[ArrivalRecord] = []
        self._trace = trace if trace is not None else lambda line: None
        self._wait_q: dict[Program, None] = {}  # insertion-ordered: request order
        self._action_owner: dict[int, Program] = {}
        locks = ("entrance", "exit", "platform")
        self._lock_owner: dict[str, Program | None] = dict.fromkeys(locks)
        self._homing: Program | None = None

    # -- event entry points ------------------------------------------------

    def handle_arrival(self, vehicle: Vehicle, now_ms: int) -> None:
        """Admit or reject a car waiting at the entrance.

        Acceptance reserves a slot, opens the gate, starts the billing clock
        (the ticket's ``entry_ms``), and queues the welcome message, in that
        order. The gate stays closed for every rejection.
        """
        reason = self._screen_arrival(vehicle)
        if reason is None:
            try:
                slot = allocate_slot(self.garage.slots, self.garage.next_ticket_id)
            except NoVacancyError:
                reason = "NoVacancy"
        if reason is not None:
            self._trace(f"t={now_ms} reject={reason} vehicle={vehicle.vehicle_id}")
            self.arrivals.append(ArrivalRecord(now_ms, vehicle, False, None, reason))
            return
        ticket = self.garage.issue_ticket(vehicle, slot, now_ms)
        self.arrivals.append(ArrivalRecord(now_ms, vehicle, True, ticket.ticket_id, None))
        self._set_phase(ticket, TicketPhase.PARKING, now_ms)
        program = Program("parking", _parking_plan(slot), ticket.ticket_id, vehicle.vehicle_id)
        self._request_step(program, now_ms)
        self._trace(f"t={now_ms} timer=start ticket={ticket.ticket_id}")
        self._send_sms("welcome", ticket, now_ms)
        self._pump(now_ms)

    def _screen_arrival(self, vehicle: Vehicle) -> str | None:
        """The reason to turn the car away before looking for a slot, if any."""
        if self.mode is ControllerMode.HALTED:
            return "Halted"
        sensors = read_length_sensors(vehicle.length_mm, self.garage.config)
        if all(sensors):
            return "TooLong"
        if vehicle.phone in self.garage.active_by_phone:
            return "DuplicatePhone"
        return None

    def on_inbound_sms(self, phone: str, body: str, now_ms: int) -> None:
        """Deliver a customer text to the modem, then poll and act on the inbox."""
        self.gateway.modem.receive(phone, body, now_ms)
        for message in self.gateway.poll_inbox():
            self.handle_retrieval_request(message.number, now_ms)

    def handle_retrieval_request(self, phone: str, now_ms: int) -> None:
        """Any text from a phone with a parked car asks for that car back."""
        if self.mode is ControllerMode.HALTED:
            self._trace(f"t={now_ms} reject=Halted phone={phone}")
            return
        ticket = self.garage.active_by_phone.get(phone)
        if ticket is None or ticket.phase in (
            TicketPhase.AWAITING_ENTRY,
            TicketPhase.PARKING,
        ):
            # A car still on its way in is not retrievable; same answer as an
            # unknown number.
            self._trace(f"t={now_ms} reject=UnknownPhone phone={phone}")
            return
        if ticket.phase in (TicketPhase.RETRIEVING, TicketPhase.AWAITING_PAYMENT):
            self._trace(f"t={now_ms} retrieval=duplicate ticket={ticket.ticket_id}")
            return
        ticket.exit_ms = now_ms
        self._trace(f"t={now_ms} timer=stop ticket={ticket.ticket_id}")
        self._set_phase(ticket, TicketPhase.RETRIEVING, now_ms)
        program = Program(
            "retrieval",
            _retrieval_plan(ticket.slot),
            ticket.ticket_id,
            ticket.vehicle.vehicle_id,
        )
        self._request_step(program, now_ms)
        self._pump(now_ms)

    def handle_payment(self, ticket_id: int, now_ms: int) -> None:
        """Close the ticket and let the car out through the exit gate."""
        ticket = self.garage.tickets.get(ticket_id)
        if ticket is None:
            self._trace(f"t={now_ms} reject=UnknownTicket ticket={ticket_id}")
            return
        if ticket.phase is not TicketPhase.AWAITING_PAYMENT:
            self._trace(f"t={now_ms} reject=WrongPhase ticket={ticket_id}")
            return
        self._set_phase(ticket, TicketPhase.CLOSED, now_ms)
        ticket.closed_ms = now_ms
        program = Program("exit", EXIT_PLAN, ticket_id, ticket.vehicle.vehicle_id)
        self._request_step(program, now_ms)
        self._pump(now_ms)

    def on_fault(self, belt_id: BeltId, now_ms: int) -> None:
        """A belt malfunction raises the alarm: finish in-flight motions only."""
        self.fleet.set_belt_fault(belt_id, True)
        self.mode = ControllerMode.HALTED
        self._trace(f"t={now_ms} mode=Halted reason=belt:{belt_id}")

    def on_fault_cleared(self, now_ms: int) -> None:
        """Resume deferred work in request order; a no-op when not halted."""
        if self.mode is not ControllerMode.HALTED:
            return
        for belt_id, belt in self.fleet.belts.items():
            if belt.faulted:
                self.fleet.set_belt_fault(belt_id, False)
        self.mode = ControllerMode.NORMAL
        self._trace(f"t={now_ms} mode=Normal")
        self._pump(now_ms)
        self._maybe_home(now_ms)

    def on_device_done(self, device_id: str, action_id: int, now_ms: int) -> None:
        """Advance the owning program past its completed motion."""
        program = self._action_owner.pop(action_id, None)
        if program is None:
            raise UnknownActionError(f"no program owns action {action_id} ({device_id})")
        self.fleet.complete_action(action_id)
        step = program.steps[program.idx]
        if step.car_off is not None:
            self.fleet.belt(step.car_off).occupant = None
        if step.kind is StepKind.TRANSFER_TO_SLOT:
            ticket = self.garage.tickets[program.ticket_id]
            self.garage.slots.set_cell(ticket.slot, SlotState.OCCUPIED, ticket.ticket_id)
        elif step.kind is StepKind.TRANSFER_FROM_SLOT:
            ticket = self.garage.tickets[program.ticket_id]
            self.garage.slots.set_cell(ticket.slot, SlotState.VACANT, None)
        if step.releases:
            self._lock_owner[step.lock] = None
        program.idx += 1
        if program.idx == len(program.steps):
            self._finish_program(program, now_ms)
        else:
            self._request_step(program, now_ms)
        self._pump(now_ms)
        self._maybe_home(now_ms)

    # -- program machinery ---------------------------------------------------

    def _request_step(self, program: Program, now_ms: int) -> None:
        device = program.steps[program.idx].device
        self._trace(f"t={now_ms} act=request device={device} ticket={program.ticket_label}")
        self._wait_q[program] = None

    def _pump(self, now_ms: int) -> None:
        """Serve the wait queue in request order; launches never free anything,
        so one pass per wake-up is enough."""
        if self.mode is ControllerMode.HALTED:
            return
        for program in list(self._wait_q):
            if self._try_launch(program, now_ms):
                del self._wait_q[program]

    def _try_launch(self, program: Program, now_ms: int) -> bool:
        step = program.steps[program.idx]
        # Long-held locks are claimed as soon as they are free even if the
        # motion itself cannot start yet; this keeps the platform and the bays
        # FIFO while motor power churns.
        if step.lock is not None:
            if self._lock_owner[step.lock] not in (None, program):
                return False
            self._lock_owner[step.lock] = program
        if not self._car_can_move(program, step):
            return False
        action = self._start_motion(step, now_ms)
        if action is None:
            return False
        if step.car_onto is not None:
            self.fleet.belt(step.car_onto).occupant = program.vehicle_id
        self._action_owner[action.action_id] = program
        self._trace(
            f"t={now_ms} act=start device={action.device_id} action={action.action_id} "
            f"op={action.op} ticket={program.ticket_label}"
        )
        return True

    def _start_motion(self, step: Step, now_ms: int) -> Action | None:
        """Start the step's motion if its device and the motor power it needs
        are free; a platform already in place needs no power."""
        fleet = self.fleet
        if step.gate is not None:
            if fleet.gates[step.gate].busy:
                return None
            command = "open" if step.kind is StepKind.OPEN_GATE else "close"
            return fleet.gate_actuate(step.gate, command, now_ms)
        if step.belt is not None:
            belt = fleet.belts[step.belt]
            if belt.busy or belt.faulted or fleet.relays.available() < 1:
                return None
            return fleet.belt_start_convey(step.belt, now_ms)
        platform = fleet.platform
        if platform.busy:
            return None
        if step.kind is StepKind.ELEVATE:
            if platform.floor_pos != step.target and fleet.relays.available() < 1:
                return None
            return fleet.elevator_goto_floor(step.target, now_ms)
        angle = (step.target * fleet.config.slot_angle_deg) % 360.0
        if platform.angle_deg != angle and fleet.relays.available() < 2:
            return None
        return fleet.platform_rotate_to_slot(step.target, now_ms)

    def _car_can_move(self, program: Program, step: Step) -> bool:
        """The belt the car moves onto is idle and empty; the one it rides holds it."""
        onto = self.fleet.belt(step.car_onto) if step.car_onto is not None else None
        if onto is not None and (onto.busy or onto.occupant is not None):
            return False
        return not step.car_rides or self.fleet.belt(step.belt).occupant == program.vehicle_id

    def _finish_program(self, program: Program, now_ms: int) -> None:
        if program is self._homing:
            self._homing = None
        if program.label == "parking":
            ticket = self.garage.tickets[program.ticket_id]
            self._set_phase(ticket, TicketPhase.PARKED, now_ms)
            ticket.parked_ms = now_ms
        elif program.label == "retrieval":
            ticket = self.garage.tickets[program.ticket_id]
            rate = self.garage.config.billing_rate_per_minute
            ticket.amount_due = compute_bill(ticket.entry_ms, ticket.exit_ms, rate)
            minutes = billed_minutes(ticket.entry_ms, ticket.exit_ms)
            self._trace(
                f"t={now_ms} bill ticket={ticket.ticket_id} minutes={minutes} "
                f"amount={ticket.amount_due}"
            )
            self._set_phase(ticket, TicketPhase.AWAITING_PAYMENT, now_ms)
            ticket.ready_ms = now_ms
            self._send_sms("bill", ticket, now_ms)

    def _maybe_home(self, now_ms: int) -> None:
        """Park the idle platform back at floor 0, angle 0."""
        if self.mode is ControllerMode.HALTED:
            return
        if self._lock_owner["platform"] is not None or self._homing is not None:
            return
        platform = self.fleet.platform
        if platform.floor_pos == 0 and platform.angle_deg == 0.0:
            return
        self._homing = Program("homing", HOMING_PLAN)
        self._request_step(self._homing, now_ms)
        self._pump(now_ms)

    def _set_phase(self, ticket: ParkingTicket, phase: TicketPhase, now_ms: int) -> None:
        old = ticket.phase
        ticket.advance(phase)
        if phase is TicketPhase.CLOSED:
            del self.garage.active[ticket.ticket_id]
            del self.garage.active_by_phone[ticket.vehicle.phone]
        self._trace(f"ticket={ticket.ticket_id} phase={old.value}->{phase.value} t={now_ms}")

    def _send_sms(self, kind: str, ticket: ParkingTicket, now_ms: int) -> None:
        body = compose_message(kind, ticket)
        ref = self.gateway.send_sms(ticket.vehicle.phone, body)
        self._trace(
            f"t={now_ms} sms=out kind={kind} number={ticket.vehicle.phone} ref={ref}"
        )


_RESERVED_PHASES = (TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING)
_OCCUPIED_PHASES = (TicketPhase.PARKED, TicketPhase.RETRIEVING)
_TIMED_PHASES = (TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING, TicketPhase.PARKED)


def check_invariants(controller: GarageController) -> None:
    """Structural scan run after every event dispatch.

    Verifies the ticket/slot bijection, each live ticket's billing clock
    (running exactly until the car is asked back), the cell counts, the relay
    budget, belt exclusivity, and platform alignment. Closed tickets are not
    rescanned, so a long day does not slow it down.

    Per event the Python-level work on the grids is one pass over the live
    tickets (``_claimed_counts``) plus one C-level comparison per floor of
    the grid rows with the rows those tickets imply. The loop over every cell
    (``_scan_cells``) runs only to name a fault: when a row differs, two
    tickets claim one cell, or a ticket's slot is off the grid. It is the
    authority; if it finds no fault, the state stands.
    """
    garage = controller.garage
    fleet = controller.fleet
    slots = garage.slots
    active = garage.active

    tally = _claimed_counts(garage)
    if tally is None:
        tally = _scan_cells(garage)
    if len(garage.active_by_phone) != len(active):
        raise InvariantViolationError(
            f"{len(active)} active tickets but {len(garage.active_by_phone)} active phones"
        )
    if slots.counts() != tally:
        raise InvariantViolationError(f"cell counts {slots.counts()} != cells {tally}")

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


def _claimed_counts(garage: GarageState) -> dict[SlotState, int] | None:
    """The cells per state, if the slot grid holds just what the live tickets claim.

    Each live ticket claims the pair (state, ticket id) at its slot:
    AwaitingEntry and Parking a reserved cell, Parked an occupied one. A
    Retrieving ticket claims its occupied cell only while the cell still
    names it: the transfer empties the cell before the phase moves on, and a
    new arrival may then reserve it. An AwaitingPayment ticket claims
    nothing. Every cell not claimed must be vacant with no ticket. The
    grid's state and ticket rows are compared with the claimed ones as whole
    lists.

    The same loop checks each billing clock (``exit_ms`` is None exactly in
    AwaitingEntry, Parking and Parked), but raises only once the rows are
    found sound, so a grid fault is always named first.

    Returns None when a row differs, two tickets claim one cell, or a slot
    lies off the grid; ``_scan_cells`` then finds the fault.
    """
    slots = garage.slots
    floors, n = slots.floors, slots.slots_per_floor
    held = slots._ticket
    # Enum members are class-attribute lookups, several times dearer than a
    # local in this loop.
    RESERVED, OCCUPIED = SlotState.RESERVED, SlotState.OCCUPIED
    PARKED, RETRIEVING = TicketPhase.PARKED, TicketPhase.RETRIEVING
    AWAITING_ENTRY, PARKING = TicketPhase.AWAITING_ENTRY, TicketPhase.PARKING

    vacant, unnamed = [SlotState.VACANT] * n, [None] * n
    states, owners = [vacant] * floors, [unnamed] * floors
    reserved = occupied = 0
    wrong_clock = None
    for ticket_id, ticket in garage.active.items():
        phase = ticket.phase
        if (ticket.exit_ms is None) is not (phase in _TIMED_PHASES):
            wrong_clock = wrong_clock or ticket
        floor, slot = ticket.slot.floor, ticket.slot.slot
        if not (0 <= floor < floors and 0 <= slot < n):
            return None
        if phase is PARKED:
            state = OCCUPIED
            occupied += 1
        elif phase is AWAITING_ENTRY or phase is PARKING:
            state = RESERVED
            reserved += 1
        elif phase is RETRIEVING and held[floor][slot] == ticket_id:
            state = OCCUPIED
            occupied += 1
        else:
            continue
        row = owners[floor]
        if row is unnamed:
            row = owners[floor] = [None] * n
            states[floor] = [SlotState.VACANT] * n
        elif row[slot] is not None:
            return None
        row[slot] = ticket_id
        states[floor][slot] = state
    if held != owners or slots._state != states:
        return None
    if wrong_clock is not None:
        raise _clock_fault(wrong_clock)
    return {
        SlotState.VACANT: floors * n - reserved - occupied,
        RESERVED: reserved,
        OCCUPIED: occupied,
    }


def _clock_fault(ticket: ParkingTicket) -> InvariantViolationError:
    return InvariantViolationError(
        f"ticket {ticket.ticket_id} ({ticket.phase.value}) has exit_ms {ticket.exit_ms}"
    )


def _scan_cells(garage: GarageState) -> dict[SlotState, int]:
    """Name the first fault in the slot grid by visiting every cell, else the
    first wrong billing clock; return the cells per state if there is none.

    A held cell must be the own slot of an active ticket whose phase fits the
    cell (reserved: AwaitingEntry or Parking; occupied: Parked or
    Retrieving). A vacant cell names no ticket. A ticket has one slot, so no
    ticket holds two cells. A closed ticket has left ``active``, so a cell it
    still held fails as held by a dead ticket, and an AwaitingPayment ticket
    holding a cell fails the phase test. The pass counts the tickets it found
    at their slots in a timed phase (AwaitingEntry, Parking, Parked); every
    active ticket in a timed phase must be among them, and only those may
    have no ``exit_ms``.
    """
    slots = garage.slots
    active = garage.active
    # Enum members are class-attribute lookups, several times dearer than a
    # local in this loop.
    VACANT, RESERVED = SlotState.VACANT, SlotState.RESERVED

    reserved_cells = occupied_cells = timed_cells = 0
    for floor, (states, owners) in enumerate(zip(slots._state, slots._ticket)):
        for slot, (state, ticket_id) in enumerate(zip(states, owners)):
            if state is VACANT:
                if ticket_id is not None:
                    raise InvariantViolationError(
                        f"vacant cell {SlotAddress(floor, slot)} names ticket {ticket_id}"
                    )
                continue
            ticket = active.get(ticket_id)
            if ticket is None:
                raise InvariantViolationError(
                    f"cell {SlotAddress(floor, slot)} held by dead ticket {ticket_id}"
                )
            home = ticket.slot
            if home.floor != floor or home.slot != slot:
                raise InvariantViolationError(
                    f"ticket {ticket_id} holds {SlotAddress(floor, slot)} but its slot is {home}"
                )
            if state is RESERVED:
                reserved_cells += 1
                allowed = _RESERVED_PHASES
            else:
                occupied_cells += 1
                allowed = _OCCUPIED_PHASES
            phase = ticket.phase
            if phase not in allowed:
                raise InvariantViolationError(
                    f"cell {home} is {state.value} but ticket {ticket_id} is {phase.value}"
                )
            timed_cells += phase in _TIMED_PHASES

    timed = [ticket for ticket in active.values() if ticket.phase in _TIMED_PHASES]
    if timed_cells != len(timed):
        lost = next(
            ticket
            for ticket in timed
            if not (
                # A slot off the grid holds nothing.
                0 <= ticket.slot.floor < slots.floors
                and 0 <= ticket.slot.slot < slots.slots_per_floor
                and slots.ticket_at(ticket.slot) == ticket.ticket_id
            )
        )
        raise InvariantViolationError(
            f"ticket {lost.ticket_id} ({lost.phase.value}) does not hold its slot"
        )
    for ticket in active.values():
        if (ticket.exit_ms is None) is not (ticket.phase in _TIMED_PHASES):
            raise _clock_fault(ticket)
    cells = slots.floors * slots.slots_per_floor
    return {
        VACANT: cells - reserved_cells - occupied_cells,
        RESERVED: reserved_cells,
        SlotState.OCCUPIED: occupied_cells,
    }
