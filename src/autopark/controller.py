"""Garage controller: the decision logic over the simulated hardware.

Arrivals, retrieval requests, payments, and device completions all funnel
through here. Each accepted vehicle gets a step program (a fixed sequence of
gate, belt, and platform motions); programs compete for three scarce things:
the entrance/exit bays, the single platform, and the two-motor relay budget.
Contention is resolved by a FIFO wait queue. A belt fault halts the issuing
of new motions garage-wide until the fault is cleared; motions already in
flight run to completion.

Billing charges every started minute between the entrance acceptance and the
retrieval request, both captured on the millisecond clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
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
    """One motion in a program, the belts its car moves between, and the
    long-held locks it runs under."""

    kind: StepKind
    gate: str | None = None
    belt: BeltId | None = None
    target: int | None = None  # floor or slot index
    car_onto: BeltId | None = None  # the car moves onto this idle, empty belt at start
    car_rides: bool = False  # the car must already sit on the belt this step runs
    car_off: BeltId | None = None  # the car has left this belt when the step ends
    bay: str | None = None  # entrance/exit bay lock held during this step
    platform: bool = False  # platform lock held during this step


class Plan(NamedTuple):
    """A motion sequence and the locks it takes: the bay it holds, if any,
    and the last step run under the bay lock and under the platform lock
    (-1 when it never takes one)."""

    steps: tuple[Step, ...]
    bay_name: str | None
    bay_last: int
    platform_last: int


def _plan(*steps: Step) -> Plan:
    bay_steps = [i for i, s in enumerate(steps) if s.bay]
    platform_steps = [i for i, s in enumerate(steps) if s.platform]
    return Plan(
        steps,
        steps[bay_steps[0]].bay if bay_steps else None,
        bay_steps[-1] if bay_steps else -1,
        platform_steps[-1] if platform_steps else -1,
    )


@dataclass(eq=False)
class Program:
    """A ticket's progress through its plan.

    Programs compare and hash by identity: the wait queue and the lock owners
    track the program object, not its current field values. Programs for one
    slot share one plan; each keeps its own ``idx``.
    """

    label: str  # parking | retrieval | exit | homing
    plan: Plan
    ticket_id: int | None = None
    vehicle_id: str | None = None
    idx: int = 0
    ticket_label: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ticket_label = "-" if self.ticket_id is None else str(self.ticket_id)

    @property
    def current(self) -> Step:
        return self.plan.steps[self.idx]

    @property
    def done(self) -> bool:
        return self.idx >= len(self.plan.steps)


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
    return (rate_per_minute * minutes).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


# A slot's plans depend only on its address and are immutable, so each is
# built once: at most two per cell of any garage run in the process.
@cache
def _parking_plan(slot: SlotAddress) -> Plan:
    return _plan(
        Step(StepKind.OPEN_GATE, gate="entrance", bay="entrance"),
        Step(StepKind.CONVEY, belt=ENTRANCE_BELT, car_onto=ENTRANCE_BELT, bay="entrance"),
        Step(StepKind.CLOSE_GATE, gate="entrance", bay="entrance"),
        Step(StepKind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_off=ENTRANCE_BELT, platform=True),
        Step(StepKind.ELEVATE, target=slot.floor, platform=True),
        Step(StepKind.ROTATE, target=slot.slot, platform=True),
        Step(StepKind.TRANSFER_TO_SLOT, belt=BeltId("slot", slot.slot), platform=True),
    )


@cache
def _retrieval_plan(slot: SlotAddress) -> Plan:
    return _plan(
        Step(StepKind.ELEVATE, target=slot.floor, platform=True),
        Step(StepKind.ROTATE, target=slot.slot, platform=True),
        Step(StepKind.TRANSFER_FROM_SLOT, belt=BeltId("slot", slot.slot), platform=True),
        Step(StepKind.ELEVATE, target=0, platform=True),
        Step(StepKind.ROTATE, target=0, platform=True),
        Step(StepKind.LOAD_PLATFORM, belt=PLATFORM_BELT, car_onto=EXIT_BELT, platform=True),
        Step(StepKind.CONVEY, belt=EXIT_BELT, car_rides=True),
    )


EXIT_PLAN = _plan(
    Step(StepKind.OPEN_GATE, gate="exit", bay="exit"),
    Step(StepKind.CONVEY, belt=EXIT_BELT, car_rides=True, car_off=EXIT_BELT, bay="exit"),
    Step(StepKind.CLOSE_GATE, gate="exit", bay="exit"),
)

HOMING_PLAN = _plan(
    Step(StepKind.ELEVATE, target=0, platform=True),
    Step(StepKind.ROTATE, target=0, platform=True),
)


@dataclass(frozen=True)
class Motion:
    """What one step kind does with the hardware: the device it names in the
    trace, whether that device and the motor power it needs are free, how it
    starts, and what the slot it serves becomes when it ends."""

    device: Callable[[DeviceFleet, Step], str]
    ready: Callable[[DeviceFleet, Step], bool]
    start: Callable[[DeviceFleet, Step, int], Action]
    slot_after: SlotState | None = None


def _gate(command: str) -> Motion:
    return Motion(
        lambda fleet, step: fleet.gates[step.gate].device_id,
        lambda fleet, step: not fleet.gates[step.gate].busy,
        lambda fleet, step, now_ms: fleet.gate_actuate(step.gate, command, now_ms),
    )


def _convey(slot_after: SlotState | None = None) -> Motion:
    def ready(fleet: DeviceFleet, step: Step) -> bool:
        belt = fleet.belt(step.belt)
        return not (belt.busy or belt.faulted) and fleet.relays.available() >= 1

    return Motion(
        lambda fleet, step: fleet.belt(step.belt).device_id,
        ready,
        lambda fleet, step, now_ms: fleet.belt_start_convey(step.belt, now_ms),
        slot_after,
    )


def _platform_ready(fleet: DeviceFleet, moves: bool, motors: int) -> bool:
    """The platform is idle and, unless already in place, its motors can be powered."""
    return not fleet.platform.busy and fleet.relays.available() >= (motors if moves else 0)


MOTIONS: dict[StepKind, Motion] = {
    StepKind.OPEN_GATE: _gate("open"),
    StepKind.CLOSE_GATE: _gate("close"),
    StepKind.CONVEY: _convey(),
    StepKind.LOAD_PLATFORM: _convey(),
    StepKind.ELEVATE: Motion(
        lambda fleet, step: ELEVATOR_MOTOR,
        lambda fleet, step: _platform_ready(fleet, fleet.platform.floor_pos != step.target, 1),
        lambda fleet, step, now_ms: fleet.elevator_goto_floor(step.target, now_ms),
    ),
    StepKind.ROTATE: Motion(
        lambda fleet, step: ROTATOR,
        lambda fleet, step: _platform_ready(
            fleet, fleet.platform.angle_deg != (step.target * fleet.config.slot_angle_deg) % 360.0, 2
        ),
        lambda fleet, step, now_ms: fleet.platform_rotate_to_slot(step.target, now_ms),
    ),
    StepKind.TRANSFER_TO_SLOT: _convey(SlotState.OCCUPIED),
    StepKind.TRANSFER_FROM_SLOT: _convey(SlotState.VACANT),
}


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
        self._bay_owner: dict[str, Program | None] = {"entrance": None, "exit": None}
        self._platform_owner: Program | None = None
        self._homing: Program | None = None

    # -- event entry points ------------------------------------------------

    def handle_arrival(self, vehicle: Vehicle, now_ms: int) -> None:
        """Admit or reject a car waiting at the entrance.

        Acceptance reserves a slot, opens the gate, starts the billing timer,
        and queues the welcome message, in that order. The gate stays closed
        for every rejection.
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
        self.garage.timers.start(slot, now_ms)
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
        self.garage.timers.stop(ticket.slot)
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
        step = program.current
        if step.car_off is not None:
            self.fleet.belt(step.car_off).occupant = None
        slot_after = MOTIONS[step.kind].slot_after
        if slot_after is not None:
            ticket = self.garage.tickets[program.ticket_id]
            owner = None if slot_after is SlotState.VACANT else ticket.ticket_id
            self.garage.slots.set_cell(ticket.slot, slot_after, owner)
        plan = program.plan
        if plan.bay_name and program.idx == plan.bay_last:
            self._bay_owner[plan.bay_name] = None
        if step.platform and program.idx == plan.platform_last:
            self._platform_owner = None
        program.idx += 1
        if program.done:
            self._finish_program(program, now_ms)
        else:
            self._request_step(program, now_ms)
        self._pump(now_ms)
        self._maybe_home(now_ms)

    # -- program machinery ---------------------------------------------------

    def _request_step(self, program: Program, now_ms: int) -> None:
        step = program.current
        device = MOTIONS[step.kind].device(self.fleet, step)
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
        step = program.current
        # Long-held locks are claimed as soon as they are free even if the
        # motion itself cannot start yet; this keeps the platform and the bays
        # FIFO while motor power churns.
        if step.bay:
            if self._bay_owner[step.bay] not in (None, program):
                return False
            self._bay_owner[step.bay] = program
        if step.platform:
            if self._platform_owner not in (None, program):
                return False
            self._platform_owner = program
        motion = MOTIONS[step.kind]
        if not (self._car_can_move(program, step) and motion.ready(self.fleet, step)):
            return False
        action = motion.start(self.fleet, step, now_ms)
        if step.car_onto is not None:
            self.fleet.belt(step.car_onto).occupant = program.vehicle_id
        self._action_owner[action.action_id] = program
        self._trace(
            f"t={now_ms} act=start device={action.device_id} action={action.action_id} "
            f"op={action.op} ticket={program.ticket_label}"
        )
        return True

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
        if self._platform_owner is not None or self._homing is not None:
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

    Verifies the ticket/slot bijection, timer consistency, the cell counts,
    the entry count, the relay budget, belt exclusivity, and platform
    alignment. Closed tickets are not rescanned, so a long day does not slow
    it down.

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
    if garage.vehicles_entered != len(garage.tickets):
        raise InvariantViolationError(
            f"entered {garage.vehicles_entered} != tickets {len(garage.tickets)}"
        )

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
    """The cells per state, if the grids hold exactly what the live tickets claim.

    Each live ticket claims the triple (state, ticket id, timer entry) at its
    slot: AwaitingEntry and Parking a reserved cell with the entry time
    running, Parked an occupied one with it running. A Retrieving ticket
    claims its occupied cell with the timer stopped only while the cell still
    names it: the transfer empties the cell before the phase moves on, and a
    new arrival may then reserve it. An AwaitingPayment ticket claims
    nothing. Every cell not claimed must be vacant with no ticket and no
    timer. The three grids are compared with the claimed ones as whole lists.

    Returns None when a grid differs, two tickets claim one cell, or a slot
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
    states, owners, entries = [vacant] * floors, [unnamed] * floors, [unnamed] * floors
    reserved = occupied = 0
    for ticket_id, ticket in garage.active.items():
        phase = ticket.phase
        floor, slot = ticket.slot.floor, ticket.slot.slot
        if not (0 <= floor < floors and 0 <= slot < n):
            return None
        if phase is PARKED:
            state, entry = OCCUPIED, ticket.entry_ms
            occupied += 1
        elif phase is AWAITING_ENTRY or phase is PARKING:
            state, entry = RESERVED, ticket.entry_ms
            reserved += 1
        elif phase is RETRIEVING and held[floor][slot] == ticket_id:
            state, entry = OCCUPIED, None
            occupied += 1
        else:
            continue
        row = owners[floor]
        if row is unnamed:
            row = owners[floor] = [None] * n
            states[floor] = [SlotState.VACANT] * n
            entries[floor] = [None] * n
        elif row[slot] is not None:
            return None
        row[slot] = ticket_id
        states[floor][slot] = state
        entries[floor][slot] = entry
    if held != owners or slots._state != states or garage.timers._entry != entries:
        return None
    return {
        SlotState.VACANT: floors * n - reserved - occupied,
        RESERVED: reserved,
        OCCUPIED: occupied,
    }


def _scan_cells(garage: GarageState) -> dict[SlotState, int]:
    """Name the first fault in the grids by visiting every cell; return the
    cells per state if there is none.

    A held cell must be the own slot of an active ticket whose phase fits the
    cell (reserved: AwaitingEntry or Parking; occupied: Parked or Retrieving),
    and its timer must show that ticket's entry time unless the ticket is
    Retrieving, when it must be stopped. A vacant cell names no ticket and
    runs no timer. A ticket has one slot, so no ticket holds two cells. A
    closed ticket has left ``active``, so a cell it still held fails as held
    by a dead ticket, and an AwaitingPayment ticket holding a cell fails the
    phase test. The pass counts the tickets it found at their slots in a
    timed phase (AwaitingEntry, Parking, Parked); every active ticket in a
    timed phase must be among them.
    """
    slots = garage.slots
    active = garage.active
    # Enum members are class-attribute lookups, several times dearer than a
    # local in this loop.
    VACANT, RESERVED, RETRIEVING = SlotState.VACANT, SlotState.RESERVED, TicketPhase.RETRIEVING

    reserved_cells = occupied_cells = timed_cells = 0
    rows = zip(slots._state, slots._ticket, garage.timers._entry)
    for floor, (states, owners, entries) in enumerate(rows):
        for slot, (state, ticket_id, entry) in enumerate(zip(states, owners, entries)):
            if state is VACANT:
                if entry is not None:
                    raise InvariantViolationError(f"stale timer at {SlotAddress(floor, slot)}")
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
            if phase is RETRIEVING:
                if entry is not None:
                    raise InvariantViolationError(f"stale timer at {home}")
            else:
                timed_cells += 1
                if entry != ticket.entry_ms:
                    raise InvariantViolationError(f"timer at {home} should be {ticket.entry_ms}")

    if timed_cells != sum(ticket.phase in _TIMED_PHASES for ticket in active.values()):
        lost = next(
            ticket
            for ticket in active.values()
            if ticket.phase in _TIMED_PHASES
            and not (
                # A slot off the grid holds nothing.
                0 <= ticket.slot.floor < slots.floors
                and 0 <= ticket.slot.slot < slots.slots_per_floor
                and slots.ticket_at(ticket.slot) == ticket.ticket_id
            )
        )
        raise InvariantViolationError(
            f"ticket {lost.ticket_id} ({lost.phase.value}) does not hold its slot"
        )
    cells = slots.floors * slots.slots_per_floor
    return {
        VACANT: cells - reserved_cells - occupied_cells,
        RESERVED: reserved_cells,
        SlotState.OCCUPIED: occupied_cells,
    }
