"""Garage controller: the decision logic over the simulated hardware.

Arrivals, retrieval requests, payments, and device completions all funnel
through here. Each accepted vehicle gets a step program (a fixed sequence of
gate, belt, and platform motions); programs compete for the long-held
resources (the entrance and exit bays, the single platform, and the
entrance and exit belts a car sits on) and for the two-motor relay budget.
One table, ``GarageController.claims``, records who holds each long-held
resource: a ticket id, or ``"homing"`` for the homing program. A claim
belongs to the ticket, so one can pass from a ticket's retrieval to its
exit. Each step is one record holding everything about its motion: the
device it drives and names in the trace, the claims its ticket must hold
and those it frees when it ends. A program runs a plan of steps and then
its finish. The controller reads no device state but the platform's
position, which decides whether to home it: the fleet refuses a motion its
relays cannot power, and the program retries once a motor frees. A device
moves only under the claim covering it, so no session reaches a busy error.
Contention is resolved by a FIFO wait queue. A belt fault halts the issuing
of new motions garage-wide until the fault is cleared; motions already in
flight run to completion. The fleet's ``faulted`` set is the one record of
a fault: the garage is halted while it is non-empty.

Billing charges every started minute between the entrance acceptance and the
retrieval request, both captured on the millisecond clock.
"""

from __future__ import annotations

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
    PowerBudgetExceededError,
    device_name,
    read_length_sensors,
)
from .engine import (
    bill_line,
    duplicate_line,
    halted_line,
    phase_line,
    reject_phone_line,
    reject_ticket_line,
    reject_vehicle_line,
    request_line,
    resumed_line,
    sms_out_line,
    start_line,
    timer_line,
)
from .model import AWAITING_ENTRY, AWAITING_PAYMENT, CLOSED, PARKED, PARKING, RETRIEVING
from .model import OCCUPIED, RESERVED, VACANT
from .model import (
    AutoparkError,
    ClosedTicket,
    GarageState,
    ParkingTicket,
    SlotAddress,
    SlotMatrix,
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


class StepKind(str, Enum):
    OPEN_GATE = "open_gate"
    CLOSE_GATE = "close_gate"
    CONVEY = "convey"
    LOAD_PLATFORM = "load_platform"
    ELEVATE = "elevate"
    ROTATE = "rotate"
    TRANSFER_TO_SLOT = "transfer_to_slot"
    TRANSFER_FROM_SLOT = "transfer_from_slot"


(OPEN_GATE, CLOSE_GATE, CONVEY, LOAD_PLATFORM, ELEVATE, ROTATE,
 TRANSFER_TO_SLOT, TRANSFER_FROM_SLOT) = StepKind


class Step(NamedTuple):
    """One motion in a program: the device it drives and the long-held
    resources its ticket holds while it runs."""

    kind: StepKind
    gate: str | None = None
    belt: BeltId | None = None
    target: int | None = None  # floor or slot index
    claims: tuple[str | BeltId, ...] = ()  # what the ticket must hold, taken in order
    frees: tuple[str | BeltId, ...] = ()  # the claims released when the step ends
    device: str = ""  # the device named in the trace


def _plan(*steps: Step, kept: tuple[BeltId, ...] = ()) -> tuple[Step, ...]:
    """The steps with the device each drives named and each claim freed by
    the last step that lists it, except the ``kept`` claims, which pass to
    the ticket's next program."""
    last = {claim: i for i, step in enumerate(steps) for claim in step.claims}
    planned = []
    for i, step in enumerate(steps):
        if step.gate:
            device = device_name("gate", step.gate)
        elif step.belt:
            device = device_name("belt", step.belt)
        else:
            device = ELEVATOR_MOTOR if step.kind is ELEVATE else ROTATOR
        frees = tuple(c for c in step.claims if last[c] == i and c not in kept)
        planned.append(step._replace(device=device, frees=frees))
    return tuple(planned)


class Program:
    """A ticket's progress through its steps.

    Programs compare and hash by identity: the wait queue tracks the program
    object, not its current field values. Its claims are held in the name of
    its ``holder``, the ticket id or ``"homing"``. Programs for one slot
    share one step tuple; each keeps its own ``idx``. ``finish``, run on the
    ticket after the last step, is an unbound ``GarageController`` function
    or None, so that a program held by its motions holds no controller.
    """

    __slots__ = ("steps", "ticket_id", "finish", "holder", "idx", "ticket_label", "__weakref__")

    def __init__(
        self,
        steps: tuple[Step, ...],
        ticket_id: int | None = None,
        finish: Callable[..., None] | None = None,
    ):
        self.steps = steps
        self.ticket_id = ticket_id
        self.finish = finish
        self.holder = "homing" if ticket_id is None else ticket_id
        self.idx = 0
        self.ticket_label = "-" if ticket_id is None else str(ticket_id)


class ArrivalRecord(NamedTuple):
    at_ms: int
    vehicle: Vehicle
    ticket_id: int | None  # None when the car is turned away
    reason: str | None  # TooLong | NoVacancy | DuplicatePhone | Halted


def allocate_slot(slots: SlotMatrix, ticket_id: int) -> SlotAddress:
    """Reserve the first vacant cell scanning floors bottom-up, slots in order."""
    addr = slots.first_vacant()
    if addr is None:
        raise NoVacancyError("no vacant slot")
    slots.set_cell(addr, RESERVED, ticket_id)
    return addr


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
        Step(OPEN_GATE, gate="entrance", claims=("entrance",)),
        Step(CONVEY, belt=ENTRANCE_BELT, claims=("entrance", ENTRANCE_BELT)),
        Step(CLOSE_GATE, gate="entrance", claims=("entrance",)),
        Step(LOAD_PLATFORM, belt=PLATFORM_BELT, claims=("platform", ENTRANCE_BELT)),
        Step(ELEVATE, target=slot.floor, claims=("platform",)),
        Step(ROTATE, target=slot.slot, claims=("platform",)),
        Step(TRANSFER_TO_SLOT, belt=BeltId("slot", slot.slot), claims=("platform",)),
    )


@cache
def _retrieval_plan(slot: SlotAddress) -> tuple[Step, ...]:
    # The car stays on the exit belt until it leaves: the exit program frees it.
    return _plan(
        Step(ELEVATE, target=slot.floor, claims=("platform",)),
        Step(ROTATE, target=slot.slot, claims=("platform",)),
        Step(TRANSFER_FROM_SLOT, belt=BeltId("slot", slot.slot), claims=("platform",)),
        Step(ELEVATE, target=0, claims=("platform",)),
        Step(ROTATE, target=0, claims=("platform",)),
        Step(LOAD_PLATFORM, belt=PLATFORM_BELT, claims=("platform", EXIT_BELT)),
        Step(CONVEY, belt=EXIT_BELT, claims=(EXIT_BELT,)),
        kept=(EXIT_BELT,),
    )


EXIT_PLAN = _plan(
    Step(OPEN_GATE, gate="exit", claims=("exit",)),
    Step(CONVEY, belt=EXIT_BELT, claims=("exit", EXIT_BELT)),
    Step(CLOSE_GATE, gate="exit", claims=("exit",)),
)

HOMING_PLAN = _plan(
    Step(ELEVATE, target=0, claims=("platform",)),
    Step(ROTATE, target=0, claims=("platform",)),
)


class GarageController:
    """Single-threaded controller reacting to simulation events.

    ``trace`` takes each trace record the controller makes: a renderer from
    ``engine`` followed by the values it renders (a session passes its
    ``Trace.add``). Records hold ids, names and amounts, never a program or
    a ticket, so a finished cycle's programs are freed when it ends.
    """

    def __init__(
        self,
        garage: GarageState,
        fleet: DeviceFleet,
        gateway: SmsGateway,
        trace: Callable[..., None],
    ):
        self.garage = garage
        self.fleet = fleet
        self.gateway = gateway
        self.arrivals: list[ArrivalRecord] = []
        self._trace = trace
        self._wait_q: dict[Program, None] = {}  # insertion-ordered: request order
        # Each held resource ("entrance", "exit", "platform", ENTRANCE_BELT,
        # EXIT_BELT) and its holder: a ticket id or "homing".
        self.claims: dict[str | BeltId, int | str] = {}

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
            self._trace(reject_vehicle_line, now_ms, reason, vehicle.vehicle_id)
            self.arrivals.append(ArrivalRecord(now_ms, vehicle, None, reason))
            return
        ticket = self.garage.issue_ticket(vehicle, slot, now_ms)
        self.arrivals.append(ArrivalRecord(now_ms, vehicle, ticket.ticket_id, None))
        self._set_phase(ticket, PARKING, now_ms)
        program = Program(_parking_plan(slot), ticket.ticket_id, GarageController._parked)
        self._request_step(program, now_ms)
        self._trace(timer_line, now_ms, "start", ticket.ticket_id)
        self._send_sms("welcome", ticket, now_ms)
        self._pump(now_ms)

    def _screen_arrival(self, vehicle: Vehicle) -> str | None:
        """The reason to turn the car away before looking for a slot, if any."""
        if self.fleet.faulted:
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
        if self.fleet.faulted:
            self._trace(reject_phone_line, now_ms, "Halted", phone)
            return
        ticket = self.garage.active_by_phone.get(phone)
        if ticket is None or ticket.phase in (AWAITING_ENTRY, PARKING):
            # A car still on its way in is not retrievable; same answer as an
            # unknown number.
            self._trace(reject_phone_line, now_ms, "UnknownPhone", phone)
            return
        if ticket.phase in (RETRIEVING, AWAITING_PAYMENT):
            self._trace(duplicate_line, now_ms, ticket.ticket_id)
            return
        ticket.exit_ms = now_ms
        self._trace(timer_line, now_ms, "stop", ticket.ticket_id)
        self._set_phase(ticket, RETRIEVING, now_ms)
        program = Program(_retrieval_plan(ticket.slot), ticket.ticket_id, GarageController._bill)
        self._request_step(program, now_ms)
        self._pump(now_ms)

    def handle_payment(self, ticket_id: int, now_ms: int) -> None:
        """Close the ticket and let the car out through the exit gate."""
        ticket = self.garage.tickets.get(ticket_id)
        if ticket is None:
            self._trace(reject_ticket_line, now_ms, "UnknownTicket", ticket_id)
            return
        if ticket.phase is not AWAITING_PAYMENT:
            self._trace(reject_ticket_line, now_ms, "WrongPhase", ticket_id)
            return
        self._set_phase(ticket, CLOSED, now_ms)
        program = Program(EXIT_PLAN, ticket_id)
        self._request_step(program, now_ms)
        self._pump(now_ms)

    def on_fault(self, belt_id: BeltId, now_ms: int) -> None:
        """A belt malfunction raises the alarm: finish in-flight motions only."""
        self.fleet.faulted.add(self.fleet.belts[belt_id])
        self._trace(halted_line, now_ms, belt_id)

    def on_fault_cleared(self, now_ms: int) -> None:
        """Clear every fault and resume deferred work in request order, if halted."""
        if not self.fleet.faulted:
            return
        self.fleet.faulted.clear()
        self._trace(resumed_line, now_ms)
        self._pump(now_ms)
        self._maybe_home(now_ms)

    def on_device_done(self, device_id: str, action_id: int, now_ms: int) -> None:
        """Advance the owning program past its completed motion."""
        try:
            program = self.fleet.complete_action(device_id, action_id).owner
        except KeyError:
            raise UnknownActionError(f"no program owns action {action_id} ({device_id})") from None
        step = program.steps[program.idx]
        for claim in step.frees:
            del self.claims[claim]
        if step.kind is TRANSFER_TO_SLOT:
            ticket = self.garage.tickets[program.ticket_id]
            self.garage.slots.set_cell(ticket.slot, OCCUPIED, ticket.ticket_id)
        elif step.kind is TRANSFER_FROM_SLOT:
            ticket = self.garage.tickets[program.ticket_id]
            self.garage.slots.set_cell(ticket.slot, VACANT, None)
        program.idx += 1
        if program.idx < len(program.steps):
            self._request_step(program, now_ms)
        elif program.finish is not None:
            program.finish(self, self.garage.tickets[program.ticket_id], now_ms)
        self._pump(now_ms)
        self._maybe_home(now_ms)

    # -- program machinery ---------------------------------------------------

    def _request_step(self, program: Program, now_ms: int) -> None:
        device = program.steps[program.idx].device
        self._trace(request_line, now_ms, device, program.ticket_label)
        self._wait_q[program] = None

    def _pump(self, now_ms: int) -> None:
        """Serve the wait queue in request order; launches never free anything,
        so one pass per wake-up is enough."""
        if self.fleet.faulted:
            return
        for program in list(self._wait_q):
            if self._try_launch(program, now_ms):
                del self._wait_q[program]

    def _try_launch(self, program: Program, now_ms: int) -> bool:
        step = program.steps[program.idx]
        # Long-held claims are taken as soon as they are free even if the
        # motion itself cannot start yet; this keeps the platform and the bays
        # FIFO while motor power churns.
        claims, holder = self.claims, program.holder
        for claim in step.claims:
            if claims.setdefault(claim, holder) != holder:
                return False
        action = self._start_motion(step, program, now_ms)
        if action is None:
            return False
        self._trace(
            start_line, now_ms, action.device_id, action.action_id, action.op, program.ticket_label
        )
        return True

    def _start_motion(self, step: Step, program: Program, now_ms: int) -> Action | None:
        """Start the step's motion on the fleet, or None while the relays
        cannot power it; the fleet alone knows what a motion draws."""
        fleet = self.fleet
        try:
            if step.gate is not None:
                command = "open" if step.kind is OPEN_GATE else "close"
                return fleet.gate_actuate(step.gate, command, now_ms, program)
            if step.belt is not None:
                return fleet.belt_start_convey(step.belt, now_ms, program)
            if step.kind is ELEVATE:
                return fleet.elevator_goto_floor(step.target, now_ms, program)
            return fleet.platform_rotate_to_slot(step.target, now_ms, program)
        except PowerBudgetExceededError:
            return None

    def _parked(self, ticket: ParkingTicket, now_ms: int) -> None:
        """The parking program's finish: the car is in its slot."""
        self._set_phase(ticket, PARKED, now_ms)
        ticket.parked_ms = now_ms

    def _bill(self, ticket: ParkingTicket, now_ms: int) -> None:
        """The retrieval program's finish: the car is on the exit belt, so bill it."""
        rate = self.garage.config.billing_rate_per_minute
        ticket.amount_due = compute_bill(ticket.entry_ms, ticket.exit_ms, rate)
        minutes = billed_minutes(ticket.entry_ms, ticket.exit_ms)
        self._trace(bill_line, now_ms, ticket.ticket_id, minutes, ticket.amount_due)
        self._set_phase(ticket, AWAITING_PAYMENT, now_ms)
        ticket.ready_ms = now_ms
        self._send_sms("bill", ticket, now_ms)

    def _maybe_home(self, now_ms: int) -> None:
        """Park the idle platform back at floor 0, facing slot 0."""
        if self.fleet.faulted:
            return
        if "platform" in self.claims:  # in use, or already homing
            return
        platform = self.fleet.platform
        if platform.floor_pos == 0 and platform.face == 0:
            return
        self._request_step(Program(HOMING_PLAN), now_ms)
        self._pump(now_ms)

    def _set_phase(self, ticket: ParkingTicket, phase: TicketPhase, now_ms: int) -> None:
        old = ticket.phase
        ticket.advance(phase)
        if phase is CLOSED:
            ticket.closed_ms = now_ms
            del self.garage.active[ticket.ticket_id]
            del self.garage.active_by_phone[ticket.vehicle.phone]
            closed = [getattr(ticket, name) for name in ClosedTicket._fields]
            self.garage.tickets[ticket.ticket_id] = ClosedTicket._make(closed)
        self._trace(phase_line, now_ms, ticket.ticket_id, old.value, phase.value)

    def _send_sms(self, kind: str, ticket: ParkingTicket, now_ms: int) -> None:
        body = compose_message(kind, ticket)
        ref = self.gateway.send_sms(ticket.vehicle.phone, body)
        self._trace(sms_out_line, now_ms, kind, ticket.vehicle.phone, ref)


_RESERVED_PHASES = (AWAITING_ENTRY, PARKING)
_OCCUPIED_PHASES = (PARKED, RETRIEVING)
_TIMED_PHASES = (AWAITING_ENTRY, PARKING, PARKED)


def check_invariants(controller: GarageController) -> None:
    """Structural scan run after every event dispatch.

    Verifies the ticket/slot bijection, each live ticket's billing clock
    (running exactly until the car is asked back), the relay budget, that
    each running motion alone powers its motors and is filed under the
    device it names, that no ticket's car sits on two belts, and that the
    platform is on a floor and faces a slot. Closed tickets are frozen and
    not rescanned, so a long day does not slow it down.

    Per event the Python-level work is one pass over the live tickets, each
    reading its own cell (``_claimed_counts``), and plain loops over the few
    running motions (at most about five) and the claims; no loop walks the
    cells or the devices, since the slot grid stores only its held cells and
    ``fleet.active`` is the one record of which devices are busy. A passing
    call builds two small sets, the running motors and the cars on belts,
    and no list, and calls no Python function but ``_claimed_counts``. The
    visit of the held cells (``_scan_cells``) runs only to name a grid fault;
    it is the authority, and if it finds no fault the state stands.
    """
    garage = controller.garage
    fleet = controller.fleet

    if not _claimed_counts(garage):
        _scan_cells(garage)
    if len(garage.active_by_phone) != len(garage.active):
        raise InvariantViolationError(
            f"{len(garage.active)} active tickets but {len(garage.active_by_phone)} active phones"
        )

    powered = fleet.relays.powered
    if len(powered) > fleet.relays.budget:
        raise InvariantViolationError("relay budget exceeded")
    motors, held = set(), 0  # held counts the actions' motors with repeats
    for action in fleet.active.values():
        motors.update(action.motors)
        held += len(action.motors)
    if held != len(motors):
        raise InvariantViolationError("a motor is held by two actions")
    if powered != motors:
        raise InvariantViolationError(f"powered {sorted(powered)} != active {sorted(motors)}")
    named = fleet.by_name
    for device, action in fleet.active.items():
        if named.get(action.device_id) is not device:
            raise InvariantViolationError(
                f"action {action.action_id} on {action.device_id} is filed under another device"
            )

    riders = set()
    for claim, holder in controller.claims.items():
        if type(claim) is BeltId:
            if holder in riders:
                cars = [h for c, h in controller.claims.items() if type(c) is BeltId]
                raise InvariantViolationError(f"a ticket's car sits on two belts: {cars}")
            riders.add(holder)

    platform = fleet.platform
    if not 0 <= platform.floor_pos < garage.config.floors:
        raise InvariantViolationError(f"platform floor {platform.floor_pos} out of range")
    face = platform.face
    if type(face) is not int or not 0 <= face < garage.config.slots_per_floor:
        raise InvariantViolationError(f"platform face {face} out of range")


def _claimed_counts(garage: GarageState) -> bool:
    """Whether the slot grid holds just what the live tickets claim.

    Each live ticket claims the entry of its slot's key naming it:
    AwaitingEntry and Parking in ``_reserved``, Parked in ``_occupied``. A
    Retrieving ticket claims its occupied entry only while the entry still
    names it: the transfer empties the cell before the phase moves on, and a
    new arrival may then reserve it. An AwaitingPayment ticket claims
    nothing.

    Each claiming ticket reads its own entry. Ticket ids differ, so no two
    claim one entry; so when each dict has as many entries as it has claims,
    and no key is in both, the grid holds the claims and nothing else. The
    same loop checks each billing clock (``exit_ms`` is None exactly in
    AwaitingEntry, Parking and Parked), but raises only once the grid is
    sound, so a grid fault is named first. Returns False if a claimed entry
    is missing or names another ticket, an entry is not claimed, or a slot
    is off the grid; ``_scan_cells`` then names the fault.
    """
    slots = garage.slots
    floors, n = slots.floors, slots.slots_per_floor
    reserved_cells, occupied_cells = slots._reserved, slots._occupied
    reserved = occupied = 0
    wrong_clock = None
    try:  # a claimed entry that is missing raises KeyError
        for ticket_id, ticket in garage.active.items():
            phase = ticket.phase
            addr = ticket.slot
            floor, slot = addr.floor, addr.slot
            if not (0 <= slot < n and 0 <= floor < floors):  # no key of another cell
                return False
            key = floor * n + slot
            if phase is PARKED:
                if occupied_cells[key] != ticket_id:
                    return False
                occupied += 1
            elif phase is AWAITING_ENTRY or phase is PARKING:
                if reserved_cells[key] != ticket_id:
                    return False
                reserved += 1
            else:
                if ticket.exit_ms is None:
                    wrong_clock = wrong_clock or ticket
                if phase is RETRIEVING and occupied_cells.get(key) == ticket_id:
                    occupied += 1
                continue
            if ticket.exit_ms is not None:
                wrong_clock = wrong_clock or ticket
    except KeyError:
        return False
    if (
        len(occupied_cells) != occupied
        or len(reserved_cells) != reserved
        or not occupied_cells.keys().isdisjoint(reserved_cells)
    ):
        return False
    if wrong_clock is not None:
        raise _clock_fault(wrong_clock)
    return True


def _clock_fault(ticket: ParkingTicket) -> InvariantViolationError:
    return InvariantViolationError(
        f"ticket {ticket.ticket_id} ({ticket.phase.value}) has exit_ms {ticket.exit_ms}"
    )


def _scan_cells(garage: GarageState) -> None:
    """Name the first fault in the slot grid by visiting the held cells in
    key order, else the first wrong billing clock.

    Each entry of ``_reserved`` and ``_occupied`` maps an int key on the
    grid to an int ticket id, and no key is in both. A held cell must be the
    own slot of an active ticket whose phase fits the cell (reserved:
    AwaitingEntry or Parking; occupied: Parked or Retrieving). A ticket has
    one slot, so no ticket holds two cells. A closed ticket has left
    ``active``, so a cell it still held fails as held by a dead ticket, and
    an AwaitingPayment ticket holding a cell fails the phase test. The visit
    notes the tickets it found at their slots in a timed phase
    (AwaitingEntry, Parking, Parked); every active ticket in a timed phase
    must be among them, and only those may have no ``exit_ms``.
    """
    slots = garage.slots
    active = garage.active
    reserved, occupied = slots._reserved, slots._occupied

    for entries in (reserved, occupied):
        for key, ticket_id in entries.items():
            if type(key) is not int or not 0 <= key < slots.cells:
                raise InvariantViolationError(
                    f"cell key {key!r} is not on the {slots.floors}x{slots.slots_per_floor} grid"
                )
            if type(ticket_id) is not int:
                raise InvariantViolationError(
                    f"cell {slots.address(key)} names ticket {ticket_id!r}, not an int"
                )
    both = reserved.keys() & occupied.keys()
    if both:
        raise InvariantViolationError(
            f"cell {slots.address(min(both))} is both reserved and occupied"
        )

    timed = set()  # the tickets found at their slots in a timed phase
    held = {key: (RESERVED, ticket_id) for key, ticket_id in reserved.items()}
    held.update((key, (OCCUPIED, ticket_id)) for key, ticket_id in occupied.items())
    for key in sorted(held):
        state, ticket_id = held[key]
        cell = slots.address(key)
        ticket = active.get(ticket_id)
        if ticket is None:
            raise InvariantViolationError(f"cell {cell} held by dead ticket {ticket_id}")
        home = ticket.slot
        if home != cell:
            raise InvariantViolationError(
                f"ticket {ticket_id} holds {cell} but its slot is {home}"
            )
        phase = ticket.phase
        if phase not in (_RESERVED_PHASES if state is RESERVED else _OCCUPIED_PHASES):
            raise InvariantViolationError(
                f"cell {home} is {state.value} but ticket {ticket_id} is {phase.value}"
            )
        if phase in _TIMED_PHASES:
            timed.add(ticket_id)

    for ticket in active.values():
        if ticket.phase in _TIMED_PHASES and ticket.ticket_id not in timed:
            raise InvariantViolationError(
                f"ticket {ticket.ticket_id} ({ticket.phase.value}) does not hold its slot"
            )
    for ticket in active.values():
        if (ticket.exit_ms is None) is not (ticket.phase in _TIMED_PHASES):
            raise _clock_fault(ticket)
