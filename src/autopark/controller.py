"""Garage controller: the decision logic over the simulated hardware.

Arrivals, retrieval requests, payments, and device completions all funnel
through here. Each accepted vehicle gets a step program (a fixed sequence of
gate, belt, and platform motions); programs compete for the long-held
resources (the entrance and exit bays, the single platform, and the
entrance and exit belts a car sits on) and for the two-motor relay budget.
One table, ``GarageController.claims``, records who holds each long-held
resource: a ticket's id, or ``"-"`` for the homing program. A claim
belongs to the ticket, so one can pass from a ticket's retrieval to its
exit. Each step is one record holding everything about its motion: the
fleet starter that drives it, the device it names in the trace, the claims
its ticket must hold and those it frees when it ends, and what its end does
to the ticket (park it, empty its cell, bill it). A program runs a plan of
steps. The controller reads no device state but the platform's position,
which decides whether to home it: the fleet refuses a motion that would
power more motors than its budget allows, and the program retries once a
motor frees. The fleet's ``active`` table is the one record of the running
motions and so of the powered motors. A device moves only under the claim
covering it, so no session reaches a busy error.
Contention is resolved by a FIFO wait queue. A belt fault halts the issuing
of new motions garage-wide until the fault is cleared; motions already in
flight run to completion. The fleet's ``faulted`` set is the one record of
a fault: the garage is halted while it is non-empty.

Billing charges every started minute between the entrance acceptance and the
retrieval request, both captured on the millisecond clock.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from functools import cache
from typing import Callable, NamedTuple

from .devices import (
    ELEVATOR_MOTOR,
    EXIT_BELT,
    ENTRANCE_BELT,
    MOTOR_BUDGET,
    PLATFORM_BELT,
    ROTATOR,
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


class Step(NamedTuple):
    """One motion in a program, described once: the ``DeviceFleet`` starter
    that moves it (by name, so a wrapped starter is the one called) and the
    arguments it takes before the time and the owner, the device it names in
    the trace, the long-held resources its ticket holds while it runs, and
    what its end does to the ticket. ``done`` is an unbound
    ``GarageController`` function or None, so that a plan, cached for the
    whole process, holds no controller."""

    start: str
    args: tuple
    device: str
    claims: tuple[str | BeltId, ...] = ()  # what the ticket must hold, taken in order
    frees: tuple[str | BeltId, ...] = ()  # the claims released when the step ends
    done: Callable[..., None] | None = None  # run on the ticket when the motion ends


def _gate(name: str, command: str, *claims: str | BeltId) -> Step:
    return Step("gate_actuate", (name, command), device_name("gate", name), claims)


def _belt(belt: BeltId, *claims: str | BeltId, done: Callable[..., None] | None = None) -> Step:
    return Step("belt_start_convey", (belt,), device_name("belt", belt), claims, done=done)


def _lift(floor: int, *claims: str | BeltId) -> Step:
    return Step("elevator_goto_floor", (floor,), ELEVATOR_MOTOR, claims)


def _turn(slot: int, *claims: str | BeltId) -> Step:
    return Step("platform_rotate_to_slot", (slot,), ROTATOR, claims)


def _plan(*steps: Step, kept: tuple[BeltId, ...] = ()) -> tuple[Step, ...]:
    """The steps with each claim freed by the last step that lists it, except
    the ``kept`` claims, which pass to the ticket's next program."""
    last = {claim: i for i, step in enumerate(steps) for claim in step.claims}
    return tuple(
        step._replace(frees=tuple(c for c in step.claims if last[c] == i and c not in kept))
        for i, step in enumerate(steps)
    )


class Program:
    """A ticket's progress through its steps.

    Programs compare and hash by identity: the wait queue tracks the program
    object, not its current field values. Its ``holder`` names it once: the
    ticket's own id object, or ``"-"`` for the homing program. Its claims
    are held in that name, and its trace records print it as ``ticket=``.
    Programs for one slot share one step tuple; each keeps its own ``idx``.
    """

    __slots__ = ("steps", "holder", "idx", "__weakref__")

    def __init__(self, steps: tuple[Step, ...], holder: int | str = "-"):
        self.steps = steps
        self.holder = holder
        self.idx = 0


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
        _gate("entrance", "open", "entrance"),
        _belt(ENTRANCE_BELT, "entrance", ENTRANCE_BELT),
        _gate("entrance", "close", "entrance"),
        _belt(PLATFORM_BELT, "platform", ENTRANCE_BELT),
        _lift(slot.floor, "platform"),
        _turn(slot.slot, "platform"),
        _belt(BeltId("slot", slot.slot), "platform", done=GarageController._parked),
    )


@cache
def _retrieval_plan(slot: SlotAddress) -> tuple[Step, ...]:
    # The exit belt is claimed before the platform, so a retrieval waiting
    # behind an unpaid car on it holds nothing that later programs need.
    # The car stays on the exit belt until it leaves: the exit program frees it.
    return _plan(
        _lift(slot.floor, EXIT_BELT, "platform"),
        _turn(slot.slot, "platform"),
        _belt(BeltId("slot", slot.slot), "platform", done=GarageController._vacate),
        _lift(0, "platform"),
        _turn(0, "platform"),
        _belt(PLATFORM_BELT, "platform", EXIT_BELT),
        _belt(EXIT_BELT, EXIT_BELT, done=GarageController._bill),
        kept=(EXIT_BELT,),
    )


EXIT_PLAN = _plan(
    _gate("exit", "open", "exit"),
    _belt(EXIT_BELT, "exit", EXIT_BELT),
    _gate("exit", "close", "exit"),
)

HOMING_PLAN = _plan(_lift(0, "platform"), _turn(0, "platform"))


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
        self._amounts: dict[int, Decimal] = {}  # this run's bill by billed minutes
        self._wait_q: dict[Program, None] = {}  # insertion-ordered: request order
        # Each held resource ("entrance", "exit", "platform", ENTRANCE_BELT,
        # EXIT_BELT) and its holder: a ticket id, or "-" for homing.
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
        program = Program(_parking_plan(slot), ticket.ticket_id)
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
        program = Program(_retrieval_plan(ticket.slot), ticket.ticket_id)
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
        program = Program(EXIT_PLAN, ticket.ticket_id)
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
        """Advance the owning program past its completed motion: free the
        step's claims, run what its end does, then request the next step."""
        try:
            program = self.fleet.complete_action(device_id, action_id).owner
        except KeyError:
            raise UnknownActionError(f"no program owns action {action_id} ({device_id})") from None
        step = program.steps[program.idx]
        for claim in step.frees:
            del self.claims[claim]
        program.idx += 1
        if step.done is not None:
            step.done(self, self.garage.tickets[program.holder], now_ms)
        if program.idx < len(program.steps):
            self._request_step(program, now_ms)
        self._pump(now_ms)
        self._maybe_home(now_ms)

    # -- program machinery ---------------------------------------------------

    def _request_step(self, program: Program, now_ms: int) -> None:
        device = program.steps[program.idx].device
        self._trace(request_line, now_ms, device, program.holder)
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
        # The fleet alone knows what a motion draws: it refuses one past its
        # motor budget, and the program waits for a motor to free.
        try:
            action = getattr(self.fleet, step.start)(*step.args, now_ms, program)
        except PowerBudgetExceededError:
            return False
        self._trace(start_line, now_ms, action.device_id, action.action_id, action.op, holder)
        return True

    def _parked(self, ticket: ParkingTicket, now_ms: int) -> None:
        """The end of the transfer into the slot: the car is parked there."""
        self.garage.slots.set_cell(ticket.slot, OCCUPIED, ticket.ticket_id)
        self._set_phase(ticket, PARKED, now_ms)
        ticket.parked_ms = now_ms

    def _vacate(self, ticket: ParkingTicket, now_ms: int) -> None:
        """The end of the transfer out of the slot: the cell is free again."""
        self.garage.slots.set_cell(ticket.slot, VACANT, None)

    def _bill(self, ticket: ParkingTicket, now_ms: int) -> None:
        """The end of the exit belt's run: the car is on the exit belt, so bill it.

        The amount comes from ``_amounts``, this run's table of bills by
        billed minutes at the garage's rate, so that every bill of equal
        minutes, on its ticket and in its trace record, is one ``Decimal``.
        """
        minutes = billed_minutes(ticket.entry_ms, ticket.exit_ms)
        amount = self._amounts.get(minutes)
        if amount is None:
            rate = self.garage.config.billing_rate_per_minute
            amount = compute_bill(ticket.entry_ms, ticket.exit_ms, rate)
            self._amounts[minutes] = amount
        ticket.amount_due = amount
        self._trace(bill_line, now_ms, ticket.ticket_id, minutes, amount)
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
    (running exactly until the car is asked back), that the running motions
    power no more than ``MOTOR_BUDGET`` motors and no motor twice, that
    each is filed under the device it names, that no ticket's car sits on
    two belts, and that the platform is on a floor and faces a slot. Closed
    tickets are frozen and not rescanned, so a long day does not slow it
    down.

    Per event the Python-level work is one pass over the live tickets, each
    reading its own cell (``_claimed_counts``), and plain loops over the few
    running motions (at most about five) and the claims; no loop walks the
    cells or the devices, since the slot grid stores only its held cells and
    ``fleet.active`` is the one record of which devices are busy and which
    motors are powered. A passing call builds two small sets, the running
    motors and the cars on belts, and no list, and calls no Python function
    but ``_claimed_counts``. The visit of the held cells (``_scan_cells``)
    runs only to name a grid fault; it is the authority, and if it finds no
    fault the state stands.
    """
    garage = controller.garage
    fleet = controller.fleet

    if not _claimed_counts(garage):
        _scan_cells(garage)
    if len(garage.active_by_phone) != len(garage.active):
        raise InvariantViolationError(
            f"{len(garage.active)} active tickets but {len(garage.active_by_phone)} active phones"
        )

    motors, held = set(), 0  # held counts the actions' motors with repeats
    for action in fleet.active.values():
        motors.update(action.motors)
        held += len(action.motors)
    if len(motors) > MOTOR_BUDGET:
        raise InvariantViolationError("relay budget exceeded")
    if held != len(motors):
        raise InvariantViolationError("a motor is held by two actions")
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

    Each claiming ticket reads its own entry, which names it only if it is
    the ticket's own id object or an int equal to it (``_names``): a float
    or bool equal to the id is a fault, as ``_scan_cells`` finds. The
    identity test comes first and inline: the controller writes each
    ticket's own id object into its cells, so a sound entry passes on that
    test alone. Ticket ids differ, so no two claim one entry; so when each
    dict has as many entries as it has claims, and no key is in both, the
    grid holds the claims and nothing else. The same loop checks each
    billing clock (``exit_ms`` is None exactly in AwaitingEntry, Parking and
    Parked), but raises only once the grid is sound, so a grid fault is
    named first. Returns False if a claimed entry is missing or names
    another ticket, an entry is not claimed, or a slot is off the grid;
    ``_scan_cells`` then names the fault.
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
                if occupied_cells[key] is not ticket_id:
                    if not _names(occupied_cells[key], ticket_id):
                        return False
                occupied += 1
            elif phase is AWAITING_ENTRY or phase is PARKING:
                if reserved_cells[key] is not ticket_id:
                    if not _names(reserved_cells[key], ticket_id):
                        return False
                reserved += 1
            else:
                if ticket.exit_ms is None:
                    wrong_clock = wrong_clock or ticket
                if phase is RETRIEVING:
                    entry = occupied_cells.get(key)  # None once the car has left the cell
                    if entry is ticket_id or (entry is not None and _names(entry, ticket_id)):
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


def _names(entry, ticket_id: int) -> bool:
    """Whether a cell's entry names the ticket: it is the ticket's own id
    object, or an int equal to it, and not a float or bool equal to it."""
    return entry is ticket_id or (type(entry) is int and entry == ticket_id)


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
