"""Core domain types for the garage.

Holds the static configuration (garage geometry, kinematic timings, billing
rate), the vehicle and ticket records, and the slot occupancy matrix the
controller works against. Each ticket carries its own billing clock: its
``entry_ms`` and, once the car is asked back, its ``exit_ms``.

All timestamps are simulation time as non-negative integer milliseconds.
Money is carried as Decimal to keep billing exact.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from decimal import Decimal
from enum import Enum
from typing import NamedTuple

MS_PER_SECOND = 1000
MS_PER_MINUTE = 60_000


class AutoparkError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfigError(AutoparkError):
    """Garage or kinematics configuration violates a constraint."""


class NegativeDurationError(AutoparkError):
    """A stay was billed with an exit time before its entry time."""


class InvalidEventError(AutoparkError, ValueError):
    """An input event holds a value that no scenario line could."""


def ms_from_s(seconds: float) -> int:
    """Convert seconds to the internal integer-millisecond clock unit; a time
    too large for it is a ValueError."""
    try:
        return round(seconds * MS_PER_SECOND)
    except OverflowError:
        raise ValueError(f"{seconds:g} s does not fit the millisecond clock") from None


# Scenario and report numbers: ASCII digits with an optional sign, decimal
# point and exponent, or a word for infinity or NaN. Python's int, float and
# Decimal would also take surrounding space, digit grouping with "_" and the
# digits of every other script.
_NUMBER_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|s?nan)",
    re.IGNORECASE,
)


def parse_number(kind: type, text: str):
    """``kind(text)`` for an int, float or Decimal written in the number
    grammar; any other text is a ValueError."""
    if _NUMBER_RE.fullmatch(text) is None:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


_PHONE_RE = re.compile(r"\+?[0-9]+")
MAX_BODY_CHARS = 160  # one SMS


def is_valid_phone(number: str) -> bool:
    """A phone number is one or more ASCII digits with an optional leading '+'."""
    return type(number) is str and _PHONE_RE.fullmatch(number) is not None


def check_text(name: str, value: str) -> None:
    """Refuse a text field that would not read back the same from a scenario
    line: it is not a str, holds ``#``, a word after its first holds ``=``,
    or its words are not joined by single spaces."""
    if type(value) is not str:
        raise InvalidEventError(f"{name} must be text, not {value!r}")
    if "#" in value or "=" in value.partition(" ")[2] or " ".join(value.split()) != value:
        raise InvalidEventError(f"{name}={value!r} would not read back the same")


def check_types(record: NamedTuple) -> None:
    """Refuse a field of a config record whose value is not of its default's
    type. A float field also takes an int that a float holds exactly, so
    that its scenario line reads back equal; no field takes a bool."""
    for name, default in record._field_defaults.items():
        kind, value = type(default), getattr(record, name)
        if type(value) is kind:
            continue
        if kind is not float or type(value) is not int or abs(value) > 2**53:
            raise InvalidConfigError(f"{name} must be {kind.__name__}, not {value!r}")


def is_negative(number: float) -> bool:
    """Whether a number is below zero or a negative zero."""
    return number < 0 or (number == 0 and math.copysign(1.0, number) < 0)


# Motor steps in one turn of the platform: a 1.8 degree motor step through
# the 3:1 ring gear turns the platform 0.6 degrees a step. The platform stops
# only at whole steps, so a garage's slot count must divide this.
RING_STEPS = 600


class KinematicsConfig(NamedTuple):
    """Motion timings for every powered axis."""

    belt_transit_s: float = 10.0  # one full conveyor run
    platform_load_s: float = 5.0  # platform belt, car on/off the platform
    elevation_per_floor_s: float = 8.0  # vertical travel per floor
    rotation_per_slot_s: float = 3.0  # per slot face of rotation
    gate_actuation_s: float = 2.0  # 90 degree gate swing

    def validate(self, floors: int, slots_per_floor: int) -> None:
        check_types(self)
        # The longest motion of each timing must fit the millisecond clock:
        # the full lift, and a half turn (rotation takes the shorter arc).
        motions = {"elevation_per_floor_s": floors - 1, "rotation_per_slot_s": slots_per_floor / 2}
        for name, seconds in zip(self._fields, self):
            if not 0 < seconds < math.inf:
                raise InvalidConfigError(f"{name} must be > 0 and finite")
            try:
                ms_from_s(seconds * motions.get(name, 1))
            except ValueError as exc:
                raise InvalidConfigError(f"{name} is too large: a motion of {exc}") from None
        if RING_STEPS % slots_per_floor:
            raise InvalidConfigError(
                f"platform step {360 / RING_STEPS} deg does not divide the "
                f"{360.0 / slots_per_floor} deg slot pitch"
            )


# The most cells a garage may have. The slot grid stores only its held cells
# and a passing invariant scan reads none of the others, so neither grows
# with this bound. Two things still do: ``SlotMatrix.addresses()`` walks
# every cell, and once the scan has found a fault it sorts the held cells to
# name the first, up to every cell of a full garage. The bound is kept so
# that a mistyped floor count is refused at validation. The benchmark's
# largest garage has 480 cells.
MAX_CELLS = 100_000


class GarageConfig(NamedTuple):
    """Static description of one garage installation."""

    floors: int = 3
    slots_per_floor: int = 6
    max_vehicle_length_mm: int = 5000
    billing_rate_per_minute: Decimal = Decimal("0.05")
    kinematics: KinematicsConfig = KinematicsConfig()
    bus_voltage_v: float = 12.0

    def validate(self) -> None:
        check_types(self)
        if self.floors < 1:
            raise InvalidConfigError("floors must be >= 1")
        if self.slots_per_floor < 1:
            raise InvalidConfigError("slots_per_floor must be >= 1")
        # The length sensors' beams sit at float positions up to this length.
        if not 0 < self.max_vehicle_length_mm <= 2**53:
            raise InvalidConfigError("max_vehicle_length_mm must be > 0 and <= 2**53")
        rate = self.billing_rate_per_minute
        if not rate.is_finite() or rate.is_signed():
            raise InvalidConfigError("billing_rate_per_minute must be >= 0 and finite")
        if not 0 < self.bus_voltage_v < math.inf:
            raise InvalidConfigError("bus_voltage_v must be > 0 and finite")
        self.kinematics.validate(self.floors, self.slots_per_floor)
        cells = self.floors * self.slots_per_floor
        if cells > MAX_CELLS:
            raise InvalidConfigError(
                f"floors * slots_per_floor must be <= {MAX_CELLS}, not {cells}"
            )

    @property
    def slot_angle_deg(self) -> float:
        return 360.0 / self.slots_per_floor


def validated_make(cls, iterable):
    """``_make`` for a named tuple that checks in ``__new__``, so ``_replace`` checks too."""
    return cls(*iterable)


class Vehicle(namedtuple("Vehicle", "vehicle_id length_mm phone")):
    """One customer car as seen at the entrance."""

    __slots__ = ()

    def __new__(cls, vehicle_id: str, length_mm: int, phone: str) -> Vehicle:
        check_text("vehicle_id", vehicle_id)
        if not vehicle_id:
            raise InvalidEventError("vehicle_id must be non-empty")
        if "," in vehicle_id:
            raise InvalidEventError(f"vehicle_id must not contain ',': {vehicle_id!r}")
        if type(length_mm) is not int:
            raise InvalidEventError(f"length_mm must be an int, not {length_mm!r}")
        if length_mm <= 0:
            raise InvalidEventError("length_mm must be > 0")
        if not is_valid_phone(phone):
            raise InvalidEventError(f"invalid phone number: {phone!r}")
        return tuple.__new__(cls, (vehicle_id, length_mm, phone))

    _make = classmethod(validated_make)


class SlotAddress:
    """Zero-based (floor, slot) position in the garage.
    Not a named tuple: the scan reads both fields of every live ticket's slot
    on every event, and a slot attribute reads in about half the time."""

    __slots__ = ("floor", "slot")

    def __init__(self, floor: int, slot: int):
        self.floor = floor
        self.slot = slot

    def __eq__(self, other) -> bool:
        return type(other) is SlotAddress and self.floor == other.floor and self.slot == other.slot

    def __hash__(self) -> int:
        return hash((self.floor, self.slot))

    def __repr__(self) -> str:
        return f"SlotAddress(floor={self.floor}, slot={self.slot})"

    def __str__(self) -> str:
        return f"{self.floor}/{self.slot}"


class SlotState(str, Enum):
    VACANT = "vacant"
    RESERVED = "reserved"
    OCCUPIED = "occupied"


VACANT, RESERVED, OCCUPIED = SlotState  # module constants: cheaper to read than class attributes


class TicketPhase(str, Enum):
    AWAITING_ENTRY = "AwaitingEntry"
    PARKING = "Parking"
    PARKED = "Parked"
    RETRIEVING = "Retrieving"
    AWAITING_PAYMENT = "AwaitingPayment"
    CLOSED = "Closed"


AWAITING_ENTRY, PARKING, PARKED, RETRIEVING, AWAITING_PAYMENT, CLOSED = TicketPhase
_PHASE_ORDER = list(TicketPhase)


class ParkingTicket:
    """Lifecycle record for one accepted vehicle."""

    __slots__ = ("ticket_id", "vehicle", "slot", "entry_ms", "phase",
                 "exit_ms", "parked_ms", "ready_ms", "closed_ms", "amount_due")

    def __init__(self, ticket_id: int, vehicle: Vehicle, slot: SlotAddress, entry_ms: int):
        self.ticket_id, self.vehicle, self.slot, self.entry_ms = ticket_id, vehicle, slot, entry_ms
        self.phase = AWAITING_ENTRY
        self.exit_ms: int | None = None  # the retrieval request stops the billing clock
        self.parked_ms: int | None = None  # the car is in its slot
        self.ready_ms: int | None = None  # the car is on the exit belt and billed
        self.closed_ms: int | None = None  # paid
        self.amount_due: Decimal | None = None

    def advance(self, phase: TicketPhase) -> None:
        """Move to the next lifecycle phase; phases never go backwards."""
        if _PHASE_ORDER.index(phase) <= _PHASE_ORDER.index(self.phase):
            raise ValueError(f"cannot move ticket from {self.phase} to {phase}")
        self.phase = phase


# A paid ticket: the fields of ``ParkingTicket``, none of them writable.
ClosedTicket = namedtuple("ClosedTicket", ParkingTicket.__slots__)


class SlotMatrix:
    """Occupancy grid of ``floors`` x ``slots_per_floor`` cells, of which it
    stores only the held ones.

    ``_reserved`` and ``_occupied`` each map a cell's key (``floor *
    slots_per_floor + slot``) to the id of the ticket holding it; a cell in
    neither is vacant, and a ticket owns at most one cell at any time. The
    most cells ever occupied at once is kept as ``occupied_peak``. An
    address or key off the grid is an IndexError.

    ``address`` hands out one ``SlotAddress`` per cell key for the life of
    the grid, kept in ``_addresses`` once handed out, so that dict holds
    only the cells used. Allocation goes through it, so every ticket that
    used a cell, and the scan, share that cell's one address. Nothing
    mutates an address: a ticket moves by rebinding its ``slot``.

    First-free allocation keeps one low-water mark, ``_low``: every key
    below it is held. ``first_vacant`` walks up from the mark past held
    keys and keeps the key it stops at; vacating a key below the mark
    lowers the mark to it.
    """

    def __init__(self, floors: int, slots_per_floor: int):
        self.floors = floors
        self.slots_per_floor = slots_per_floor
        self.cells = floors * slots_per_floor
        self._reserved: dict[int, int] = {}
        self._occupied: dict[int, int] = {}
        self._addresses: dict[int, SlotAddress] = {}
        self._low = 0
        self.occupied_peak = 0

    def key(self, addr: SlotAddress) -> int:
        floor, slot, n = addr.floor, addr.slot, self.slots_per_floor
        if type(floor) is int and type(slot) is int and 0 <= floor < self.floors and 0 <= slot < n:
            return floor * n + slot
        raise IndexError(f"no cell {addr} on the {self.floors}x{n} grid")

    def address(self, key: int) -> SlotAddress:
        n = self.slots_per_floor
        if type(key) is not int or not 0 <= key < self.cells:
            raise IndexError(f"no cell key {key!r} on the {self.floors}x{n} grid")
        addr = self._addresses.get(key)
        if addr is None:
            addr = self._addresses[key] = SlotAddress(*divmod(key, n))
        return addr

    def state_at(self, addr: SlotAddress) -> SlotState:
        key = self.key(addr)
        if key in self._occupied:
            return OCCUPIED
        return RESERVED if key in self._reserved else VACANT

    def ticket_at(self, addr: SlotAddress) -> int | None:
        key = self.key(addr)
        return self._occupied.get(key, self._reserved.get(key))

    def addresses(self):
        """Yield every address in floor-major scan order."""
        for floor in range(self.floors):
            for slot in range(self.slots_per_floor):
                yield SlotAddress(floor, slot)

    def first_vacant(self) -> SlotAddress | None:
        """The vacant cell first in floor-major order, or None if every cell is held."""
        reserved, occupied = self._reserved, self._occupied
        key = self._low
        while key < self.cells and (key in reserved or key in occupied):
            key += 1
        self._low = key
        return self.address(key) if key < self.cells else None

    def set_cell(self, addr: SlotAddress, state: SlotState, ticket_id: int | None) -> None:
        # A value equal to a member but not one would match no branch below.
        if type(state) is not SlotState:
            raise ValueError(f"not a slot state: {state!r}")
        if state is VACANT and ticket_id is not None:
            raise ValueError("vacant cells carry no ticket")
        if state is not VACANT and type(ticket_id) is not int:
            raise ValueError(f"{state.value} cells need an int ticket id, not {ticket_id!r}")
        key = self.key(addr)
        reserved, occupied = self._reserved, self._occupied
        if state is VACANT and key < self._low:
            self._low = key
        reserved.pop(key, None)
        occupied.pop(key, None)
        if state is RESERVED:
            reserved[key] = ticket_id
        elif state is OCCUPIED:
            occupied[key] = ticket_id
            self.occupied_peak = max(self.occupied_peak, len(occupied))


class GarageState:
    """Everything that changes as the garage runs: the slot grid and the tickets.

    ``tickets`` keeps every ticket ever issued, numbered from 1 in issue
    order, so its size is the count of cars let in. ``active`` and
    ``active_by_phone`` index the ones not yet ``CLOSED``, by ticket id and by
    the customer's phone; a ticket leaves both when it closes, and its entry
    in ``tickets`` becomes a frozen ``ClosedTicket``. ``next_ticket_id`` is
    the id the next ticket gets, one object until it is issued, so the cell
    the controller reserves under it and the ticket hold the same id.
    """

    __slots__ = ("config", "slots", "tickets", "active", "active_by_phone", "next_ticket_id")

    def __init__(self, config: GarageConfig, slots: SlotMatrix):
        self.config = config
        self.slots = slots
        self.tickets: dict[int, ParkingTicket] = {}
        self.active: dict[int, ParkingTicket] = {}
        self.active_by_phone: dict[str, ParkingTicket] = {}
        self.next_ticket_id = 1

    @property
    def vehicles_entered(self) -> int:
        return len(self.tickets)

    def issue_ticket(self, vehicle: Vehicle, slot: SlotAddress, entry_ms: int) -> ParkingTicket:
        ticket = ParkingTicket(self.next_ticket_id, vehicle, slot, entry_ms)
        self.next_ticket_id += 1
        self.tickets[ticket.ticket_id] = ticket
        self.active[ticket.ticket_id] = ticket
        self.active_by_phone[vehicle.phone] = ticket
        return ticket

    def phase_counts(self) -> dict[TicketPhase, int]:
        out = {phase: 0 for phase in TicketPhase}
        for ticket in self.tickets.values():
            out[ticket.phase] += 1
        return out


def new_garage(config: GarageConfig) -> GarageState:
    """Build an empty garage after validating the configuration."""
    config.validate()
    return GarageState(
        config=config,
        slots=SlotMatrix(config.floors, config.slots_per_floor),
    )


def occupancy_count(garage: GarageState) -> tuple[int, int]:
    """Return (occupied, vacant) cell counts; reserved cells are neither."""
    slots = garage.slots
    return len(slots._occupied), slots.cells - len(slots._occupied) - len(slots._reserved)


def billed_minutes(entry_ms: int, exit_ms: int) -> int:
    """Whole minutes charged for a stay: every started minute counts."""
    if exit_ms < entry_ms:
        raise NegativeDurationError(f"exit {exit_ms}ms is before entry {entry_ms}ms")
    duration_ms = exit_ms - entry_ms
    return -(-duration_ms // MS_PER_MINUTE)
