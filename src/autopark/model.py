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
from functools import total_ordering
from typing import NamedTuple

MS_PER_SECOND = 1000
MS_PER_MINUTE = 60_000


class AutoparkError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfigError(AutoparkError):
    """Garage or kinematics configuration violates a constraint."""


class NegativeDurationError(AutoparkError):
    """A stay was billed with an exit time before its entry time."""


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


def is_valid_phone(number: str) -> bool:
    """A phone number is one or more ASCII digits with an optional leading '+'."""
    return _PHONE_RE.fullmatch(number) is not None


class KinematicsConfig(NamedTuple):
    """Motion timings and stepper geometry for every powered axis."""

    belt_transit_s: float = 10.0  # one full conveyor run
    platform_load_s: float = 5.0  # platform belt, car on/off the platform
    elevation_per_floor_s: float = 8.0  # vertical travel per floor
    rotation_per_slot_s: float = 3.0  # per slot face of rotation
    gate_actuation_s: float = 2.0  # 90 degree gate swing
    step_angle_main_deg: float = 1.8  # elevation and rotation motors
    step_angle_gate_deg: float = 7.5  # gate motors
    rotation_gear_ratio: float = 3.0  # motor degrees per platform degree

    def validate(self, floors: int, slots_per_floor: int) -> None:
        # The longest motion of each timing must fit the millisecond clock:
        # the full lift, and a half turn (rotation takes the shorter arc).
        motions = {"elevation_per_floor_s": floors - 1, "rotation_per_slot_s": slots_per_floor / 2}
        for name in (
            "belt_transit_s",
            "platform_load_s",
            "elevation_per_floor_s",
            "rotation_per_slot_s",
            "gate_actuation_s",
        ):
            seconds = getattr(self, name)
            if not 0 < seconds < math.inf:
                raise InvalidConfigError(f"{name} must be > 0 and finite")
            try:
                ms_from_s(seconds * motions.get(name, 1))
            except ValueError as exc:
                raise InvalidConfigError(f"{name} is too large: a motion of {exc}") from None
        for angle in (self.step_angle_main_deg, self.step_angle_gate_deg):
            if not 0 < angle < math.inf:
                raise InvalidConfigError("step angles must be > 0 and finite")
        if not 1 <= self.rotation_gear_ratio < math.inf:
            raise InvalidConfigError("rotation_gear_ratio must be >= 1 and finite")
        if not _divides(90.0, self.step_angle_gate_deg):
            raise InvalidConfigError(
                f"gate step angle {self.step_angle_gate_deg} does not divide 90"
            )
        # The platform ring is gear-driven, so one motor step turns the
        # platform by step_angle_main_deg / rotation_gear_ratio degrees.
        slot_angle = 360.0 / slots_per_floor
        platform_step = self.step_angle_main_deg / self.rotation_gear_ratio
        if not _divides(slot_angle, platform_step):
            raise InvalidConfigError(
                f"platform step {platform_step} deg does not divide the "
                f"{slot_angle} deg slot pitch"
            )


def _divides(angle: float, step: float, tol: float = 1e-9) -> bool:
    ratio = angle / step
    return abs(ratio - round(ratio)) <= tol


# The most cells a garage may have. The slot grid holds two 8-byte references
# per cell, and the invariant scan counts every cell on every event: at this
# bound the grid takes 1.6 MB and the count about 0.6 ms an event on a 2-CPU
# x86-64 host. Unbounded, a mistyped floor count asks for gigabytes before
# the first event. The benchmark's largest garage has 480 cells.
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
        if self.floors < 1:
            raise InvalidConfigError("floors must be >= 1")
        if self.slots_per_floor < 1:
            raise InvalidConfigError("slots_per_floor must be >= 1")
        if self.max_vehicle_length_mm <= 0:
            raise InvalidConfigError("max_vehicle_length_mm must be > 0")
        rate = self.billing_rate_per_minute
        if not rate.is_finite() or rate < 0:
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
        if not vehicle_id:
            raise ValueError("vehicle_id must be non-empty")
        if "," in vehicle_id:
            raise ValueError(f"vehicle_id must not contain ',': {vehicle_id!r}")
        if length_mm <= 0:
            raise ValueError("length_mm must be > 0")
        if not is_valid_phone(phone):
            raise ValueError(f"invalid phone number: {phone!r}")
        return tuple.__new__(cls, (vehicle_id, length_mm, phone))

    _make = classmethod(validated_make)


@total_ordering
class SlotAddress:
    """Zero-based (floor, slot) position in the garage, ordered floor first.
    Not a named tuple: the scan reads both fields of every live ticket's slot
    on every event, and a slot attribute reads in about half the time."""

    __slots__ = ("floor", "slot")

    def __init__(self, floor: int, slot: int):
        self.floor = floor
        self.slot = slot

    def __eq__(self, other) -> bool:
        return type(other) is SlotAddress and self.floor == other.floor and self.slot == other.slot

    def __lt__(self, other):
        if type(other) is not SlotAddress:
            return NotImplemented
        return (self.floor, self.slot) < (other.floor, other.slot)

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
    """Occupancy grid: every cell is vacant, reserved, or occupied.

    Reserved and occupied cells carry the owning ticket id; a ticket owns at
    most one cell at any time. The occupied cells are counted as they are
    set (``occupied``), and the most ever occupied at once is kept next to
    that count (``occupied_peak``).
    """

    def __init__(self, floors: int, slots_per_floor: int):
        self.floors = floors
        self.slots_per_floor = slots_per_floor
        self._state = [[VACANT] * slots_per_floor for _ in range(floors)]
        self._ticket = [[None] * slots_per_floor for _ in range(floors)]
        self.occupied = 0
        self.occupied_peak = 0

    def state_at(self, addr: SlotAddress) -> SlotState:
        return self._state[addr.floor][addr.slot]

    def ticket_at(self, addr: SlotAddress) -> int | None:
        return self._ticket[addr.floor][addr.slot]

    def addresses(self):
        """Yield every address in floor-major scan order."""
        for floor in range(self.floors):
            for slot in range(self.slots_per_floor):
                yield SlotAddress(floor, slot)

    def set_cell(self, addr: SlotAddress, state: SlotState, ticket_id: int | None) -> None:
        # The grid scans test members by identity; an equal string such as
        # "reserved" would pass the row comparison and crash the cell loop.
        if type(state) is not SlotState:
            raise ValueError(f"not a slot state: {state!r}")
        if state is VACANT and ticket_id is not None:
            raise ValueError("vacant cells carry no ticket")
        if state is not VACANT and ticket_id is None:
            raise ValueError(f"{state.value} cells need a ticket id")
        row = self._state[addr.floor]
        if row[addr.slot] is OCCUPIED:
            self.occupied -= 1
        if state is OCCUPIED:
            self.occupied += 1
            self.occupied_peak = max(self.occupied_peak, self.occupied)
        row[addr.slot] = state
        self._ticket[addr.floor][addr.slot] = ticket_id


class GarageState:
    """Everything that changes as the garage runs: the slot grid and the tickets.

    ``tickets`` keeps every ticket ever issued, numbered from 1 in issue
    order, so its size is the count of cars let in. ``active`` and
    ``active_by_phone`` index the ones not yet ``CLOSED``, by ticket id and by
    the customer's phone; a ticket leaves both when it closes, and its entry
    in ``tickets`` becomes a frozen ``ClosedTicket``.
    """

    __slots__ = ("config", "slots", "tickets", "active", "active_by_phone")

    def __init__(self, config: GarageConfig, slots: SlotMatrix):
        self.config = config
        self.slots = slots
        self.tickets: dict[int, ParkingTicket] = {}
        self.active: dict[int, ParkingTicket] = {}
        self.active_by_phone: dict[str, ParkingTicket] = {}

    @property
    def vehicles_entered(self) -> int:
        return len(self.tickets)

    @property
    def next_ticket_id(self) -> int:
        return len(self.tickets) + 1

    def issue_ticket(self, vehicle: Vehicle, slot: SlotAddress, entry_ms: int) -> ParkingTicket:
        ticket = ParkingTicket(self.next_ticket_id, vehicle, slot, entry_ms)
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
    return slots.occupied, sum(row.count(VACANT) for row in slots._state)


def billed_minutes(entry_ms: int, exit_ms: int) -> int:
    """Whole minutes charged for a stay: every started minute counts."""
    if exit_ms < entry_ms:
        raise NegativeDurationError(f"exit {exit_ms}ms is before entry {entry_ms}ms")
    duration_ms = exit_ms - entry_ms
    return -(-duration_ms // MS_PER_MINUTE)
