"""Deterministic discrete-event engine.

A single priority queue of events drives the whole simulation. Each event is
a (timestamp, rank, insertion sequence, payload) tuple and is its own heap
entry. The rank is 0 for an input event and 1 for a device completion, so at
one millisecond every input dispatches before every completion, however late
it was scheduled: a run that schedules its inputs as it goes dispatches them
as a file run of the same inputs does. An input for a millisecond that has
already dispatched an event is refused, since it could no longer go first.
The sequence is unique, so the heap orders the tuples in C and never
compares two payloads. Dispatch order is therefore a pure function of the
schedule calls, and repeated runs of the same scenario produce
byte-identical traces.
The clock only moves when an event fires; there is no wall-clock coupling
anywhere.

The trace is held as records, not lines: each record is the function that
renders its line followed by the values it renders, and a line is built only
when it is read. Every renderer lives in this module, one per line shape.
The trace is a ``PackedList`` of the records, each finished chunk of them
pickled as one flat list of values, and adding a record is one call. The
engine itself adds no record: its handler writes each dispatch record.

A payload is an ``InputEvent`` from the scenario or the ``Action`` of a
device motion, which is its own completion event.
"""

from __future__ import annotations

import heapq
from decimal import Decimal
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeAlias

from .devices import belt_roster, parse_belt_id
from .model import MAX_BODY_CHARS, AutoparkError, GarageConfig, InvalidEventError, Vehicle
from .model import check_text, is_negative, is_valid_phone

if TYPE_CHECKING:
    from .devices import Action, BeltId


class SchedulingInPastError(AutoparkError):
    """An event was scheduled before the current simulation time."""


class InputEvent:
    """An input event from outside the garage, and the one description of its
    kind: its ``kind``, its line ``fields`` and the ``types`` their text
    parses to; ``values()`` and ``from_values`` to read and build it. The
    constructor refuses a value no scenario line could hold, and ``check``
    one the garage cannot take, with an ``InvalidEventError``. A payload
    equals only one of its type with equal values (a payment for ticket 1
    is no irradiance of 1.0), hashes and prints by them, and is weakly
    referable."""

    __slots__ = ("__weakref__",)
    fields: tuple[str, ...] = ()
    types: tuple[type, ...] = ()

    @classmethod
    def from_values(cls, *values) -> InputEvent:
        return cls(*values)

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def check(self, config: GarageConfig) -> None:
        """Refuse a payload that this garage cannot take; most kinds fit any garage."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.values() == other.values()

    def __hash__(self) -> int:
        return hash(self.values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"


class Arrival(InputEvent):
    __slots__ = ("vehicle",)
    kind = "arrival"
    fields = ("vehicle", "length_mm", "phone")
    types = (str, int, str)

    def __init__(self, vehicle: Vehicle):
        if not isinstance(vehicle, Vehicle):
            raise InvalidEventError(f"not a Vehicle: {vehicle!r}")
        self.vehicle = vehicle

    @classmethod
    def from_values(cls, vehicle_id: str, length_mm: int, phone: str) -> Arrival:
        return cls(Vehicle(vehicle_id, length_mm, phone))

    def values(self) -> tuple:
        return tuple(self.vehicle)


class InboundSms(InputEvent):
    __slots__ = ("phone", "body")
    kind = "sms_in"
    fields = ("phone", "body")
    types = (str, str)

    def __init__(self, phone: str, body: str):
        if not is_valid_phone(phone):
            raise InvalidEventError(f"invalid phone number: {phone!r}")
        check_text("body", body)
        if len(body) > MAX_BODY_CHARS:
            raise InvalidEventError(f"body of {len(body)} chars exceeds {MAX_BODY_CHARS}")
        self.phone = phone
        self.body = body


class PaymentConfirmed(InputEvent):
    __slots__ = ("ticket_id",)
    kind = "payment"
    fields = ("ticket",)
    types = (int,)

    def __init__(self, ticket_id: int):
        if type(ticket_id) is not int:
            raise InvalidEventError(f"ticket must be an int, not {ticket_id!r}")
        self.ticket_id = ticket_id


class IrradianceChange(InputEvent):
    __slots__ = ("w_per_m2",)
    kind = "irradiance"
    fields = ("w_per_m2",)
    types = (float,)

    def __init__(self, w_per_m2: float):
        if type(w_per_m2) not in (int, float) or is_negative(w_per_m2) or not w_per_m2 <= 1000:
            raise InvalidEventError(f"w_per_m2 out of range [0, 1000]: {w_per_m2!r}")
        self.w_per_m2 = float(w_per_m2)  # as a scenario line's value parses


class BeltFault(InputEvent):
    __slots__ = ("belt_id",)
    kind = "fault"
    fields = ("belt",)
    types = (str,)

    def __init__(self, belt_id: str):
        check_text("belt", belt_id)
        try:
            self.belt_id = str(parse_belt_id(belt_id))  # so slot:03 is slot:3
        except ValueError as exc:
            raise InvalidEventError(str(exc)) from None

    def check(self, config: GarageConfig) -> None:
        if parse_belt_id(self.belt_id) not in belt_roster(config.slots_per_floor):
            raise InvalidEventError(f"no such belt: {self.belt_id}")


class FaultCleared(InputEvent):
    __slots__ = ()
    kind = "fault_cleared"


Payload: TypeAlias = "InputEvent | Action"


class SimEvent(NamedTuple):
    at_ms: int
    rank: int  # 0 for an input, 1 for a device completion
    seq: int  # the scheduling order, printed on the dispatch line
    payload: Payload


# -- trace records -----------------------------------------------------------
#
# One renderer per record kind; each takes the record's time first. A record's
# values are ints, floats, strs, Decimals, BeltIds and tuples of them, never a
# payload, ticket or program, so the trace keeps nothing else of a run alive
# and a line reads the same whenever it is rendered.


def event_line(t_ms: int, seq: int, kind: str, fields: tuple[str, ...], values: tuple) -> str:
    """A dispatched input event: its field pairs, or ``-`` when it has none."""
    return f"t={t_ms} seq={seq} kind={kind} detail={' '.join(field_pairs(fields, values)) or '-'}"


def field_pairs(fields: tuple[str, ...], values: tuple) -> list[str]:
    """An input event's ``key=value`` pairs, on its scenario and dispatch lines."""
    return [f"{key}={value}" for key, value in zip(fields, values)]


def device_done_line(t_ms: int, seq: int, device: str, action: int) -> str:
    return f"t={t_ms} seq={seq} kind=device_done detail=device={device} action={action}"


def request_line(t_ms: int, device: str, ticket: int | str) -> str:
    return f"t={t_ms} act=request device={device} ticket={ticket}"


def start_line(t_ms: int, device: str, action: int, op: str, ticket: int | str) -> str:
    return f"t={t_ms} act=start device={device} action={action} op={op} ticket={ticket}"


def phase_line(t_ms: int, ticket: int, old: str, new: str) -> str:
    return f"ticket={ticket} phase={old}->{new} t={t_ms}"


def timer_line(t_ms: int, what: str, ticket: int) -> str:
    """The billing clock of a ticket starts or stops."""
    return f"t={t_ms} timer={what} ticket={ticket}"


def reject_vehicle_line(t_ms: int, reason: str, vehicle: str) -> str:
    return f"t={t_ms} reject={reason} vehicle={vehicle}"


def reject_phone_line(t_ms: int, reason: str, phone: str) -> str:
    return f"t={t_ms} reject={reason} phone={phone}"


def reject_ticket_line(t_ms: int, reason: str, ticket: int) -> str:
    return f"t={t_ms} reject={reason} ticket={ticket}"


def duplicate_line(t_ms: int, ticket: int) -> str:
    return f"t={t_ms} retrieval=duplicate ticket={ticket}"


def halted_line(t_ms: int, belt: BeltId) -> str:
    return f"t={t_ms} mode=Halted reason=belt:{belt}"


def resumed_line(t_ms: int) -> str:
    return f"t={t_ms} mode=Normal"


def bill_line(t_ms: int, ticket: int, minutes: int, amount: Decimal) -> str:
    return f"t={t_ms} bill ticket={ticket} minutes={minutes} amount={amount}"


def sms_out_line(t_ms: int, kind: str, number: str, ref: int) -> str:
    return f"t={t_ms} sms=out kind={kind} number={number} ref={ref}"


class PackedList:
    """A growing list held mostly as packed bytes.

    New items go into an open list. When it holds ``CHUNK`` items the
    ``dump`` hook packs it into one bytes object and it is dropped, so a
    finished stretch of items costs its packed bytes rather than a list slot
    and an object each; ``load`` turns those bytes back into the items. Every
    chunk but the open one holds exactly ``CHUNK`` items, so an index finds
    its chunk by division.

    Reading works like a list's: ``len``, iteration, an index (negative ones
    too), ``in``, and a slice, which returns a list. Iteration unpacks one
    chunk at a time; an index keeps the one chunk it last unpacked. Only
    bytes that this object packed in this process are ever unpacked.
    """

    __slots__ = ("_chunks", "_open", "_unpacked", "_dump", "_load")

    CHUNK = 1024  # items per packed chunk

    def __init__(self, dump: Callable[[list], bytes], load: Callable[[bytes], list]) -> None:
        self._chunks: list[bytes] = []
        self._open: list = []
        self._unpacked: tuple[int, list] = (-1, [])  # the last chunk an index unpacked
        self._dump = dump
        self._load = load

    def append(self, item) -> None:
        items = self._open
        items.append(item)
        if len(items) >= self.CHUNK:
            self._chunks.append(self._dump(items))
            self._open = []

    def __len__(self) -> int:
        return len(self._chunks) * self.CHUNK + len(self._open)

    def _chunk(self, k: int) -> list:
        if k == len(self._chunks):
            return self._open
        if self._unpacked[0] != k:
            self._unpacked = (k, self._load(self._chunks[k]))
        return self._unpacked[1]

    def __getitem__(self, index: int | slice):
        count = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(count))]
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("list index out of range")
        k, i = divmod(index, self.CHUNK)
        return self._chunk(k)[i]

    def __iter__(self):
        load = self._load
        for chunk in self._chunks:
            yield from load(chunk)
        yield from self._open


# The pickle imports sit in the hooks: a history shorter than one chunk never
# loads pickle.


def _dump_records(records: list[tuple]) -> bytes:
    """A chunk of trace records pickled as one flat list of values: each
    renderer, then the values it renders. With no tuple per record, the
    pickle holds little beyond the values."""
    import pickle

    return pickle.dumps(list(chain.from_iterable(records)), pickle.HIGHEST_PROTOCOL)


def _load_records(data: bytes) -> list[tuple]:
    """Regroup a flat chunk into record tuples: each renderer takes as many
    values as its argument count."""
    import pickle

    values = pickle.loads(data)
    records = []
    start, end = 0, len(values)
    while start < end:
        stop = start + 1 + values[start].__code__.co_argcount
        records.append(tuple(values[start:stop]))
        start = stop
    return records


class Trace(PackedList):
    """A run's trace: its records in order, read as lines.

    Each record is a tuple of the renderer and the values it renders, an item
    of this ``PackedList``, which pickles each finished chunk as flat values
    (``_dump_records``), so a finished record costs about 16 bytes. A
    record is one item, so a chunk closes between records, never inside one.
    Reading renders: ``len``, iteration, an index (negative ones too), ``in``
    and a slice, which gives a list of lines, so the console's last ``n``
    lines render only those. ``PackedList.__getitem__`` and
    ``PackedList.__iter__`` read the records themselves.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(_dump_records, _load_records)

    def add(self, *record) -> None:
        """Append one record: a renderer, then the values it renders. One call
        a record, so it does ``append``'s work itself."""
        items = self._open
        items.append(record)
        if len(items) >= self.CHUNK:
            self._chunks.append(self._dump(items))
            self._open = []

    def __getitem__(self, index: int | slice) -> str | list[str]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        record = PackedList.__getitem__(self, index)
        return record[0](*record[1:])

    def __iter__(self):
        for record in PackedList.__iter__(self):
            yield record[0](*record[1:])


class Simulation:
    """Event queue, clock, and trace for one run.

    handler receives each event in dispatch order; advance is called with the
    elapsed milliseconds before each clock move (for time integration such
    as battery bookkeeping); check runs after every dispatch so invariant
    scans sit directly on the event boundary. ``trace`` is a ``Trace``, to
    which the engine adds nothing itself: the handler adds each event's
    dispatch record, and the parts add their domain records (phase changes,
    action starts, ...) after it, all through ``trace.add``. Lines are
    rendered only when the trace is read, and each finished chunk of records
    is held pickled as flat values, so a long run's history costs about 16
    bytes a record.

    The simulation holds its hooks and they hold the parts they drive, never
    the simulation. A part that schedules events itself (a ``GarageSession``'s
    device fleet) holds it through a ``weakref.proxy``, so that a dropped run
    is freed by reference counting.
    """

    def __init__(
        self,
        handler: Callable[[SimEvent], None] | None = None,
        advance: Callable[[int], None] | None = None,
        check: Callable[[], None] | None = None,
    ):
        self.clock_ms = 0
        self.trace = Trace()
        self._heap: list[SimEvent] = []
        self._next_seq = 0
        self._dispatched_ms = -1  # the millisecond of the last dispatched event
        self.handler = handler
        self.advance = advance
        self.check = check

    def schedule(self, at_ms: int, payload: Payload) -> SimEvent:
        """Queue an input event, ahead of every completion at its millisecond.

        An input at a millisecond that has already dispatched an event is
        refused: it would dispatch after that event, where a run of the same
        inputs from a file dispatches it before. A millisecond the clock
        reached without dispatching takes inputs still.
        """
        if at_ms == self._dispatched_ms:  # an earlier time fails in _push
            raise SchedulingInPastError(
                f"cannot schedule an input at t={at_ms}ms: an event at that time has dispatched"
            )
        return self._push(at_ms, 0, payload)

    def schedule_done(self, at_ms: int, action: Action) -> SimEvent:
        """Queue a device motion's completion, behind every input at its millisecond."""
        return self._push(at_ms, 1, action)

    def _push(self, at_ms: int, rank: int, payload: Payload) -> SimEvent:
        if at_ms < self.clock_ms:
            raise SchedulingInPastError(
                f"cannot schedule at t={at_ms}ms, clock is {self.clock_ms}ms"
            )
        # One an event, so built in C rather than through the named tuple's
        # Python-level __new__.
        event = tuple.__new__(SimEvent, (at_ms, rank, self._next_seq, payload))
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pending(self) -> int:
        return len(self._heap)

    def _advance_clock(self, to_ms: int) -> None:
        if to_ms > self.clock_ms:
            if self.advance is not None:
                self.advance(to_ms - self.clock_ms)
            self.clock_ms = to_ms

    def _dispatch(self, event: SimEvent) -> None:
        self._advance_clock(event[0])
        self._dispatched_ms = event[0]
        if self.handler is not None:
            self.handler(event)
        if self.check is not None:
            self.check()

    def run_until(self, t_end_ms: int) -> None:
        """Dispatch every event with at <= t_end_ms, then move the clock there."""
        if t_end_ms < self.clock_ms:
            raise SchedulingInPastError(
                f"cannot run to t={t_end_ms}ms, clock is {self.clock_ms}ms"
            )
        heap = self._heap
        while heap and heap[0][0] <= t_end_ms:
            self._dispatch(heapq.heappop(heap))
        self._advance_clock(t_end_ms)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Dispatch until the queue is empty; the clock ends on the last event.

        Raises once max_events dispatches leave events still queued.
        """
        heap = self._heap
        for _ in range(max_events):
            if not heap:
                return
            self._dispatch(heapq.heappop(heap))
        if heap:
            raise AutoparkError(f"exceeded {max_events} events; runaway schedule?")
