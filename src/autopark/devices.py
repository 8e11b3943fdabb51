"""Simulated hardware: conveyor belts, the lifting and rotating platform,
the two gates, and the relay bank that limits how many motors may draw power
at once.

Every motion is an Action with a fixed duration. The fleet hands each action
it starts to a scheduler callback, so the event engine stays the single
source of time and the action itself is the completion event: a motion makes
one record, filed under the device it moves while it runs. The starters
alone decide whether a motion can start: they refuse one the relays cannot
power, and the controller retries it once a motor frees. No session reaches
a busy error. Devices hold no policy: sequencing and queueing live in the
controller.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from typing import Callable, NamedTuple

from .model import AutoparkError, GarageConfig, ms_from_s, parse_number, validated_make


class PowerBudgetExceededError(AutoparkError):
    """Granting the request would exceed the relay power budget."""


class BeltBusyError(AutoparkError):
    """The belt is already running an action (no session reaches this)."""


class BeltFaultedError(AutoparkError):
    """The belt is faulted and cannot start until the fault is cleared."""


class PlatformBusyError(AutoparkError):
    """The platform is already moving (no session reaches this)."""


class GateBusyError(AutoparkError):
    """The gate is mid-swing (no session reaches this)."""


def read_length_sensors(vehicle_length_mm: int, config: GarageConfig) -> tuple[bool, bool, bool]:
    """Sensor tuple for a car aligned with its front bumper at position 0.

    Beams sit at 0, max/2, and max vehicle length; a beam trips while car
    body covers it, so the far beam trips only when the car is longer than
    the allowed maximum.
    """
    max_len = config.max_vehicle_length_mm
    positions = (0.0, max_len / 2, float(max_len))
    return tuple(pos < vehicle_length_mm for pos in positions)


class BeltId(namedtuple("BeltId", "kind face")):
    """Conveyor identity: entrance, exit, platform, or one slot face.

    A (kind, face) tuple, so belt lookups hash and compare in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, face: int | None = None) -> BeltId:
        if kind not in ("entrance", "exit", "platform", "slot"):
            raise ValueError(f"unknown belt kind: {kind!r}")
        if (kind == "slot") != (face is not None):
            raise ValueError("face is required exactly for slot belts")
        return tuple.__new__(cls, (kind, face))

    _make = classmethod(validated_make)

    def __str__(self) -> str:
        return self.kind if self.face is None else f"{self.kind}:{self.face}"


ENTRANCE_BELT = BeltId("entrance")
EXIT_BELT = BeltId("exit")
PLATFORM_BELT = BeltId("platform")


def device_name(kind: str, name: object) -> str:
    """The name a belt or gate goes by in the trace, e.g. ``belt:slot:3``."""
    return f"{kind}:{name}"


def parse_belt_id(text: str) -> BeltId:
    if text.startswith("slot:"):
        return BeltId("slot", parse_number(int, text[5:]))
    return BeltId(text)


def belt_roster(slots_per_floor: int) -> list[BeltId]:
    """One entrance, one exit, one platform belt, and one belt per slot face."""
    return [ENTRANCE_BELT, EXIT_BELT, PLATFORM_BELT] + [
        BeltId("slot", face) for face in range(slots_per_floor)
    ]


class RelayBank:
    """Switches motor power and enforces the concurrent-motor budget.

    ``powered`` is the set of motors switched on, each drawing ``MOTOR_LOAD_W``;
    the power model reads their load and reports the high-water motor count.
    ``request_power``'s refusal is the only device error a session meets:
    the motion waits and is retried.
    """

    budget = 2  # motors that may draw power at once

    def __init__(self):
        self.powered: set[str] = set()
        self.max_concurrent = 0

    def request_power(self, *motor_ids: str) -> None:
        """Power every motor named, or, if that would break the budget, none."""
        for motor_id in motor_ids:
            if motor_id in self.powered:
                raise ValueError(f"motor {motor_id} is already powered")
        if len(self.powered) + len(motor_ids) > self.budget:
            raise PowerBudgetExceededError(
                f"power budget {self.budget} in use: {sorted(self.powered)}"
            )
        self.powered.update(motor_ids)
        self.max_concurrent = max(self.max_concurrent, len(self.powered))

    def release_power(self, motor_id: str) -> None:
        if motor_id not in self.powered:
            raise ValueError(f"motor {motor_id} is not powered")
        self.powered.remove(motor_id)

    def total_load_w(self) -> float:
        # Equal to the sum of the motors' loads: 10.0 * n is exact for n <= 3.
        return MOTOR_LOAD_W * len(self.powered)


class Belt:
    __slots__ = ("device_id",)

    def __init__(self, belt_id: BeltId):
        self.device_id = device_name("belt", belt_id)


class PlatformState:
    """The shared lift-and-turn platform the whole garage funnels through."""

    __slots__ = ("floor_pos", "face")

    def __init__(self):
        self.floor_pos = 0
        self.face = 0  # the slot the platform faces


class GateState:
    __slots__ = ("open", "device_id")

    def __init__(self, name: str):  # entrance | exit
        self.open = False
        self.device_id = device_name("gate", name)


Device = Belt | PlatformState | GateState


class Action(NamedTuple):
    """The one record of an in-flight device motion and the motors it powers.

    ``device_id`` names the belt, platform or gate it moves; ``end_state``
    is the (attribute, value) that device takes when the motion completes,
    if any; ``owner`` is the controller program that started it.
    """

    action_id: int
    device_id: str
    op: str
    duration_ms: int
    motors: tuple[str, ...]
    end_state: tuple[str, int] | None = None
    owner: object = None


# An action's op text is built once per distinct text, so every action and
# trace record of one lift or turn holds the same string, which a packed
# trace chunk then stores once.


@cache
def _lift_op(floor: int, travel: int) -> str:
    return f"lift floor={floor} travel={travel}"


@cache
def _rotate_op(slot: int, direction: str, faces: int) -> str:
    return f"rotate slot={slot} dir={direction} faces={faces}"


MOTOR_LOAD_W = 10.0  # what every powered motor draws
ELEVATOR_MOTOR = "elevator"
ROTATOR = "rotator"
ROTATOR_MOTORS = ("rotator:a", "rotator:b")


class DeviceFleet:
    """All simulated hardware for one garage plus the relay bank.

    The scheduler callback receives (done_at_ms, action) for every started
    action; the caller is expected to feed the completion back into
    complete_action when that moment arrives. The fleet holds only its
    devices and that callback; in a ``GarageSession`` the callback holds the
    engine weakly, because the engine holds the controller, which holds the
    fleet.

    ``active`` is the one record of what runs: each busy device and its one
    ``Action``, the platform one key for its lifts and its turns. ``by_name``
    finds a device by the name its motions go by in the trace (``elevator``
    and ``rotator`` both name the platform). Starting a motion powers its
    motors (zero-duration motions need no power) and files it in ``active``;
    complete_action releases both. ``faulted`` is the one record of a belt
    fault: the belts faulted since the last clearing, which refuse to start;
    the garage is halted while it is non-empty.
    """

    def __init__(
        self,
        config: GarageConfig,
        schedule_done: Callable[[int, Action], None],
    ):
        self.config = config
        self.schedule_done = schedule_done
        self.relays = RelayBank()
        self.belts: dict[BeltId, Belt] = {
            belt_id: Belt(belt_id) for belt_id in belt_roster(config.slots_per_floor)
        }
        self.platform = PlatformState()
        self.gates = {"entrance": GateState("entrance"), "exit": GateState("exit")}
        self.by_name: dict[str, Device] = {ELEVATOR_MOTOR: self.platform, ROTATOR: self.platform}
        for device in (*self.belts.values(), *self.gates.values()):
            self.by_name[device.device_id] = device
        self._next_action_id = 1
        self.active: dict[Device, Action] = {}
        self.faulted: set[Belt] = set()

    # -- internals ---------------------------------------------------------

    def _start(
        self,
        device: Device,
        device_id: str,
        op: str,
        now_ms: int,
        duration_ms: int,
        motors: tuple[str, ...],
        owner: object,
        end_state: tuple[str, int] | None = None,
    ) -> Action:
        if duration_ms > 0:
            self.relays.request_power(*motors)
        else:
            motors = ()
        action_id = self._next_action_id
        self._next_action_id += 1
        # One a motion, so built in C rather than through the named tuple's
        # Python-level __new__.
        action = tuple.__new__(
            Action, (action_id, device_id, op, duration_ms, motors, end_state, owner)
        )
        self.active[device] = action
        self.schedule_done(now_ms + duration_ms, action)
        return action

    # -- belts ---------------------------------------------------------------

    def belt_start_convey(self, belt_id: BeltId, now_ms: int, owner=None) -> Action:
        """Run one conveyor for its transit time; on the platform belt that is
        the time to load a car onto the platform or off it."""
        belt = self.belts[belt_id]
        if belt in self.faulted:
            raise BeltFaultedError(f"belt {belt_id} is faulted")
        if belt in self.active:
            raise BeltBusyError(f"belt {belt_id} is busy with action {self.active[belt].action_id}")
        kin = self.config.kinematics
        seconds = kin.platform_load_s if belt_id == PLATFORM_BELT else kin.belt_transit_s
        name = belt.device_id
        return self._start(belt, name, "convey", now_ms, ms_from_s(seconds), (name,), owner)

    # -- platform ------------------------------------------------------------

    def elevator_goto_floor(self, target_floor: int, now_ms: int, owner=None) -> Action:
        """Drive the platform vertically; zero travel completes immediately."""
        if not 0 <= target_floor < self.config.floors:
            raise ValueError(f"floor {target_floor} out of range")
        if self.platform in self.active:
            raise PlatformBusyError("platform is moving")
        travel = abs(target_floor - self.platform.floor_pos)
        duration_ms = ms_from_s(travel * self.config.kinematics.elevation_per_floor_s)
        return self._start(
            self.platform,
            ELEVATOR_MOTOR,
            _lift_op(target_floor, travel),
            now_ms,
            duration_ms,
            (ELEVATOR_MOTOR,),
            owner,
            ("floor_pos", target_floor),
        )

    def platform_rotate_to_slot(self, slot_index: int, now_ms: int, owner=None) -> Action:
        """Turn the platform to a slot face by the shortest arc, ties clockwise.

        Rotation drives both ring motors, so it consumes two power grants.
        """
        slots = self.config.slots_per_floor
        if not 0 <= slot_index < slots:
            raise ValueError(f"slot {slot_index} out of range")
        if self.platform in self.active:
            raise PlatformBusyError("platform is moving")
        face = self.platform.face
        cw_faces = (slot_index - face) % slots
        ccw_faces = (face - slot_index) % slots
        if cw_faces <= ccw_faces:
            direction, faces = "cw", cw_faces
        else:
            direction, faces = "ccw", ccw_faces
        duration_ms = ms_from_s(faces * self.config.kinematics.rotation_per_slot_s)
        return self._start(
            self.platform,
            ROTATOR,
            _rotate_op(slot_index, direction, faces),
            now_ms,
            duration_ms,
            ROTATOR_MOTORS,
            owner,
            ("face", slot_index),
        )

    # -- gates -----------------------------------------------------------------

    def gate_actuate(self, name: str, command: str, now_ms: int, owner=None) -> Action:
        """Swing a gate open or closed; a gate already there completes at once.

        Gate motors run off the low-voltage control rail, not the relay bank.
        """
        if command not in ("open", "close"):
            raise ValueError(f"unknown gate command: {command!r}")
        gate = self.gates[name]
        if gate in self.active:
            raise GateBusyError(f"gate {name} is mid-swing")
        target = command == "open"
        duration_ms = 0 if gate.open is target else ms_from_s(
            self.config.kinematics.gate_actuation_s
        )
        return self._start(
            gate, gate.device_id, command, now_ms, duration_ms, (), owner, ("open", target)
        )

    # -- completion --------------------------------------------------------------

    def complete_action(self, device_id: str, action_id: int) -> Action:
        """Apply the end state of the named device's motion and release its
        power grants; a KeyError if no such device runs that motion."""
        device = self.by_name[device_id]
        action = self.active[device]
        if action.action_id != action_id:
            raise KeyError(action_id)
        del self.active[device]
        for motor in action.motors:
            self.relays.release_power(motor)
        if action.end_state is not None:
            setattr(device, *action.end_state)
        return action
