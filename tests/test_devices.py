import pytest

from autopark.devices import (
    ENTRANCE_BELT,
    EXIT_BELT,
    PLATFORM_BELT,
    BeltBusyError,
    BeltFaultedError,
    BeltId,
    DeviceFleet,
    GateBusyError,
    PlatformBusyError,
    PowerBudgetExceededError,
    RelayBank,
    belt_roster,
    parse_belt_id,
    read_length_sensors,
)
from autopark.model import GarageConfig


@pytest.fixture
def fleet():
    done = []
    fleet = DeviceFleet(GarageConfig(), lambda at, action: done.append((at, action)))
    fleet.done = done
    return fleet


# -- entry sensors ------------------------------------------------------------


@pytest.mark.parametrize(
    "length_mm,tripped",
    [
        (1, (True, False, False)),
        (2500, (True, False, False)),
        (2501, (True, True, False)),
        (5000, (True, True, False)),
        (5001, (True, True, True)),
        (9999, (True, True, True)),
    ],
)
def test_three_beam_length_gauge(length_mm, tripped):
    assert read_length_sensors(length_mm, GarageConfig()) == tripped


# -- belt identity -------------------------------------------------------------


def test_belt_roster_covers_fixed_and_slot_belts():
    roster = belt_roster(6)
    assert roster[:3] == [ENTRANCE_BELT, EXIT_BELT, PLATFORM_BELT]
    assert len(roster) == 9
    assert str(roster[3]) == "slot:0"


def test_parse_belt_id_round_trip():
    for belt in belt_roster(6) + belt_roster(24):
        assert parse_belt_id(str(belt)) == belt
    with pytest.raises(ValueError, match="unknown belt kind: 'conveyor:9'"):
        parse_belt_id("conveyor:9")


def test_slot_belt_requires_face():
    with pytest.raises(ValueError, match="face is required exactly for slot belts"):
        BeltId("slot")
    with pytest.raises(ValueError, match="face is required exactly for slot belts"):
        BeltId("entrance", face=1)
    with pytest.raises(ValueError, match="unknown belt kind: 'conveyor'"):
        BeltId("conveyor")


def test_equal_belt_ids_find_the_same_belt_and_keep_their_text():
    fleet = DeviceFleet(GarageConfig(floors=20, slots_per_floor=24), lambda at, action: None)
    texts = ["entrance", "exit", "platform"] + [f"slot:{face}" for face in range(24)]
    assert [str(belt_id) for belt_id in fleet.belts] == texts
    for text, (belt_id, belt) in zip(texts, fleet.belts.items()):
        fresh = BeltId(belt_id.kind, belt_id.face)
        assert fresh == belt_id and fresh is not belt_id
        assert fleet.belts[fresh] is belt
        assert belt.device_id == f"belt:{text}"
    assert [gate.device_id for gate in fleet.gates.values()] == ["gate:entrance", "gate:exit"]


# -- relay bank ---------------------------------------------------------------


def test_relay_budget_is_two_motors():
    bank = RelayBank()
    bank.request_power("a")
    bank.request_power("b")
    assert bank.powered == {"a", "b"}
    assert bank.total_load_w() == 20.0
    with pytest.raises(PowerBudgetExceededError):
        bank.request_power("c")
    bank.release_power("a")
    bank.request_power("c")
    assert bank.max_concurrent == 2


def test_relay_rejects_double_grant_and_blind_release():
    bank = RelayBank()
    bank.request_power("a")
    with pytest.raises(ValueError):
        bank.request_power("a")
    with pytest.raises(ValueError):
        bank.release_power("zz")


# -- belts ---------------------------------------------------------------------


def test_convey_occupies_one_relay_for_transit_time(fleet):
    action = fleet.belt_start_convey(ENTRANCE_BELT, 1000)
    assert action.duration_ms == 10_000
    assert fleet.done == [(11_000, action)]
    assert fleet.done[0][1] is action
    assert fleet.relays.powered == {"belt:entrance"}
    with pytest.raises(BeltBusyError):
        fleet.belt_start_convey(ENTRANCE_BELT, 1200)
    fleet.complete_action(action.device_id, action.action_id)
    assert fleet.relays.powered == set()
    assert fleet.active == {}


def test_platform_belt_uses_load_time(fleet):
    action = fleet.belt_start_convey(PLATFORM_BELT, 0)
    assert action.duration_ms == 5_000


def test_faulted_belt_refuses_to_start(fleet):
    fleet.faulted.add(fleet.belts[EXIT_BELT])
    with pytest.raises(BeltFaultedError):
        fleet.belt_start_convey(EXIT_BELT, 0)
    fleet.faulted.clear()
    fleet.belt_start_convey(EXIT_BELT, 0)


# -- elevator --------------------------------------------------------------------


def test_elevator_time_scales_with_floors(fleet):
    action = fleet.elevator_goto_floor(2, 0)
    assert action.duration_ms == 16_000
    assert action.motors == ("elevator",)
    with pytest.raises(PlatformBusyError):
        fleet.elevator_goto_floor(1, 1000)
    fleet.complete_action(action.device_id, action.action_id)
    assert fleet.platform.floor_pos == 2
    down = fleet.elevator_goto_floor(1, 20_000)
    assert down.duration_ms == 8_000


def test_elevator_same_floor_is_instant_and_unpowered(fleet):
    action = fleet.elevator_goto_floor(0, 500)
    assert action.duration_ms == 0
    assert fleet.relays.powered == set()
    fleet.complete_action(action.device_id, action.action_id)


def test_elevator_floor_must_exist(fleet):
    with pytest.raises(ValueError):
        fleet.elevator_goto_floor(3, 0)


# -- rotation ---------------------------------------------------------------------


def test_rotation_takes_shortest_arc(fleet):
    action = fleet.platform_rotate_to_slot(5, 0)  # ccw 1 face beats cw 5
    assert action.duration_ms == 3_000
    assert "dir=ccw faces=1" in action.op
    assert set(action.motors) == {"rotator:a", "rotator:b"}
    fleet.complete_action(action.device_id, action.action_id)
    assert fleet.platform.face == 5


def test_rotation_tie_turns_clockwise(fleet):
    action = fleet.platform_rotate_to_slot(3, 0)
    assert action.duration_ms == 9_000
    assert "dir=cw faces=3" in action.op


def test_rotation_uses_both_relay_channels(fleet):
    fleet.platform_rotate_to_slot(1, 0)
    assert fleet.relays.powered == {"rotator:a", "rotator:b"}
    with pytest.raises(PowerBudgetExceededError):
        fleet.belt_start_convey(ENTRANCE_BELT, 0)


def test_refused_rotation_powers_no_motor(fleet):
    """A turn needs both ring motors; with one relay free it is refused whole."""
    fleet.belt_start_convey(ENTRANCE_BELT, 0)
    powered, active = set(fleet.relays.powered), dict(fleet.active)
    refused = r"power budget 2 in use: \['belt:entrance'\]"
    with pytest.raises(PowerBudgetExceededError, match=refused):
        fleet.platform_rotate_to_slot(3, 0)
    assert fleet.relays.powered == powered
    assert fleet.active == active


def test_rotation_to_current_slot_is_instant(fleet):
    action = fleet.platform_rotate_to_slot(0, 0)
    assert action.duration_ms == 0
    assert fleet.relays.powered == set()


# -- gates -----------------------------------------------------------------------


def test_gate_swing_takes_actuation_time(fleet):
    action = fleet.gate_actuate("entrance", "open", 0)
    assert action.duration_ms == 2_000
    assert action.motors == ()
    with pytest.raises(GateBusyError):
        fleet.gate_actuate("entrance", "close", 100)
    fleet.complete_action(action.device_id, action.action_id)
    gate = fleet.gates["entrance"]
    assert gate.open is True and gate not in fleet.active


def test_gate_never_draws_relay_power(fleet):
    fleet.platform_rotate_to_slot(2, 0)  # both channels in use
    action = fleet.gate_actuate("exit", "open", 0)
    assert action.duration_ms == 2_000


def test_gate_to_same_position_is_instant(fleet):
    action = fleet.gate_actuate("entrance", "close", 0)
    assert action.duration_ms == 0


def test_unknown_action_cannot_complete(fleet):
    with pytest.raises(KeyError):
        fleet.complete_action("belt:entrance", 404)
    action = fleet.belt_start_convey(ENTRANCE_BELT, 0)
    for device_id, action_id in [("belt:entrance", 404), ("belt:exit", action.action_id),
                                 ("belt:nowhere", action.action_id)]:
        with pytest.raises(KeyError):
            fleet.complete_action(device_id, action_id)
    assert fleet.active == {fleet.belts[ENTRANCE_BELT]: action}
    assert fleet.relays.powered == {"belt:entrance"}


# -- the running record ----------------------------------------------------------


def test_each_running_motion_is_filed_under_the_device_it_moves(fleet):
    convey = fleet.belt_start_convey(BeltId("slot", 2), 0)
    swing = fleet.gate_actuate("exit", "open", 0)
    lift = fleet.elevator_goto_floor(1, 0)
    assert fleet.active == {
        fleet.belts[BeltId("slot", 2)]: convey,
        fleet.gates["exit"]: swing,
        fleet.platform: lift,
    }
    for action in (convey, swing, lift):
        assert fleet.active[fleet.by_name[action.device_id]] is action


def test_lifts_and_turns_share_the_platform_key(fleet):
    assert fleet.by_name["elevator"] is fleet.by_name["rotator"] is fleet.platform
    lift = fleet.elevator_goto_floor(1, 0)
    with pytest.raises(PlatformBusyError):
        fleet.platform_rotate_to_slot(1, 0)
    with pytest.raises(KeyError):  # the platform runs the lift, not a turn of that id
        fleet.complete_action("rotator", lift.action_id + 1)
    assert fleet.complete_action("elevator", lift.action_id) is lift
    turn = fleet.platform_rotate_to_slot(1, 8_000)
    assert fleet.active == {fleet.platform: turn}
    fleet.complete_action("rotator", turn.action_id)
    assert fleet.active == {} and fleet.platform.face == 1


def test_by_name_names_every_device_once():
    fleet = DeviceFleet(GarageConfig(floors=20, slots_per_floor=24), lambda at, action: None)
    assert len(fleet.by_name) == 27 + 2 + 2
    devices = [*fleet.belts.values(), *fleet.gates.values()]
    assert [fleet.by_name[device.device_id] for device in devices] == devices
