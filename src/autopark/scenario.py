"""Scenario files and the run harness that executes them.

A scenario is a plain-text schedule: optional ``config`` lines followed by
event lines sorted by time. The same parsed form drives batch runs, the
interactive console, and the seeded random corpus used for self-checks.

Line grammar (one record per line, ``#`` starts a comment):

    config floors=3 slots_per_floor=6 billing_rate_per_minute=0.05
    t=5 kind=arrival vehicle=v1 length_mm=4200 phone=+97455512345
    t=120.5 kind=sms_in phone=+97455512345 body=send my car please
    t=300 kind=payment ticket=1
    t=400 kind=irradiance w_per_m2=250
    t=500 kind=fault belt=slot:3
    t=560 kind=fault_cleared

Tokens are space-separated ``key=value`` pairs; a bare token (no ``=``)
continues the previous value, which is how message bodies carry spaces.
Values therefore cannot contain ``=``, nor ``#``, which starts a comment in
a file. A ``config`` line's first token is exactly ``config``. Times are
seconds and must be non-decreasing; ``config`` lines must precede all events.
"""

from __future__ import annotations

import math
import random
import weakref
from decimal import Decimal, InvalidOperation
from functools import partial
from typing import Callable, NamedTuple

from .controller import ArrivalRecord, GarageController, check_invariants
from .devices import Action, DeviceFleet, belt_roster, parse_belt_id
from .engine import (
    Arrival,
    BeltFault,
    FaultCleared,
    InboundSms,
    IrradianceChange,
    InputEvent,
    PaymentConfirmed,
    SimEvent,
    Simulation,
    Trace,
    device_done_line,
    event_line,
    field_pairs,
)
from .model import (
    AutoparkError,
    GarageConfig,
    GarageState,
    InvalidConfigError,
    InvalidEventError,
    KinematicsConfig,
    Vehicle,
    check_types,
    is_negative,
    ms_from_s,
    new_garage,
    parse_number,
)
from .power import PowerSystem
from .report import Aggregates, ReportRow, RunReport
from .sms import SmsGateway, SmsModem


class ScenarioParseError(AutoparkError):
    """A scenario line that does not follow the grammar."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnsortedEventsError(ScenarioParseError):
    """Event times must be non-decreasing."""


class SimSettings(NamedTuple):
    """Run-level knobs that sit outside the garage geometry."""

    battery_capacity_ah: float = 7.0  # 0 means no battery
    battery_initial_soc: float = 1.0
    irradiance_w_per_m2: float = 1000.0

    def validate(self) -> None:
        check_types(self)
        if is_negative(self.battery_capacity_ah) or not self.battery_capacity_ah < math.inf:
            raise InvalidConfigError("battery_capacity_ah must be >= 0 and finite")
        if is_negative(self.battery_initial_soc) or not self.battery_initial_soc <= 1:
            raise InvalidConfigError("battery_initial_soc must be in [0, 1]")
        if is_negative(self.irradiance_w_per_m2) or not self.irradiance_w_per_m2 <= 1000:
            raise InvalidConfigError("irradiance_w_per_m2 must be in [0, 1000]")


class ScenarioEvent(NamedTuple):
    t_ms: int
    payload: InputEvent


class Scenario(NamedTuple):
    config: GarageConfig
    settings: SimSettings
    events: tuple[ScenarioEvent, ...]


def _config_fields(cls) -> list[str]:
    """The ``config`` keys a config record holds: the fields in its
    ``_field_defaults``, less a nested record (the kinematics)."""
    return [name for name, default in cls._field_defaults.items() if not isinstance(default, tuple)]


# Each config key: the record it sets, and the type of its default, which
# parses it.
_CONFIG_KEYS = {
    name: (cls, type(cls._field_defaults[name]))
    for cls in (GarageConfig, KinematicsConfig, SimSettings)
    for name in _config_fields(cls)
}


def _split_pairs(tokens: list[str], line_no: int) -> dict[str, str]:
    """key=value tokens; bare tokens extend the previous value with a space."""
    pairs: dict[str, str] = {}
    last_key = None
    for token in tokens:
        if "=" in token:
            key, value = token.split("=", 1)
            if key in pairs:
                raise ScenarioParseError(line_no, f"duplicate key {key!r}")
            pairs[key] = value
            last_key = key
        elif last_key is not None:
            pairs[last_key] += " " + token
        else:
            raise ScenarioParseError(line_no, f"stray token {token!r}")
    return pairs


def _field(pairs: dict[str, str], line_no: int, key: str, convert=str):
    """The value of one key, as text or as a number of type ``convert``; a
    number outside the number grammar is a parse error."""
    text = pairs[key]
    if convert is str:
        return text
    try:
        return parse_number(convert, text)
    except (ValueError, InvalidOperation) as exc:
        raise ScenarioParseError(line_no, f"bad value for {key}: {text!r}") from exc


# How the controller or the power system acts on each input-event kind.
_HANDLERS: dict[type[InputEvent], Callable[..., None]] = {
    Arrival: lambda controller, power, p, t: controller.handle_arrival(p.vehicle, t),
    InboundSms: lambda controller, power, p, t: controller.on_inbound_sms(p.phone, p.body, t),
    PaymentConfirmed: lambda controller, power, p, t: controller.handle_payment(p.ticket_id, t),
    IrradianceChange: lambda controller, power, p, t: power.set_irradiance(p.w_per_m2),
    BeltFault: lambda controller, power, p, t: controller.on_fault(parse_belt_id(p.belt_id), t),
    FaultCleared: lambda controller, power, p, t: controller.on_fault_cleared(t),
}
EVENT_KINDS: dict[str, type[InputEvent]] = {cls.kind: cls for cls in _HANDLERS}


def parse_event_line(
    line: str, config: GarageConfig, line_no: int = 1
) -> ScenarioEvent:
    """One ``t=... kind=...`` record, validated against the garage config."""
    if "#" in line:
        raise ScenarioParseError(line_no, "event values cannot contain '#'")
    pairs = _split_pairs(line.split(), line_no)
    if "t" not in pairs or "kind" not in pairs:
        raise ScenarioParseError(line_no, "event needs t= and kind=")
    kind = pairs.pop("kind")
    t_s = _field(pairs, line_no, "t", float)
    del pairs["t"]
    if not 0 <= t_s < math.inf:
        raise ScenarioParseError(line_no, "t must be >= 0 and finite")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ScenarioParseError(line_no, f"unknown event kind {kind!r}")
    for key in pairs:
        if key not in cls.fields:
            raise ScenarioParseError(line_no, f"unknown field {key!r} for kind={kind}")
    for key in cls.fields:
        if key not in pairs:
            raise ScenarioParseError(line_no, f"kind={kind} needs {key}=")
    try:
        payload = cls.from_values(*map(partial(_field, pairs, line_no), cls.fields, cls.types))
        payload.check(config)
        return ScenarioEvent(ms_from_s(t_s), payload)
    except ValueError as exc:
        raise ScenarioParseError(line_no, str(exc)) from exc


def _build_config(
    pairs: dict[str, str], line_no: int
) -> tuple[GarageConfig, SimSettings]:
    """The validated garage config and run settings that the config pairs set."""
    values: dict[type, dict] = {cls: {} for cls, _ in _CONFIG_KEYS.values()}
    for key in pairs:
        if key not in _CONFIG_KEYS:
            raise ScenarioParseError(line_no, f"unknown config key {key!r}")
        cls, convert = _CONFIG_KEYS[key]
        values[cls][key] = _field(pairs, line_no, key, convert)
    kinematics = KinematicsConfig(**values[KinematicsConfig])
    config = GarageConfig(**values[GarageConfig], kinematics=kinematics)
    settings = SimSettings(**values[SimSettings])
    config.validate()
    settings.validate()
    return config, settings


def parse_scenario(text: str) -> Scenario:
    config_pairs: dict[str, str] = {}
    config_line_no = 0
    config: GarageConfig | None = None
    settings = SimSettings()
    events: list[ScenarioEvent] = []
    last_ms = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.split(None, 1)[0] == "config":
            if events:
                raise ScenarioParseError(line_no, "config lines must precede events")
            config_pairs.update(_split_pairs(line.split()[1:], line_no))
            config_line_no = line_no
            config = None
            continue
        if config is None:
            config, settings = _build_config(config_pairs, config_line_no or line_no)
        event = parse_event_line(line, config, line_no)
        if event.t_ms < last_ms:
            raise UnsortedEventsError(
                line_no, f"t went backwards ({event.t_ms}ms after {last_ms}ms)"
            )
        last_ms = event.t_ms
        events.append(event)
    if config is None:
        config, settings = _build_config(config_pairs, config_line_no or 1)
    return Scenario(config, settings, tuple(events))


def _format_t(t_ms: int) -> str:
    text = f"{t_ms / 1000:.3f}".rstrip("0").rstrip(".")
    return text or "0"


def _t_reads_back(t_ms: int) -> bool:
    """Whether ``t=`` with the time as ``_format_t`` writes it parses back to it."""
    try:
        return t_ms >= 0 and ms_from_s(float(_format_t(t_ms))) == t_ms
    except (OverflowError, ValueError):
        return False


def render_event(event: ScenarioEvent) -> str:
    """The event's scenario line, which reads back as the event."""
    p = event.payload
    pairs = field_pairs(p.fields, p.values())
    return " ".join([f"t={_format_t(event.t_ms)} kind={p.kind}", *pairs])


def _config_pairs(record) -> list[str]:
    """``key=value`` for each config key of a record: a Decimal as its text, all
    else as its repr."""
    pairs = []
    for name in _config_fields(type(record)):
        value = getattr(record, name)
        pairs.append(f"{name}={str(value) if isinstance(value, Decimal) else repr(value)}")
    return pairs


def render_scenario(scenario: Scenario) -> str:
    cfg = scenario.config
    lines = [
        "config " + " ".join(_config_pairs(cfg) + _config_pairs(cfg.kinematics)),
        "config " + " ".join(_config_pairs(scenario.settings)),
    ]
    lines.extend(render_event(event) for event in scenario.events)
    return "\n".join(lines) + "\n"


def _handle(
    controller: GarageController, power: PowerSystem, trace: Callable[..., None], event: SimEvent
) -> None:
    """The engine's handler: each event's dispatch record, then the event to
    the part that acts on it."""
    at_ms, _, seq, p = event
    if type(p) is Action:  # a motion's completion, one per motion, so kept lean
        trace(device_done_line, at_ms, seq, p.device_id, p.action_id)
        controller.on_device_done(p.device_id, p.action_id, at_ms)
    else:
        trace(event_line, at_ms, seq, p.kind, p.fields, p.values())
        _HANDLERS[type(p)](controller, power, p, at_ms)


def _advance(power: PowerSystem, fleet: DeviceFleet, dt_ms: int) -> None:
    """The engine's advance hook: integrate the powered motors' load."""
    power.advance(fleet.load_w(), dt_ms / 1000)


def _completion_scheduler(sim: Simulation) -> Callable[[int, Action], None]:
    """The fleet's completion callback: the started ``Action`` itself, on the
    engine as its own completion event.

    It holds the engine weakly. The engine's hooks hold the controller, and
    through it the fleet, so a strong reference back would make a cycle. The
    callback is a closure that calls through the proxy for that reason:
    ``proxy.schedule_done`` is a bound method of the engine itself, which
    holds it. A completion ranks behind every input at its millisecond.
    """
    engine = weakref.proxy(sim)

    def schedule_done(at_ms: int, action: Action) -> None:
        engine.schedule_done(at_ms, action)

    return schedule_done


class GarageSession:
    """Fully wired garage: engine, devices, controller, modem, and power.

    Used by the batch runner and the interactive console alike. Battery
    integration rides the engine's advance hook, so energy is accounted
    piecewise-constant between event dispatches, and the invariant scan
    runs on every event boundary unless check=False.

    The session owns its parts as a tree. The engine's hooks hold the parts
    they drive (controller, power system, fleet), never the session; the
    handler adds each event's dispatch record and the controller its own
    records straight to the engine's ``Trace``;
    and the fleet reaches the engine through a weak proxy. So a dropped
    session is freed by reference counting, without the cyclic collector. The
    fleet cannot start a motion once its session is gone.
    """

    def __init__(
        self,
        config: GarageConfig | None = None,
        settings: SimSettings | None = None,
        check: bool = True,
    ):
        self.config = config if config is not None else GarageConfig()
        self.settings = settings if settings is not None else SimSettings()
        self.settings.validate()
        self.garage: GarageState = new_garage(self.config)
        self.sim = Simulation()
        self.fleet = DeviceFleet(self.config, _completion_scheduler(self.sim))
        self.gateway = SmsGateway(SmsModem())
        self.gateway.initialize()
        self.power = PowerSystem(
            capacity_ah=self.settings.battery_capacity_ah,
            soc=self.settings.battery_initial_soc,
            bus_voltage_v=self.config.bus_voltage_v,
            irradiance_w_per_m2=self.settings.irradiance_w_per_m2,
        )
        self.controller = GarageController(
            self.garage, self.fleet, self.gateway, trace=self.sim.trace.add
        )
        self.sim.handler = partial(_handle, self.controller, self.power, self.sim.trace.add)
        self.sim.advance = partial(_advance, self.power, self.fleet)
        self.sim.check = partial(check_invariants, self.controller) if check else None

    # -- driving ------------------------------------------------------------

    def schedule(self, event: ScenarioEvent) -> None:
        """Queue an input event, or refuse it as its scenario line would be."""
        t_ms, payload = event
        if type(t_ms) is not int or type(payload) not in _HANDLERS:
            raise InvalidEventError(f"not an input event at a whole millisecond: {event!r}")
        if not _t_reads_back(t_ms):
            raise InvalidEventError(f"t={t_ms}ms would not read back from a scenario line")
        payload.check(self.config)
        self.sim.schedule(t_ms, payload)

    def run_until(self, t_ms: int) -> None:
        self.sim.run_until(t_ms)

    def run_until_idle(self) -> None:
        self.sim.run_until_idle()

    def build_report(self) -> RunReport:
        rows = [self._row_for(rec) for rec in self.controller.arrivals]
        parking = [r.parking_latency_ms for r in rows if r.parking_latency_ms is not None]
        retrieval = [
            r.retrieval_latency_ms for r in rows if r.retrieval_latency_ms is not None
        ]
        power = self.power
        aggregates = Aggregates(
            max_parking_latency_ms=max(parking) if parking else None,
            max_retrieval_latency_ms=max(retrieval) if retrieval else None,
            occupancy_peak=self.garage.slots.occupied_peak,
            pv_wh=power.pv_wh,
            grid_wh=power.grid_wh,
            load_wh=power.load_wh,
            min_soc=power.min_soc,
            max_concurrent_motors=self.fleet.max_concurrent,
        )
        return RunReport(tuple(rows), aggregates)

    def _row_for(self, rec: ArrivalRecord) -> ReportRow:
        if rec.ticket_id is None:
            return ReportRow(
                vehicle_id=rec.vehicle.vehicle_id,
                status=f"rejected:{rec.reason}",
                entry_ms=rec.at_ms,
            )
        ticket = self.garage.tickets[rec.ticket_id]
        parking_latency = (
            ticket.parked_ms - ticket.entry_ms if ticket.parked_ms is not None else None
        )
        # exit_ms on the ticket is the billing end, the retrieval request; the
        # report's exit is the payment.
        retrieval_latency = (
            ticket.ready_ms - ticket.exit_ms if ticket.ready_ms is not None else None
        )
        return ReportRow(
            vehicle_id=rec.vehicle.vehicle_id,
            status=ticket.phase.value,
            entry_ms=ticket.entry_ms,
            parked_ms=ticket.parked_ms,
            request_ms=ticket.exit_ms,
            ready_ms=ticket.ready_ms,
            exit_ms=ticket.closed_ms,
            parking_latency_ms=parking_latency,
            retrieval_latency_ms=retrieval_latency,
            amount=ticket.amount_due,
        )


class RunResult(NamedTuple):
    report: RunReport
    trace: Trace  # the session's own trace, not a copy
    session: GarageSession


def run_scenario(scenario: Scenario, check: bool = True) -> RunResult:
    session = GarageSession(scenario.config, scenario.settings, check=check)
    for event in scenario.events:
        session.schedule(event)
    session.run_until_idle()
    return RunResult(session.build_report(), session.sim.trace, session)


def random_scenario(seed: int, max_vehicles: int = 12) -> Scenario:
    """Seeded scenario generator for the self-check corpus.

    Payments are timed from an unchecked dry run without them: it reveals
    when a ticket becomes payable, and the payment events are merged in for
    the final schedule. With no payments nothing frees the one exit belt, so
    the dry run bills at most one car, and it stops at that bill. A payment
    comes at least 30 s after its bill, so up to the bill the dry run is the
    start of the final run, which a checked run scans. The result is a plain
    scenario that renders and parses like any hand-written one.
    """
    rng = random.Random(seed)
    config = GarageConfig()
    settings = SimSettings(
        battery_initial_soc=rng.choice([1.0, 0.6, 0.2]),
        irradiance_w_per_m2=rng.choice([0.0, 250.0, 1000.0]),
    )
    count = rng.randint(1, max_vehicles)
    window_s = rng.uniform(30.0, 600.0)

    events: list[ScenarioEvent] = []
    phones: list[str] = []
    for i in range(count):
        phone = f"+97455{seed % 1000:03d}{i:03d}"
        if phones and rng.random() < 0.1:
            phone = rng.choice(phones)
        phones.append(phone)
        if rng.random() < 0.15:
            length = rng.randint(
                config.max_vehicle_length_mm + 1, 2 * config.max_vehicle_length_mm
            )
        else:
            length = rng.randint(2000, config.max_vehicle_length_mm)
        t_ms = round(rng.uniform(0.0, window_s) * 1000)
        events.append(ScenarioEvent(t_ms, Arrival(Vehicle(f"v{i + 1}", length, phone))))
        if rng.random() < 0.8:
            t_req = t_ms + round(rng.uniform(60.0, 1800.0) * 1000)
            events.append(ScenarioEvent(t_req, InboundSms(phone, "retrieve")))

    if rng.random() < 0.25:
        belt = rng.choice(belt_roster(config.slots_per_floor))
        t_fault = round(rng.uniform(0.0, window_s) * 1000)
        events.append(ScenarioEvent(t_fault, BeltFault(str(belt))))
        t_clear = t_fault + round(rng.uniform(5.0, 120.0) * 1000)
        events.append(ScenarioEvent(t_clear, FaultCleared()))
    for _ in range(rng.randint(0, 2)):
        t_irr = round(rng.uniform(0.0, window_s * 2) * 1000)
        events.append(
            ScenarioEvent(t_irr, IrradianceChange(round(rng.uniform(0.0, 1000.0), 1)))
        )

    events.sort(key=lambda e: e.t_ms)
    dry = GarageSession(config, settings, check=False)
    for event in events:
        dry.schedule(event)
    for event in events:
        dry.run_until(event.t_ms)
        if any(ticket.ready_ms is not None for ticket in dry.garage.active.values()):
            break
    else:
        dry.run_until_idle()
    payments: list[ScenarioEvent] = []
    for ticket in dry.garage.active.values():  # nothing is paid, so none has closed
        if ticket.ready_ms is not None and rng.random() < 0.85:
            t_pay = ticket.ready_ms + round(rng.uniform(30.0, 900.0) * 1000)
            payments.append(ScenarioEvent(t_pay, PaymentConfirmed(ticket.ticket_id)))
    merged = sorted(events + payments, key=lambda e: e.t_ms)
    return Scenario(config, settings, tuple(merged))
