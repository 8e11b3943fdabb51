"""Deterministic simulator and controller for an automated parking garage.

Cars arrive at a gate, ride belts and a rotating elevator platform into
storage slots, and come back on a text message. Everything runs on a
discrete-event engine with an integer-millisecond clock, so a scenario file
replays to a byte-identical trace, with motor power drawn against a relay
budget and metered from a measured solar panel curve.
"""

from .controller import (
    GarageController,
    InvariantViolationError,
    check_invariants,
    compute_bill,
)
from .devices import DeviceFleet, read_length_sensors
from .engine import SimEvent, Simulation
from .model import (
    GarageConfig,
    GarageState,
    KinematicsConfig,
    ParkingTicket,
    SlotAddress,
    TicketPhase,
    Vehicle,
    billed_minutes,
    new_garage,
)
from .power import PowerSystem, pv_current_at, pv_max_power
from .report import RunReport, format_report, parse_report
from .scenario import (
    GarageSession,
    Scenario,
    parse_scenario,
    random_scenario,
    render_scenario,
    run_scenario,
)
from .sms import SmsGateway, SmsModem, compose_message

__version__ = "0.1.0"

__all__ = [
    "GarageConfig",
    "GarageController",
    "GarageSession",
    "GarageState",
    "DeviceFleet",
    "InvariantViolationError",
    "KinematicsConfig",
    "ParkingTicket",
    "PowerSystem",
    "RunReport",
    "Scenario",
    "SimEvent",
    "Simulation",
    "SlotAddress",
    "SmsGateway",
    "SmsModem",
    "TicketPhase",
    "Vehicle",
    "billed_minutes",
    "check_invariants",
    "compose_message",
    "compute_bill",
    "format_report",
    "new_garage",
    "parse_report",
    "parse_scenario",
    "pv_current_at",
    "pv_max_power",
    "random_scenario",
    "read_length_sensors",
    "render_scenario",
    "run_scenario",
    "__version__",
]
