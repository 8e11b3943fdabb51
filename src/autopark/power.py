"""Solar, battery, and load bookkeeping.

The PV panel is modeled from its measured voltage/current points rather than
the label values: current is piecewise linear between the measured anchors
and scales linearly with irradiance. The panel works at the bus voltage and a
charge controller caps its current, so the charge current is a function of
the irradiance alone: ``PowerSystem`` works it out once per irradiance
change. On every clock advance ``power_tick`` integrates amp-hours at the bus
voltage and updates the battery's charge in place; a metered grid backup
covers any draw the battery cannot, so motors never stall for power.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class PvMeasuredCurve:
    """Measured V-I anchor points, ordered by voltage, current non-increasing."""

    points: tuple[tuple[float, float], ...] = (
        (0.0, 0.601),  # short circuit
        (18.36, 0.540),  # max power
        (22.31, 0.0),  # open circuit
    )

    def __post_init__(self) -> None:
        volts = [v for v, _ in self.points]
        amps = [i for _, i in self.points]
        if len(self.points) < 2 or volts != sorted(volts) or len(set(volts)) != len(volts):
            raise ValueError("curve points must have strictly increasing voltage")
        if any(b > a for a, b in zip(amps, amps[1:])):
            raise ValueError("curve current must be non-increasing with voltage")

    @property
    def voc_v(self) -> float:
        return self.points[-1][0]


DEFAULT_CURVE = PvMeasuredCurve()


@dataclass
class BatteryState:
    """The battery; power_tick updates its soc in place."""

    capacity_ah: float = 7.0
    soc: float = 1.0  # state of charge, 0..1
    bus_voltage_v: float = 12.0


@dataclass(frozen=True)
class ChargeControllerSpec:
    max_charge_current_a: float = 3.0


def pv_current_at(
    voltage_v: float, irradiance_scale: float, curve: PvMeasuredCurve = DEFAULT_CURVE
) -> float:
    """Panel current at a terminal voltage, scaled linearly by irradiance.

    Anchor voltages return their measured current exactly; beyond open
    circuit the panel sources nothing.
    """
    if voltage_v < 0:
        raise ValueError("voltage_v must be >= 0")
    if not 0 <= irradiance_scale <= 1:
        raise ValueError("irradiance_scale must be in [0, 1]")
    points = curve.points
    if voltage_v >= curve.voc_v:
        return 0.0
    for v, i in points:
        if voltage_v == v:
            return i * irradiance_scale
    for (v0, i0), (v1, i1) in zip(points, points[1:]):
        if v0 < voltage_v < v1:
            i = i0 + (i1 - i0) * (voltage_v - v0) / (v1 - v0)
            return i * irradiance_scale
    # Below the first anchor only if the curve does not start at 0 V.
    return points[0][1] * irradiance_scale


def pv_max_power(
    irradiance_scale: float, curve: PvMeasuredCurve = DEFAULT_CURVE, scan_step_v: float = 0.01
) -> tuple[float, float]:
    """Locate the max power point by scanning the curve at a fixed voltage step.

    Returns (voltage_v, power_w) for the best scanned point.
    """
    steps = int(round(curve.voc_v / scan_step_v))
    best_v, best_p = 0.0, 0.0
    for k in range(steps + 1):
        v = k * scan_step_v
        p = v * pv_current_at(v, irradiance_scale, curve)
        if p > best_p:
            best_v, best_p = v, p
    return best_v, best_p


def required_battery_current(
    motor_count: int, motor_power_w: float = 10.0, bus_voltage_v: float = 12.0
) -> float:
    """Battery current needed to run motor_count motors at the bus voltage."""
    if motor_count < 0:
        raise ValueError("motor_count must be >= 0")
    if bus_voltage_v <= 0:
        raise ValueError("bus_voltage_v must be > 0")
    return motor_count * motor_power_w / bus_voltage_v


class EnergyTick(NamedTuple):
    """Energy flows over one integration interval, all in watt-hours."""

    pv_wh: float
    grid_wh: float
    load_wh: float
    battery_delta_wh: float
    soc_after: float


_new_tick = tuple.__new__  # builds an EnergyTick in C, not through its Python __new__


def pv_charge_current(
    bus_voltage_v: float,
    irradiance_scale: float,
    curve: PvMeasuredCurve = DEFAULT_CURVE,
    controller: ChargeControllerSpec = ChargeControllerSpec(),
) -> float:
    """Panel current at the bus voltage, capped by the charge controller."""
    panel_a = pv_current_at(bus_voltage_v, irradiance_scale, curve)
    return min(panel_a, controller.max_charge_current_a)


def power_tick(
    battery: BatteryState, charge_current_a: float, load_w: float, dt_s: float
) -> EnergyTick:
    """Advance the battery's charge in place by dt_s seconds under a constant
    load and a constant panel charge current.

    Surplus beyond a full battery is curtailed at the panel; shortfall below
    an empty battery is met from the grid and metered.
    """
    if dt_s < 0:
        raise ValueError("dt_s must be >= 0")
    if load_w < 0:
        raise ValueError("load_w must be >= 0")
    dt_h = dt_s / 3600.0
    bus_v = battery.bus_voltage_v
    pv_ah = charge_current_a * dt_h
    load_ah = (load_w / bus_v) * dt_h
    net_ah = pv_ah - load_ah

    # Each conditional picks what min or max would, ties included, without
    # the builtin call: max(0.0, soc) keeps 0.0 when soc is -0.0.
    if net_ah >= 0:
        headroom_ah = (1.0 - battery.soc) * battery.capacity_ah
        stored_ah = headroom_ah if headroom_ah < net_ah else net_ah
        pv_used_ah = load_ah + stored_ah  # surplus beyond this is curtailed
        grid_ah = 0.0
        battery_delta_ah = stored_ah
    else:
        need_ah = -net_ah
        available_ah = battery.soc * battery.capacity_ah
        drawn_ah = available_ah if available_ah < need_ah else need_ah
        grid_ah = need_ah - drawn_ah
        pv_used_ah = pv_ah
        battery_delta_ah = -drawn_ah

    soc = battery.soc + (battery_delta_ah / battery.capacity_ah if battery.capacity_ah else 0.0)
    soc = soc if soc > 0.0 else 0.0
    soc = battery.soc = soc if soc < 1.0 else 1.0
    return _new_tick(
        EnergyTick,
        (pv_used_ah * bus_v, grid_ah * bus_v, load_ah * bus_v, battery_delta_ah * bus_v, soc),
    )


class EnergyLog:
    """Every tick of a run, in order: the five values of each lie flat in one
    array of doubles, which holds each float exactly (the sign of -0.0
    included). ``append(tick)`` is the array's own ``extend``; iteration
    gives the ``EnergyTick``s back."""

    __slots__ = ("_values", "append")
    _WIDTH = len(EnergyTick._fields)

    def __init__(self) -> None:
        self._values = array("d")
        self.append = self._values.extend

    def __len__(self) -> int:
        return len(self._values) // self._WIDTH

    def __iter__(self):
        values, width = self._values, self._WIDTH
        for start in range(0, len(values), width):
            yield EnergyTick._make(values[start : start + width])


@dataclass
class EnergyMeters:
    pv_wh: float = 0.0
    grid_wh: float = 0.0
    load_wh: float = 0.0
    min_soc: float = 1.0


class PowerSystem:
    """Stateful wrapper integrating power_tick across a simulation run.

    ``meters`` sums the energy flows; ``ticks`` logs every tick as an
    ``EnergyLog``, and ``advance`` also returns the tick it made.
    """

    def __init__(
        self,
        battery: BatteryState | None = None,
        curve: PvMeasuredCurve = DEFAULT_CURVE,
        controller: ChargeControllerSpec = ChargeControllerSpec(),
        irradiance_scale: float = 1.0,
    ):
        self.battery = battery if battery is not None else BatteryState()
        self.curve = curve
        self.controller = controller
        self.charge_current_a = pv_charge_current(
            self.battery.bus_voltage_v, irradiance_scale, curve, controller
        )
        self.meters = EnergyMeters(min_soc=self.battery.soc)
        self.ticks = EnergyLog()

    def set_irradiance(self, w_per_m2: float) -> None:
        """Irradiance is given in W/m2 against the 1000 W/m2 rating point;
        outside [0, 1000] it raises ValueError."""
        self.charge_current_a = pv_charge_current(
            self.battery.bus_voltage_v, w_per_m2 / 1000.0, self.curve, self.controller
        )

    def advance(self, load_w: float, dt_s: float) -> EnergyTick:
        tick = power_tick(self.battery, self.charge_current_a, load_w, dt_s)
        meters = self.meters
        meters.pv_wh += tick.pv_wh
        meters.grid_wh += tick.grid_wh
        meters.load_wh += tick.load_wh
        soc = tick.soc_after
        if soc < meters.min_soc:
            meters.min_soc = soc
        self.ticks.append(tick)
        return tick
