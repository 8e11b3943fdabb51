"""Solar, battery, and load bookkeeping.

The PV panel is modeled from its measured voltage/current points rather than
the label values: current is piecewise linear between the measured anchors
(``PV_CURVE``) and scales linearly with irradiance. The panel works at the bus
voltage and a charge controller caps its current at ``MAX_CHARGE_CURRENT_A``,
so the charge current is a function of the irradiance alone: ``PowerSystem``
works it out once per irradiance change. On every clock advance
``PowerSystem.advance`` integrates amp-hours at the bus voltage and updates
the battery's charge in place; a metered grid backup covers any draw the
battery cannot, so motors never stall for power. A tick builds nothing: it
adds its flows to the run's ledger and counts itself, so a run's power costs
the same memory however long the day.
"""

from __future__ import annotations

# Measured V-I anchors, ordered by voltage, current non-increasing.
PV_CURVE = (
    (0.0, 0.601),  # short circuit
    (18.36, 0.540),  # max power
    (22.31, 0.0),  # open circuit
)
MAX_CHARGE_CURRENT_A = 3.0  # the charge controller's input limit
_SCAN_STEP_V = 0.01  # voltage step of the max power point scan


def pv_current_at(voltage_v: float, irradiance_scale: float) -> float:
    """Panel current at a terminal voltage, scaled linearly by irradiance.

    Anchor voltages return their measured current exactly; beyond open
    circuit the panel sources nothing. The curve starts at 0 V, so every
    voltage below open circuit falls in one pair of anchors.
    """
    if not voltage_v >= 0:
        raise ValueError("voltage_v must be >= 0")
    if not 0 <= irradiance_scale <= 1:
        raise ValueError("irradiance_scale must be in [0, 1]")
    points = PV_CURVE
    if voltage_v >= points[-1][0]:
        return 0.0
    for (v0, i0), (v1, i1) in zip(points, points[1:]):
        if voltage_v < v1:
            return (i0 + (i1 - i0) * (voltage_v - v0) / (v1 - v0)) * irradiance_scale


def pv_max_power(irradiance_scale: float) -> tuple[float, float]:
    """Locate the max power point by scanning the curve at a fixed voltage step.

    Returns (voltage_v, power_w) for the best scanned point.
    """
    steps = int(round(PV_CURVE[-1][0] / _SCAN_STEP_V))
    best_v, best_p = 0.0, 0.0
    for k in range(steps + 1):
        v = k * _SCAN_STEP_V
        p = v * pv_current_at(v, irradiance_scale)
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


class TickCount:
    """How many ticks a run has integrated, as its ``len()``; no tick is kept."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def __len__(self) -> int:
        return self.n


class PowerSystem:
    """A run's power: the battery's charge (``soc``, 0..1), the panel's
    charge current, the whole-run ledger (``pv_wh``, ``grid_wh``, ``load_wh``
    and the lowest charge, ``min_soc``) and, in ``ticks``, how many ticks it
    has integrated: ``len(ticks)`` is the count.

    A capacity of 0 means no battery: the grid meets every shortfall.
    """

    def __init__(
        self,
        capacity_ah: float = 7.0,
        soc: float = 1.0,
        bus_voltage_v: float = 12.0,
        irradiance_w_per_m2: float = 1000.0,
    ):
        self.capacity_ah = capacity_ah
        self.soc = soc
        self.bus_voltage_v = bus_voltage_v
        self.set_irradiance(irradiance_w_per_m2)
        self.pv_wh = self.grid_wh = self.load_wh = 0.0
        self.min_soc = soc
        self.ticks = TickCount()

    def set_irradiance(self, w_per_m2: float) -> None:
        """Irradiance is given in W/m2 against the 1000 W/m2 rating point;
        outside [0, 1000] it raises ValueError."""
        panel_a = pv_current_at(self.bus_voltage_v, w_per_m2 / 1000.0)
        self.charge_current_a = min(panel_a, MAX_CHARGE_CURRENT_A)

    def advance(self, load_w: float, dt_s: float) -> None:
        """Advance the battery's charge by dt_s seconds under a constant load
        and the present charge current, add the flows to the ledger and count
        the tick. Nothing is built or returned: the ledger is the record.

        Surplus beyond a full battery is curtailed at the panel; shortfall
        below an empty battery is met from the grid and metered.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        if load_w < 0:
            raise ValueError("load_w must be >= 0")
        dt_h = dt_s / 3600.0
        bus_v = self.bus_voltage_v
        capacity_ah = self.capacity_ah
        pv_ah = self.charge_current_a * dt_h
        load_ah = (load_w / bus_v) * dt_h
        net_ah = pv_ah - load_ah

        # Each conditional picks what min or max would, ties included, without
        # the builtin call: max(0.0, soc) keeps 0.0 when soc is -0.0.
        if net_ah >= 0:
            headroom_ah = (1.0 - self.soc) * capacity_ah
            stored_ah = headroom_ah if headroom_ah < net_ah else net_ah
            pv_used_ah = load_ah + stored_ah  # surplus beyond this is curtailed
            grid_ah = 0.0
            battery_delta_ah = stored_ah
        else:
            need_ah = -net_ah
            available_ah = self.soc * capacity_ah
            drawn_ah = available_ah if available_ah < need_ah else need_ah
            grid_ah = need_ah - drawn_ah
            pv_used_ah = pv_ah
            battery_delta_ah = -drawn_ah

        soc = self.soc + (battery_delta_ah / capacity_ah if capacity_ah else 0.0)
        soc = soc if soc > 0.0 else 0.0
        soc = self.soc = soc if soc < 1.0 else 1.0
        self.pv_wh += pv_used_ah * bus_v
        self.grid_wh += grid_ah * bus_v
        self.load_wh += load_ah * bus_v
        if soc < self.min_soc:
            self.min_soc = soc
        self.ticks.n += 1
