import math
import random
import struct
import tracemalloc
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autopark import power
from autopark.power import (
    MAX_CHARGE_CURRENT_A,
    PowerSystem,
    pv_current_at,
    pv_max_power,
    required_battery_current,
)

BUS_CURRENT_FULL_SUN = 0.5611307189542484  # interpolated at 12 V


def test_measured_anchors_return_exactly():
    assert pv_current_at(0.0, 1.0) == 0.601
    assert pv_current_at(18.36, 1.0) == 0.540
    assert pv_current_at(22.31, 1.0) == 0.0


def test_current_scales_linearly_with_irradiance():
    rng = random.Random(7)
    for _ in range(200):
        v = rng.uniform(0.0, 22.31)
        k = rng.uniform(0.0, 1.0)
        assert pv_current_at(v, k) == pytest.approx(k * pv_current_at(v, 1.0), abs=1e-15)


def test_current_interpolates_between_anchors():
    assert pv_current_at(12.0, 1.0) == pytest.approx(BUS_CURRENT_FULL_SUN, abs=1e-12)
    mid = pv_current_at(20.335, 1.0)  # halfway between the last two anchors
    assert mid == pytest.approx(0.270, abs=1e-9)


def test_current_is_zero_beyond_open_circuit():
    assert pv_current_at(22.31, 1.0) == 0.0
    assert pv_current_at(30.0, 1.0) == 0.0


def test_current_refuses_a_voltage_or_scale_off_the_curve():
    for voltage_v, scale in ((-0.01, 1.0), (math.nan, 1.0), (1.0, 1.01), (1.0, math.nan)):
        with pytest.raises(ValueError):
            pv_current_at(voltage_v, scale)


def test_current_never_increases_with_voltage():
    previous = math.inf
    for k in range(0, 2232):
        i = pv_current_at(k * 0.01, 1.0)
        assert i <= previous + 1e-15
        previous = i


def test_max_power_point_sits_at_knee():
    v, p = pv_max_power(1.0)
    assert v == pytest.approx(18.36, abs=1e-9)
    assert p == pytest.approx(9.9144, abs=1e-9)
    _, p_half = pv_max_power(0.5)
    assert p_half == pytest.approx(p / 2, abs=1e-9)


def test_motor_current_draw():
    assert required_battery_current(2) == pytest.approx(20.0 / 12.0, abs=1e-15)
    assert required_battery_current(1, 10.0, 12.0) == pytest.approx(10.0 / 12.0)
    assert required_battery_current(0) == 0.0


def test_one_hour_charge_from_half():
    system = PowerSystem(soc=0.5, irradiance_w_per_m2=1000.0)
    system.advance(0.0, 3600.0)
    assert system.soc - 0.5 == pytest.approx(0.08016153127917834, abs=1e-12)
    assert system.grid_wh == 0.0
    assert system.pv_wh == pytest.approx(BUS_CURRENT_FULL_SUN * 12.0, abs=1e-9)


def test_one_hour_two_motor_discharge_in_the_dark():
    system = PowerSystem(soc=1.0, irradiance_w_per_m2=0.0)
    system.advance(20.0, 3600.0)
    assert 1.0 - system.soc == pytest.approx(0.23809523809523808, abs=1e-12)
    assert system.grid_wh == 0.0
    assert system.load_wh == pytest.approx(20.0, abs=1e-12)


def test_full_battery_curtails_surplus():
    system = PowerSystem(soc=1.0, irradiance_w_per_m2=1000.0)
    system.advance(0.0, 3600.0)
    assert system.soc == 1.0  # nothing stored
    assert system.pv_wh == 0.0


def test_empty_battery_falls_back_to_grid():
    system = PowerSystem(soc=0.0, irradiance_w_per_m2=0.0)
    system.advance(10.0, 1800.0)
    assert system.soc == 0.0
    assert system.grid_wh == pytest.approx(5.0, abs=1e-12)
    assert system.load_wh == pytest.approx(5.0, abs=1e-12)


def test_charge_controller_caps_input_current(monkeypatch):
    monkeypatch.setattr(power, "PV_CURVE", ((0.0, 8.0), (12.0, 7.0), (22.31, 0.0)))
    system = PowerSystem(soc=0.0, irradiance_w_per_m2=1000.0)
    system.advance(0.0, 3600.0)
    assert system.soc == pytest.approx(3.0 / 7.0, abs=1e-12)
    monkeypatch.setattr(power, "MAX_CHARGE_CURRENT_A", 5.0)
    relaxed = PowerSystem(soc=0.0, irradiance_w_per_m2=1000.0)
    relaxed.advance(0.0, 3600.0)
    assert relaxed.soc == pytest.approx(5.0 / 7.0, abs=1e-12)


def test_energy_is_conserved_every_tick():
    """Each tick's ledger deltas balance its change in stored charge."""
    rng = random.Random(99)
    system = PowerSystem(soc=0.7)
    stored_wh_per_soc = system.capacity_ah * system.bus_voltage_v
    for _ in range(500):
        system.set_irradiance(rng.uniform(0.0, 1000.0))
        load = rng.choice([0.0, 10.0, 20.0])
        dt = rng.uniform(0.1, 900.0)
        before = (system.pv_wh, system.grid_wh, system.load_wh, system.soc)
        system.advance(load, dt)
        pv_wh, grid_wh, load_wh, stored_wh = (
            system.pv_wh - before[0],
            system.grid_wh - before[1],
            system.load_wh - before[2],
            (system.soc - before[3]) * stored_wh_per_soc,
        )
        assert pv_wh + grid_wh == pytest.approx(load_wh + stored_wh, abs=1e-9)
        assert 0.0 <= system.soc <= 1.0


def test_power_system_meters_accumulate():
    system = PowerSystem(soc=0.5)
    system.set_irradiance(1000.0)
    system.advance(0.0, 1800.0)
    system.set_irradiance(0.0)
    system.advance(20.0, 1800.0)
    assert system.load_wh == pytest.approx(10.0, abs=1e-12)
    assert system.pv_wh == pytest.approx(BUS_CURRENT_FULL_SUN * 12.0 / 2, abs=1e-9)
    assert system.min_soc < 0.5 + 0.05
    assert len(system.ticks) == 2


def test_a_power_system_holds_nothing_per_tick():
    """A long day costs the power system no memory: it counts its ticks and
    keeps none, so 20,000 advances (about 800 KB as five doubles each) leave
    it holding no more than a few objects' worth."""
    system = PowerSystem(soc=0.5)
    system.advance(10.0, 1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(20_000):
            system.advance(10.0 * (k % 3), 1.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(system.ticks) == 20_001
    assert grown < 4096


def test_irradiance_outside_rating_is_rejected():
    system = PowerSystem()
    with pytest.raises(ValueError):
        system.set_irradiance(1500.0)
    with pytest.raises(ValueError):
        system.set_irradiance(-1.0)


@dataclass(frozen=True)
class OracleBattery:
    capacity_ah: float
    soc: float
    bus_voltage_v: float


def oracle_power_tick(
    battery: OracleBattery, irradiance_scale: float, load_w: float, dt_s: float
) -> tuple[OracleBattery, tuple[float, ...]]:
    """The per-tick integration as it stood before the charge current was
    worked out once per irradiance: the panel current is looked up on every
    tick and a new battery is built. Returns the battery and the tick's
    (pv_wh, grid_wh, load_wh, battery_delta_wh, soc_after)."""
    dt_h = dt_s / 3600.0
    bus_v = battery.bus_voltage_v
    pv_current = min(pv_current_at(bus_v, irradiance_scale), MAX_CHARGE_CURRENT_A)
    pv_ah = pv_current * dt_h
    load_ah = (load_w / bus_v) * dt_h
    net_ah = pv_ah - load_ah

    if net_ah >= 0:
        headroom_ah = (1.0 - battery.soc) * battery.capacity_ah
        stored_ah = min(net_ah, headroom_ah)
        pv_used_ah = load_ah + stored_ah
        grid_ah = 0.0
        battery_delta_ah = stored_ah
    else:
        available_ah = battery.soc * battery.capacity_ah
        drawn_ah = min(-net_ah, available_ah)
        grid_ah = -net_ah - drawn_ah
        pv_used_ah = pv_ah
        battery_delta_ah = -drawn_ah

    soc = battery.soc + (battery_delta_ah / battery.capacity_ah if battery.capacity_ah else 0.0)
    soc = min(1.0, max(0.0, soc))
    tick = (pv_used_ah * bus_v, grid_ah * bus_v, load_ah * bus_v, battery_delta_ah * bus_v, soc)
    return replace(battery, soc=soc), tick


def _bits(*values: float) -> bytes:
    """The values' IEEE bytes, which tell -0.0 from 0.0 where == does not."""
    return struct.pack(f"{len(values)}d", *values)


_STEP = st.one_of(
    st.tuples(st.just("irradiance"), st.floats(0.0, 1000.0)),
    st.tuples(
        st.sampled_from([0.0, 10.0, 20.0, 30.0]),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity_ah=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    soc=st.floats(0.0, 1.0),
    bus_voltage_v=st.one_of(st.just(12.0), st.floats(0.5, 30.0)),
    irradiance_w_per_m2=st.floats(0.0, 1000.0),
    steps=st.lists(_STEP, max_size=40),
)
# A tie: the charge equals the headroom exactly, and fills the battery.
@example(1.0, 1.0 - BUS_CURRENT_FULL_SUN, 12.0, 1000.0, [(0.0, 3600.0)])
# A charge capped by the headroom lands on 1.0; a draw capped by the charge on 0.0.
@example(1.0, 0.5, 12.0, 1000.0, [(0.0, 36000.0)])
@example(1.0, 0.5, 12.0, 0.0, [(10.0, 3600.0)])
def test_power_system_ledger_is_bit_equal_to_the_per_tick_oracle_after_every_step(
    capacity_ah, soc, bus_voltage_v, irradiance_w_per_m2, steps
):
    system = PowerSystem(capacity_ah, soc, bus_voltage_v, irradiance_w_per_m2)
    battery = OracleBattery(capacity_ah, soc, bus_voltage_v)
    scale = irradiance_w_per_m2 / 1000.0
    pv_wh = grid_wh = load_wh = 0.0
    min_soc = soc
    advanced = 0
    for step in steps:
        if step[0] == "irradiance":
            system.set_irradiance(step[1])
            scale = min(step[1] / 1000.0, 1.0)
        else:
            load_w, dt_s = step
            assert system.advance(load_w, dt_s) is None
            battery, expected = oracle_power_tick(battery, scale, load_w, dt_s)
            pv_wh += expected[0]
            grid_wh += expected[1]
            load_wh += expected[2]
            min_soc = min(min_soc, expected[4])
            advanced += 1
        ledger = (system.soc, system.pv_wh, system.grid_wh, system.load_wh, system.min_soc)
        assert _bits(*ledger) == _bits(battery.soc, pv_wh, grid_wh, load_wh, min_soc)
        assert len(system.ticks) == advanced
