import math
import random

import pytest

from autopark.power import (
    DEFAULT_CURVE,
    BatteryState,
    ChargeControllerSpec,
    PvMeasuredCurve,
    PowerSystem,
    power_tick,
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


def test_curve_validation():
    with pytest.raises(ValueError):
        PvMeasuredCurve(points=((0.0, 0.5), (10.0, 0.6), (20.0, 0.0)))
    with pytest.raises(ValueError):
        PvMeasuredCurve(points=((10.0, 0.5), (10.0, 0.4)))


def test_motor_current_draw():
    assert required_battery_current(2) == pytest.approx(20.0 / 12.0, abs=1e-15)
    assert required_battery_current(1, 10.0, 12.0) == pytest.approx(10.0 / 12.0)
    assert required_battery_current(0) == 0.0


def test_one_hour_charge_from_half():
    battery = BatteryState(soc=0.5)
    after, tick = power_tick(battery, 1.0, 0.0, 3600.0)
    assert after.soc - 0.5 == pytest.approx(0.08016153127917834, abs=1e-12)
    assert tick.grid_wh == 0.0
    assert tick.pv_wh == pytest.approx(BUS_CURRENT_FULL_SUN * 12.0, abs=1e-9)


def test_one_hour_two_motor_discharge_in_the_dark():
    battery = BatteryState(soc=1.0)
    after, tick = power_tick(battery, 0.0, 20.0, 3600.0)
    assert 1.0 - after.soc == pytest.approx(0.23809523809523808, abs=1e-12)
    assert tick.grid_wh == 0.0
    assert tick.load_wh == pytest.approx(20.0, abs=1e-12)


def test_full_battery_curtails_surplus():
    battery = BatteryState(soc=1.0)
    after, tick = power_tick(battery, 1.0, 0.0, 3600.0)
    assert after.soc == 1.0
    assert tick.pv_wh == 0.0
    assert tick.battery_delta_wh == 0.0


def test_empty_battery_falls_back_to_grid():
    battery = BatteryState(soc=0.0)
    after, tick = power_tick(battery, 0.0, 10.0, 1800.0)
    assert after.soc == 0.0
    assert tick.grid_wh == pytest.approx(5.0, abs=1e-12)
    assert tick.load_wh == pytest.approx(5.0, abs=1e-12)


def test_charge_controller_caps_input_current():
    hot = PvMeasuredCurve(points=((0.0, 8.0), (12.0, 7.0), (22.31, 0.0)))
    battery = BatteryState(soc=0.0)
    after, _ = power_tick(battery, 1.0, 0.0, 3600.0, curve=hot)
    assert after.soc == pytest.approx(3.0 / 7.0, abs=1e-12)
    relaxed = ChargeControllerSpec(max_charge_current_a=5.0)
    after_relaxed, _ = power_tick(battery, 1.0, 0.0, 3600.0, curve=hot, controller=relaxed)
    assert after_relaxed.soc == pytest.approx(5.0 / 7.0, abs=1e-12)


def test_energy_is_conserved_every_tick():
    rng = random.Random(99)
    battery = BatteryState(soc=0.7)
    for _ in range(500):
        scale = rng.uniform(0.0, 1.0)
        load = rng.choice([0.0, 10.0, 20.0])
        dt = rng.uniform(0.1, 900.0)
        battery, tick = power_tick(battery, scale, load, dt)
        assert tick.pv_wh + tick.grid_wh == pytest.approx(
            tick.load_wh + tick.battery_delta_wh, abs=1e-9
        )
        assert 0.0 <= battery.soc <= 1.0


def test_power_system_meters_accumulate():
    system = PowerSystem(BatteryState(soc=0.5))
    system.set_irradiance(1000.0)
    system.advance(0.0, 1800.0)
    system.set_irradiance(0.0)
    system.advance(20.0, 1800.0)
    assert system.meters.load_wh == pytest.approx(10.0, abs=1e-12)
    assert system.meters.pv_wh == pytest.approx(BUS_CURRENT_FULL_SUN * 12.0 / 2, abs=1e-9)
    assert system.meters.min_soc < 0.5 + 0.05
    assert len(system.ticks) == 2


def test_irradiance_above_rating_clamps():
    system = PowerSystem()
    system.set_irradiance(1500.0)
    assert system.irradiance_scale == 1.0
    with pytest.raises(ValueError):
        system.set_irradiance(-1.0)
