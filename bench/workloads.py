"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of its seed: the program under test only
ever sees the scenarios built here. ``churn_day`` and ``big_garage`` are laid
out analytically from the kinematics, so they need no simulation to time
their payments; ``corpus`` is the package's own ``random_scenario`` corpus,
dry run and all, because that is what ``autopark check`` pays for.
"""

from __future__ import annotations

import random

from autopark import GarageConfig, Vehicle, random_scenario
from autopark.engine import Arrival, InboundSms, PaymentConfirmed
from autopark.scenario import Scenario, ScenarioEvent, SimSettings

WORKLOADS = ("corpus", "churn_day", "big_garage")

CORPUS_SEEDS = 200  # scenarios per round: p95 keeps ten samples above it
CORPUS_MAX_VEHICLES = 18

CHURN_CARS = 300
MEMORY_CHURN_CARS = 2000  # the day peak_rss_mb runs: history outweighs the interpreter
CHURN_ARRIVAL_S = 240.0
CHURN_REQUEST_S = 900.0
CHURN_PAY_S = 300.0
CHURN_JITTER_S = 30.0
CHURN_TOO_LONG_SHARE = 0.05

BIG_FLOORS = 20
BIG_SLOTS = 24
BIG_CARS = 120
BIG_ARRIVAL_S = 30.0
BIG_JITTER_S = 5.0
assert BIG_CARS <= BIG_FLOORS * BIG_SLOTS

# Battery and sun for churn_day and big_garage, set so that both draw on the
# panel and the grid and the power layer's fallback branch is exercised.
SETTINGS = SimSettings(battery_initial_soc=0.1, irradiance_w_per_m2=250.0)


def corpus_seeds(seed: int) -> range:
    """Consecutive corpus seeds owned by one benchmark seed."""
    return range(seed * CORPUS_SEEDS, (seed + 1) * CORPUS_SEEDS)


def _ms(seconds: float) -> int:
    return round(seconds * 1000)


def _phone(i: int) -> str:
    return f"+97450{i:06d}"


def _length(rng: random.Random, config: GarageConfig, too_long: bool) -> int:
    limit = config.max_vehicle_length_mm
    return rng.randint(limit + 1, 2 * limit) if too_long else rng.randint(2000, limit)


def _scenario(config: GarageConfig, events: list[ScenarioEvent]) -> Scenario:
    events.sort(key=lambda e: e.t_ms)
    return Scenario(config, SETTINGS, tuple(events))


def churn_day(seed: int, cars: int = CHURN_CARS) -> Scenario:
    """A long day of paying customers on the default 3x6 garage.

    About five cars are live at any time, so the per-event cost should not
    depend on how long the day has run; only history grows. The timed runs
    take ``CHURN_CARS`` cars, the peak-memory run ``MEMORY_CHURN_CARS``.
    """
    rng = random.Random(f"churn_day:{seed}")
    config = GarageConfig()
    events: list[ScenarioEvent] = []
    ticket_id = 0

    def jitter() -> float:
        return rng.uniform(-CHURN_JITTER_S, CHURN_JITTER_S)

    for i in range(cars):
        t_arrival = CHURN_ARRIVAL_S * (i + 1) + jitter()
        too_long = rng.random() < CHURN_TOO_LONG_SHARE
        vehicle = Vehicle(f"c{i + 1}", _length(rng, config, too_long), _phone(i))
        events.append(ScenarioEvent(_ms(t_arrival), Arrival(vehicle)))
        if too_long:
            continue
        ticket_id += 1
        t_request = t_arrival + CHURN_REQUEST_S + jitter()
        t_pay = t_request + CHURN_PAY_S + jitter()
        events.append(ScenarioEvent(_ms(t_request), InboundSms(vehicle.phone, "retrieve")))
        events.append(ScenarioEvent(_ms(t_pay), PaymentConfirmed(ticket_id)))
    return _scenario(config, events)


def _cycle_bound_s(config: GarageConfig, floor: int) -> float:
    """Upper bound on one car's platform cycle to ``floor`` and back home.

    Counts every motion of the cycle in sequence, with the longest rotation
    both ways, so the real cycle (which overlaps some of them) is shorter.
    """
    kin = config.kinematics
    rotate = (config.slots_per_floor // 2) * kin.rotation_per_slot_s
    return (
        2 * kin.gate_actuation_s
        + 2 * kin.belt_transit_s
        + kin.platform_load_s
        + 2 * (floor * kin.elevation_per_floor_s + rotate)
    )


def big_garage(seed: int) -> Scenario:
    """A burst of arrivals into a 20x24 garage, then a one-at-a-time drain.

    Cells fill bottom-up in arrival order. Retrieval starts once every car
    is parked for certain, and each request waits for the previous car to
    have left, so no program ever waits on another customer.
    """
    rng = random.Random(f"big_garage:{seed}")
    config = GarageConfig(floors=BIG_FLOORS, slots_per_floor=BIG_SLOTS)
    events: list[ScenarioEvent] = []
    t_parked = 0.0
    for i in range(BIG_CARS):
        t_arrival = BIG_ARRIVAL_S * (i + 1) + rng.uniform(-BIG_JITTER_S, BIG_JITTER_S)
        vehicle = Vehicle(f"b{i + 1}", _length(rng, config, False), _phone(i))
        events.append(ScenarioEvent(_ms(t_arrival), Arrival(vehicle)))
        floor = i // config.slots_per_floor
        t_parked = max(t_parked, t_arrival) + _cycle_bound_s(config, floor)

    top_floor = (BIG_CARS - 1) // config.slots_per_floor
    cycle = _cycle_bound_s(config, top_floor)
    t_request = t_parked
    for i in rng.sample(range(BIG_CARS), BIG_CARS):
        t_request += 2 * cycle + rng.uniform(0.0, 60.0)
        t_pay = t_request + cycle + rng.uniform(0.0, 60.0)
        events.append(ScenarioEvent(_ms(t_request), InboundSms(_phone(i), "retrieve")))
        events.append(ScenarioEvent(_ms(t_pay), PaymentConfirmed(i + 1)))
    return _scenario(config, events)


def scenario_count(workload: str) -> int:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return CORPUS_SEEDS if workload == "corpus" else 1


def scenario(workload: str, seed: int, index: int) -> Scenario:
    """Scenario ``index`` of the ones one run of ``workload`` measures."""
    if workload == "corpus":
        return random_scenario(corpus_seeds(seed)[index], CORPUS_MAX_VEHICLES)
    return churn_day(seed) if workload == "churn_day" else big_garage(seed)


def build(workload: str, seed: int) -> list[Scenario]:
    """The scenarios one run of ``workload`` measures."""
    return [scenario(workload, seed, i) for i in range(scenario_count(workload))]
