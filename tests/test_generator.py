"""The corpus generator against the generator it replaced.

``oracle_random_scenario`` is the earlier ``random_scenario``, kept as the
reference. It timed the payments with a checked dry run of the whole
scenario without them, through ``run_scenario``. The generator now runs that
dry run unchecked and stops it once a car is billed. It must return the
same scenario, and the premises that make this safe must hold:

- with no payments, nothing frees the one exit belt, so the dry run bills
  at most one car, and only a billed car costs a draw;
- up to that bill, the dry run is the start of the final run, which a
  checked run scans after every event. Once ``seq=`` is stripped, the two
  traces agree up to their first ``bill`` record. The final run schedules
  the payments up front, so its sequence numbers differ.

Run as a script, it checks a wider seed range at both corpus sizes and
prints one summary line:
``PYTHONPATH=src python tests/test_generator.py --seeds 0-999``.
"""

import argparse
import random
import re

import pytest

from autopark import scenario as scenario_module
from autopark.devices import belt_roster
from autopark.engine import (
    Arrival,
    BeltFault,
    FaultCleared,
    InboundSms,
    IrradianceChange,
    PaymentConfirmed,
    Trace,
)
from autopark.model import GarageConfig, Vehicle
from autopark.scenario import (
    GarageSession,
    Scenario,
    ScenarioEvent,
    SimSettings,
    random_scenario,
    render_scenario,
    run_scenario,
)

SEEDS = range(200)
PREFIX_SEEDS = range(40)
SIZES = (18, 12)  # the acceptance corpus's and the default

_SEQ = re.compile(r" seq=\d+")
_BILL = re.compile(r"t=\d+ bill ")


def oracle_random_scenario(seed: int, max_vehicles: int = 12) -> tuple[Scenario, Trace]:
    """The earlier ``random_scenario``, and the trace of its dry run: the
    whole scenario without payments, as a checked run."""
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
    dry = run_scenario(Scenario(config, settings, tuple(events)))
    payments: list[ScenarioEvent] = []
    for rec in dry.session.controller.arrivals:
        if rec.ticket_id is None:
            continue
        ready_ms = dry.session.garage.tickets[rec.ticket_id].ready_ms
        if ready_ms is not None and rng.random() < 0.85:
            t_pay = ready_ms + round(rng.uniform(30.0, 900.0) * 1000)
            payments.append(ScenarioEvent(t_pay, PaymentConfirmed(rec.ticket_id)))
    merged = sorted(events + payments, key=lambda e: e.t_ms)
    return Scenario(config, settings, tuple(merged)), dry.trace


def generate_with_dry_run(seed: int, max_vehicles: int) -> tuple[Scenario, GarageSession]:
    """``random_scenario(seed, max_vehicles)`` and the one session its dry run
    used, as it was left when the generator stopped it."""
    sessions: list[GarageSession] = []

    class Recorded(GarageSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    scenario_module.GarageSession = Recorded
    try:
        result = random_scenario(seed, max_vehicles)
    finally:
        scenario_module.GarageSession = GarageSession
    (dry,) = sessions
    return result, dry


def _bills(trace) -> list[int]:
    return [i for i, line in enumerate(trace) if _BILL.match(line)]


def _to_first_bill(trace) -> list[str]:
    """The trace up to and with its first ``bill`` record, or all of it, with
    ``seq=`` stripped."""
    lines = list(trace)
    bills = _bills(lines)
    if bills:
        lines = lines[: bills[0] + 1]
    return [_SEQ.sub("", line) for line in lines]


def check_same_scenario(seed: int, max_vehicles: int) -> int:
    """The generator returns the oracle's scenario, and the oracle's dry run
    bills at most one car. Returns the number of cars it billed."""
    expected, dry_trace = oracle_random_scenario(seed, max_vehicles)
    billed = len(_bills(dry_trace))
    assert billed <= 1, (
        f"seed {seed}: the dry run without payments billed {billed} cars. "
        "random_scenario stops its dry run at the first bill, which is safe only "
        "while an unpaid car holds the one exit belt; see ROADMAP items 3 "
        "(payments scheduled in one reactive run) and 4 (a return program frees "
        "the exit belt from an unpaid car)"
    )
    assert render_scenario(random_scenario(seed, max_vehicles)) == render_scenario(expected)
    return billed


def check_prefix(seed: int, max_vehicles: int) -> None:
    """The final run checks what the unchecked dry run did: once ``seq=`` is
    stripped, both traces agree up to their first bill, or whole if there is
    none."""
    result, dry = generate_with_dry_run(seed, max_vehicles)
    assert dry.sim.check is None
    final = run_scenario(result).trace
    assert _to_first_bill(dry.sim.trace) == _to_first_bill(final)


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_matches_the_oracle(seed):
    for size in SIZES:
        check_same_scenario(seed, size)


@pytest.mark.parametrize("seed", PREFIX_SEEDS)
def test_final_run_checks_the_dry_run_up_to_its_bill(seed):
    for size in SIZES:
        check_prefix(seed, size)


if __name__ == "__main__":
    from test_golden_digests import _seed_range

    parser = argparse.ArgumentParser(
        description="Check the generator against the oracle over a seeded range."
    )
    parser.add_argument(
        "--seeds",
        type=_seed_range,
        default=SEEDS,
        metavar="A-B",
        help="inclusive seed range (default: the tests' 0-199)",
    )
    args = parser.parse_args()
    billed = 0
    for seed in args.seeds:
        for size in SIZES:
            billed += check_same_scenario(seed, size)
            check_prefix(seed, size)
    runs = len(args.seeds) * len(SIZES)
    print(
        f"seeds {args.seeds.start}-{args.seeds.stop - 1} at max_vehicles "
        f"{' and '.join(map(str, SIZES))}: {runs} scenarios equal the oracle's, "
        f"{billed} dry runs billed one car and {runs - billed} none, "
        "all prefixes agree"
    )
