"""Golden hashes of the exact trace and every report format of a seeded corpus
and of a few fixed scenarios that draw on the grid.

Seeds 0-49 at up to 18 cars cover every input event kind, belt faults, and
the Halted, TooLong, DuplicatePhone and UnknownPhone rejections. No corpus
seed in 0-999 draws on the grid (its lowest ``min_soc`` is 0.176), so the
grid scenarios below pin the power layer's fallback branch: paid-up days on
a battery at 0-10 % under 0-250 W/m2 of sun, one with the sun going out
mid-run, and one with no battery at all.

A change that alters behaviour on purpose regenerates both files with
``PYTHONPATH=src python tests/test_golden_digests.py`` and says why.

A refactor that claims no behaviour change prints the digests of a wider
range on each commit and compares the outputs, without touching the files:
``PYTHONPATH=src python tests/test_golden_digests.py --seeds 0-999 --stdout``.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from autopark.report import format_report
from autopark.scenario import Scenario, parse_scenario, random_scenario, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "corpus_digests.txt"
GRID_GOLDEN = Path(__file__).parent / "golden" / "grid_digests.txt"
SEEDS = range(50)
MAX_VEHICLES = 18
REPORT_FORMATS = ("csv", "json-lines", "table")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(scenario: Scenario) -> list[str]:
    """The trace hash, then the CSV, JSON-lines and table report hashes."""
    result = run_scenario(scenario)
    digests = [_sha256("\n".join(result.trace))]
    return digests + [_sha256(format_report(result.report, fmt)) for fmt in REPORT_FORMATS]


def corpus_digests(seeds=SEEDS) -> list[str]:
    """One line per seed: the seed, then its digests."""
    return [
        " ".join([str(seed), *_digests(random_scenario(seed, MAX_VEHICLES))]) for seed in seeds
    ]


def paid_day(settings: str, cars: int, irradiance_at: tuple[int, float] | None = None) -> Scenario:
    """A day of paying customers on the default garage, like the benchmark's
    churn day without its jitter: one arrival every 240 s, each retrieved
    900 s later and paid 300 s after that. ``irradiance_at`` is one
    ``(t_s, w_per_m2)`` change of sun."""
    events = []
    for i in range(cars):
        t_s = 240 * (i + 1)
        phone = f"+974600{i:05d}"
        events.append((t_s, f"kind=arrival vehicle=g{i + 1} length_mm=4200 phone={phone}"))
        events.append((t_s + 900, f"kind=sms_in phone={phone} body=retrieve"))
        events.append((t_s + 1200, f"kind=payment ticket={i + 1}"))
    if irradiance_at is not None:
        t_s, w_per_m2 = irradiance_at
        events.append((t_s, f"kind=irradiance w_per_m2={w_per_m2:g}"))
    events.sort(key=lambda e: e[0])
    lines = [f"config {settings}"] + [f"t={t_s} {rest}" for t_s, rest in events]
    return parse_scenario("\n".join(lines) + "\n")


GRID_SCENARIOS = {
    "empty_dark_day": lambda: paid_day("battery_initial_soc=0.0 irradiance_w_per_m2=0", 40),
    "low_dim_day": lambda: paid_day("battery_initial_soc=0.05 irradiance_w_per_m2=50", 40),
    "low_sunny_day": lambda: paid_day("battery_initial_soc=0.1 irradiance_w_per_m2=250", 120),
    "sun_goes_out": lambda: paid_day(
        "battery_initial_soc=0.02 irradiance_w_per_m2=250", 40, irradiance_at=(1800, 0.0)
    ),
    "no_battery": lambda: paid_day("battery_capacity_ah=0 irradiance_w_per_m2=250", 40),
}


def grid_digests() -> list[str]:
    """One line per grid scenario: its name, then its digests."""
    return [" ".join([name, *_digests(build())]) for name, build in GRID_SCENARIOS.items()]


def test_corpus_traces_and_reports_match_golden_digests():
    assert corpus_digests() == GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_grid_scenario_draws_on_the_grid(name):
    report = run_scenario(GRID_SCENARIOS[name]()).report
    assert report.aggregates.grid_wh > 0
    assert all(row.status == "Closed" for row in report.rows)


def test_grid_scenarios_match_golden_digests():
    assert grid_digests() == GRID_GOLDEN.read_text(encoding="utf-8").splitlines()


def test_digests_do_not_depend_on_the_hash_seed():
    """String hashing is salted per process (``PYTHONHASHSEED``), so a set's
    order that leaked into a trace or a report would differ between
    processes. Two processes with different salts print the golden lines."""
    tests = Path(__file__).parent
    code = "import test_golden_digests as g; print(*g.corpus_digests(range(8)), sep='\\n')"
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            timeout=120,
            check=True,
        ).stdout
        for hash_seed in ("0", "777")
    ]
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()[:8]
    assert outputs[0] == outputs[1] == "\n".join(golden) + "\n"


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or print the golden digests.")
    parser.add_argument(
        "--seeds",
        type=_seed_range,
        default=SEEDS,
        metavar="A-B",
        help="inclusive corpus seed range (default: the golden file's 0-49)",
    )
    parser.add_argument(
        "--stdout",
        action="store_true",
        help="print the corpus digests, then the grid digests; leave the golden files alone",
    )
    args = parser.parse_args()
    if args.stdout:
        for line in corpus_digests(args.seeds):
            print(line, flush=True)
        for line in grid_digests():
            print(line, flush=True)
    elif args.seeds != SEEDS:
        parser.error("the golden file holds seeds 0-49; use --stdout for other ranges")
    else:
        GOLDEN.write_text("\n".join(corpus_digests()) + "\n", encoding="utf-8")
        GRID_GOLDEN.write_text("\n".join(grid_digests()) + "\n", encoding="utf-8")
