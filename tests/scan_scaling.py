"""How the invariant scan's cost grows with the garage's cell count.

Run by hand from the root of a checkout; it is not collected as a test.
Each side is a package source tree, measured in fresh child processes that
import ``autopark`` from it alone, the sides alternating round by round:

    python3 tests/scan_scaling.py --side parent=PARENT/src --side change=src

At 18, 480, 2,400 and 60,000 cells (3x6, 20x24, 40x60 and 200x300) it
times, in process:

- ``scan_us``: one ``check_invariants`` call with five cars parked, the best
  of five batches of 2,000 calls;
- ``checked_us_per_event`` and ``unchecked_us_per_event``: one run of the
  ``big_garage`` benchmark inputs (120 cars, seed 0) on that garage, with
  and without the scan, per dispatched event, the best of three runs.

Each figure is the best over rounds. The result goes to ``BENCH_cells.json``
(``--out``), with every round's raw figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GARAGES = ((3, 6), (20, 24), (40, 60), (200, 300))
SCAN_CALLS = 2_000
SCAN_BATCHES = 5
RUNS = 3


def _best_seconds(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def measure(floors: int, slots_per_floor: int) -> dict[str, float]:
    """The figures for one garage, from the ``autopark`` on ``sys.path``."""
    from autopark import GarageConfig, GarageSession, Vehicle, run_scenario
    from autopark.controller import check_invariants
    from autopark.engine import Arrival
    from workloads import big_garage

    config = GarageConfig(floors=floors, slots_per_floor=slots_per_floor)
    session = GarageSession(config)
    for i in range(5):
        session.sim.schedule(i * 60_000, Arrival(Vehicle(f"v{i}", 4200, f"+9745500{i}")))
    session.run_until_idle()
    controller = session.controller

    def scans() -> None:
        for _ in range(SCAN_CALLS):
            check_invariants(controller)

    scan_s = _best_seconds(scans, SCAN_BATCHES) / SCAN_CALLS

    scenario = big_garage(0)._replace(config=config)
    counted = GarageSession(config, scenario.settings, check=False)
    events = 0

    def count() -> None:
        nonlocal events
        events += 1

    counted.sim.check = count
    for event in scenario.events:
        counted.schedule(event)
    counted.run_until_idle()
    checked_s = _best_seconds(lambda: run_scenario(scenario, check=True), RUNS)
    unchecked_s = _best_seconds(lambda: run_scenario(scenario, check=False), RUNS)
    return {
        "cells": floors * slots_per_floor,
        "scan_us": round(scan_s * 1e6, 3),
        "events": events,
        "checked_us_per_event": round(checked_s / events * 1e6, 2),
        "unchecked_us_per_event": round(unchecked_s / events * 1e6, 2),
    }


def child(src: str) -> None:
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "bench")]
    import autopark

    assert Path(autopark.__file__).resolve().parent == (Path(src) / "autopark").resolve()
    print(json.dumps({f"{f}x{s}": measure(f, s) for f, s in GARAGES}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side",
        action="append",
        metavar="NAME=SRC",
        help="a package source tree to measure, by name (default: this checkout's src)",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cells.json")
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    rounds: dict[str, list] = {name: [] for name in sides}
    for i in range(args.rounds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            command = [sys.executable, __file__, "--child", sides[name]]
            out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
            rounds[name].append(json.loads(out.splitlines()[-1]))
            print(f"round {i + 1} {name}: done", file=sys.stderr)
    best = {
        name: {
            garage: {key: min(r[garage][key] for r in runs) for key in runs[0][garage]}
            for garage in runs[0]
        }
        for name, runs in rounds.items()
    }
    result = {
        "topic": "the invariant scan's cost by garage size",
        "command": "python3 tests/scan_scaling.py"
        + "".join(f" --side {name}=SRC" for name in sides),
        "host": f"Python {platform.python_version()} on {platform.machine()},"
        f" {os.cpu_count()} CPUs",
        "method": (
            f"scan_us: best of {SCAN_BATCHES} batches of {SCAN_CALLS} check_invariants calls"
            f" with five cars parked; *_us_per_event: best of {RUNS} runs of big_garage's"
            " seed-0 inputs on the garage, per dispatched event; each figure the best over"
            " rounds, fresh child processes, sides alternating"
        ),
        "best": best,
        "scan_growth_60000_over_18": {
            name: round(b["200x300"]["scan_us"] / b["3x6"]["scan_us"], 2)
            for name, b in best.items()
        },
        "rounds": rounds,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["best"], indent=1))


if __name__ == "__main__":
    main()
