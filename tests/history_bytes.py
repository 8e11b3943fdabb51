"""What a long day holds once it has run: the packed trace, the packed modem
log, and the rest, most of it the closed cars' records.

Run by hand from the root of a checkout; it is not collected as a test.
Each side is a package source tree, measured in fresh child processes that
import ``autopark`` from it alone, the sides alternating round by round:

    python3 tests/history_bytes.py --side parent=PARENT/src --side change=src

For unchecked ``churn_day`` sessions (seed 0) of 1,000, 2,000 and 4,000
cars it reports:

- ``live_bytes``: the ``tracemalloc`` live bytes of the session once it is
  idle (the scenario is built before tracing starts);
- ``trace_bytes``, then ``log_bytes``: what emptying the packed trace, then
  the packed modem log, frees of that;
- ``rest_bytes``: what is left, and ``closed_cars``, the tickets closed;
- ``bytes_per_closed_car``: the marginal rest per closed car, from 1,000 to
  2,000 cars and from 2,000 to 4,000.

It also reports ``peak_rss_mb``, the ``ru_maxrss`` of a fresh process that
makes the benchmark's ``churn_day`` memory run: 2,000 cars, unchecked, with
its CSV report. One such process runs per side and round, and the median
over rounds is given. The ``tracemalloc`` figures repeat exactly from round
to round, so the first round's are kept. The result goes to
``BENCH_heldbytes.json`` (``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CARS = (1_000, 2_000, 4_000)
RSS_CARS = 2_000


def held(cars: int) -> dict[str, int]:
    """The held bytes of one unchecked ``churn_day`` session of ``cars`` cars."""
    import gc
    import tracemalloc

    from autopark import GarageSession
    from workloads import churn_day

    scenario = churn_day(0, cars)
    gc.collect()
    tracemalloc.start()
    session = GarageSession(scenario.config, scenario.settings, check=False)
    for event in scenario.events:
        session.schedule(event)
    session.run_until_idle()

    def live() -> int:
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    figures = {"live_bytes": live()}
    for name, history in (("trace", session.sim.trace), ("log", session.gateway.modem.log)):
        before = live()
        history._chunks.clear()
        history._open.clear()
        history._unpacked = (-1, [])
        figures[f"{name}_bytes"] = before - live()
    figures["rest_bytes"] = live()
    tracemalloc.stop()
    figures["closed_cars"] = sum(t.closed_ms is not None for t in session.garage.tickets.values())
    return figures


def peak_rss_mb() -> float:
    """The benchmark's ``churn_day`` memory run, in this process."""
    import resource

    from autopark import format_report, run_scenario
    from workloads import churn_day

    format_report(run_scenario(churn_day(0, RSS_CARS), check=False).report, "csv")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(src: str, part: str) -> None:
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "bench")]
    import autopark

    assert Path(autopark.__file__).resolve().parent == (Path(src) / "autopark").resolve()
    if part == "rss":
        print(json.dumps(peak_rss_mb()))
        return
    figures = {str(cars): held(cars) for cars in CARS}
    for low, high in zip(CARS, CARS[1:]):
        a, b = figures[str(low)], figures[str(high)]
        per_car = (b["rest_bytes"] - a["rest_bytes"]) / (b["closed_cars"] - a["closed_cars"])
        figures[f"bytes_per_closed_car_{low}_to_{high}"] = round(per_car, 1)
    print(json.dumps(figures))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side",
        action="append",
        metavar="NAME=SRC",
        help="a package source tree to measure, by name (default: this checkout's src)",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_heldbytes.json")
    parser.add_argument("--child", nargs=2, metavar=("SRC", "PART"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(*args.child)
        return
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    held_figures: dict[str, dict] = {}
    rss: dict[str, list[float]] = {name: [] for name in sides}
    for i in range(args.rounds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            for part in ("rss",) if name in held_figures else ("held", "rss"):
                command = [sys.executable, __file__, "--child", sides[name], part]
                out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
                value = json.loads(out.splitlines()[-1])
                if part == "rss":
                    rss[name].append(value)
                else:
                    held_figures[name] = value
            print(f"round {i + 1} {name}: done", file=sys.stderr)
    result = {
        "topic": "the bytes a churn_day session holds once it has run",
        "command": "python3 tests/history_bytes.py"
        + "".join(f" --side {name}=SRC" for name in sides),
        "host": f"Python {platform.python_version()} on {platform.machine()},"
        f" {os.cpu_count()} CPUs",
        "method": (
            "tracemalloc live bytes of one unchecked churn_day session (seed 0) at each car"
            " count once idle, then after emptying its packed trace and its packed modem log"
            f" by hand; peak_rss_mb: ru_maxrss of a fresh process making the {RSS_CARS:,}-car"
            " unchecked run with its CSV report, one per side and round, sides alternating"
        ),
        "held": held_figures,
        "peak_rss_mb_median": {name: round(statistics.median(v), 3) for name, v in rss.items()},
        "peak_rss_mb_rounds": rss,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in ("held", "peak_rss_mb_median")}, indent=1))


if __name__ == "__main__":
    main()
