"""Command-line front end.

Three subcommands: ``run`` executes a scenario file and prints the report,
``repl`` opens an interactive console on a live garage, and ``check`` runs a
seeded random corpus through the invariant scanner.

Exit codes: 0 success, 2 invariant violation (a bug, not an input problem),
1 any other failure: a bad command line, an unreadable file, grammar or
config errors, a runaway schedule.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO

from .controller import InvariantViolationError
from .model import AutoparkError, ms_from_s, occupancy_count, parse_number
from .report import FORMATS, format_report
from .scenario import (
    GarageSession,
    Scenario,
    parse_event_line,
    parse_scenario,
    random_scenario,
    run_scenario,
)

_REPL_HELP = """\
commands:
  t=<s> kind=<kind> ...   schedule an event (scenario line grammar)
  tick <seconds>          advance the clock, dispatching due events
  run                     dispatch until the queue is empty
  report [table|csv|json-lines]
  trace [n]               show the last n trace lines (default 10)
  state                   one-line garage status
  help                    this text
  quit                    leave (EOF works too)
"""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a bad command line; exit 2 is kept for invariant
    violations, so a usage error exits 1 like any other input error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def integer(text: str) -> int:
    """A seed: an integer in the scenario number grammar (ASCII digits)."""
    return parse_number(int, text)


def count(text: str) -> int:
    """A scenario count: a non-negative integer."""
    value = integer(text)
    if value < 0:
        raise ValueError(f"negative count: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="autopark",
        description="Deterministic automated-garage simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and print the report")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument(
        "--report", choices=FORMATS, default="table", help="report format"
    )
    run_p.add_argument("--trace", metavar="PATH", help="also write the event trace here")
    run_p.add_argument(
        "--no-check",
        action="store_true",
        help="skip the per-event invariant scan (faster, less safe)",
    )

    repl_p = sub.add_parser("repl", help="interactive console on a live garage")
    repl_p.add_argument(
        "--scenario",
        metavar="PATH",
        help="load config and pre-schedule events from this file",
    )

    check_p = sub.add_parser(
        "check", help="run seeded random scenarios through the invariant scanner"
    )
    check_p.add_argument(
        "--seed",
        type=integer,
        default=None,
        help="base seed (default: AUTOPARK_SEED env var, else 0)",
    )
    check_p.add_argument(
        "--count", type=count, default=100, help="number of scenarios (default 100)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "repl":
            return _cmd_repl(args)
        return _cmd_check(args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (AutoparkError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


def _load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    result = run_scenario(scenario, check=not args.no_check)
    if args.trace:
        # Line by line, as "\n".join(trace) + "\n" would write it.
        lines = iter(result.trace)
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(next(lines, ""))
            for line in lines:
                handle.write("\n" + line)
            handle.write("\n")
    sys.stdout.write(format_report(result.report, args.report))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    base = args.seed
    if base is None:
        text = os.environ.get("AUTOPARK_SEED", "0")
        try:
            base = parse_number(int, text)
        except ValueError:
            raise AutoparkError(f"AUTOPARK_SEED is not an integer: {text!r}") from None
    total_events = 0
    max_motors = 0
    for offset in range(args.count):
        seed = base + offset
        try:
            scenario = random_scenario(seed)  # its dry run is a checked run too
            result = run_scenario(scenario)
        except InvariantViolationError as exc:
            print(f"seed {seed}: invariant violation: {exc}", file=sys.stderr)
            return 2
        except AutoparkError as exc:
            print(f"seed {seed}: error: {exc}", file=sys.stderr)
            return 1
        agg = result.report.aggregates
        if agg.max_concurrent_motors > 2:
            print(
                f"seed {seed}: {agg.max_concurrent_motors} motors ran at once",
                file=sys.stderr,
            )
            return 2
        total_events += len(scenario.events)
        max_motors = max(max_motors, agg.max_concurrent_motors)
    print(
        f"checked {args.count} scenarios from seed {base}: OK "
        f"(events={total_events}, max_motors={max_motors})"
    )
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    if args.scenario:
        scenario = _load_scenario(args.scenario)
        session = GarageSession(scenario.config, scenario.settings)
        for event in scenario.events:
            session.schedule(event)
    else:
        session = GarageSession()
    stream: IO[str] = sys.stdin
    interactive = stream.isatty()
    if interactive:
        print("autopark console; 'help' lists commands.")
    while True:
        if interactive:
            print("autopark> ", end="", flush=True)
        line = stream.readline()
        if not line:
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        try:
            if not _repl_command(session, line):
                break
        except InvariantViolationError:
            raise  # the session is broken: main reports it and exits 2
        except AutoparkError as exc:
            print(f"error: {exc}")
    return 0


def _repl_command(session: GarageSession, line: str) -> bool:
    words = line.split()
    if words[0] == "help":
        print(_REPL_HELP, end="")
    elif words[0] == "tick":
        step_ms = _argument(words, lambda text: ms_from_s(parse_number(float, text)), 1000)
        session.run_until(session.sim.clock_ms + step_ms)
        print(f"t={session.sim.clock_ms / 1000:.3f}s pending={session.sim.pending()}")
    elif words[0] == "run":
        session.run_until_idle()
        print(f"t={session.sim.clock_ms / 1000:.3f}s idle")
    elif words[0] == "report":
        fmt = words[1] if len(words) > 1 else "table"
        if fmt not in FORMATS:
            raise AutoparkError(f"unknown report format: {fmt!r}")
        print(format_report(session.build_report(), fmt), end="")
    elif words[0] == "trace":
        count = _argument(words, lambda text: parse_number(int, text), 10)
        if count < 0:
            raise AutoparkError(f"bad argument to trace: {words[1]!r}")
        trace = session.sim.trace
        for entry_line in trace[max(len(trace) - count, 0):]:
            print(entry_line)
    elif words[0] == "state":
        occupied, vacant = occupancy_count(session.garage)
        platform = session.fleet.platform
        mode = "Halted" if session.fleet.faulted else "Normal"
        print(
            f"t={session.sim.clock_ms / 1000:.3f}s mode={mode} "
            f"occupied={occupied} vacant={vacant} "
            f"platform=floor:{platform.floor_pos} angle:{platform.angle_deg:g} "
            f"soc={session.power.soc:.3f} pending={session.sim.pending()}"
        )
    elif "=" in words[0]:
        event = parse_event_line(line, session.config)
        session.schedule(event)
        print(f"scheduled {event.payload.kind} at t={event.t_ms / 1000:.3f}s")
    else:
        print(f"unknown command: {words[0]} ('help' lists commands)")
    return True


def _argument(words: list[str], convert, default):
    """A console command's optional argument; one that does not convert is an input error."""
    if len(words) < 2:
        return default
    try:
        return convert(words[1])
    except (ValueError, OverflowError):
        raise AutoparkError(f"bad argument to {words[0]}: {words[1]!r}") from None


if __name__ == "__main__":
    entry()
