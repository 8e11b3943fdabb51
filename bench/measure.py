"""Timed passes over a workload's scenarios, and the correctness gate.

Each scenario has one untimed *reference* per benchmark run:
``run_scenario(check=False)`` with its CSV report, whose report must stay
within the two-motor relay budget and round-trip through ``parse_report``.
One *round* then steps every scenario's session checked, and unchecked
(``NOCHECK_REPEATS`` times for a single-session workload): ``GarageSession``,
its events scheduled, ``run_until`` at ten input-event times (the last at
the last input event), then ``run_until_idle`` for the tail,
``build_report`` and the CSV report. That is what ``run_scenario`` plus a
report does (the work ``autopark run`` does after loading its file), cut
into steps so that each step is scaled by its own reference-loop time (see
``calibrate.py``). The traced round adds one more checked run under the span
wrappers of ``spans``. Every timed run must hash the same as the reference.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter

from autopark import (
    format_report,
    parse_report,
    parse_scenario,
    render_scenario,
    run_scenario,
)
from autopark.scenario import GarageSession, Scenario

import workloads
from calibrate import Calibrator
from spans import Tracer

PIECES = 10
RELAY_BUDGET = 2
# A single session's unchecked run takes a few tenths of a second, too short
# to ride out host noise on its own; a corpus round has 200 of them.
NOCHECK_REPEATS = 5


class GateError(Exception):
    """The program produced an output that the correctness gate rejects."""


@dataclass(frozen=True)
class Reference:
    """One scenario's untimed unchecked run, which every timed run must match."""

    digest: tuple[str, str]  # trace and CSV report SHA-256
    accepted: int
    stranded: int  # accepted cars that never reached Parked


@dataclass
class Sample:
    """One scenario's timings in one round, in nominal seconds."""

    events: int
    generate_s: float
    run_s: float  # checked session and its CSV report
    nocheck_s: float  # the same with check=False
    pieces: list[tuple[int, float]]  # cumulative (input events, seconds), checked steps


@dataclass
class Round:
    samples: list[Sample] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  # traced rounds only


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(trace, report_csv: str) -> tuple[str, str]:
    return _sha("\n".join(trace)), _sha(report_csv)


def _gate_report(report, label: str) -> None:
    motors = report.aggregates.max_concurrent_motors
    if motors > RELAY_BUDGET:
        raise GateError(f"{label}: {motors} motors ran at once")
    for fmt in ("csv", "json-lines"):
        if parse_report(format_report(report, fmt), fmt) != report:
            raise GateError(f"{label}: {fmt} report does not round-trip")


def _gate_same(label: str, reference: tuple[str, str], other: tuple[str, str], how: str) -> None:
    if other != reference:
        raise GateError(f"{label}: {how} run hashes {other} differ from {reference}")


def stepped_run(scenario: Scenario, check: bool, calibrator: Calibrator):
    """One session run in steps, each timed and scaled on its own.

    Cuts fall on input-event times, where the clock already stands after the
    event, so they add no clock advance and change nothing: the gate checks
    the hashes. The last cut is the last input event. The tail after it (the
    last cars' motions) adds no input events, so it is timed with the report,
    in the total but not in the pieces. Returns the total seconds, the
    cumulative (input events, seconds) after each ``run_until`` step, and the
    output hashes.
    """
    times = [event.t_ms for event in scenario.events]
    n = len(times)
    cuts = [times[math.ceil(k * n / PIECES) - 1] for k in range(1, PIECES + 1)]

    scale = calibrator.scale()
    start = perf_counter()
    session = GarageSession(scenario.config, scenario.settings, check=check)
    for event in scenario.events:
        session.schedule(event)
    total = scale * (perf_counter() - start)

    pieces = []
    elapsed = 0.0
    for cut in cuts:
        scale = calibrator.scale()
        start = perf_counter()
        session.run_until(cut)
        elapsed += scale * (perf_counter() - start)
        pieces.append((bisect_right(times, cut), elapsed))

    scale = calibrator.scale()
    start = perf_counter()
    session.run_until_idle()
    report_csv = format_report(session.build_report(), "csv")
    total += elapsed + scale * (perf_counter() - start)
    return total, pieces, _digest(session.sim.trace, report_csv)


def reference_run(scenario: Scenario, label: str) -> Reference:
    """Run once per scenario and benchmark run: the output is deterministic."""
    result = run_scenario(scenario, check=False)
    report = result.report
    _gate_report(report, label)
    accepted = [r for r in report.rows if not r.status.startswith("rejected:")]
    return Reference(
        _digest(result.trace, format_report(report, "csv")),
        len(accepted),
        sum(1 for r in accepted if r.parked_ms is None),
    )


def measure(
    scenario: Scenario,
    label: str,
    reference: Reference,
    calibrator: Calibrator,
    generate_s: float = 0.0,
    repeats: int = 1,
) -> Sample:
    """Time one scenario checked and unchecked, and gate the outputs.

    The unchecked run is made ``repeats`` times and its median kept.
    """
    run_s, pieces, checked = stepped_run(scenario, True, calibrator)
    _gate_same(label, reference.digest, checked, "checked")
    nocheck = []
    for _ in range(repeats):
        nocheck_s, _, unchecked = stepped_run(scenario, False, calibrator)
        _gate_same(label, reference.digest, unchecked, "unchecked")
        nocheck.append(nocheck_s)
    return Sample(len(scenario.events), generate_s, run_s, statistics.median(nocheck), pieces)


def cost_exponent(samples: list[Sample]) -> float:
    """Least-squares slope of log(cumulative seconds) on log(cumulative events).

    One session is cut at its ``run_until`` steps. A corpus round reads as
    one long run of short sessions, in seed order, cut after every tenth of
    them; there the slope shows cost that grows from one session to the next.
    """
    if len(samples) == 1:
        points = samples[0].pieces
    else:
        ends = {math.ceil(k * len(samples) / PIECES) for k in range(1, PIECES + 1)}
        points = []
        events = seconds = 0.0
        for count, sample in enumerate(samples, 1):
            events += sample.events
            seconds += sample.run_s
            if count in ends:
                points.append((events, seconds))
    xs = [math.log(e) for e, _ in points]
    ys = [math.log(t) for _, t in points]
    return statistics.linear_regression(xs, ys).slope


def _generate(workload: str, seed: int, index: int, calibrator: Calibrator):
    """Scenario ``index`` of the workload, and the nominal seconds it took."""
    scale = calibrator.scale()
    start = perf_counter()
    scenario = workloads.scenario(workload, seed, index)
    return scenario, scale * (perf_counter() - start)


def _reference(references: dict, index: int, scenario: Scenario, label: str) -> Reference:
    if index not in references:
        references[index] = reference_run(scenario, label)
    return references[index]


def untraced_round(
    workload: str,
    seed: int,
    scenarios: list[Scenario],
    references: dict[int, Reference],
    calibrator: Calibrator,
) -> Round:
    """The corpus generates each scenario in the round, the others reuse theirs."""
    out = Round()
    repeats = 1 if workload == "corpus" else NOCHECK_REPEATS
    for index in range(workloads.scenario_count(workload)):
        label = f"{workload} seed {seed} #{index}"
        if workload == "corpus":
            scenario, generate_s = _generate(workload, seed, index, calibrator)
        else:
            scenario, generate_s = scenarios[index], 0.0
        reference = _reference(references, index, scenario, label)
        sample = measure(scenario, label, reference, calibrator, generate_s, repeats)
        out.samples.append(sample)
    return out


def traced_round(
    workload: str, seed: int, references: dict[int, Reference], calibrator: Calibrator
) -> tuple[Round, Tracer]:
    """Every scenario generated and parsed, measured, then run once more under spans."""
    out = Round()
    tracer = Tracer()
    scales = []  # one per traced session; their median scales the span times
    layer = dict.fromkeys(
        (
            "generate_s", "parse_s", "untraced_s", "traced_s", "trace_lines",
            "trace_bytes", "power_ticks", "modem_log_lines", "check_first_s",
            "check_first_n", "check_last_s", "check_last_n", "grid_wh",
            "max_parking_s", "max_retrieval_s",
        ),
        0,
    )
    for index in range(workloads.scenario_count(workload)):
        label = f"{workload} seed {seed} #{index}"
        scenario, generate_s = _generate(workload, seed, index, calibrator)
        layer["generate_s"] += generate_s
        text = render_scenario(scenario)
        scale = calibrator.scale()
        start = perf_counter()
        parsed = parse_scenario(text)
        layer["parse_s"] += scale * (perf_counter() - start)
        if parsed != scenario:
            raise GateError(f"{label}: scenario does not survive render and parse")

        reference = _reference(references, index, scenario, label)
        sample = measure(scenario, label, reference, calibrator)
        out.samples.append(sample)
        first_span = len(tracer.spans)
        scales.append(calibrator.scale())
        start = perf_counter()
        with tracer.patched():
            session = tracer.call(
                "scenario.session_init", GarageSession, scenario.config, scenario.settings, True
            )
            tracer.trace_session(session)
            for event in scenario.events:
                session.schedule(event)
            tracer.call("engine.run", session.run_until_idle)
            report = tracer.call("report.build", session.build_report)
            report_csv = tracer.call("report.format", format_report, report, "csv")
        layer["traced_s"] += scales[-1] * (perf_counter() - start)
        layer["untraced_s"] += sample.run_s
        _gate_same(label, reference.digest, _digest(session.sim.trace, report_csv), "traced")

        checks = tracer.durations("controller.check", first_span)
        tenth = max(1, len(checks) // 10)
        layer["check_first_s"] += sum(checks[:tenth])
        layer["check_first_n"] += tenth
        layer["check_last_s"] += sum(checks[-tenth:])
        layer["check_last_n"] += tenth
        trace = session.sim.trace
        layer["trace_lines"] += len(trace)
        layer["trace_bytes"] += sum(len(line) + 1 for line in trace)
        layer["power_ticks"] += len(session.power.ticks)
        layer["modem_log_lines"] += len(session.gateway.modem.log)
        agg = report.aggregates
        layer["grid_wh"] += agg.grid_wh
        layer["max_parking_s"] = max(layer["max_parking_s"], (agg.max_parking_latency_ms or 0) / 1000)
        layer["max_retrieval_s"] = max(
            layer["max_retrieval_s"], (agg.max_retrieval_latency_ms or 0) / 1000
        )
    out.layers = _layer_metrics(tracer, layer, statistics.median(scales))
    return out, tracer


def _layer_metrics(tracer: Tracer, layer: dict[str, float], scale: float) -> dict[str, float]:
    """Span times scaled to nominal seconds; simulated values and counts as they are."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return scale * totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return scale * totals.get(name, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    metrics = {
        "controller.check_s": total("controller.check"),
        "controller.check_calls": calls("controller.check"),
        "controller.check_us_first": scale * 1e6 * layer["check_first_s"] / layer["check_first_n"],
        "controller.check_us_last": scale * 1e6 * layer["check_last_s"] / layer["check_last_n"],
    }
    for handler in ("arrival", "sms_in", "payment", "device_done"):
        metrics[f"controller.{handler}_s"] = total(f"controller.{handler}")
        metrics[f"controller.{handler}_calls"] = calls(f"controller.{handler}")
    metrics.update(
        {
            "scenario.handle_self_s": self_s("scenario.handle"),
            "scenario.generate_s": layer["generate_s"],
            "scenario.session_init_s": total("scenario.session_init"),
            "scenario.parse_s": layer["parse_s"],
            "engine.events": calls("scenario.handle"),
            "engine.self_s": self_s("engine.run"),
            "engine.trace_lines": layer["trace_lines"],
            "engine.trace_mb": layer["trace_bytes"] / 2**20,
            "power.advance_s": total("power.advance"),
            "power.advance_calls": calls("power.advance"),
            "power.ticks": layer["power_ticks"],
            "sms.send_s": total("sms.send"),
            "sms.sends": calls("sms.send"),
            "sms.poll_s": total("sms.poll"),
            "sms.polls": calls("sms.poll"),
            "sms.useful_poll_share": counts["sms.useful_polls"] / max(1, calls("sms.poll")),
            "sms.receive_s": total("sms.receive"),
            "sms.modem_log_lines": layer["modem_log_lines"],
            "devices.motion_s": total("devices.motion"),
            "devices.complete_s": total("devices.complete"),
            "devices.actions": calls("devices.motion"),
            "devices.zero_motion_share": counts["devices.zero_motions"]
            / max(1, calls("devices.motion")),
            "report.build_s": total("report.build"),
            "report.format_s": total("report.format"),
            "report.max_parking_latency_s": layer["max_parking_s"],
            "report.max_retrieval_latency_s": layer["max_retrieval_s"],
            "report.grid_wh": layer["grid_wh"],
            "bench.trace_overhead": layer["traced_s"] / layer["untraced_s"] - 1,
        }
    )
    return metrics
