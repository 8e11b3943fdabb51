"""Arbitrary input at every text boundary: scenario files, reports, the CLI
and the console.

Each boundary may reject its input only with an ``AutoparkError``, which the
CLI turns into exit 1 (2 is kept for an invariant violation), never with a
traceback. Whatever parses renders and parses back to an equal value. The
inputs mix free text with lines built from the grammar's own keys and
awkward values, so that most of them get past the first token.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from autopark import cli
from autopark.devices import belt_roster
from autopark.model import AutoparkError, GarageConfig
from autopark.report import format_report, parse_report
from autopark.scenario import EVENT_KINDS, parse_scenario, render_scenario
from test_report import SAMPLE

NUMBERS = [
    "0", "1", "-1", "0.5", "0.0005", "3", "6", "4200", "1e3", "1e306", "1e400", "nan",
    "inf", "-0", "99999999999999999999", "1_000", "0x10", "",
]
WORDS = ["v1", "+97455500001", "+1", "car please", "slot:2", "entrance", "exit", "a,b", "é"]
KEYS = sorted(
    {"t", "kind", "config", "floors", "slots_per_floor", "billing_rate_per_minute",
     "battery_capacity_ah", "battery_initial_soc", "irradiance_w_per_m2", "belt_transit_s"}
    | {key for spec in EVENT_KINDS.values() for key in spec.fields}
)

small_text = st.text(max_size=40)
values = st.one_of(st.sampled_from(NUMBERS + WORDS + sorted(EVENT_KINDS)), small_text)
pairs = st.builds(lambda k, v: f"{k}={v}", st.sampled_from(KEYS), values)


def _event_line(t: str, kind: str, field_values: list[str], extra: list[str]) -> str:
    """An event line with the fields its kind needs, each given an awkward value."""
    fields = EVENT_KINDS[kind].fields if kind in EVENT_KINDS else ()
    given_fields = [f"{key}={value}" for key, value in zip(fields, field_values)]
    return " ".join([f"t={t}", f"kind={kind}", *given_fields, *extra])


event_line = st.builds(
    _event_line,
    st.one_of(st.sampled_from(["0", "0.5", "2.25", "60", "1e3", "1e12"]), st.sampled_from(NUMBERS)),
    st.sampled_from(sorted(EVENT_KINDS) + ["teleport"]),
    st.lists(st.sampled_from(NUMBERS + WORDS), min_size=3, max_size=3),
    st.one_of(st.just([]), st.lists(pairs, max_size=1)),
)
grammar_line = st.one_of(
    event_line,
    st.builds(lambda rest: " ".join(["config", *rest]), st.lists(pairs, max_size=3)),
    st.builds(" ".join, st.lists(st.one_of(pairs, values), max_size=5)),
)
# Event lines as ``render_event`` writes them, every value one the grammar
# accepts, so that a scenario of them parses and runs a garage: cars park,
# are asked for by text, pay, and meet faults and changes of light.
PHONES = ["+97455500001", "+97455500002", "1"]
valid_event = st.one_of(
    st.builds(
        "kind=arrival vehicle={} length_mm={} phone={}".format,
        st.sampled_from(["v1", "v2", "car-3"]),
        st.integers(1, 6000),
        st.sampled_from(PHONES),
    ),
    st.builds(
        "kind=sms_in phone={} body={}".format,
        st.sampled_from(PHONES),
        st.sampled_from(["retrieve", "please bring my car", "é"]),
    ),
    st.builds("kind=payment ticket={}".format, st.integers(1, 4)),
    st.builds("kind=irradiance w_per_m2={}".format, st.sampled_from(["0", "0.5", "250", "1000.0"])),
    st.builds(
        "kind=fault belt={}".format,
        st.sampled_from([str(belt) for belt in belt_roster(GarageConfig().slots_per_floor)]),
    ),
    st.just("kind=fault_cleared"),
)
garage_text = st.lists(st.tuples(st.integers(0, 600), valid_event), min_size=1, max_size=6).map(
    lambda timed: "\n".join(f"t={t} {line}" for t, line in sorted(timed))
)
scenario_text = st.one_of(
    small_text,
    st.builds("\n".join, st.lists(event_line, max_size=6)),
    st.builds("\n".join, st.lists(st.one_of(grammar_line, small_text), max_size=6)),
    garage_text,
)


def _bounded(text: str) -> bool:
    """No garage larger than 10x10: a fuzzed config could otherwise ask for a
    grid so large that the run would take minutes."""
    for token in text.split():
        key, _, value = token.partition("=")
        if key in ("floors", "slots_per_floor"):
            try:
                if float(value) > 10:
                    return False
            except ValueError:
                pass
    return True


@settings(max_examples=150, deadline=None)
@given(scenario_text)
def test_parse_scenario_raises_only_its_errors_and_round_trips(text):
    try:
        scenario = parse_scenario(text)
    except AutoparkError:
        return
    assert parse_scenario(render_scenario(scenario)) == scenario


def _mutated(document: str):
    """A report with lines dropped, duplicated or spliced with awkward text."""
    lines = document.splitlines()
    edit = st.tuples(
        st.integers(0, len(lines) - 1),
        st.sampled_from(["drop", "copy", "splice"]),
        st.integers(0, 80),
        st.one_of(st.sampled_from(NUMBERS + WORDS + [",", "=", '"', "{}", "null"]), small_text),
    )

    def apply(edits):
        out = list(lines)
        for index, how, at, text in edits:
            index %= len(out) or 1
            if not out:
                break
            if how == "drop":
                del out[index]
            elif how == "copy":
                out.insert(index, out[index])
            else:
                out[index] = out[index][:at] + text + out[index][at + len(text):]
        return "\n".join(out) + "\n"

    return st.builds(apply, st.lists(edit, min_size=1, max_size=3))


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_parse_report_raises_only_its_errors_and_round_trips(fmt, data):
    text = data.draw(st.one_of(small_text, _mutated(format_report(SAMPLE, fmt))))
    try:
        report = parse_report(text, fmt)
    except AutoparkError:
        return
    assert parse_report(format_report(report, fmt), fmt) == report


def _main(argv: list[str], stdin: str = "", env: dict | None = None) -> int:
    """The CLI's exit status, with its output swallowed; argparse's own exit
    for a bad command line counts as one too. No input may give an invariant
    violation, so its exit 2 is not one of the clean ones."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), mock.patch.object(
        sys, "stdin", io.StringIO(stdin)
    ), mock.patch.dict(os.environ, env or {}):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "invariant violation" not in sink.getvalue()
    return code


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.one_of(scenario_text.filter(_bounded).map(str.encode), st.binary(max_size=40)))
def test_cli_run_exits_cleanly_on_any_file(tmp_path, data):
    path = tmp_path / "fuzz.scn"
    path.write_bytes(data)
    assert _main(["run", str(path), "--report", "csv"]) in (0, 1)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.one_of(st.none(), st.sampled_from(NUMBERS + WORDS), small_text),
    env=st.one_of(st.sampled_from(NUMBERS + WORDS), small_text.filter(lambda s: "\0" not in s)),
    count=st.integers(-1, 1),
)
def test_cli_check_exits_cleanly_on_any_seed(seed, env, count):
    argv = ["check", "--count", str(count)] + ([] if seed is None else [f"--seed={seed}"])
    assert _main(argv, env={"AUTOPARK_SEED": env}) in (0, 1)


console_line = st.one_of(
    grammar_line.filter(_bounded),
    st.builds(
        lambda word, arg: f"{word} {arg}",
        st.sampled_from(["tick", "trace", "report", "state", "run", "help"]),
        st.one_of(st.sampled_from(NUMBERS + ["csv", "json-lines", "table"]), small_text),
    ),
    small_text.filter(lambda s: s.strip() not in ("quit", "exit")),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(console_line, max_size=8))
def test_console_survives_any_input(lines):
    assert _main(["repl"], stdin="\n".join(lines) + "\n") == 0
