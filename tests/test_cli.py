"""Command-line behavior: run, check, repl, and exit codes."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from autopark import cli, scenario
from autopark.controller import InvariantViolationError
from autopark.model import AutoparkError, SlotMatrix
from autopark.report import CSV_HEADER, parse_report
from autopark.scenario import parse_scenario, run_scenario
from test_controller import SHARED_VEHICLE_ID

SCENARIO = (
    "config floors=3 slots_per_floor=6\n"
    "t=5 kind=arrival vehicle=car-1 length_mm=4200 phone=+97455512345\n"
    "t=120 kind=sms_in phone=+97455512345 body=retrieve\n"
    "t=200 kind=payment ticket=1\n"
)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


def test_run_prints_table(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "car-1" in out
    assert "Closed" in out
    assert "max_concurrent_motors: 1" in out


def test_run_csv_parses_back(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file), "--report", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    report = parse_report(out, "csv")
    assert report.rows[0].vehicle_id == "car-1"


def test_run_json_lines(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file), "--report", "json-lines"]) == 0
    report = parse_report(capsys.readouterr().out, "json-lines")
    assert report.rows[0].parked_ms == 34000


def test_run_writes_trace_file(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.log"
    assert cli.main(["run", str(scenario_file), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert any("kind=arrival" in line for line in lines)
    assert any("act=start" in line for line in lines)


@pytest.mark.parametrize("text", [SCENARIO, "config floors=3\n"], ids=["cycle", "no_events"])
def test_run_trace_file_is_the_joined_trace(tmp_path, capsys, text):
    scenario_path = tmp_path / "small.scn"
    scenario_path.write_text(text, encoding="utf-8")
    trace_path = tmp_path / "trace.log"
    assert cli.main(["run", str(scenario_path), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    trace = run_scenario(parse_scenario(text)).trace
    assert trace_path.read_text(encoding="utf-8") == "\n".join(trace) + "\n"


def test_run_no_check_still_reports(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file), "--no-check"]) == 0
    assert "car-1" in capsys.readouterr().out


def test_run_parks_six_cars_on_a_25_slot_garage(tmp_path, capsys):
    """The sixth car turns the platform to slot 5 at 72.0 degrees, a valid
    angle although 72.0 % 14.4 is just under the pitch."""
    arrivals = [
        f"t={5 + 60 * i} kind=arrival vehicle=car-{i} length_mm=4200 phone=+9745551234{i}\n"
        for i in range(6)
    ]
    path = tmp_path / "wide.scn"
    path.write_text("config floors=1 slots_per_floor=25\n" + "".join(arrivals), encoding="utf-8")
    assert cli.main(["run", str(path), "--report", "csv"]) == 0
    report = parse_report(capsys.readouterr().out, "csv")
    assert [row.status for row in report.rows] == ["Parked"] * 6


def test_run_lets_two_cars_share_a_vehicle_id(tmp_path, capsys):
    """The first v1 waits for payment on the exit belt while the second v1
    rides the entrance belt; checked and unchecked runs agree."""
    path = tmp_path / "shared.scn"
    path.write_text(SHARED_VEHICLE_ID, encoding="utf-8")
    digests = []
    for flags in ([], ["--no-check"]):
        trace_path = tmp_path / f"trace{len(digests)}.log"
        argv = ["run", str(path), "--report", "csv", "--trace", str(trace_path), *flags]
        assert cli.main(argv) == 0
        report = capsys.readouterr().out
        trace = trace_path.read_bytes()
        digests.append([hashlib.sha256(data).hexdigest() for data in (trace, report.encode())])
    assert digests[0] == digests[1]
    statuses = [row.status for row in parse_report(report, "csv").rows]
    assert statuses == ["AwaitingPayment", "Parked"]


def test_missing_file_is_exit_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.scn")]) == 1
    assert "error:" in capsys.readouterr().err


def test_undecodable_file_is_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes("t=0 kind=sms_in phone=+1 body=caf\u00e9\n".encode("latin-1"))
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_parse_error_is_exit_1(tmp_path, scenario_file, capsys, monkeypatch):
    bad = tmp_path / "bad.scn"
    bad.write_text("t=0 kind=teleport\n", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err

    # Any other package error, such as the engine's runaway guard, is exit 1 too.
    def runaway(scenario, check=True):
        raise AutoparkError("exceeded 1000000 events; runaway schedule?")

    monkeypatch.setattr(cli, "run_scenario", runaway)
    assert cli.main(["run", str(scenario_file)]) == 1
    assert "error: exceeded 1000000 events" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,retrieval_s",
    [("config billing_rate_per_minute=1e30\n", "120"), ("", "1e300")],
)
def test_bill_too_large_is_exit_1(tmp_path, capsys, config, retrieval_s):
    path = tmp_path / "bill.scn"
    path.write_text(
        config
        + "t=5 kind=arrival vehicle=car-1 length_mm=4200 phone=+97455512345\n"
        + f"t={retrieval_s} kind=sms_in phone=+97455512345 body=retrieve\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: bill at ")


@pytest.mark.parametrize(
    "text,message",
    [
        ("t=1e306 kind=fault_cleared\n", "line 1: 1e+306 s does not fit the millisecond clock"),
        (
            "config belt_transit_s=1e306\n"
            "t=0 kind=arrival vehicle=car-1 length_mm=4200 phone=+97455512345\n",
            "belt_transit_s is too large: a motion of 1e+306 s does not fit the millisecond clock",
        ),
        (
            f"t=100 kind=sms_in phone=+1 body={'x' * 170}\n",
            "line 1: body of 170 chars exceeds 160",
        ),
    ],
)
def test_input_out_of_bounds_is_exit_1_before_the_run(tmp_path, capsys, text, message):
    path = tmp_path / "bounds.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_garage_too_large_to_hold_is_exit_1_before_its_grid(tmp_path, capsys, monkeypatch):
    def refuse(self, floors, slots_per_floor):
        raise AssertionError(f"built a {floors}x{slots_per_floor} grid")

    monkeypatch.setattr(SlotMatrix, "__init__", refuse)
    path = tmp_path / "huge.scn"
    path.write_text(
        "config floors=100000000 slots_per_floor=6\n"
        "t=5 kind=arrival vehicle=car-1 length_mm=4200 phone=+97455512345\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: floors * slots_per_floor must be <= 100000, not 600000000\n"
    )


def test_invariant_violation_is_exit_2(scenario_file, capsys, monkeypatch):
    def explode(scenario, check=True):
        raise InvariantViolationError("forced for the test")

    monkeypatch.setattr(cli, "run_scenario", explode)
    assert cli.main(["run", str(scenario_file)]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_check_small_corpus(capsys):
    assert cli.main(["check", "--seed", "7", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("checked 5 scenarios from seed 7: OK")
    assert "max_motors=2" in out


@pytest.mark.parametrize(
    "error,code,message",
    [
        (InvariantViolationError, 2, "seed 7: invariant violation: boom"),
        (AutoparkError, 1, "seed 7: error: boom"),
    ],
    ids=["invariant_violation", "other_error"],
)
def test_check_names_the_seed_of_a_failure(capsys, monkeypatch, error, code, message):
    """The scan also runs in the generator's dry run, before the checked run:
    a failure there names its seed too."""

    def fail(controller):
        raise error("boom")

    monkeypatch.setattr(scenario, "check_invariants", fail)
    assert cli.main(["check", "--seed", "7", "--count", "2"]) == code
    assert capsys.readouterr().err == message + "\n"


def test_check_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("AUTOPARK_SEED", "31")
    assert cli.main(["check", "--count", "2"]) == 0
    assert "from seed 31" in capsys.readouterr().out


def test_check_bad_seed_env_is_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("AUTOPARK_SEED", "abc")
    assert cli.main(["check", "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: AUTOPARK_SEED is not an integer: 'abc'\n"


@pytest.mark.parametrize("text", ["1_0", "\u0661", " 3 ", "3.0"])
def test_check_seed_env_takes_ascii_integers_only(capsys, monkeypatch, text):
    monkeypatch.setenv("AUTOPARK_SEED", text)
    assert cli.main(["check", "--count", "1"]) == 1
    assert capsys.readouterr().err == f"error: AUTOPARK_SEED is not an integer: {text!r}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run"], "the following arguments are required: scenario"),
        (["check", "--count", "abc"], "argument --count: invalid count value: 'abc'"),
        (["check", "--count", "-3"], "argument --count: invalid count value: '-3'"),
        (["check", "--seed", "1_0"], "argument --seed: invalid integer value: '1_0'"),
        (["check", "--seed", "\u0661"], "argument --seed: invalid integer value: '\u0661'"),
        (["check", "--seed", " 3 "], "argument --seed: invalid integer value: ' 3 '"),
    ],
    ids=["run_without_file", "count_not_a_number", "negative_count", "grouped_seed",
         "arabic_indic_seed", "spaced_seed"],
)
def test_bad_command_line_is_exit_1(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_check_takes_a_signed_seed_and_a_zero_count(capsys):
    assert cli.main(["check", "--seed", "-4", "--count", "0"]) == 0
    assert capsys.readouterr().out.startswith("checked 0 scenarios from seed -4: OK")


def _run_repl(monkeypatch, text, args=None):
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(text))
    return cli.main(["repl"] + (args or []))


def test_repl_schedules_and_reports(capsys, monkeypatch):
    script = (
        "t=0 kind=arrival vehicle=car-9 length_mm=4000 phone=+97455501234\n"
        "tick 40\n"
        "state\n"
        "report csv\n"
        "trace 3\n"
        "quit\n"
    )
    assert _run_repl(monkeypatch, script) == 0
    out = capsys.readouterr().out
    assert "scheduled arrival at t=0.000s" in out
    assert "t=40.000s" in out
    assert "occupied=1" in out
    assert CSV_HEADER in out
    assert "car-9" in out


def test_repl_help_unknown_and_eof(capsys, monkeypatch):
    assert _run_repl(monkeypatch, "help\nwarp 9\n") == 0
    out = capsys.readouterr().out
    assert "commands:" in out
    assert "unknown command: warp" in out


def test_repl_reports_errors_and_continues(capsys, monkeypatch):
    script = (
        "t=0 kind=teleport\ntick abc\nreport bogus\ntrace x\nt=nan kind=fault_cleared\n"
        "t=0 kind=fault_cleared\nrun\ntrace 0\ntrace -1\ntrace 1\nstate\nquit\n"
    )
    assert _run_repl(monkeypatch, script) == 0
    out = capsys.readouterr().out
    assert out.count("error:") == 6
    after_run = out.split("t=0.000s idle\n")[1].splitlines()
    assert after_run[:2] == [
        "error: bad argument to trace: '-1'",
        "t=0 seq=0 kind=fault_cleared detail=-",
    ]
    assert "mode=Normal" in after_run[2]


def test_repl_state_shows_the_halt(capsys, monkeypatch):
    script = "t=0 kind=fault belt=exit\ntick 1\nstate\nt=2 kind=fault_cleared\ntick 2\nstate\n"
    assert _run_repl(monkeypatch, script) == 0
    states = [line for line in capsys.readouterr().out.splitlines() if " mode=" in line]
    assert [line.split()[:2] for line in states] == [
        ["t=1.000s", "mode=Halted"],
        ["t=3.000s", "mode=Normal"],
    ]


def test_repl_refuses_a_hash_in_an_event_value(capsys, monkeypatch):
    """A scenario file would read ``#5 please`` as a comment, so the console
    refuses the line rather than schedule an event no file can hold."""
    script = (
        "t=2 kind=sms_in phone=+1 body=car #5 please\n"
        "t=2 kind=sms_in phone=+1 body=car 5 please\n"
        "run\n"
        "trace 2\n"
    )
    assert _run_repl(monkeypatch, script) == 0
    assert capsys.readouterr().out.splitlines() == [
        "error: line 1: event values cannot contain '#'",
        "scheduled sms_in at t=2.000s",
        "t=2.000s idle",
        "t=2000 seq=0 kind=sms_in detail=phone=+1 body=car 5 please",
        "t=2000 reject=UnknownPhone phone=+1",
    ]


def test_repl_stops_on_an_invariant_violation(capsys, monkeypatch):
    def explode(controller):
        raise InvariantViolationError("forced for the test")

    monkeypatch.setattr(scenario, "check_invariants", explode)
    assert _run_repl(monkeypatch, "t=0 kind=fault_cleared\ntick 1\nstate\n") == 2
    captured = capsys.readouterr()
    assert captured.err == "invariant violation: forced for the test\n"
    assert captured.out == "scheduled fault_cleared at t=0.000s\n"  # no state line


def test_repl_rejects_a_time_past_the_clock(capsys, monkeypatch):
    assert _run_repl(monkeypatch, "t=1e306 kind=fault_cleared\nstate\n") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "error: line 1: 1e+306 s does not fit the millisecond clock"
    assert "pending=0" in out[1]


def test_repl_tick_takes_ascii_numbers_only(capsys, monkeypatch):
    assert _run_repl(monkeypatch, "tick 1_0\ntick \u0663\ntick 2.5\n") == 0
    assert capsys.readouterr().out.splitlines() == [
        "error: bad argument to tick: '1_0'",
        "error: bad argument to tick: '\u0663'",
        "t=2.500s pending=0",
    ]


def test_repl_trace_takes_ascii_numbers_only(capsys, monkeypatch):
    script = (
        "t=0 kind=arrival vehicle=car-9 length_mm=4000 phone=+97455501234\n"
        "tick 40\n"
        "trace 1_0\n"
        "trace \u0661\n"
        "trace 2\n"
    )
    assert _run_repl(monkeypatch, script) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "error: bad argument to trace: '1_0'",
        "error: bad argument to trace: '\u0661'",
        "t=29000 seq=7 kind=device_done detail=device=belt:slot:0 action=7",
        "ticket=1 phase=Parking->Parked t=29000",
    ]


def test_repl_preloads_scenario(scenario_file, capsys, monkeypatch):
    assert _run_repl(monkeypatch, "run\nreport csv\n", ["--scenario", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "idle" in out
    assert "car-1,Closed" in out


def test_entry_exits_with_main_status(scenario_file, monkeypatch):
    monkeypatch.setattr(cli.sys, "argv", ["autopark", "run", str(scenario_file)])
    with pytest.raises(SystemExit) as err:
        cli.entry()
    assert err.value.code == 0


@pytest.mark.parametrize("module", ["autopark", "autopark.cli"])
def test_python_dash_m_runs_the_command_line(module):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", module, "check", "--count", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("checked 1 scenarios")
