"""Command-line behavior: run, check, repl, and exit codes."""

import io

import pytest

from autopark import cli
from autopark.controller import InvariantViolationError
from autopark.model import AutoparkError
from autopark.report import CSV_HEADER, parse_report

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


def test_run_no_check_still_reports(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file), "--no-check"]) == 0
    assert "car-1" in capsys.readouterr().out


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


def test_check_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("AUTOPARK_SEED", "31")
    assert cli.main(["check", "--count", "2"]) == 0
    assert "from seed 31" in capsys.readouterr().out


def test_check_bad_seed_env_is_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("AUTOPARK_SEED", "abc")
    assert cli.main(["check", "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: AUTOPARK_SEED is not an integer: 'abc'\n"


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
