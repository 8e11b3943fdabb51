"""Report rendering and lossless parsing for the structured formats."""

from decimal import Decimal

import pytest

from autopark.report import (
    CSV_HEADER,
    Aggregates,
    ReportFormatError,
    ReportRow,
    RunReport,
    format_report,
    parse_report,
)
from autopark.scenario import parse_scenario, run_scenario

SAMPLE = RunReport(
    rows=(
        ReportRow(
            vehicle_id="car-1",
            status="Closed",
            entry_ms=5000,
            parked_ms=34000,
            request_ms=120000,
            ready_ms=145000,
            exit_ms=200000,
            parking_latency_ms=29000,
            retrieval_latency_ms=25000,
            amount=Decimal("0.10"),
        ),
        ReportRow(vehicle_id="lorry", status="rejected:TooLong", entry_ms=7500),
        ReportRow(vehicle_id="car-2", status="Parked", entry_ms=60000, parked_ms=89000,
                  parking_latency_ms=29000),
    ),
    aggregates=Aggregates(
        max_parking_latency_ms=29000,
        max_retrieval_latency_ms=25000,
        occupancy_peak=2,
        pv_wh=0.25,
        grid_wh=0.0,
        load_wh=0.3333333333333333,
        min_soc=0.999,
        max_concurrent_motors=2,
    ),
)


def test_csv_round_trips():
    text = format_report(SAMPLE, "csv")
    assert parse_report(text, "csv") == SAMPLE


def test_json_lines_round_trips():
    text = format_report(SAMPLE, "json-lines")
    assert parse_report(text, "json-lines") == SAMPLE


def test_csv_layout():
    lines = format_report(SAMPLE, "csv").splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == (
        "car-1,Closed,5.000,34.000,120.000,145.000,200.000,29.000,25.000,0.10"
    )
    assert lines[2] == "lorry,rejected:TooLong,7.500,,,,,,,"
    assert lines[-1].startswith("#aggregates max_parking_latency_ms=29000 ")
    assert "min_soc=0.999" in lines[-1]


def test_json_lines_keep_millisecond_integers():
    import json

    lines = format_report(SAMPLE, "json-lines").splitlines()
    first = json.loads(lines[0])
    assert first["entry_ms"] == 5000
    assert first["amount"] == "0.10"
    rejected = json.loads(lines[1])
    assert rejected["parked_ms"] is None
    assert json.loads(lines[-1])["aggregates"]["max_concurrent_motors"] == 2


def test_table_contains_rows_and_aggregates():
    text = format_report(SAMPLE, "table")
    assert "vehicle_id" in text
    assert "rejected:TooLong" in text
    assert "occupancy_peak: 2" in text
    # column alignment: header and first row start at the same columns
    lines = text.splitlines()
    assert lines[0].index("status") == lines[1].index("Closed")


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown report format"):
        format_report(SAMPLE, "yaml")
    with pytest.raises(ValueError, match="unparseable"):
        parse_report("", "table")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nope\n", "header"),
        (CSV_HEADER + "\n", "aggregates trailer"),
        (CSV_HEADER + "\na,b,c\n#aggregates x=1\n", "expected 10 fields"),
        (CSV_HEADER + "\n#aggregates occupancy_peak=1\n", "missing"),
        (CSV_HEADER + "\nv,Parked,abc,,,,,,,\n#aggregates x=1\n", "bad CSV row"),
        (CSV_HEADER + "\n#aggregates occupancy_peak\n", "bad aggregates trailer"),
        # NaN never equals itself, so a report holding it would not parse back equal.
        (CSV_HEADER + "\nv,Closed,1.000,,,,,,,NaN\n#aggregates x=1\n", "bad CSV row"),
        (format_report(SAMPLE, "csv").replace("pv_wh=0.25", "pv_wh=nan"), "bad aggregates"),
    ],
)
def test_csv_parse_errors(text, fragment):
    with pytest.raises(ReportFormatError, match=fragment):
        parse_report(text, "csv")


def test_json_lines_parse_errors():
    with pytest.raises(ReportFormatError, match="bad JSON"):
        parse_report("{not json}\n", "json-lines")
    with pytest.raises(ReportFormatError, match="missing aggregates"):
        parse_report("", "json-lines")
    agg = format_report(SAMPLE, "json-lines").splitlines()[-1]
    with pytest.raises(ReportFormatError, match="duplicate aggregates"):
        parse_report(agg + "\n" + agg + "\n", "json-lines")


@pytest.mark.parametrize(
    "old,new,fragment",
    [('"amount":"0.10"', '"amount":"NaN"', "bad report line"), ("0.25", "NaN", "bad JSON line")],
)
def test_json_lines_nan_rejected(old, new, fragment):
    text = format_report(SAMPLE, "json-lines").replace(old, new)
    with pytest.raises(ReportFormatError, match=fragment):
        parse_report(text, "json-lines")


def test_json_lines_unknown_key_rejected():
    agg = format_report(SAMPLE, "json-lines").splitlines()[-1]
    row = '{"vehicle_id":"v","status":"Parked","wheels":4}'
    with pytest.raises(ReportFormatError, match="bad report line"):
        parse_report(row + "\n" + agg + "\n", "json-lines")


def test_real_run_round_trips_both_formats():
    text = (
        "config floors=3 slots_per_floor=6\n"
        "t=0 kind=arrival vehicle=a length_mm=4000 phone=+97455500001\n"
        "t=1 kind=arrival vehicle=b length_mm=5200 phone=+97455500002\n"
        "t=300 kind=sms_in phone=+97455500001 body=retrieve\n"
    )
    report = run_scenario(parse_scenario(text)).report
    for fmt in ("csv", "json-lines"):
        assert parse_report(format_report(report, fmt), fmt) == report
