"""What the benchmark's traced pass reads of the package, kept working.

``bench/spans.py`` wraps class methods looked up in each class's own
``__dict__``, wraps a session's engine hooks, and the traced round reads the
power ticks, the modem log and every trace line. A change that moves one of
these, or breaks reading a packed history, fails here rather than only in a
``--trace 1`` benchmark run. The last test runs that pass itself on the two
workloads whose history fills a packed chunk.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from autopark import GarageSession, random_scenario, run_scenario
from autopark.controller import EXIT_PLAN, HOMING_PLAN, _parking_plan, _retrieval_plan
from autopark.devices import DeviceFleet
from autopark.engine import PackedList
from autopark.model import SlotAddress

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SEAMS = [(cls, name) for cls, name, _ in spans.CLASS_SEAMS]


@pytest.mark.parametrize("cls,name", SEAMS, ids=[f"{cls.__name__}.{name}" for cls, name in SEAMS])
def test_every_class_seam_is_the_class_own_method(cls, name):
    assert callable(cls.__dict__[name])


def test_every_plan_step_starts_a_traced_motion():
    """A step names its fleet starter, and the controller looks it up on the
    fleet at each start, so the traced pass counts a plan's motions as
    ``devices.motion`` only while every starter a plan names is one that it
    wraps under that span."""
    motions = {
        name
        for cls, name, span in spans.CLASS_SEAMS
        if cls is DeviceFleet and span == "devices.motion"
    }
    slots = [SlotAddress(floor, slot) for floor in range(3) for slot in range(6)]
    plans = [EXIT_PLAN, HOMING_PLAN, *map(_parking_plan, slots), *map(_retrieval_plan, slots)]
    starts = {step.start for plan in plans for step in plan}
    assert starts <= motions
    assert all(callable(DeviceFleet.__dict__[start]) for start in starts)


def test_a_traced_session_with_packed_history_reads_back(monkeypatch):
    """The traced pass on a run whose trace and modem log pack many chunks."""
    chunk = 3
    monkeypatch.setattr(PackedList, "CHUNK", chunk)
    scenario = random_scenario(3, 18)
    tracer = spans.Tracer()
    with tracer.patched():
        session = GarageSession(scenario.config, scenario.settings)
        sim = session.sim
        assert callable(sim.handler) and callable(sim.advance) and callable(sim.check)
        tracer.trace_session(session)
        for event in scenario.events:
            session.schedule(event)
        session.run_until_idle()
    assert tracer.totals()["controller.check"][0] > 0

    assert len(session.power.ticks) == tracer.totals()["power.advance"][0] > 0
    assert len(session.gateway.modem.log) > 3 * chunk
    lines = list(sim.trace)
    assert len(lines) == len(sim.trace) > 3 * chunk
    completions = sum(" kind=device_done " in line for line in lines)
    assert tracer.totals()["devices.complete"][0] == completions > 0
    # The run meets relay refusals: each reaches its starter, which raises
    # rather than returning an action the traced pass could not read.
    starts = sum(" act=start " in line for line in lines)
    assert tracer.totals()["devices.motion"][0] > starts > 0
    assert all(type(line) is str for line in lines)
    assert lines == list(run_scenario(scenario).trace)


@pytest.mark.parametrize("workload", ["big_garage", "churn_day"])
def test_the_traced_pass_exits_0(workload, tmp_path):
    """One round of ``bench/run.py --trace 1``, run from a copy of the
    package, the benchmark and its declaration, so that its result files
    land in the copy and not in the checkout's ``.bench_out/``."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for tree in ("src", "bench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = ["bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0"]
    proc = subprocess.run(
        [sys.executable, *command, "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bench: gate passed" in proc.stdout
