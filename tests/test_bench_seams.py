"""What the benchmark's traced pass reads of the package, kept working.

``bench/spans.py`` wraps class methods looked up in each class's own
``__dict__``, wraps a session's engine hooks, and the traced round reads the
power ticks, the modem log and every trace line. A change that moves one of
these, or breaks reading a packed history, fails here rather than only in a
``--trace 1`` benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from autopark import GarageSession, random_scenario, run_scenario
from autopark.engine import PackedList

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
    assert all(type(line) is str for line in lines)
    assert lines == list(run_scenario(scenario).trace)
