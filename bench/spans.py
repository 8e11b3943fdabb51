"""Span recording for the traced pass, from outside the package.

Wrappers sit on public seams: the engine hooks of one ``Simulation``, the
``GarageController`` entry points, the SMS gateway and modem, the device
motion starters and completions, and ``PowerSystem.advance``. Each call
becomes one span (name, start, end, parent); self time is a span minus its
direct children. Nothing in ``src/autopark`` is edited: class attributes are
swapped for the traced pass only and restored afterwards.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from autopark.controller import GarageController
from autopark.devices import DeviceFleet
from autopark.power import PowerSystem
from autopark.sms import SmsGateway, SmsModem

# (class, method, span name). Fault handlers are left out: they are rare, cheap
# and only the corpus has them.
CLASS_SEAMS = (
    (GarageController, "handle_arrival", "controller.arrival"),
    (GarageController, "on_inbound_sms", "controller.sms_in"),
    (GarageController, "handle_payment", "controller.payment"),
    (GarageController, "on_device_done", "controller.device_done"),
    (SmsGateway, "send_sms", "sms.send"),
    (SmsGateway, "poll_inbox", "sms.poll"),
    (SmsModem, "receive", "sms.receive"),
    (DeviceFleet, "belt_start_convey", "devices.motion"),
    (DeviceFleet, "elevator_goto_floor", "devices.motion"),
    (DeviceFleet, "platform_rotate_to_slot", "devices.motion"),
    (DeviceFleet, "gate_actuate", "devices.motion"),
    (DeviceFleet, "complete_action", "devices.complete"),
    (PowerSystem, "advance", "power.advance"),
)


class Tracer:
    """Spans kept in memory, plus counts taken from the traced calls' results."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if name == "devices.motion" and result.duration_ms == 0:
                counts["devices.zero_motions"] += 1
            elif name == "sms.poll" and result:
                counts["sms.useful_polls"] += 1
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call of the benchmark's own as a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self):
        """Trace every class seam for the duration of the block."""
        saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in CLASS_SEAMS]
        try:
            for cls, attr, name in CLASS_SEAMS:
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
            yield self
        finally:
            for cls, attr, original in saved:
                setattr(cls, attr, original)

    def trace_session(self, session) -> None:
        """Trace the engine hooks of one ``GarageSession``'s simulation."""
        sim = session.sim
        sim.handler = self.wrap("scenario.handle", sim.handler)
        sim.advance = self.wrap("scenario.advance", sim.advance)
        if sim.check is not None:
            sim.check = self.wrap("controller.check", sim.check)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called ``name``, in call order."""
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), children in zip(self.spans, child_s):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        """Spans as CSV: name, start and duration in microseconds, parent row."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_us,dur_us,parent\n")
            for name, start, end, parent in self.spans:
                out.write(
                    f"{name},{(start - origin) * 1e6:.1f},{(end - start) * 1e6:.1f},{parent}\n"
                )
