"""A stateful model of a garage day: customers who act on what they see.

Every other session test runs a scenario drawn up front. Here a
``hypothesis`` state machine drives one checked ``GarageSession`` on the 3x6
garage: cars arrive, customers text and pay when they choose, belts fault
and clear, the sun changes, and the clock is cut anywhere. Each input is
scheduled 1-5,000 ms after the clock, or at the millisecond the next
pending motion completes, and each fault clears 1-20 s after it. At the end
of the day the faults are cleared, the session runs to idle, and every bill
is paid.

What holds for every such day:
- the invariant scan passes after every event (the session is checked), and
  no motion meets a busy device;
- a fault on a belt the garage lacks is refused when it is scheduled;
- ``run_until_idle`` ends;
- once the day is idle with no fault, before any bill is paid, every
  accepted car is Parked or further along: no customer's unpaid bill
  strands another car on its way in;
- the trace's dispatch records rebuild the inputs, in dispatch order;
- a file run of those inputs makes the same trace once ``seq=`` is
  stripped, also where an input falls on the millisecond of a motion's
  completion, since the engine dispatches inputs first at one millisecond.

Tier-1 draws the same 100 examples on every run, and none of them reaches
the exit-staging wedge (an unpaid car on the exit belt, then a second
retrieval, then an arrival), so tier-1 also plays that day by hand. For a
deeper pass: ``PYTHONPATH=src python tests/test_stateful.py --examples 2000``.
"""

import argparse
import re

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from autopark.devices import EXIT_BELT, Action, belt_roster
from autopark.engine import (
    Arrival,
    BeltFault,
    FaultCleared,
    InboundSms,
    IrradianceChange,
    PaymentConfirmed,
)
from autopark.model import AWAITING_PAYMENT, PARKED, AutoparkError, GarageConfig, TicketPhase
from autopark.model import Vehicle
from autopark.scenario import GarageSession, Scenario, ScenarioEvent, run_scenario
from test_scenario import _input_events

CONFIG = GarageConfig(floors=3, slots_per_floor=6)
PHONES = [f"+9745500000{i}" for i in range(8)]
BELTS = [str(belt) for belt in belt_roster(CONFIG.slots_per_floor)]
LACKING_BELTS = [f"slot:{face}" for face in range(CONFIG.slots_per_floor, 10)]
_SEQ = re.compile(r" seq=\d+")


def _in_phase(session: GarageSession, phase: TicketPhase) -> list[int]:
    return [
        ticket_id for ticket_id, ticket in session.garage.active.items() if ticket.phase is phase
    ]


def _next_completion_ms(session: GarageSession) -> int | None:
    """The millisecond of the first pending motion completion after the clock."""
    clock_ms = session.sim.clock_ms
    due = [
        event.at_ms
        for event in session.sim._heap
        if type(event.payload) is Action and event.at_ms > clock_ms
    ]
    return min(due, default=None)


class GarageDay(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.session = GarageSession(CONFIG, check=True)
        self.inputs: list[ScenarioEvent] = []  # in schedule order
        self.cars = 0

    def _schedule(self, delay_ms: int, payload) -> None:
        event = ScenarioEvent(self.session.sim.clock_ms + delay_ms, payload)
        self.session.schedule(event)
        self.inputs.append(event)

    delays = st.integers(1, 5_000)

    @rule(delay=delays, phone=st.sampled_from(PHONES), length_mm=st.integers(2_000, 6_000))
    def arrive(self, delay, phone, length_mm):
        self.cars += 1
        self._schedule(delay, Arrival(Vehicle(f"v{self.cars}", length_mm, phone)))

    @rule(delay=delays, phone=st.sampled_from(PHONES))
    def text(self, delay, phone):
        self._schedule(delay, InboundSms(phone, "my car please"))

    @precondition(lambda self: _in_phase(self.session, PARKED))
    @rule(delay=delays)
    def fetch_the_first_parked_car(self, delay):
        ticket_id = _in_phase(self.session, PARKED)[0]
        phone = self.session.garage.active[ticket_id].vehicle.phone
        self._schedule(delay, InboundSms(phone, "my car please"))

    @precondition(lambda self: _next_completion_ms(self.session) is not None)
    @rule(phone=st.sampled_from(PHONES))
    def text_as_a_motion_ends(self, phone):
        """A text due at the millisecond the next pending motion completes,
        which a file run schedules before that completion and a reactive run
        after it."""
        delay = _next_completion_ms(self.session) - self.session.sim.clock_ms
        self._schedule(delay, InboundSms(phone, "my car please"))

    @precondition(lambda self: _in_phase(self.session, AWAITING_PAYMENT))
    @rule(delay=delays)
    def pay_the_first_bill(self, delay):
        self._schedule(delay, PaymentConfirmed(_in_phase(self.session, AWAITING_PAYMENT)[0]))

    @rule(delay=delays, ticket_id=st.integers(1, 20))
    def pay_any_ticket(self, delay, ticket_id):
        self._schedule(delay, PaymentConfirmed(ticket_id))

    @rule(delay=delays, belt=st.sampled_from(BELTS + LACKING_BELTS), lasts_s=st.integers(1, 20))
    def fault(self, delay, belt, lasts_s):
        """A belt fault and, ``lasts_s`` later, its clearing. A fault on a
        belt the garage lacks is refused when scheduled, and nothing queued."""
        if belt in LACKING_BELTS:
            session = self.session
            pending = session.sim.pending()
            with pytest.raises(AutoparkError, match=f"no such belt: {belt}$"):
                session.schedule(ScenarioEvent(session.sim.clock_ms + delay, BeltFault(belt)))
            assert session.sim.pending() == pending
            return
        self._schedule(delay, BeltFault(belt))
        self._schedule(delay + 1000 * lasts_s, FaultCleared())

    @rule(delay=delays, w_per_m2=st.floats(0, 1000))
    def sun(self, delay, w_per_m2):
        self._schedule(delay, IrradianceChange(w_per_m2))

    # Whole seconds and a millisecond part, since ``hypothesis`` draws a wide
    # integer range mostly from its low end.
    @rule(s=st.integers(0, 120), ms=st.integers(0, 999))
    def run_for(self, s, ms):
        self.session.run_until(self.session.sim.clock_ms + 1000 * s + ms)

    def teardown(self):
        session = self.session
        last_ms = max([event.t_ms for event in self.inputs], default=0)
        self._schedule(max(1, last_ms + 1 - session.sim.clock_ms), FaultCleared())
        session.run_until_idle()
        assert not session.fleet.faulted
        assert _in_phase(session, TicketPhase.AWAITING_ENTRY) == []
        assert _in_phase(session, TicketPhase.PARKING) == []
        for _ in range(self.cars):  # each round closes at least one ticket
            bills = _in_phase(session, AWAITING_PAYMENT)
            if not bills:
                break
            for ticket_id in bills:
                self._schedule(1, PaymentConfirmed(ticket_id))
            session.run_until_idle()
        assert not _in_phase(session, AWAITING_PAYMENT)

        trace = list(session.sim.trace)
        inputs = sorted(self.inputs, key=lambda event: event.t_ms)
        assert _input_events(session.sim.trace, CONFIG) == tuple(inputs)

        replay = run_scenario(Scenario(CONFIG, session.settings, tuple(inputs)))
        assert [_SEQ.sub("", line) for line in replay.trace] == [
            _SEQ.sub("", line) for line in trace
        ]


def _settings(examples: int) -> settings:
    return settings(
        max_examples=examples, derandomize=True, database=None, deadline=None
    )


GarageDay.TestCase.settings = _settings(100)
TestGarageDay = GarageDay.TestCase


def test_a_day_that_reaches_the_exit_staging_wedge():
    """The machine's rules, called by hand in the wedge's order: car 1 is
    fetched and waits unpaid on the exit belt, then car 2 is fetched, then
    car 3 arrives. Car 2's retrieval must wait holding nothing, so car 3
    parks and the teardown finds no car on its way in."""
    day = GarageDay()
    garage, claims = day.session.garage, day.session.controller.claims
    day.arrive(delay=1, phone=PHONES[0], length_mm=4_200)
    day.arrive(delay=2, phone=PHONES[1], length_mm=4_200)
    day.run_for(s=120, ms=0)
    assert [ticket.phase for ticket in garage.active.values()] == [PARKED, PARKED]
    day.fetch_the_first_parked_car(delay=1)
    day.run_for(s=120, ms=0)
    assert _in_phase(day.session, AWAITING_PAYMENT) == [1]
    assert claims[EXIT_BELT] == 1
    day.fetch_the_first_parked_car(delay=1)
    day.arrive(delay=2, phone=PHONES[2], length_mm=4_200)
    day.teardown()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run the garage-day state machine.")
    parser.add_argument("--examples", type=int, default=1000, help="days to draw")
    args = parser.parse_args()
    run_state_machine_as_test(GarageDay, settings=_settings(args.examples))
    print(f"{args.examples} examples passed")
