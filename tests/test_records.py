"""What callers rely on in the package's records: how they compare, order
and validate, and that importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import autopark
from autopark.devices import BeltId
from autopark.engine import (
    Arrival,
    BeltFault,
    FaultCleared,
    InboundSms,
    IrradianceChange,
    PaymentConfirmed,
)
from autopark.model import GarageConfig, SlotAddress, Vehicle
from autopark.scenario import Scenario, ScenarioEvent, SimSettings
from autopark.sms import MAX_BODY_CHARS, BodyTooLongError, SmsMessage

CAR = Vehicle("v1", 4200, "+97455512345")


def test_payloads_of_different_kinds_never_compare_equal():
    assert PaymentConfirmed(1) != IrradianceChange(1.0)
    assert ScenarioEvent(5, PaymentConfirmed(1)) != ScenarioEvent(5, IrradianceChange(1.0))
    assert ScenarioEvent(5, PaymentConfirmed(1)) == ScenarioEvent(5, PaymentConfirmed(1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Arrival(CAR),
        lambda: InboundSms("+97455512345", "retrieve"),
        lambda: PaymentConfirmed(3),
        lambda: IrradianceChange(250.0),
        lambda: BeltFault("slot:2"),
        lambda: FaultCleared(),
    ],
)
def test_equal_payloads_compare_and_hash_equal(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) and repr(first).startswith(type(first).__name__ + "(")


def test_scenarios_differing_in_one_payload_are_unequal():
    def scenario(payload):
        return Scenario(GarageConfig(), SimSettings(), (ScenarioEvent(5, payload),))

    assert scenario(PaymentConfirmed(1)) == scenario(PaymentConfirmed(1))
    assert scenario(PaymentConfirmed(1)) != scenario(IrradianceChange(1.0))


@pytest.mark.parametrize(
    "fields",
    [("", 4000, "+97455512345"), ("a,b", 4000, "+97455512345"), ("v1", 0, "+97455512345")],
)
def test_vehicle_validates_on_construction(fields):
    with pytest.raises(ValueError):
        Vehicle(*fields)
    with pytest.raises(ValueError):
        Vehicle(**dict(zip(("vehicle_id", "length_mm", "phone"), fields)))


def test_sms_message_validates_on_construction():
    SmsMessage("+97455512345", "x" * MAX_BODY_CHARS, 0)
    with pytest.raises(BodyTooLongError):
        SmsMessage("+97455512345", "x" * (MAX_BODY_CHARS + 1), 0)
    with pytest.raises(BodyTooLongError):
        SmsMessage(number="+97455512345", body="x" * (MAX_BODY_CHARS + 1), at_ms=0)


@pytest.mark.parametrize(
    "record, bad, error",
    [
        (CAR, {"length_mm": 0}, ValueError),
        (BeltId("entrance"), {"kind": "nope"}, ValueError),
        (
            SmsMessage("+97455512345", "hi", 0),
            {"body": "x" * (MAX_BODY_CHARS + 1)},
            BodyTooLongError,
        ),
    ],
    ids=["Vehicle", "BeltId", "SmsMessage"],
)
def test_replace_and_make_validate_like_construction(record, bad, error):
    cls = type(record)
    assert cls._make(record) == record and type(cls._make(record)) is cls
    with pytest.raises(error):
        record._replace(**bad)
    with pytest.raises(error):
        cls._make((record._asdict() | bad).values())


def test_slot_addresses_hash_and_compare_by_floor_and_slot():
    assert SlotAddress(0, 5) == SlotAddress(0, 5) != SlotAddress(5, 0)
    assert hash(SlotAddress(2, 3)) == hash(SlotAddress(2, 3))
    assert len({SlotAddress(2, 3), SlotAddress(2, 3), SlotAddress(3, 2)}) == 2


def test_importing_the_package_loads_no_dataclasses_machinery():
    """``dataclasses`` pulls in ``inspect`` and a dozen more modules that
    every short ``autopark`` command would pay to import."""
    src = str(Path(autopark.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import autopark, autopark.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
