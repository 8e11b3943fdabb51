import pytest

from autopark.model import GarageConfig, SlotAddress, Vehicle, new_garage
from autopark.sms import (
    CTRL_Z,
    MAX_BODY_CHARS,
    BodyTooLongError,
    MissingFieldError,
    ModemError,
    NotRegisteredError,
    SmsGateway,
    SmsModem,
    clock_hms,
    compose_message,
)

NUMBER = "+97455512345"


def make_ticket(entry_ms=5000, exit_ms=None, amount=None):
    garage = new_garage(GarageConfig())
    ticket = garage.issue_ticket(Vehicle("v1", 4200, NUMBER), SlotAddress(0, 0), entry_ms)
    ticket.exit_ms = exit_ms
    ticket.amount_due = amount
    return ticket


# -- modem emulator ---------------------------------------------------------------


def test_modem_requires_setup_before_sending():
    modem = SmsModem()
    assert modem.exchange(f'AT+CMGS="{NUMBER}"\r') == ["ERROR"]
    modem.exchange("AT+CREG=1\r")
    modem.exchange("AT+CMGF=1\r")
    assert modem.exchange(f'AT+CMGS="{NUMBER}"\r') == [">"]
    assert modem.exchange("hello" + CTRL_Z) == ["+CMGS: 1", "OK"]
    assert modem.log[-3] == ">> hello<CTRL-Z>"


def test_message_body_requires_terminator():
    modem = SmsModem()
    modem.exchange("AT+CREG=1\r")
    modem.exchange("AT+CMGF=1\r")
    modem.exchange(f'AT+CMGS="{NUMBER}"\r')
    assert modem.exchange("no terminator") == ["ERROR"]
    assert not any(line.startswith("<< +CMGS") for line in modem.log)


def test_receive_raises_notice_and_lists_unread():
    modem = SmsModem()
    modem.exchange("AT+CREG=1\r")
    modem.exchange("AT+CMGF=1\r")
    index = modem.receive(NUMBER, "my car please", 120000)
    assert index == 1
    assert modem.log[-1] == '<< +CMTI: "SM",1'
    listing = modem.exchange('AT+CMGL="REC UNREAD"\r')
    assert listing == [
        f'+CMGL: 1,"REC UNREAD","{NUMBER}",,"120000"',
        "my car please",
        "OK",
    ]
    assert modem.exchange("AT+CMGD=1\r") == ["OK"]
    assert modem.exchange("AT+CMGD=1\r") == ["ERROR"]


def test_log_renders_terminator_readably():
    modem = SmsModem()
    modem.exchange("AT+CREG=1\r")
    modem.exchange("AT+CMGF=1\r")
    modem.exchange(f'AT+CMGS="{NUMBER}"\r')
    modem.exchange("hi" + CTRL_Z)
    assert ">> hi<CTRL-Z>" in modem.log
    assert all(CTRL_Z not in line for line in modem.log)


# -- gateway -----------------------------------------------------------------------


def test_gateway_send_logs_full_exchange():
    gateway = SmsGateway()
    gateway.initialize()
    ref = gateway.send_sms(NUMBER, "Short and sweet")
    assert ref == 1
    assert list(gateway.log) == [
        ">> AT+CREG=1",
        "<< OK",
        ">> AT+CMGF=1",
        "<< OK",
        f'>> AT+CMGS="{NUMBER}"',
        "<< >",
        ">> Short and sweet<CTRL-Z>",
        "<< +CMGS: 1",
        "<< OK",
    ]


def test_gateway_poll_logs_full_exchange():
    gateway = SmsGateway()
    gateway.initialize()
    gateway.modem.receive(NUMBER, "my car please", 120000)
    assert [m.body for m in gateway.poll_inbox()] == ["my car please"]
    assert gateway.log[4:] == [
        '<< +CMTI: "SM",1',
        '>> AT+CMGL="REC UNREAD"',
        f'<< +CMGL: 1,"REC UNREAD","{NUMBER}",,"120000"',
        "<< my car please",
        "<< OK",
        ">> AT+CMGD=1",
        "<< OK",
    ]


def test_gateway_refuses_until_initialized():
    gateway = SmsGateway()
    with pytest.raises(NotRegisteredError):
        gateway.send_sms(NUMBER, "hi")
    with pytest.raises(NotRegisteredError):
        gateway.poll_inbox()


def test_gateway_enforces_single_sms_length():
    gateway = SmsGateway()
    gateway.initialize()
    gateway.send_sms(NUMBER, "x" * MAX_BODY_CHARS)
    with pytest.raises(BodyTooLongError):
        gateway.send_sms(NUMBER, "x" * (MAX_BODY_CHARS + 1))


def test_poll_drains_inbox_in_arrival_order():
    gateway = SmsGateway()
    gateway.initialize()
    gateway.modem.receive("+111", "first", 1000)
    gateway.modem.receive("+222", "second", 2000)
    messages = gateway.poll_inbox()
    assert [(m.number, m.body, m.at_ms) for m in messages] == [
        ("+111", "first", 1000),
        ("+222", "second", 2000),
    ]
    assert gateway.modem.storage == {}
    assert gateway.poll_inbox() == []


def test_gateway_surfaces_modem_junk_as_modem_error():
    gateway = SmsGateway()
    gateway.initialize()
    gateway.modem._respond = lambda command: ["+BOGUS: 1"]
    with pytest.raises(ModemError):
        gateway.send_sms(NUMBER, "hi")


def test_junk_line_raises_with_the_line_attached():
    gateway = SmsGateway()
    gateway.initialize()
    gateway.modem._respond = lambda command: ["+CSQ: 19,0"]
    with pytest.raises(ModemError, match=r"'\+CSQ: 19,0'"):
        gateway.poll_inbox()


# -- templates ----------------------------------------------------------------------


def test_clock_renders_time_of_day():
    assert clock_hms(5000) == "00:00:05"
    assert clock_hms(120000) == "00:02:00"
    assert clock_hms(3_600_000 + 61_000) == "01:01:01"
    assert clock_hms(25 * 3_600_000) == "01:00:00"


def test_welcome_template():
    ticket = make_ticket(entry_ms=5000)
    assert compose_message("welcome", ticket) == (
        "Parked at 00:00:05. Ticket 1. Reply to this number to retrieve your car."
    )


def test_bill_template():
    from decimal import Decimal

    ticket = make_ticket(entry_ms=5000, exit_ms=120_000, amount=Decimal("0.10"))
    assert compose_message("bill", ticket) == (
        "Retrieved at 00:02:00. Duration 2 min. Due: 0.10."
    )


def test_bill_requires_exit_and_amount():
    with pytest.raises(MissingFieldError):
        compose_message("bill", make_ticket(exit_ms=None))
    with pytest.raises(MissingFieldError):
        compose_message("bill", make_ticket(exit_ms=9000, amount=None))
    with pytest.raises(ValueError):
        compose_message("receipt", make_ticket())


def test_templates_fit_one_sms():
    from decimal import Decimal

    ticket = make_ticket(entry_ms=86_399_000, exit_ms=90_000_000, amount=Decimal("9999.95"))
    assert len(compose_message("welcome", ticket)) <= MAX_BODY_CHARS
    assert len(compose_message("bill", ticket)) <= MAX_BODY_CHARS
