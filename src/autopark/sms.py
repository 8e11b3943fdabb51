"""GSM text-mode SMS: modem emulator and gateway.

The controller talks to a modem over a line-oriented serial protocol. The
gateway writes each AT command in its exact wire form and matches the
modem's reply lines directly; the emulated modem answers them, so the full
exchange (register, text mode, submit, notify, read, delete) runs inside the
simulation. Every byte that crosses the serial link is logged so the
exchanges can be golden-tested.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .engine import PackedList
from .model import MAX_BODY_CHARS, MS_PER_SECOND, AutoparkError, ParkingTicket
from .model import billed_minutes, validated_make

CTRL_Z = "\x1a"


class NotRegisteredError(AutoparkError):
    """The gateway was used before network registration and text mode."""


class BodyTooLongError(AutoparkError):
    """Message body exceeds one SMS."""


class ModemError(AutoparkError):
    """The modem answered ERROR (or junk) mid-exchange."""


class MissingFieldError(AutoparkError):
    """The ticket lacks a field the message template needs."""


# -- modem emulation -----------------------------------------------------------


class SmsMessage(namedtuple("SmsMessage", "number body at_ms")):
    __slots__ = ()

    def __new__(cls, number: str, body: str, at_ms: int) -> SmsMessage:
        if len(body) > MAX_BODY_CHARS:
            raise BodyTooLongError(f"{len(body)} chars exceeds {MAX_BODY_CHARS}")
        return tuple.__new__(cls, (number, body, at_ms))

    _make = classmethod(validated_make)


_SEND_COMMAND_RE = re.compile(r'^AT\+CMGS="[^"]*"$')
_DELETE_COMMAND_RE = re.compile(r"^AT\+CMGD=(\d+)$")


def _printable(line: str) -> str:
    return line.rstrip("\r").replace(CTRL_Z, "<CTRL-Z>")


# The imports sit in the hooks: a log shorter than one chunk never loads
# pickle or zlib.


def _dump_lines(lines: list[str]) -> bytes:
    """A chunk of log lines, pickled and then compressed: the AT exchanges
    repeat the same few commands and replies, so zlib's fastest level takes
    them to a few bytes a line."""
    import pickle
    import zlib

    return zlib.compress(pickle.dumps(lines, pickle.HIGHEST_PROTOCOL), 1)


def _load_lines(data: bytes) -> list[str]:
    import pickle
    import zlib

    return pickle.loads(zlib.decompress(data))


class SmsModem:
    """Emulated GSM modem: line-in, lines-out, with a byte-exact log.

    Log lines are prefixed '>>' toward the modem and '<<' back from it; the
    message terminator byte is rendered as <CTRL-Z>. The log is a
    ``PackedList``: it reads like a list of lines, but holds each finished
    chunk of them pickled and compressed, about 3.5 bytes a line.
    """

    def __init__(self):
        self.registered = False
        self.text_mode = False
        self.log = PackedList(_dump_lines, _load_lines)
        self.storage: dict[int, SmsMessage] = {}
        self._next_ref = 1
        self._next_index = 1
        self._awaiting_body = False

    def exchange(self, line: str) -> list[str]:
        """Feed one line (command, or message body after the prompt)."""
        log = self.log
        log.append(f">> {_printable(line)}")
        if self._awaiting_body:
            responses = self._finish_send(line)
        else:
            responses = self._respond(line.rstrip("\r"))
        for response in responses:
            log.append(f"<< {_printable(response)}")
        return responses

    def receive(self, number: str, body: str, at_ms: int) -> int:
        """A message arrives from the network; the modem raises a notice."""
        index = self._next_index
        self._next_index += 1
        self.storage[index] = SmsMessage(number, body, at_ms)
        self.log.append(f'<< +CMTI: "SM",{index}')
        return index

    def _respond(self, command: str) -> list[str]:
        if command == "AT+CREG=1":
            self.registered = True
            return ["OK"]
        if command == "AT+CMGF=1":
            self.text_mode = True
            return ["OK"]
        if _SEND_COMMAND_RE.match(command):
            if not (self.registered and self.text_mode):
                return ["ERROR"]
            self._awaiting_body = True
            return [">"]
        if command == 'AT+CMGL="REC UNREAD"':
            if not (self.registered and self.text_mode):
                return ["ERROR"]
            lines = []
            for index, message in sorted(self.storage.items()):
                lines.append(
                    f'+CMGL: {index},"REC UNREAD","{message.number}",,"{message.at_ms}"'
                )
                lines.append(message.body)
            lines.append("OK")
            return lines
        if match := _DELETE_COMMAND_RE.match(command):
            index = int(match.group(1))
            if index not in self.storage:
                return ["ERROR"]
            del self.storage[index]
            return ["OK"]
        return ["ERROR"]

    def _finish_send(self, payload: str) -> list[str]:
        self._awaiting_body = False
        if not payload.endswith(CTRL_Z):
            return ["ERROR"]
        ref = self._next_ref
        self._next_ref += 1
        return [f"+CMGS: {ref}", "OK"]


_CMGS_RE = re.compile(r"^\+CMGS: (\d+)$")
_CMGL_RE = re.compile(r'^\+CMGL: (\d+),"REC UNREAD","([^"]+)",,"(\d+)"$')


class SmsGateway:
    """What the controller holds: registration, sending, and inbox polling."""

    def __init__(self, modem: SmsModem | None = None):
        self.modem = modem if modem is not None else SmsModem()
        self._ready = False

    @property
    def log(self) -> PackedList:
        return self.modem.log

    def initialize(self) -> None:
        """Register on the network and switch to text mode."""
        for command in ("AT+CREG=1", "AT+CMGF=1"):
            if self.modem.exchange(command + "\r")[-1:] != ["OK"]:
                raise ModemError(f"initialization failed on {command}")
        self._ready = True

    def send_sms(self, number: str, body: str) -> int:
        """Run the full submit exchange; returns the modem's message ref."""
        if not self._ready:
            raise NotRegisteredError("gateway is not initialized")
        if len(body) > MAX_BODY_CHARS:
            raise BodyTooLongError(f"{len(body)} chars exceeds {MAX_BODY_CHARS}")
        responses = self.modem.exchange(f'AT+CMGS="{number}"\r')
        if responses != [">"]:
            raise ModemError(f"expected send prompt, got {responses!r}")
        responses = self.modem.exchange(body + CTRL_Z)
        if len(responses) == 2 and responses[1] == "OK":
            if match := _CMGS_RE.match(responses[0]):
                return int(match.group(1))
        raise ModemError(f"submit failed: {responses!r}")

    def poll_inbox(self) -> list[SmsMessage]:
        """Read and delete every pending inbound message, in arrival order."""
        if not self._ready:
            raise NotRegisteredError("gateway is not initialized")
        raw = self.modem.exchange('AT+CMGL="REC UNREAD"\r')
        entries: list[tuple[int, SmsMessage]] = []
        i = 0
        while i < len(raw) and raw[i] != "OK":
            if raw[i] == "ERROR":
                raise ModemError("inbox read failed")
            match = _CMGL_RE.match(raw[i])
            if match is None:
                raise ModemError(f"unexpected inbox line: {raw[i]!r}")
            if i + 1 >= len(raw):
                raise ModemError("inbox entry missing its body line")
            index, number, at_ms = match.groups()
            entries.append((int(index), SmsMessage(number, raw[i + 1], int(at_ms))))
            i += 2
        for index, _ in entries:
            if self.modem.exchange(f"AT+CMGD={index}\r")[-1:] != ["OK"]:
                raise ModemError(f"failed to delete message {index}")
        return [message for _, message in entries]


# -- message templates ----------------------------------------------------------


def clock_hms(t_ms: int) -> str:
    """Render a simulation timestamp as a wall clock time of day."""
    seconds = t_ms // MS_PER_SECOND
    return f"{seconds // 3600 % 24:02d}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"


def compose_message(kind: str, ticket: ParkingTicket) -> str:
    """Render the customer-facing body for a welcome or bill message."""
    if kind == "welcome":
        return (
            f"Parked at {clock_hms(ticket.entry_ms)}. Ticket {ticket.ticket_id}. "
            "Reply to this number to retrieve your car."
        )
    if kind == "bill":
        if ticket.exit_ms is None:
            raise MissingFieldError("bill message needs an exit time")
        if ticket.amount_due is None:
            raise MissingFieldError("bill message needs an amount due")
        minutes = billed_minutes(ticket.entry_ms, ticket.exit_ms)
        return (
            f"Retrieved at {clock_hms(ticket.exit_ms)}. "
            f"Duration {minutes} min. Due: {ticket.amount_due}."
        )
    raise ValueError(f"unknown message kind: {kind!r}")
