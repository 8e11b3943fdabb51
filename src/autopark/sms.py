"""GSM text-mode SMS: command codec, modem emulator, and gateway.

The controller talks to a modem over a line-oriented serial protocol. This
module renders commands to their exact wire form, parses modem responses
back, and emulates the modem so the full exchange (register, text mode,
submit, notify, read, delete) runs inside the simulation. Every byte that
crosses the serial link is logged so the exchanges can be golden-tested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    AutoparkError,
    MS_PER_SECOND,
    ParkingTicket,
    billed_minutes,
    is_valid_phone,
)

CTRL_Z = "\x1a"
MAX_BODY_CHARS = 160


class InvalidNumberError(AutoparkError):
    """Destination is not a valid phone number."""


class UnparseableLineError(AutoparkError):
    """The modem sent a line outside the understood grammar."""

    def __init__(self, line: str):
        super().__init__(f"unparseable modem line: {line!r}")
        self.line = line


class NotRegisteredError(AutoparkError):
    """The gateway was used before network registration and text mode."""


class BodyTooLongError(AutoparkError):
    """Message body exceeds one SMS."""


class ModemError(AutoparkError):
    """The modem answered ERROR (or junk) mid-exchange."""


class MissingFieldError(AutoparkError):
    """The ticket lacks a field the message template needs."""


# -- command codec -------------------------------------------------------------


@dataclass(frozen=True)
class RegisterNetwork:
    pass


@dataclass(frozen=True)
class SetTextMode:
    pass


@dataclass(frozen=True)
class SendMessage:
    number: str


@dataclass(frozen=True)
class ReadInbox:
    pass


@dataclass(frozen=True)
class DeleteMessage:
    index: int


AtCommand = RegisterNetwork | SetTextMode | SendMessage | ReadInbox | DeleteMessage


def render_at(command: AtCommand) -> str:
    """Exact wire form of a command, carriage return included."""
    if isinstance(command, RegisterNetwork):
        return "AT+CREG=1\r"
    if isinstance(command, SetTextMode):
        return "AT+CMGF=1\r"
    if isinstance(command, SendMessage):
        if not is_valid_phone(command.number):
            raise InvalidNumberError(f"bad destination: {command.number!r}")
        return f'AT+CMGS="{command.number}"\r'
    if isinstance(command, ReadInbox):
        return 'AT+CMGL="REC UNREAD"\r'
    if isinstance(command, DeleteMessage):
        return f"AT+CMGD={command.index}\r"
    raise TypeError(f"not an AT command: {command!r}")


@dataclass(frozen=True)
class Ok:
    pass


@dataclass(frozen=True)
class Error:
    pass


@dataclass(frozen=True)
class Prompt:
    pass


@dataclass(frozen=True)
class MessageRef:
    ref: int


@dataclass(frozen=True)
class InboxEntry:
    index: int
    number: str
    timestamp_ms: int
    body: str


@dataclass(frozen=True)
class NewMessageNotice:
    index: int


ModemResponse = Ok | Error | Prompt | MessageRef | InboxEntry | NewMessageNotice

_CMGS_RE = re.compile(r"^\+CMGS: (\d+)$")
_CMTI_RE = re.compile(r'^\+CMTI: "SM",(\d+)$')
_CMGL_RE = re.compile(r'^\+CMGL: (\d+),"REC UNREAD","([^"]+)",,"(\d+)"$')


def parse_modem_line(line: str) -> ModemResponse:
    """Parse one response line; inbox entry bodies arrive on the next line."""
    text = line.rstrip("\r")
    if text == "OK":
        return Ok()
    if text == "ERROR":
        return Error()
    if text == ">":
        return Prompt()
    if match := _CMGS_RE.match(text):
        return MessageRef(int(match.group(1)))
    if match := _CMTI_RE.match(text):
        return NewMessageNotice(int(match.group(1)))
    if match := _CMGL_RE.match(text):
        return InboxEntry(int(match.group(1)), match.group(2), int(match.group(3)), "")
    raise UnparseableLineError(line)


# -- modem emulation -----------------------------------------------------------


@dataclass(frozen=True)
class SmsMessage:
    number: str
    body: str
    at_ms: int

    def __post_init__(self) -> None:
        if len(self.body) > MAX_BODY_CHARS:
            raise BodyTooLongError(f"{len(self.body)} chars exceeds {MAX_BODY_CHARS}")


def _printable(line: str) -> str:
    return line.rstrip("\r").replace(CTRL_Z, "<CTRL-Z>")


class SmsModem:
    """Emulated GSM modem: line-in, lines-out, with a byte-exact log.

    Log lines are prefixed '>>' toward the modem and '<<' back from it; the
    message terminator byte is rendered as <CTRL-Z>.
    """

    def __init__(self):
        self.registered = False
        self.text_mode = False
        self.log: list[str] = []
        self.storage: dict[int, SmsMessage] = {}
        self._next_ref = 1
        self._next_index = 1
        self._awaiting_body = False

    def exchange(self, line: str) -> list[str]:
        """Feed one line (command, or message body after the prompt)."""
        self.log.append(f">> {_printable(line)}")
        if self._awaiting_body:
            responses = self._finish_send(line)
        else:
            responses = self._respond(line.rstrip("\r"))
        self.log.extend(f"<< {_printable(r)}" for r in responses)
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
        if re.match(r'^AT\+CMGS="[^"]*"$', command):
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
        if match := re.match(r"^AT\+CMGD=(\d+)$", command):
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


class SmsGateway:
    """What the controller holds: registration, sending, and inbox polling."""

    def __init__(self, modem: SmsModem | None = None):
        self.modem = modem if modem is not None else SmsModem()
        self._ready = False

    @property
    def log(self) -> list[str]:
        return self.modem.log

    def initialize(self) -> None:
        """Register on the network and switch to text mode."""
        for command in (RegisterNetwork(), SetTextMode()):
            responses = self._run(render_at(command))
            if not responses or not isinstance(responses[-1], Ok):
                raise ModemError(f"initialization failed on {command!r}")
        self._ready = True

    def send_sms(self, number: str, body: str) -> int:
        """Run the full submit exchange; returns the modem's message ref."""
        if not self._ready:
            raise NotRegisteredError("gateway is not initialized")
        if len(body) > MAX_BODY_CHARS:
            raise BodyTooLongError(f"{len(body)} chars exceeds {MAX_BODY_CHARS}")
        responses = self._run(render_at(SendMessage(number)))
        if len(responses) != 1 or not isinstance(responses[0], Prompt):
            raise ModemError(f"expected send prompt, got {responses!r}")
        responses = self._run(body + CTRL_Z)
        if (
            len(responses) != 2
            or not isinstance(responses[0], MessageRef)
            or not isinstance(responses[1], Ok)
        ):
            raise ModemError(f"submit failed: {responses!r}")
        return responses[0].ref

    def poll_inbox(self) -> list[SmsMessage]:
        """Read and delete every pending inbound message, in arrival order."""
        if not self._ready:
            raise NotRegisteredError("gateway is not initialized")
        raw = self.modem.exchange(render_at(ReadInbox()))
        entries: list[InboxEntry] = []
        i = 0
        while i < len(raw):
            parsed = parse_modem_line(raw[i])
            if isinstance(parsed, Ok):
                break
            if isinstance(parsed, Error):
                raise ModemError("inbox read failed")
            if not isinstance(parsed, InboxEntry):
                raise ModemError(f"unexpected inbox line: {raw[i]!r}")
            if i + 1 >= len(raw):
                raise ModemError("inbox entry missing its body line")
            entries.append(
                InboxEntry(parsed.index, parsed.number, parsed.timestamp_ms, raw[i + 1])
            )
            i += 2
        for entry in entries:
            responses = self._run(render_at(DeleteMessage(entry.index)))
            if not responses or not isinstance(responses[-1], Ok):
                raise ModemError(f"failed to delete message {entry.index}")
        return [SmsMessage(e.number, e.body, e.timestamp_ms) for e in entries]

    def _run(self, line: str) -> list[ModemResponse]:
        try:
            return [parse_modem_line(r) for r in self.modem.exchange(line)]
        except UnparseableLineError as exc:
            raise ModemError(str(exc)) from exc


# -- message templates ----------------------------------------------------------


def clock_hms(t_ms: int) -> str:
    """Render a simulation timestamp as a wall clock time of day."""
    seconds = t_ms // MS_PER_SECOND
    return f"{seconds // 3600 % 24:02d}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"


def compose_message(kind: str, ticket: ParkingTicket) -> str:
    """Render the customer-facing body for a welcome or bill message."""
    if kind == "welcome":
        if ticket.entry_ms is None:
            raise MissingFieldError("welcome message needs an entry time")
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
