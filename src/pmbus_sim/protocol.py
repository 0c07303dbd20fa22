"""Byte-level PMBus/I2C protocol model.

Frames are modeled at transaction granularity: the 9-bit segment ACK
handshake of the physical bus is handled below this layer, so a frame is
just the shifted address byte, the command byte and the payload bytes.
``encode_frame`` and ``decode_frame`` are exact inverses, and decoding goes
through ``ipmi_frame``, the one frame decoder.

A ``Transaction`` is immutable and validated once, when it is built, and
renders its transcript text (``Transaction.line``) on first use only.
``ipmi_frame`` interns the transaction of each ipmitool-style
``(addr_byte, data)`` frame, so a campaign that sends the same few frames
thousands of times validates and renders each of them once.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .errors import InvalidAddress, InvalidFrame, OutOfRange, TruncatedFrame

ADDR_MIN = 0x08
ADDR_MAX = 0x77


class Direction(enum.Enum):
    WRITE = 0
    READ = 1


class Origin(enum.Enum):
    STANDARD = "standard"
    MANUFACTURER = "manufacturer"


class Access(enum.Enum):
    READ = "r"
    WRITE = "w"
    READ_WRITE = "rw"


# Command codes used throughout the simulator.
CMD_PAGE = 0x00
CMD_OPERATION = 0x01
CMD_ON_OFF_CONFIG = 0x02
CMD_VOUT_COMMAND = 0x21
CMD_READ_VOUT = 0x8B
CMD_READ_TEMPERATURE = 0x8D
CMD_ISL_DEVICE_ID = 0xAD
CMD_SVID_VENDOR_PRODUCT_ID = 0xBF
CMD_MFR_ADDR_PMBUS = 0xE1
CMD_MFR_VR_CONFIG = 0xE4
CMD_MFR_OCP_TOTAL_SET = 0xEE
CMD_MFR_PWD_USER = 0xF0

# MFR_VR_CONFIG bits.
VR_CONFIG_FIX_MODE = 1 << 3
VR_CONFIG_VID_STEP_SEL = 1 << 8

# OPERATION bits.
OPERATION_PMBUS_OVERRIDE = 1 << 1
OPERATION_ON = 1 << 7

# ON_OFF_CONFIG bit: output enable follows the OPERATION register only.
ON_OFF_CONFIG_OPERATION_SOURCE = 1 << 3


@dataclass(frozen=True)
class CommandDescriptor:
    code: int
    name: str
    origin: Origin
    data_len: int
    access: Access


_REGISTRY: dict[int, CommandDescriptor] = {
    d.code: d
    for d in [
        CommandDescriptor(CMD_PAGE, "PAGE", Origin.STANDARD, 1, Access.READ_WRITE),
        CommandDescriptor(CMD_OPERATION, "OPERATION", Origin.STANDARD, 1, Access.READ_WRITE),
        CommandDescriptor(CMD_ON_OFF_CONFIG, "ON_OFF_CONFIG", Origin.STANDARD, 1, Access.READ_WRITE),
        CommandDescriptor(CMD_VOUT_COMMAND, "VOUT_COMMAND", Origin.STANDARD, 2, Access.READ_WRITE),
        CommandDescriptor(CMD_READ_VOUT, "READ_VOUT", Origin.STANDARD, 2, Access.READ),
        CommandDescriptor(CMD_READ_TEMPERATURE, "READ_TEMPERATURE", Origin.STANDARD, 2, Access.READ),
        CommandDescriptor(CMD_ISL_DEVICE_ID, "ISL_DEVICE_ID", Origin.MANUFACTURER, 4, Access.READ),
        CommandDescriptor(CMD_SVID_VENDOR_PRODUCT_ID, "SVID_VENDOR_PRODUCT_ID", Origin.MANUFACTURER, 2, Access.READ),
        CommandDescriptor(CMD_MFR_ADDR_PMBUS, "MFR_ADDR_PMBUS", Origin.MANUFACTURER, 1, Access.READ),
        CommandDescriptor(CMD_MFR_VR_CONFIG, "MFR_VR_CONFIG", Origin.MANUFACTURER, 2, Access.READ_WRITE),
        CommandDescriptor(CMD_MFR_OCP_TOTAL_SET, "MFR_OCP_TOTAL_SET", Origin.MANUFACTURER, 2, Access.READ_WRITE),
        CommandDescriptor(CMD_MFR_PWD_USER, "MFR_PWD_USER", Origin.MANUFACTURER, 2, Access.READ_WRITE),
    ]
}


def command_info(code: int) -> CommandDescriptor | None:
    """Look up a command descriptor; None means unknown (still forwardable)."""
    return _REGISTRY.get(code)


def encode_value(command: int, value: int) -> bytes:
    """Little-endian payload for a registered command, sized from the registry."""
    return value.to_bytes(_REGISTRY[command].data_len, "little")


@dataclass(frozen=True)
class Transaction:
    """One PMBus exchange: address, direction, command and write payload."""

    address: int
    direction: Direction
    command: int
    payload: bytes = b""

    def __post_init__(self):
        if type(self.payload) is not bytes:
            raise InvalidFrame(f"payload must be bytes, not {type(self.payload).__name__}")
        if not ADDR_MIN <= self.address <= ADDR_MAX:
            raise InvalidAddress(f"address 0x{self.address:02X} outside 0x08..0x77")
        if not 0 <= self.command <= 0xFF:
            raise InvalidFrame(f"command 0x{self.command:X} not a byte")
        if len(self.payload) > 4:
            raise InvalidFrame("payload longer than 4 bytes")
        desc = command_info(self.command)
        if desc is not None and self.direction is Direction.WRITE and self.payload:
            if len(self.payload) != desc.data_len:
                raise InvalidFrame(
                    f"{desc.name} expects {desc.data_len} data byte(s), got {len(self.payload)}"
                )

    @property
    def is_write(self) -> bool:
        return self.direction is Direction.WRITE

    @functools.cached_property
    def line(self) -> str:
        """Log/transcript form, e.g. `W 0x20 0x21 [6E 00]`, rendered on first use."""
        tag = "W" if self.is_write else "R"
        return f"{tag} 0x{self.address:02X} 0x{self.command:02X} [{self.payload.hex(' ').upper()}]"

    def text(self) -> str:
        """Log/transcript form, e.g. `W 0x20 0x21 [6E 00]`."""
        return self.line


@functools.lru_cache(maxsize=1024)
def ipmi_frame(addr_byte: int, data: bytes) -> Transaction:
    """The validated transaction of an ipmitool-style frame, shared by equal frames.

    ``addr_byte`` is an ``int`` carrying ``(address << 1) | rw`` and ``data``,
    the command byte then any payload, is non-empty ``bytes``, as both callers
    check first. An invalid frame raises on every call: exceptions are not cached.
    """
    direction = Direction.READ if addr_byte & 1 else Direction.WRITE
    return Transaction(addr_byte >> 1, direction, data[0], data[1:])


def encode_frame(t: Transaction) -> bytes:
    """Encode to wire bytes: (addr<<1)|rw, command, then the payload."""
    return bytes([(t.address << 1) | t.direction.value, t.command]) + t.payload


def decode_frame(data: bytes) -> Transaction:
    """Inverse of encode_frame: ``ipmi_frame``, as ``Bmc.ipmi_i2c`` runs it, on a checked frame."""
    if type(data) is not bytes:
        raise InvalidFrame(f"frame must be bytes, not {type(data).__name__}")
    if len(data) < 2:
        raise TruncatedFrame(f"frame of {len(data)} byte(s)")
    return ipmi_frame(data[0], data[1:])


VID_BASE_MV = 300  # voltage of VID 1; VID 0 means the rail is off


@dataclass(frozen=True)
class VidCodec:
    """8-bit VID to millivolt map: VID 0 is off, then VID_BASE_MV + (vid-1)*step."""

    step_mv: int = 5

    def voltage(self, vid: int) -> int:
        if not 0 <= vid <= 0xFF:
            raise OutOfRange(f"VID {vid:#x} not a byte")
        if vid == 0:
            return 0
        return VID_BASE_MV + (vid - 1) * self.step_mv

    def vid_for(self, mv: int) -> int:
        """Nearest VID for a target voltage; ties round to the lower VID."""
        if mv < 0 or mv > self.voltage(0xFF):
            raise OutOfRange(f"{mv} mV outside 0..{self.voltage(0xFF)} mV")
        if mv < VID_BASE_MV:
            # Closer to off than to the lowest table entry?
            return 0 if mv * 2 <= VID_BASE_MV else 1
        vid = 1 + (mv - VID_BASE_MV) // self.step_mv
        rem = (mv - VID_BASE_MV) % self.step_mv
        if rem * 2 > self.step_mv and vid < 0xFF:
            vid += 1
        return vid


CODEC_5MV = VidCodec(step_mv=5)
CODEC_10MV = VidCodec(step_mv=10)
