"""Simulated voltage regulator with MPS-like and Intersil-like behavior.

The MPS profile implements the override ("fix mode") voltage-change
sequence: OPERATION bit 1 plus MFR_VR_CONFIG bit 3 make the output follow
VOUT_COMMAND instead of the SVID request; MFR_VR_CONFIG bit 8 switches the
VID table from 5 mV to 10 mV steps. The Intersil profile keeps its rail
registers on page 1, answers telemetry, and NACKs the MPS-style override
writes, but supports the ON_OFF_CONFIG / OPERATION immediate-off path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import protocol as pm
from .fabric import ACK_REPLY, BusReply, NACK_REPLY, ReplyStatus
from .protocol import CODEC_5MV, CODEC_10MV, Direction, Transaction


class VrmVendor(enum.Enum):
    MPS = "mps"
    INTERSIL = "intersil"


MPS_PRODUCT_ID = 0x2555
ISL_DEVICE_ID = 0x49D28100
PAGE1_VOUT = 0x0001  # static READ_VOUT of the MPS part's secondary rail

# Command sets each vendor profile acknowledges.
_MPS_COMMANDS = {
    pm.CMD_PAGE,
    pm.CMD_OPERATION,
    pm.CMD_VOUT_COMMAND,
    pm.CMD_READ_VOUT,
    pm.CMD_READ_TEMPERATURE,
    pm.CMD_SVID_VENDOR_PRODUCT_ID,
    pm.CMD_MFR_ADDR_PMBUS,
    pm.CMD_MFR_VR_CONFIG,
    pm.CMD_MFR_OCP_TOTAL_SET,
    pm.CMD_MFR_PWD_USER,
}
_INTERSIL_COMMANDS = {
    pm.CMD_PAGE,
    pm.CMD_OPERATION,
    pm.CMD_ON_OFF_CONFIG,
    pm.CMD_READ_VOUT,
    pm.CMD_READ_TEMPERATURE,
    pm.CMD_ISL_DEVICE_ID,
}


@dataclass(frozen=True)
class VrmConfig:
    vendor: VrmVendor = VrmVendor.MPS
    initial_vid: int = 0xD8
    rail_page: int = 0  # page holding the live rail registers
    temperature_raw: int = 0x0019
    ocp_limit_a: int = 100
    passcode: int | None = None


class VrmDevice:
    """Register-file VRM; mutates only on ACKed writes."""

    def __init__(self, config: VrmConfig, address: int):
        self.config = config
        self.address = address  # its placement's, echoed by MFR_ADDR_PMBUS
        self.reset()

    def reset(self) -> None:
        c = self.config
        self.vendor = c.vendor
        self.page = c.rail_page
        self.svid_vid = c.initial_vid
        self.powered = True
        self.ocp_enabled = True
        self.ocp_limit_a = c.ocp_limit_a
        self.passcode = c.passcode
        self.unlocked = c.passcode is None
        self.registers: dict[int, dict[int, int]] = {0: {}, 1: {}}
        rail = self.registers[c.rail_page]
        rail[pm.CMD_OPERATION] = 0x00
        rail[pm.CMD_VOUT_COMMAND] = 0x0000
        if self.vendor is VrmVendor.MPS:
            rail[pm.CMD_MFR_VR_CONFIG] = 0x0000
            rail[pm.CMD_MFR_OCP_TOTAL_SET] = c.ocp_limit_a
            self.registers[1][pm.CMD_READ_VOUT] = PAGE1_VOUT
        else:
            rail[pm.CMD_ON_OFF_CONFIG] = 0x00
            self.registers[0][pm.CMD_READ_VOUT] = 0x0000

    # -- derived state ---------------------------------------------------------

    def _rail(self) -> dict[int, int]:
        return self.registers[self.config.rail_page]

    @staticmethod
    def _overridden(rail: dict[int, int]) -> bool:
        return bool(
            rail.get(pm.CMD_OPERATION, 0) & pm.OPERATION_PMBUS_OVERRIDE
            and rail.get(pm.CMD_MFR_VR_CONFIG, 0) & pm.VR_CONFIG_FIX_MODE
        )

    @property
    def override_active(self) -> bool:
        return self._overridden(self._rail())

    @property
    def active_vid(self) -> int:
        rail = self._rail()
        if self._overridden(rail):
            return rail.get(pm.CMD_VOUT_COMMAND, 0) & 0xFF
        return self.svid_vid

    @property
    def output_mv(self) -> int:
        if not self.powered:
            return 0
        rail = self._rail()
        if self._overridden(rail):
            step_10mv = rail.get(pm.CMD_MFR_VR_CONFIG, 0) & pm.VR_CONFIG_VID_STEP_SEL
            codec = CODEC_10MV if step_10mv else CODEC_5MV
            return codec.voltage(rail.get(pm.CMD_VOUT_COMMAND, 0) & 0xFF)
        # The SVID target is negotiated on the dedicated SVID interface and
        # is not re-scaled by the PMBus VID step selector.
        return CODEC_5MV.voltage(self.svid_vid)

    # -- bus interface ---------------------------------------------------------

    def fingerprint(self) -> object:
        return (
            self.page,
            self.svid_vid,
            self.powered,
            self.ocp_enabled,
            self.ocp_limit_a,
            self.unlocked,
            tuple((p, tuple(sorted(regs.items()))) for p, regs in sorted(self.registers.items())),
        )

    def handle(self, t: Transaction) -> BusReply:
        commands = _MPS_COMMANDS if self.vendor is VrmVendor.MPS else _INTERSIL_COMMANDS
        if t.command not in commands:
            return NACK_REPLY
        if t.direction is Direction.READ:
            return self._read(t.command)
        return self._write(t.command, t.payload)

    def _read(self, code: int) -> BusReply:
        desc = pm.command_info(code)
        if desc is None or desc.access is pm.Access.WRITE:
            return NACK_REPLY
        if code == pm.CMD_PAGE:
            value = self.page
        elif code == pm.CMD_READ_TEMPERATURE:
            value = self.config.temperature_raw
        elif code == pm.CMD_SVID_VENDOR_PRODUCT_ID:
            value = MPS_PRODUCT_ID
        elif code == pm.CMD_ISL_DEVICE_ID:
            value = ISL_DEVICE_ID
        elif code == pm.CMD_MFR_ADDR_PMBUS:
            value = self.address
        elif code == pm.CMD_READ_VOUT and self.page == self.config.rail_page:
            value = self.active_vid if self.powered else 0
        else:
            value = self.registers[self.page].get(code, 0)
        return BusReply(ReplyStatus.ACK, value.to_bytes(desc.data_len, "little"))

    def _write(self, code: int, payload: bytes) -> BusReply:
        desc = pm.command_info(code)
        if desc is None or desc.access is pm.Access.READ:
            return NACK_REPLY
        if len(payload) != desc.data_len:
            return NACK_REPLY
        value = int.from_bytes(payload, "little")

        if code == pm.CMD_MFR_PWD_USER:
            if self.unlocked:
                self.passcode = value or None
                self.unlocked = self.passcode is None
                return ACK_REPLY
            if value == self.passcode:
                self.unlocked = True
                return ACK_REPLY
            return NACK_REPLY

        if desc.origin is pm.Origin.MANUFACTURER and not self.unlocked:
            return NACK_REPLY

        if code == pm.CMD_PAGE:
            if value not in self.registers:
                return NACK_REPLY
            self.page = value
            return ACK_REPLY

        self.registers[self.page][code] = value

        if code == pm.CMD_MFR_OCP_TOTAL_SET and self.page == self.config.rail_page:
            if value == 0:
                self.ocp_enabled = False
            else:
                self.ocp_enabled = True
                self.ocp_limit_a = value

        if self.vendor is VrmVendor.INTERSIL and self.page == self.config.rail_page:
            self._check_immediate_off()
        return ACK_REPLY

    def _check_immediate_off(self) -> None:
        rail = self._rail()
        source_is_on_off = bool(
            rail.get(pm.CMD_ON_OFF_CONFIG, 0) & pm.ON_OFF_CONFIG_OPERATION_SOURCE
        )
        commanded_off = not rail.get(pm.CMD_OPERATION, 0) & pm.OPERATION_ON
        if source_is_on_off and commanded_off:
            self.powered = False

    # -- electrical ------------------------------------------------------------

    def tick(self, load_current_a: float) -> None:
        if self.powered and self.ocp_enabled and load_current_a > self.ocp_limit_a:
            self.powered = False

    def handle_svid_request(self, vid: int) -> None:
        if not 0 <= vid <= 0xFF:
            raise ValueError(f"VID {vid:#x} not a byte")
        self.svid_vid = vid
