"""BMC management surfaces: LAN/KCS channels, firmware upgrade, IPMI I2C.

X11-generation policy accepts any firmware image whose magic and CRCs
check out; X12 additionally requires a valid RSA signature and filters
IPMI I2C writes aimed at VRM addresses. A root shell (obtained by
installing a firmware image whose SMASH shell was swapped for /bin/sh)
unlocks raw bus mastering that bypasses the IPMI-level filter.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import firmware as fw
from .errors import (
    AuthFailure,
    FilteredByPolicy,
    FirmwareError,
    NoRootShell,
    Unauthorized,
)
from .fabric import BusReply
from .profiles import BmcSpec
from .protocol import Direction, Transaction

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric import rsa


class ChannelKind(enum.Enum):
    LAN = "lan"
    KCS = "kcs"


@dataclass
class Channel:
    kind: ChannelKind
    authenticated: bool = False
    host_root: bool = False


@dataclass(frozen=True)
class UpgradeResult:
    accepted: bool
    reason: str | None = None  # Unauthorized | BadCrc | BadSignature | a FirmwareError class name


class Bmc:
    def __init__(
        self,
        transfer: Callable[[int, Transaction], BusReply],
        spec: BmcSpec,
        firmware_key: fw.KeyMaterial,
        vrm_addresses: frozenset[int],
        signing_pubkey: rsa.RSAPublicKey | None = None,
    ):
        if spec.x12_policy and signing_pubkey is None:
            raise ValueError("X12 BMC requires the vendor signing public key")
        self.transfer = transfer  # the platform's write path, which settles the rail
        self.spec = spec
        self.firmware_key = firmware_key
        self.vrm_addresses = frozenset(vrm_addresses)
        self.signing_pubkey = signing_pubkey
        self.installed_digest: str | None = None
        self.root_shell = False

    # -- channels ----------------------------------------------------------------

    def authenticate(self, channel: Channel, user: str, password: str) -> Channel:
        if channel.kind is not ChannelKind.LAN:
            raise ValueError("only LAN channels authenticate with credentials")
        if self.spec.credentials.get(user) != password:
            raise AuthFailure(user)
        channel.authenticated = True
        return channel

    def _authorized(self, channel: Channel) -> bool:
        if channel.kind is ChannelKind.LAN:
            return channel.authenticated
        return channel.host_root

    # -- firmware ----------------------------------------------------------------

    def upgrade_firmware(self, channel: Channel, package_bytes: bytes) -> UpgradeResult:
        if not self._authorized(channel):
            return UpgradeResult(False, "Unauthorized")
        x12 = self.spec.x12_policy
        try:
            pkg = fw.parse_package(package_bytes, self.firmware_key)
            report = fw.verify(pkg, self.signing_pubkey if x12 else None)
            if not all(report.section_crc.values()) or not report.half_crc_ok:
                return UpgradeResult(False, "BadCrc")
            if x12 and report.signature != "pass":
                return UpgradeResult(False, "BadSignature")
            root_shell = fw.has_root_shell(pkg, self.firmware_key)
        except FirmwareError as exc:
            return UpgradeResult(False, type(exc).__name__)
        # commit only once the whole image, rootfs included, has parsed
        self.installed_digest = pkg.digest
        self.root_shell = root_shell
        return UpgradeResult(True)

    # -- I2C surfaces ------------------------------------------------------------

    def ipmi_i2c(self, channel: Channel, bus: int, addr_byte: int, payload: bytes) -> BusReply:
        """ipmitool-style passthrough: addr_byte carries (address<<1)|rw."""
        if not self._authorized(channel):
            raise Unauthorized(f"{channel.kind.value} channel")
        address = addr_byte >> 1
        direction = Direction(addr_byte & 1)
        if not payload:
            raise ValueError("payload must carry at least the command byte")
        if self.spec.x12_policy and direction is Direction.WRITE and address in self.vrm_addresses:
            raise FilteredByPolicy(f"write to VRM 0x{address:02X}")
        return self.transfer(bus, Transaction(address, direction, payload[0], bytes(payload[1:])))

    def raw_master(self, bus: int, t: Transaction) -> BusReply:
        """Direct register-level bus mastering; needs code execution on the BMC."""
        if not self.root_shell:
            raise NoRootShell("install a patched firmware image first")
        return self.transfer(bus, t)
