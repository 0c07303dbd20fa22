"""BMC management surfaces: LAN/KCS channels, firmware upgrade, IPMI I2C.

The BMC's policy is two facts fixed when the platform is built: the vendor
key an image must be signed with (None on X11, where any image whose magic
and CRCs check out installs) and the VRM addresses whose IPMI I2C writes
are refused (none on X11). A root shell (obtained by installing a firmware
image whose SMASH shell was swapped for /bin/sh) unlocks raw bus mastering
that bypasses the IPMI-level filter.
"""

from __future__ import annotations

import enum
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import firmware as fw
from .errors import (
    AuthFailure,
    FilteredByPolicy,
    FirmwareError,
    InvalidFrame,
    NoRootShell,
    TruncatedFrame,
    Unauthorized,
)
from .fabric import BusReply
from .protocol import Transaction, ipmi_frame

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric import rsa

    from .machine import Platform


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
        platform: weakref.ref[Platform],
        credentials: Mapping[str, str],
        firmware_key: fw.KeyMaterial,
        signing_pubkey: rsa.RSAPublicKey | None,
        filtered_addresses: frozenset[int],
    ):
        # Held weakly, so the board and its BMC form no reference cycle; every
        # bus access goes through ``Platform.transfer``, which settles the rail.
        self.platform = platform
        self.credentials = credentials
        self.firmware_key = firmware_key
        self.signing_pubkey = signing_pubkey  # None: any CRC-valid image installs
        self.filtered_addresses = filtered_addresses  # IPMI I2C writes to these are refused
        self.installed_digest: str | None = None
        self.root_shell = False

    # -- channels ----------------------------------------------------------------

    def authenticate(self, channel: Channel, user: str, password: str) -> Channel:
        if channel.kind is not ChannelKind.LAN:
            raise ValueError("only LAN channels authenticate with credentials")
        if self.credentials.get(user) != password:
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
        try:
            pkg = fw.parse_package(package_bytes, self.firmware_key)
            failure = fw.verify(pkg, self.signing_pubkey).failure
            if failure is not None:
                return UpgradeResult(False, failure)
            root_shell = fw.has_root_shell(pkg, self.firmware_key)
        except FirmwareError as exc:
            return UpgradeResult(False, type(exc).__name__)
        # commit only once the whole image, rootfs included, has parsed
        self.installed_digest = pkg.digest
        self.root_shell = root_shell
        return UpgradeResult(True)

    # -- I2C surfaces ------------------------------------------------------------

    def ipmi_i2c(self, channel: Channel, bus: int, addr_byte: int, payload: bytes) -> BusReply:
        """ipmitool-style passthrough: addr_byte carries (address<<1)|rw.

        ``addr_byte`` is an ``int`` and ``payload``, the command byte then any
        write data, is ``bytes``; any other type raises ``InvalidFrame``.
        """
        if type(addr_byte) is not int or type(payload) is not bytes:
            raise InvalidFrame("a frame is an int address byte and a bytes payload")
        if not self._authorized(channel):
            raise Unauthorized(f"{channel.kind.value} channel")
        if not payload:
            raise TruncatedFrame("payload must carry at least the command byte")
        address = addr_byte >> 1
        if not addr_byte & 1 and address in self.filtered_addresses:
            raise FilteredByPolicy(f"write to VRM 0x{address:02X}")
        return self.platform().transfer("bmc", bus, ipmi_frame(addr_byte, payload))

    def raw_master(self, bus: int, t: Transaction) -> BusReply:
        """Direct register-level bus mastering; needs code execution on the BMC."""
        if not self.root_shell:
            raise NoRootShell("install a patched firmware image first")
        return self.platform().transfer("bmc", bus, t)
