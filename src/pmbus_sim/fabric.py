"""Discrete-event multi-bus I2C fabric.

Masters address buses by their own local numbering (the BMC counts the VRM
segment as bus 2 while the host CPU sees it as bus 1), so each master
carries a local-to-physical bus map. Devices sit on physical buses and may
be gated by jumpers or per-master write permissions. An optional interposer
per physical bus sees every transaction before delivery and can veto it.

The wiring (jumpers, masters and device placements) is fixed when the
fabric is built; a board with other jumper settings is another profile.
``master_transfer`` resolves each ``(master, local bus, address)`` to its
device, write permission and interposer once and keeps the route.
``insert_interposer`` is the only run-time change, and it drops the kept
routes.

Each delivered transfer appends one transcript line: the transaction's own
``Transaction.line``, which it renders once, then for an ACKed read the reply
bytes after ``->``, then the reply status.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from .errors import AddressInUse, ChannelBlocked, InterposerPresent
from .protocol import ADDR_MAX, ADDR_MIN, Transaction

if TYPE_CHECKING:
    from .vrm import VrmConfig


class ReplyStatus(enum.Enum):
    ACK = "ack"
    NACK = "nack"
    JAMMED = "jammed"


@dataclass(frozen=True)
class BusReply:
    status: ReplyStatus
    data: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status is ReplyStatus.ACK


ACK_REPLY = BusReply(ReplyStatus.ACK)
NACK_REPLY = BusReply(ReplyStatus.NACK)
JAMMED_REPLY = BusReply(ReplyStatus.JAMMED)


class Device(Protocol):
    def handle(self, t: Transaction) -> BusReply: ...

    def fingerprint(self) -> object: ...


class DummyDevice:
    """Presence-only device: ACKs the scan probe, NACKs every command."""

    def handle(self, t: Transaction) -> BusReply:
        return NACK_REPLY

    def fingerprint(self) -> object:
        return "dummy"


class Interposer(Protocol):
    """Filter slot contract; see filterguard.BusFilter."""

    def submit(self, t: Transaction) -> BusReply | None:
        """Return a veto reply (Nack/Jammed) or None to let the transfer pass."""
        ...


@dataclass(frozen=True)
class MasterPort:
    name: str
    bus_map: Mapping[int, int]  # local bus id -> physical bus id
    requires_jumper: str | None = None


@dataclass(frozen=True)
class DeviceSpec:
    """A device's placement on the fabric; ``vrm`` is None for a dummy device."""

    bus: int  # physical bus id
    address: int
    vrm: VrmConfig | None = None
    requires_jumpers: tuple[str, ...] = ()
    write_masters: tuple[str, ...] | None = None  # None lets every master write; () lets none


# A resolved route: the device (None if unreachable), whether the master may
# write to it, and the interposer on its physical bus.
Route = tuple[Device | None, bool, Interposer | None]
_UNREACHABLE: Route = (None, False, None)


class Fabric:
    def __init__(
        self,
        jumpers: Mapping[str, bool],
        masters: Iterable[MasterPort],
        devices: Iterable[tuple[DeviceSpec, Device]],
    ):
        self._jumpers = jumpers
        self._masters: dict[str, MasterPort] = {port.name: port for port in masters}
        self._devices: dict[tuple[int, int], tuple[DeviceSpec, Device]] = {}
        for spec, device in devices:
            key = (spec.bus, spec.address)
            if key in self._devices:
                raise AddressInUse(f"bus {spec.bus} address 0x{spec.address:02X}")
            self._devices[key] = (spec, device)
        self._interposers: dict[int, Interposer] = {}
        self.transcript: list[str] = []
        self._routes: dict[tuple[str, int, int], Route] = {}

    # -- the one run-time change ----------------------------------------------

    def insert_interposer(self, bus: int, interposer: Interposer) -> None:
        if bus in self._interposers:
            raise InterposerPresent(f"bus {bus}")
        self._interposers[bus] = interposer
        self._routes.clear()

    # -- routing --------------------------------------------------------------

    def route(self, master: str, bus: int, address: int) -> Route:
        """The one reachability query: ``master``'s local ``bus`` and ``address`` as a ``Route``.

        An unmapped bus, or an open jumper of the master's port or the device,
        leaves the device unreachable; an unknown master raises ``ChannelBlocked``.
        """
        port = self._masters.get(master)
        if port is None:
            raise ChannelBlocked(f"no such master {master!r}")
        phys = port.bus_map.get(bus)
        if phys is None or (port.requires_jumper and not self._jumpers.get(port.requires_jumper, False)):
            return _UNREACHABLE
        slot = self._devices.get((phys, address))
        if slot is None:
            return _UNREACHABLE
        spec, device = slot
        for jumper in spec.requires_jumpers:
            if not self._jumpers.get(jumper, False):
                return _UNREACHABLE
        writable = spec.write_masters is None or master in spec.write_masters
        return device, writable, self._interposers.get(phys)

    def master_transfer(self, master: str, bus: int, t: Transaction) -> BusReply:
        key = (master, bus, t.address)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self.route(master, bus, t.address)
        device, writable, interposer = route
        is_write = t.is_write
        if device is None or (is_write and not writable):
            return NACK_REPLY
        if interposer is not None:
            veto = interposer.submit(t)
            if veto is not None:
                return veto
        reply = device.handle(t)
        arrow = "" if is_write or not reply.ok else f" -> [{reply.data.hex(' ').upper()}]"
        self.transcript.append(f"{t.line}{arrow} {reply.status.value}")
        return reply

    def scan_bus(self, master: str, bus: int) -> set[int]:
        """i2cdetect-style sweep: every reachable device ACKs the probe; no state changes."""
        return {
            address
            for address in range(ADDR_MIN, ADDR_MAX + 1)
            if self.route(master, bus, address)[0] is not None
        }

    def state_fingerprint(self) -> tuple:
        return tuple(
            (key, self._devices[key][1].fingerprint()) for key in sorted(self._devices)
        )
