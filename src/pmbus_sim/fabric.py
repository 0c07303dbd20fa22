"""Discrete-event multi-bus I2C fabric.

Masters address buses by their own local numbering (the BMC counts the VRM
segment as bus 2 while the host CPU sees it as bus 1), so each master
carries a local-to-physical bus map. Devices sit on physical buses and may
be gated by jumpers or per-master write permissions. An optional interposer
per physical bus sees every transaction before delivery and can veto it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol

from .errors import AddressInUse, InterposerPresent, UnknownJumper
from .protocol import ADDR_MAX, ADDR_MIN, Transaction


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


ACK = ReplyStatus.ACK
NACK_REPLY = BusReply(ReplyStatus.NACK)
JAMMED_REPLY = BusReply(ReplyStatus.JAMMED)


class Device(Protocol):
    def handle(self, t: Transaction) -> BusReply: ...

    def probe(self) -> bool: ...

    def fingerprint(self) -> object: ...


class DummyDevice:
    """Presence-only device: ACKs the scan probe, NACKs every command."""

    def handle(self, t: Transaction) -> BusReply:
        return NACK_REPLY

    def probe(self) -> bool:
        return True

    def fingerprint(self) -> object:
        return "dummy"


class Interposer(Protocol):
    """Filter slot contract; see filterguard.BusFilter."""

    def submit(self, t: Transaction) -> BusReply | None:
        """Return a veto reply (Nack/Jammed) or None to let the transfer pass."""
        ...


@dataclass
class MasterPort:
    name: str
    bus_map: dict[int, int]  # local bus id -> physical bus id
    requires_jumper: str | None = None


class Fabric:
    def __init__(self, buses: set[int], jumpers: dict[str, bool] | None = None):
        self.buses = set(buses)
        self.jumpers: dict[str, bool] = dict(jumpers or {})
        self.devices: dict[tuple[int, int], Device] = {}
        self.masters: dict[str, MasterPort] = {}
        self.device_jumpers: dict[tuple[int, int], list[str]] = {}
        self.write_masters: dict[tuple[int, int], set[str]] = {}
        self.interposers: dict[int, Interposer] = {}
        self.transcript: list[str] = []

    # -- topology construction ------------------------------------------------

    def add_master(self, port: MasterPort) -> None:
        self.masters[port.name] = port

    def attach_device(
        self,
        bus: int,
        address: int,
        device: Device,
        required_jumpers: list[str] | None = None,
        write_masters: set[str] | None = None,
    ) -> None:
        if not ADDR_MIN <= address <= ADDR_MAX:
            raise ValueError(f"address 0x{address:02X} outside 7-bit device range")
        key = (bus, address)
        if key in self.devices:
            raise AddressInUse(f"bus {bus} address 0x{address:02X}")
        self.buses.add(bus)
        self.devices[key] = device
        if required_jumpers:
            self.device_jumpers[key] = list(required_jumpers)
        if write_masters is not None:
            self.write_masters[key] = set(write_masters)

    def insert_interposer(self, bus: int, interposer: Interposer) -> None:
        if bus in self.interposers:
            raise InterposerPresent(f"bus {bus}")
        self.interposers[bus] = interposer

    def set_jumper(self, name: str, connected: bool) -> None:
        if name not in self.jumpers:
            raise UnknownJumper(name)
        self.jumpers[name] = connected

    # -- routing --------------------------------------------------------------

    def physical_bus(self, master: str, bus: int) -> int | None:
        """Physical bus behind a master's local bus number; None if unrouted or gated."""
        port = self.masters[master]
        if port.requires_jumper and not self.jumpers.get(port.requires_jumper, False):
            return None
        return port.bus_map.get(bus)

    def local_bus(self, master: str, physical: int) -> int | None:
        """A master's own number for a physical bus (no jumper check); None if unmapped."""
        for local, mapped in self.masters[master].bus_map.items():
            if mapped == physical:
                return local
        return None

    def _reachable_device(self, master: str, bus: int, address: int):
        phys = self.physical_bus(master, bus)
        if phys is None:
            return None, None
        key = (phys, address)
        device = self.devices.get(key)
        if device is None:
            return None, phys
        for jumper in self.device_jumpers.get(key, ()):
            if not self.jumpers.get(jumper, False):
                return None, phys
        return device, phys

    def master_transfer(self, master: str, bus: int, t: Transaction) -> BusReply:
        if master not in self.masters:
            raise KeyError(f"unknown master {master!r}")
        device, phys = self._reachable_device(master, bus, t.address)
        if device is None:
            return NACK_REPLY
        key = (phys, t.address)
        if t.is_write and key in self.write_masters and master not in self.write_masters[key]:
            return NACK_REPLY
        interposer = self.interposers.get(phys)
        if interposer is not None:
            veto = interposer.submit(t)
            if veto is not None:
                return veto
        reply = device.handle(t)
        arrow = "" if t.is_write or not reply.ok else " -> [" + " ".join(f"{b:02X}" for b in reply.data) + "]"
        self.transcript.append(f"{t.text()}{arrow} {reply.status.value}")
        return reply

    def scan_bus(self, master: str, bus: int) -> set[int]:
        """i2cdetect-style sweep: zero-length write probe, no state changes."""
        found = set()
        for address in range(ADDR_MIN, ADDR_MAX + 1):
            device, _ = self._reachable_device(master, bus, address)
            if device is not None and device.probe():
                found.add(address)
        return found

    def state_fingerprint(self) -> tuple:
        return tuple(
            (key, self.devices[key].fingerprint()) for key in sorted(self.devices)
        )
