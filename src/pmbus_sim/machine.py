"""Whole-platform wiring: fabric + VRMs + CPU + BMC from a profile config.

The platform owns the electrical feedback path. Every master's transfer
goes through ``Platform.transfer``; after each write, whatever its reply, it
re-derives the VRM output, applies the load-dependent over-current check,
feeds the resulting rail voltage to the CPU, and resolves the stall that a
CPU-issued write causes when it puts the CPU's own rail into override. The
bare ``Fabric`` does not settle.

A profile must boot clean: building a platform settles the rail once, as at
power-on, and raises ``InvalidProfile`` unless the CPU then runs with no
damage event. The model's own boot states the rule, so the profile parser
restates no electrical limit.
"""

from __future__ import annotations

import hashlib
import weakref

from . import firmware as fw
from .bmc import Bmc
from .cpu import Cpu, CpuStatus
from .errors import ChannelBlocked, InvalidProfile
from .fabric import BusReply, DummyDevice, Fabric
from .profiles import ProfileConfig, load_profile
from .protocol import Transaction
from .vrm import VrmDevice


class Platform:
    def __init__(self, config: ProfileConfig, seed: int = 0):
        self.config = config
        self.name = config.name
        devices = [
            (spec, DummyDevice() if spec.vrm is None else VrmDevice(spec.vrm, spec.address))
            for spec in config.devices
        ]
        self.fabric = Fabric(config.jumpers, config.masters, devices)
        self.vrms: dict[tuple[int, int], VrmDevice] = {
            (spec.bus, spec.address): device for spec, device in devices if spec.vrm is not None
        }

        self.main_vrm = next(iter(self.vrms.values()))
        # stands in for the key recoverable from the vendor's ipmi.so
        self.firmware_key = fw.KeyMaterial(
            hashlib.sha256(f"{self.name}:aes-key".encode()).digest()[:16],
            hashlib.sha256(f"{self.name}:aes-iv".encode()).digest()[:16],
        )
        self.cpu = Cpu(model=config.fault_model, seed=seed, nominal_mv=self.main_vrm.output_mv)
        # The BMC holds the platform through a weak reference: a strong one
        # would close a reference cycle, and a dropped board, transcript and
        # all, would then wait for the cyclic garbage collector.
        x12 = config.bmc.x12_policy
        self.bmc = Bmc(
            platform=weakref.ref(self),
            credentials=config.bmc.credentials,
            firmware_key=self.firmware_key,
            signing_pubkey=self.vendor_signing_key.public_key() if x12 else None,
            filtered_addresses=frozenset(addr for _, addr in self.vrms) if x12 else frozenset(),
        )
        self.boot_loop = False
        self._stock_firmware: bytes | None = None  # built on the first build_stock_firmware()
        self.settle()
        if self.cpu.status is not CpuStatus.RUNNING or self.cpu.damage_events:
            raise InvalidProfile(
                f"board {self.name!r} does not boot clean: CPU {self.cpu.status.value} "
                f"with {self.cpu.damage_events} damage event(s)"
            )

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "Platform":
        return cls(load_profile(name), seed=seed)

    # -- firmware fixtures -------------------------------------------------------

    @property
    def vendor_signing_key(self):
        # the one key every X12 board trusts; loaded on first use, so boards
        # that never sign or verify import no `cryptography`
        return fw.vendor_signing_key()

    def stock_rootfs_entries(self) -> list[tuple[str, bytes]]:
        key = self.firmware_key
        return [
            ("SMASH/msh", b"\x7fELF" + hashlib.sha256(b"smash-clp-shell").digest()),
            ("bin/sh", b"\x7fELF" + hashlib.sha256(b"busybox-sh").digest()),
            ("lib/ipmi.so", b"\x7fELF" + key.aes_key + key.aes_iv),
            ("etc/issue", b"ATEN SMASH-CLP System Management Shell\n"),
        ]

    def build_stock_firmware(self) -> bytes:
        """The board's stock image: built on first use, then the same ``bytes`` on every call.

        The image depends only on facts fixed when the board is built (its
        name, its firmware key and whether its BMC checks signatures), so one
        build serves the board for good; ``bytes`` cannot be changed in place,
        and a caller that tampers with the image works on a copy.
        """
        if self._stock_firmware is None:
            contents = {
                "nvram": hashlib.sha256(f"{self.name}:nvram".encode()).digest() * 8,
                "rootfs": self.stock_rootfs_entries(),
                "kernel": hashlib.sha256(f"{self.name}:kernel".encode()).digest() * 32,
                "webfs": [("index.html", b"<html>BMC</html>")],
            }
            signer = self.vendor_signing_key if self.bmc.signing_pubkey is not None else None
            self._stock_firmware = fw.build_package(contents, self.firmware_key, signer=signer)
        return self._stock_firmware

    # -- electrical feedback -------------------------------------------------------

    def load_current_a(self, output_mv: int) -> float:
        return self.config.nominal_load_a * output_mv / max(self.cpu.nominal_mv, 1)

    def settle(self) -> None:
        vrm, cpu = self.main_vrm, self.cpu
        supply = vrm.output_mv
        vrm.tick(self.load_current_a(supply))
        if not vrm.powered:  # the over-current check tripped the rail
            supply = 0
        cpu.set_supply(supply)
        if (
            cpu.status is CpuStatus.STALLED
            and not vrm.override_active
            and supply > cpu.model.v_crash_mv
        ):
            cpu.status = CpuStatus.RUNNING

    # -- master actions --------------------------------------------------------------

    def transfer(self, master: str, bus: int, t: Transaction) -> BusReply:
        """One transfer by ``master``; every write ends with one ``settle()``, whatever the reply."""
        stall_armed = False  # a CPU write that puts the CPU's own rail into override stalls it
        if master == "cpu":
            self.cpu._require_running()
            stall_armed = not self.main_vrm.override_active
        reply = self.fabric.master_transfer(master, bus, t)
        if not t.is_write:
            return reply
        if stall_armed and self.main_vrm.override_active:
            self.cpu.status = CpuStatus.STALLED
        self.settle()
        return reply

    def vrm_bus(self, master: str) -> int | None:
        """``master``'s own number for a bus on which ``Fabric.route`` reaches the main VRM.

        None if it has none, so an open jumper leaves it None as it leaves
        ``scan_bus`` without the VRM; an unknown master raises ``ChannelBlocked``.
        """
        vrm = self.main_vrm
        buses = next((port.bus_map for port in self.config.masters if port.name == master), None)
        if buses is None:
            raise ChannelBlocked(f"no such master {master!r}")
        return next((bus for bus in buses if self.fabric.route(master, bus, vrm.address)[0] is vrm), None)

    # -- power control ----------------------------------------------------------------

    @property
    def status(self) -> str:
        if self.cpu.status is CpuStatus.BRICKED:
            return "bricked"
        if self.boot_loop:
            return "bootloop"
        return self.cpu.status.value

    def reboot(self) -> None:
        """Motherboard power-button reset; VRM configuration is untouched."""
        self.cpu.reboot()
        self.settle()

    def remote_powercycle(self) -> str:
        self.reboot()
        if self.cpu.status is not CpuStatus.RUNNING:
            self.boot_loop = True
        return self.status

    def physical_power_cycle(self) -> str:
        for vrm in self.vrms.values():
            vrm.reset()
        self.boot_loop = False
        self.cpu.reboot()
        self.settle()
        return self.status
