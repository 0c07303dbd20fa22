"""Whole-platform wiring: fabric + VRMs + CPU + BMC from a profile config.

The platform owns the electrical feedback path: after every bus write it
re-derives the VRM output, applies the load-dependent over-current check,
feeds the resulting rail voltage to the CPU, and resolves the stall that a
CPU-issued override write causes.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

from . import firmware as fw
from . import protocol as pm
from .bmc import Bmc
from .cpu import Cpu, CpuStatus
from .errors import ChainUnavailable
from .fabric import BusReply, DummyDevice, Fabric, MasterPort
from .profiles import ProfileConfig, load_profile
from .protocol import Transaction
from .vrm import VrmDevice


class Platform:
    def __init__(self, config: ProfileConfig, seed: int = 0):
        self.config = config
        self.name = config.name
        self.fabric = Fabric(set(config.buses), dict(config.jumpers))
        for master in config.masters:
            self.fabric.add_master(MasterPort(master.name, dict(master.buses), master.requires_jumper))

        self.vrms: dict[tuple[int, int], VrmDevice] = {}
        for dev in config.devices:
            device = DummyDevice() if dev.vrm is None else VrmDevice(dev.vrm)
            self.fabric.attach_device(
                dev.bus,
                dev.address,
                device,
                required_jumpers=list(dev.requires_jumpers),
                write_masters=set(dev.write_masters) if dev.write_masters else None,
            )
            if dev.vrm is not None:
                self.vrms[(dev.bus, dev.address)] = device

        self.main_vrm = next(iter(self.vrms.values()))
        self.nominal_mv = self.main_vrm.output_mv
        self.fault_model = config.fault_model
        self.cpu = Cpu(model=self.fault_model, seed=seed, nominal_mv=self.nominal_mv)
        self.bmc = Bmc(
            fabric=self.fabric,
            spec=config.bmc,
            firmware_key=self.firmware_key,
            vrm_addresses=frozenset(addr for (_, addr) in self.vrms),
            signing_pubkey=self.vendor_signing_key.public_key() if config.bmc.x12_policy else None,
        )
        self.boot_loop = False
        self.settle()

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "Platform":
        return cls(load_profile(name), seed=seed)

    # -- firmware fixtures -------------------------------------------------------

    @cached_property
    def firmware_key(self) -> fw.KeyMaterial:
        # stands in for the key recoverable from the vendor's ipmi.so
        key = hashlib.sha256(f"{self.name}:aes-key".encode()).digest()[:16]
        iv = hashlib.sha256(f"{self.name}:aes-iv".encode()).digest()[:16]
        return fw.KeyMaterial(key, iv)

    @cached_property
    def vendor_signing_key(self):
        return fw.generate_signing_key()

    def stock_rootfs_entries(self) -> list[tuple[str, bytes]]:
        key = self.firmware_key
        return [
            ("SMASH/msh", b"\x7fELF" + hashlib.sha256(b"smash-clp-shell").digest()),
            ("bin/sh", b"\x7fELF" + hashlib.sha256(b"busybox-sh").digest()),
            ("lib/ipmi.so", b"\x7fELF" + key.aes_key + key.aes_iv),
            ("etc/issue", b"ATEN SMASH-CLP System Management Shell\n"),
        ]

    def build_stock_firmware(self) -> bytes:
        contents = {
            "nvram": hashlib.sha256(f"{self.name}:nvram".encode()).digest() * 8,
            "rootfs": self.stock_rootfs_entries(),
            "kernel": hashlib.sha256(f"{self.name}:kernel".encode()).digest() * 32,
            "webfs": [("index.html", b"<html>BMC</html>")],
        }
        signer = self.vendor_signing_key if self.config.bmc.x12_policy else None
        return fw.build_package(contents, self.firmware_key, signer=signer)

    # -- electrical feedback -------------------------------------------------------

    def load_current_a(self, output_mv: int) -> float:
        return self.config.nominal_load_a * output_mv / max(self.nominal_mv, 1)

    def settle(self) -> None:
        vrm = self.main_vrm
        supply = vrm.output_mv
        vrm.tick(self.load_current_a(supply))
        if not vrm.powered:  # the over-current check tripped the rail
            supply = 0
        self.cpu.set_supply(supply)
        if (
            self.cpu.status is CpuStatus.STALLED
            and not vrm.override_active
            and supply > self.fault_model.v_crash_mv
        ):
            self.cpu.status = CpuStatus.RUNNING

    # -- master actions --------------------------------------------------------------

    def cpu_pmbus_write(self, bus: int, t: Transaction) -> BusReply:
        self.cpu._require_running()
        reply = self.fabric.master_transfer("cpu", bus, t)
        vrm = self.vrms.get((self.fabric.physical_bus("cpu", bus), t.address))
        if (
            reply.ok
            and t.is_write
            and t.command == pm.CMD_MFR_VR_CONFIG
            and vrm is not None
            and vrm.override_active
        ):
            self.cpu.status = CpuStatus.STALLED
        self.settle()
        return reply

    def cpu_transfer(self, bus: int, t: Transaction) -> BusReply:
        if t.is_write:
            return self.cpu_pmbus_write(bus, t)
        return self.fabric.master_transfer("cpu", bus, t)

    def bmc_bus_for_vrm(self, vrm_key: tuple[int, int] | None = None) -> int:
        """BMC-local bus number of the segment holding the (main) VRM."""
        phys, _ = vrm_key or next(iter(self.vrms))
        local = self.fabric.local_bus("bmc", phys)
        if local is None:
            raise ChainUnavailable("BMC has no route to the VRM segment")
        return local

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
        self.cpu.reboot()
        self.settle()
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
