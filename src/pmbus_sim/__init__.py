"""Deterministic PMBus/VRM security simulator.

Models a server motherboard's power-management bus fabric (CPU, BMC,
voltage regulators, jumpers), the attack chains that take it over, the
voltage-fault campaigns they enable, and the bus-filter countermeasure.
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    Chain,
    run_overvolt_attack,
    run_power_down_attack,
    run_undervolt_campaign,
)
from .cpu import Cpu, CpuStatus, FaultModel, FaultySignature
from .errors import (
    BrickedPlatform,
    ChainUnavailable,
    ChannelBlocked,
    CpuUnavailable,
    FilteredByPolicy,
    FirmwareError,
    PmbusSimError,
    WrongProfile,
)
from .crypto import CrtRsaKey, lenstra_recover
from .detect import detect, render_report
from .fabric import BusReply, Fabric, ReplyStatus
from .filterguard import BusFilter, FilterPolicy, PolicyMode, Verdict
from .machine import Platform
from .profiles import load_profile
from .protocol import (
    Direction,
    Transaction,
    VidCodec,
    command_info,
    decode_frame,
    encode_frame,
)
from .vrm import VrmConfig, VrmDevice, VrmVendor

__all__ = [
    "BusFilter",
    "BusReply",
    "CampaignConfig",
    "CampaignResult",
    "Chain",
    "ChainUnavailable",
    "ChannelBlocked",
    "BrickedPlatform",
    "Cpu",
    "CpuStatus",
    "CpuUnavailable",
    "CrtRsaKey",
    "FilteredByPolicy",
    "FirmwareError",
    "PmbusSimError",
    "WrongProfile",
    "Direction",
    "Fabric",
    "FaultModel",
    "FaultySignature",
    "FilterPolicy",
    "Platform",
    "PolicyMode",
    "ReplyStatus",
    "Transaction",
    "Verdict",
    "VidCodec",
    "VrmConfig",
    "VrmDevice",
    "VrmVendor",
    "command_info",
    "decode_frame",
    "detect",
    "encode_frame",
    "lenstra_recover",
    "load_profile",
    "render_report",
    "run_overvolt_attack",
    "run_power_down_attack",
    "run_undervolt_campaign",
]
