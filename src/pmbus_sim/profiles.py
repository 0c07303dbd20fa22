"""Platform topology profiles: dataclass schema plus YAML loading.

Built-in profiles (``x11ssl-cf``, ``x12dpi-nt6``, ``e3c246d4i-2t``) ship as
YAML files next to this module; user profiles load from arbitrary paths
with the same schema. Parsing builds the runtime configs directly: each VRM
entry becomes a ``VrmConfig`` and ``fault_model`` a ``FaultModel``. A
document with an unknown key, generation, vendor or device kind, with a
missing or mistyped value, without a ``cpu`` and a ``bmc`` master or without
a VRM raises ``InvalidProfile``.

Each distinct profile text is parsed once per process and the resulting
``ProfileConfig`` is shared by every platform built from it, so it is
read-only all the way down: its mappings are ``MappingProxyType`` views.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType

import yaml

from .cpu import FaultModel
from .errors import InvalidProfile, UnknownProfile
from .vrm import VrmConfig, VrmVendor

BUILTIN_PROFILES = ("x11ssl-cf", "x12dpi-nt6", "e3c246d4i-2t")
GENERATIONS = ("X11", "X12")

_TOP_KEYS = {"name", "buses", "jumpers", "masters", "devices", "bmc", "fault_model", "nominal_load_a"}
_MASTER_KEYS = {"buses", "requires_jumper"}
_DEVICE_KEYS = {"bus", "address", "kind", "requires_jumpers", "write_masters"}
_VRM_KEYS = {"vendor", "initial_vid", "rail_page", "temperature_raw", "ocp_limit_a", "page1_vout"}
_BMC_KEYS = {"generation", "credentials"}
_FAULT_MODEL_KEYS = {f.name for f in fields(FaultModel)}


@dataclass(frozen=True)
class MasterSpec:
    name: str
    buses: MappingProxyType[int, int]  # local bus id -> physical bus id
    requires_jumper: str | None = None


@dataclass(frozen=True)
class DeviceSpec:
    """A device's placement on the fabric; ``vrm`` is None for a dummy device."""

    bus: int  # physical bus id
    address: int
    vrm: VrmConfig | None = None
    requires_jumpers: tuple[str, ...] = ()
    write_masters: tuple[str, ...] | None = None


@dataclass(frozen=True)
class BmcSpec:
    generation: str  # "X11" | "X12"
    credentials: MappingProxyType[str, str]

    @property
    def x12_policy(self) -> bool:
        """X12 BMCs require vendor-signed firmware and filter IPMI I2C writes to VRMs."""
        return self.generation == "X12"


@dataclass(frozen=True)
class ProfileConfig:
    name: str
    buses: tuple[int, ...]
    jumpers: MappingProxyType[str, bool]
    masters: tuple[MasterSpec, ...]
    devices: tuple[DeviceSpec, ...]
    bmc: BmcSpec
    fault_model: FaultModel = FaultModel()
    nominal_load_a: float = 60.0


def _checked(doc: dict, allowed: set[str], where: str) -> dict:
    unknown = sorted(map(str, set(doc) - allowed))
    if unknown:
        raise InvalidProfile(f"unknown {where} key(s): {', '.join(unknown)}")
    return doc


def _parse_master(name: str, spec: dict) -> MasterSpec:
    _checked(spec, _MASTER_KEYS, f"master {name!r}")
    buses = MappingProxyType({int(k): int(v) for k, v in spec.get("buses", {}).items()})
    return MasterSpec(name=name, buses=buses, requires_jumper=spec.get("requires_jumper"))


def _parse_device(d: dict) -> DeviceSpec:
    if d.get("kind") == "vrm":
        _checked(d, _DEVICE_KEYS | _VRM_KEYS, "vrm device")
        ints = {k: int(d[k]) for k in _VRM_KEYS - {"vendor"} if k in d}
        vrm = VrmConfig(vendor=VrmVendor(d.get("vendor", "mps")), address=int(d["address"]), **ints)
    elif d.get("kind") == "dummy":
        _checked(d, _DEVICE_KEYS, "dummy device")
        vrm = None
    else:
        raise InvalidProfile(f"unknown device kind {d.get('kind')!r}")
    return DeviceSpec(
        bus=int(d["bus"]),
        address=int(d["address"]),
        vrm=vrm,
        requires_jumpers=tuple(d.get("requires_jumpers", ())),
        write_masters=tuple(d["write_masters"]) if "write_masters" in d else None,
    )


def _parse(doc: dict) -> ProfileConfig:
    _checked(doc, _TOP_KEYS, "profile")
    bmc_doc = _checked(doc["bmc"], _BMC_KEYS, "bmc")
    if bmc_doc["generation"] not in GENERATIONS:
        raise InvalidProfile(f"bmc generation {bmc_doc['generation']!r} is not one of {GENERATIONS}")
    if not {"cpu", "bmc"} <= set(doc["masters"]):
        raise InvalidProfile("masters must include cpu and bmc")
    devices = tuple(_parse_device(d) for d in doc.get("devices", ()))
    if all(d.vrm is None for d in devices):
        raise InvalidProfile("a profile needs at least one vrm device")
    return ProfileConfig(
        name=doc["name"],
        buses=tuple(int(b) for b in doc.get("buses", ())),
        jumpers=MappingProxyType(
            {k: v == "connected" if isinstance(v, str) else bool(v) for k, v in doc.get("jumpers", {}).items()}
        ),
        masters=tuple(_parse_master(name, spec) for name, spec in doc["masters"].items()),
        devices=devices,
        bmc=BmcSpec(
            generation=bmc_doc["generation"],
            credentials=MappingProxyType(dict(bmc_doc.get("credentials", {}))),
        ),
        fault_model=FaultModel(**_checked(doc.get("fault_model", {}), _FAULT_MODEL_KEYS, "fault_model")),
        nominal_load_a=float(doc.get("nominal_load_a", 60.0)),
    )


@functools.lru_cache(maxsize=32)
def _parse_profile(text: str) -> ProfileConfig:
    """Profile from YAML text, memoised on the text; an impossible fault model still raises OutOfRange.

    A failed parse raises and so is never cached, and a user file edited
    between loads has new text and is parsed again.
    """
    try:
        return _parse(yaml.safe_load(text))
    except (yaml.YAMLError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidProfile(f"malformed profile: {type(exc).__name__}: {exc}") from exc


def load_profile_file(path: str | Path) -> ProfileConfig:
    return _parse_profile(Path(path).read_text())


def load_profile(name: str) -> ProfileConfig:
    """Built-in profile by name, or any YAML file path."""
    if name in BUILTIN_PROFILES:
        text = (
            importlib.resources.files("pmbus_sim").joinpath(f"profiles/{name}.yaml").read_text()
        )
        return _parse_profile(text)
    if Path(name).exists():
        return load_profile_file(name)
    raise UnknownProfile(name)
