"""Platform topology profiles: dataclass schema plus YAML loading.

Built-in profiles (``x11ssl-cf``, ``x12dpi-nt6``, ``e3c246d4i-2t``) ship as
YAML files next to this module; user profiles load from arbitrary paths
with the same schema. Parsing builds the runtime types directly: each master
becomes a ``MasterPort``, each VRM entry a ``VrmConfig`` and ``fault_model`` a
``FaultModel``. A document with an unknown key, generation, vendor or device
kind, with a missing or mistyped value (an integer must be an exact ``int``,
not a bool, float or string), with a number outside its range, with a jumper
or master name that the profile does not define, without a ``cpu`` and a
``bmc`` master or without a VRM raises ``InvalidProfile``.

Each distinct profile text is parsed once per process and the resulting
``ProfileConfig`` is shared by every platform built from it, so it is
read-only all the way down: its mappings are ``MappingProxyType`` views.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType

import yaml

from .cpu import FaultModel
from .errors import InvalidProfile, UnknownProfile
from .fabric import MasterPort
from .protocol import ADDR_MAX, ADDR_MIN
from .vrm import VrmConfig, VrmVendor

BUILTIN_PROFILES = ("x11ssl-cf", "x12dpi-nt6", "e3c246d4i-2t")
GENERATIONS = ("X11", "X12")

_TOP_KEYS = {"name", "jumpers", "masters", "devices", "bmc", "fault_model", "nominal_load_a"}
_MASTER_KEYS = {"buses", "requires_jumper"}
_DEVICE_KEYS = {"bus", "address", "kind", "requires_jumpers", "write_masters"}
# inclusive range of each integer VRM key
_VRM_INTS = {
    "initial_vid": (0, 0xFF),
    "rail_page": (0, 1),
    "temperature_raw": (0, 0xFFFF),
    "ocp_limit_a": (1, 0xFFFF),
    "page1_vout": (0, 0xFFFF),
}
_VRM_KEYS = {"vendor", *_VRM_INTS}
_BMC_KEYS = {"generation", "credentials"}
_FAULT_MODEL_KEYS = {f.name for f in fields(FaultModel)}
_FAULT_MODEL_INTS = {f.name for f in fields(FaultModel) if type(f.default) is int}


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
    jumpers: MappingProxyType[str, bool]
    masters: tuple[MasterPort, ...]
    devices: tuple[DeviceSpec, ...]
    bmc: BmcSpec
    fault_model: FaultModel = FaultModel()
    nominal_load_a: float = 60.0


def _checked(names, allowed, what: str):
    """Return ``names`` (a mapping or a list of names) if each one is in ``allowed``."""
    unknown = sorted(map(str, set(names).difference(allowed)))
    if unknown:
        raise InvalidProfile(f"unknown {what}(s): {', '.join(unknown)}")
    return names


def _int(value, what: str, low: int = 0, high: float = math.inf) -> int:
    """``value`` if it is an exact ``int`` in ``low..high``."""
    if type(value) is not int or not low <= value <= high:
        raise InvalidProfile(f"{what} {value!r} is not an integer in {low}..{high}")
    return value


def _parse_master(name: str, spec: dict) -> MasterPort:
    _checked(spec, _MASTER_KEYS, f"master {name!r} key")
    what = f"master {name!r} bus"
    bus_map = {_int(k, what): _int(v, what) for k, v in spec.get("buses", {}).items()}
    return MasterPort(name, MappingProxyType(bus_map), spec.get("requires_jumper"))


def _parse_device(d: dict) -> DeviceSpec:
    address = _int(d["address"], "device address", ADDR_MIN, ADDR_MAX)
    if d.get("kind") == "vrm":
        _checked(d, _DEVICE_KEYS | _VRM_KEYS, "vrm device key")
        ints = {k: _int(d[k], k, *_VRM_INTS[k]) for k in _VRM_INTS if k in d}
        vrm = VrmConfig(vendor=VrmVendor(d.get("vendor", "mps")), address=address, **ints)
    elif d.get("kind") == "dummy":
        _checked(d, _DEVICE_KEYS, "dummy device key")
        vrm = None
    else:
        raise InvalidProfile(f"unknown device kind {d.get('kind')!r}")
    return DeviceSpec(
        bus=_int(d["bus"], "device bus"),
        address=address,
        vrm=vrm,
        requires_jumpers=tuple(d.get("requires_jumpers", ())),
        write_masters=tuple(d["write_masters"]) if "write_masters" in d else None,
    )


def _parse(doc: dict) -> ProfileConfig:
    _checked(doc, _TOP_KEYS, "profile key")
    if not isinstance(doc["name"], str):
        raise InvalidProfile(f"profile name {doc['name']!r} is not a string")
    load = doc.get("nominal_load_a", 60.0)
    if type(load) not in (int, float) or not 0 < load < math.inf:
        raise InvalidProfile(f"nominal_load_a {load!r} is not a finite number above 0")
    fault_model = _checked(doc.get("fault_model", {}), _FAULT_MODEL_KEYS, "fault_model key")
    for k in _FAULT_MODEL_INTS & set(fault_model):
        _int(fault_model[k], k, -math.inf)
    bmc_doc = _checked(doc["bmc"], _BMC_KEYS, "bmc key")
    if bmc_doc["generation"] not in GENERATIONS:
        raise InvalidProfile(f"bmc generation {bmc_doc['generation']!r} is not one of {GENERATIONS}")
    if not {"cpu", "bmc"} <= set(doc["masters"]):
        raise InvalidProfile("masters must include cpu and bmc")
    jumpers = MappingProxyType(
        {k: v == "connected" if isinstance(v, str) else bool(v) for k, v in doc.get("jumpers", {}).items()}
    )
    masters = tuple(_parse_master(name, spec) for name, spec in doc["masters"].items())
    devices = tuple(_parse_device(d) for d in doc.get("devices", ()))
    if all(d.vrm is None for d in devices):
        raise InvalidProfile("a profile needs at least one vrm device")
    _checked({m.requires_jumper for m in masters} - {None}, jumpers, "jumper")
    for d in devices:
        _checked(d.requires_jumpers, jumpers, "jumper")
        _checked(d.write_masters or (), doc["masters"], "master")
    return ProfileConfig(
        name=doc["name"],
        jumpers=jumpers,
        masters=masters,
        devices=devices,
        bmc=BmcSpec(
            generation=bmc_doc["generation"],
            credentials=MappingProxyType(dict(bmc_doc.get("credentials", {}))),
        ),
        fault_model=FaultModel(**fault_model),
        nominal_load_a=float(load),
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


def load_profile(name: str) -> ProfileConfig:
    """Built-in profile by name, or any YAML file path."""
    if name in BUILTIN_PROFILES:
        text = (
            importlib.resources.files("pmbus_sim").joinpath(f"profiles/{name}.yaml").read_text()
        )
        return _parse_profile(text)
    if Path(name).exists():
        return _parse_profile(Path(name).read_text())
    raise UnknownProfile(name)
