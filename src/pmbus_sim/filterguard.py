"""Bus interposer countermeasure: classify each transaction, veto the bad ones.

Three policy modes: a command blocklist, a command allowlist, and a
stateful voltage cap that deep-inspects VOUT_COMMAND writes against the
VID table it has observed being selected. The cap must track the
VID_STEP_SEL bit (and refuse writes that set it), because a stateless cap
cannot bound voltage once the 10 mV table is switched in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from . import protocol as pm
from .errors import InvalidPolicy
from .fabric import BusReply, JAMMED_REPLY, NACK_REPLY
from .protocol import CODEC_5MV, CODEC_10MV, Transaction


class PolicyMode(enum.Enum):
    BLOCKLIST = "blocklist"
    ALLOWLIST = "allowlist"
    VOLTAGE_CAP = "voltage-cap"


class Verdict(enum.Enum):
    ALLOW = "allow"
    BLOCK = "block"  # polite Nack at the interposer
    JAM = "jam"  # mid-transfer bus pull-down


@dataclass(frozen=True)
class FilterPolicy:
    mode: PolicyMode
    blocked_commands: frozenset[int] = frozenset()
    allowed_commands: frozenset[int] = frozenset()
    cap_mv: int = 1520
    track_step_sel: bool = True
    violation_verdict: Verdict = Verdict.JAM

    def __post_init__(self):
        if self.mode is PolicyMode.VOLTAGE_CAP and not self.track_step_sel:
            raise ValueError("a voltage cap must track VID_STEP_SEL to be sound")


ALLOW_ALL = FilterPolicy(mode=PolicyMode.BLOCKLIST, blocked_commands=frozenset())


def policy_from_dict(doc: dict) -> FilterPolicy:
    """Policy from its YAML/JSON form; anything malformed raises ``InvalidPolicy``."""

    def code(v) -> int:
        if isinstance(v, str):
            v = int(v, 0)
        if type(v) is not int or not 0 <= v <= 0xFF:
            raise ValueError(f"command code {v!r} is not an int in 0x00..0xFF")
        return v

    def codes(values):
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"command codes {values!r} are not a list")
        return frozenset(code(v) for v in values)

    if not isinstance(doc, dict):
        raise InvalidPolicy(f"malformed policy: expected a mapping, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(FilterPolicy)}
    if unknown:
        raise InvalidPolicy(f"malformed policy: unknown key(s) {sorted(unknown, key=str)}")
    track_step_sel = doc.get("track_step_sel", True)
    if not isinstance(track_step_sel, bool):
        raise InvalidPolicy(f"malformed policy: track_step_sel {track_step_sel!r} is not a bool")
    cap_mv = doc.get("cap_mv", 1520)
    if type(cap_mv) is not int:
        raise InvalidPolicy(f"malformed policy: cap_mv {cap_mv!r} is not an int")
    try:
        return FilterPolicy(
            mode=PolicyMode(doc["mode"]),
            blocked_commands=codes(doc.get("blocked_commands", ())),
            allowed_commands=codes(doc.get("allowed_commands", ())),
            cap_mv=cap_mv,
            track_step_sel=track_step_sel,
            violation_verdict=Verdict(doc.get("violation_verdict", "jam")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPolicy(f"malformed policy: {type(exc).__name__}: {exc}") from exc


class BusFilter:
    """Interposer implementation; plugs into Fabric.insert_interposer."""

    def __init__(self, policy: FilterPolicy):
        self.policy = policy
        self.observed_page = 0
        self.observed_step_10mv = False
        self.log: list[tuple[Transaction, Verdict]] = []

    def evaluate(self, t: Transaction) -> Verdict:
        if not t.is_write:
            return Verdict.ALLOW
        policy = self.policy
        if policy.mode is PolicyMode.BLOCKLIST:
            if t.command in policy.blocked_commands:
                return policy.violation_verdict
            return Verdict.ALLOW
        if policy.mode is PolicyMode.ALLOWLIST:
            if t.command not in policy.allowed_commands:
                return policy.violation_verdict
            return Verdict.ALLOW
        # Voltage cap: deep inspection of voltage-relevant writes.
        if t.command == pm.CMD_MFR_VR_CONFIG and t.payload:
            value = int.from_bytes(t.payload, "little")
            if value & pm.VR_CONFIG_VID_STEP_SEL:
                return policy.violation_verdict
        if t.command == pm.CMD_VOUT_COMMAND and t.payload:
            vid = int.from_bytes(t.payload, "little") & 0xFF
            codec = CODEC_10MV if self.observed_step_10mv else CODEC_5MV
            if codec.voltage(vid) > policy.cap_mv:
                return policy.violation_verdict
        return Verdict.ALLOW

    def _observe(self, t: Transaction) -> None:
        if not (t.is_write and t.payload) or not self.policy.track_step_sel:
            return
        if t.command == pm.CMD_PAGE:
            self.observed_page = t.payload[0]
        elif t.command == pm.CMD_MFR_VR_CONFIG:
            value = int.from_bytes(t.payload, "little")
            self.observed_step_10mv = bool(value & pm.VR_CONFIG_VID_STEP_SEL)

    def submit(self, t: Transaction) -> BusReply | None:
        verdict = self.evaluate(t)
        self.log.append((t, verdict))
        if verdict is Verdict.ALLOW:
            self._observe(t)
            return None
        if verdict is Verdict.BLOCK:
            return NACK_REPLY
        return JAMMED_REPLY

    def audit_log(self) -> list[tuple[Transaction, Verdict]]:
        return list(self.log)
