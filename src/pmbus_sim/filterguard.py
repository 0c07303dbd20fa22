"""Bus interposer countermeasure: classify each transaction, veto the bad ones.

Three policy modes: a command blocklist, a command allowlist, and a
voltage cap that deep-inspects VOUT_COMMAND writes against the 5 mV VID
table. The cap refuses any MFR_VR_CONFIG write that sets VID_STEP_SEL,
because once the 10 mV table is switched in a VID means twice the voltage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import protocol as pm
from .errors import InvalidPolicy
from .fabric import BusReply, JAMMED_REPLY, NACK_REPLY
from .protocol import CODEC_5MV, Transaction


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
    violation_verdict: Verdict = Verdict.JAM

    def __post_init__(self):
        if self.violation_verdict is Verdict.ALLOW:
            raise ValueError("a violation verdict must veto: block or jam, not allow")


def policy_from_dict(doc: dict) -> FilterPolicy:
    """Policy from its YAML/JSON form: ``mode``, that mode's one key and ``violation_verdict``.

    An absent key takes its ``FilterPolicy`` default; anything else raises ``InvalidPolicy``."""

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

    def cap(v) -> int:
        if type(v) is not int:
            raise ValueError(f"cap_mv {v!r} is not an int")
        return v

    if not isinstance(doc, dict):
        raise InvalidPolicy(f"malformed policy: expected a mapping, got {type(doc).__name__}")
    try:
        mode = PolicyMode(doc["mode"])
        readers = {  # the one field each mode enforces, and the verdict on a violation
            PolicyMode.BLOCKLIST: {"blocked_commands": codes},
            PolicyMode.ALLOWLIST: {"allowed_commands": codes},
            PolicyMode.VOLTAGE_CAP: {"cap_mv": cap},
        }[mode] | {"violation_verdict": Verdict}
        stray = set(doc) - {"mode", *readers}
        if stray:
            raise ValueError(f"mode {mode.value!r} does not read {sorted(stray, key=str)}")
        settings = {k: read(doc[k]) for k, read in readers.items() if k in doc}
        return FilterPolicy(mode=mode, **settings)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPolicy(f"malformed policy: {type(exc).__name__}: {exc}") from exc


class BusFilter:
    """Interposer implementation; plugs into Fabric.insert_interposer."""

    def __init__(self, policy: FilterPolicy):
        self.policy = policy
        self.log: list[tuple[Transaction, Verdict]] = []

    def evaluate(self, t: Transaction) -> Verdict:
        policy = self.policy
        command = t.command
        violates = False
        if t.is_write:
            if policy.mode is PolicyMode.BLOCKLIST:
                violates = command in policy.blocked_commands
            elif policy.mode is PolicyMode.ALLOWLIST:
                violates = command not in policy.allowed_commands
            elif command == pm.CMD_MFR_VR_CONFIG:  # voltage cap from here on
                violates = bool(int.from_bytes(t.payload, "little") & pm.VR_CONFIG_VID_STEP_SEL)
            elif command == pm.CMD_VOUT_COMMAND and t.payload:
                violates = CODEC_5MV.voltage(t.payload[0]) > policy.cap_mv
        return policy.violation_verdict if violates else Verdict.ALLOW

    def submit(self, t: Transaction) -> BusReply | None:
        verdict = self.evaluate(t)
        self.log.append((t, verdict))
        if verdict is Verdict.ALLOW:
            return None
        if verdict is Verdict.BLOCK:
            return NACK_REPLY
        return JAMMED_REPLY
