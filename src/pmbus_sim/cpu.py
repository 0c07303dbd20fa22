"""Voltage-sensitive host CPU model.

Supply voltage drives three regimes: below the crash threshold the CPU
halts; between the crash threshold and the fault onset, computations
suffer random single-bit corruption with a probability that ramps linearly
toward the crash point; at or above the absolute maximum each excursion is
a damage event, and enough events brick the part permanently.

Faults during CRT-RSA signing can land in the mod-p branch, the mod-q
branch, or outside the CRT recombination entirely (a flip in the final
result). Only the single-branch cases leak a factor through the gcd
recovery; the stray case mirrors the large fraction of real faults that
corrupt a signature without being exploitable.

The fault-free branch values ``sp``, ``sq`` and their recombination depend
only on the key and the message, and computing them draws nothing from the
CPU's RNG. ``crypto.crt_branches`` therefore computes them once per
``(key, message)`` and every signing reuses them; the RNG draws that decide
each fault happen in the same order and number either way, so a seeded fault
stream is the same whether or not the values came from the cache.

At a supply where ``p_fault`` is 0 (``Cpu.fault_free``) a signing draws
nothing from the RNG, changes no state and returns that cached signature.
The undervolt campaign therefore skips the signings of a fault-free level
altogether and only advances its clock for them; the fault stream, the RNG
state and the campaign records are the same as if each had been signed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import asdict, dataclass

from .crypto import CrtRsaKey, crt_branches, crt_combine
from .errors import CpuUnavailable, OutOfRange


class CpuStatus(enum.Enum):
    RUNNING = "running"
    STALLED = "stalled"
    CRASHED = "crashed"
    BRICKED = "bricked"


@dataclass(frozen=True)
class FaultModel:
    v_fault_mv: int = 845
    v_crash_mv: int = 800
    v_abs_max_mv: int = 1600
    p_fault_max: float = 0.05
    brick_events_needed: int = 2
    # Relative rate of faults that corrupt the combined signature rather
    # than one CRT branch; tunes the fraction of exploitable faults.
    stray_fault_weight: float = 5.3

    def __post_init__(self) -> None:
        if not self.v_crash_mv < self.v_fault_mv < self.v_abs_max_mv:
            raise OutOfRange(
                f"fault model needs v_crash_mv < v_fault_mv < v_abs_max_mv, got "
                f"{self.v_crash_mv} / {self.v_fault_mv} / {self.v_abs_max_mv} mV"
            )
        if not 0 <= self.p_fault_max <= 1:
            raise OutOfRange(f"p_fault_max {self.p_fault_max} outside [0, 1]")
        if not self.stray_fault_weight >= 0:
            raise OutOfRange(f"stray_fault_weight {self.stray_fault_weight} is negative")
        if not self.brick_events_needed >= 1:
            raise OutOfRange(f"brick_events_needed {self.brick_events_needed} is below 1")

    def p_fault(self, supply_mv: int) -> float:
        span = self.v_fault_mv - self.v_crash_mv
        p = self.p_fault_max * (self.v_fault_mv - supply_mv) / span
        return min(max(p, 0.0), self.p_fault_max)


@dataclass(frozen=True)
class FaultySignature:
    value: int
    flipped: frozenset[str]  # subset of {"p", "q", "s"}

    @property
    def single_branch(self) -> bool:
        return self.flipped in (frozenset({"p"}), frozenset({"q"}))


class Cpu:
    def __init__(self, model: FaultModel | None = None, seed: int = 0, nominal_mv: int = 1375):
        self.model = model or FaultModel()
        self.nominal_mv = nominal_mv
        self.status = CpuStatus.RUNNING
        self.supply_mv = nominal_mv
        self.damage_events = 0
        self.rng_seed = seed
        self.rng = random.Random(seed)

    def reseed(self, seed: int) -> None:
        self.rng_seed = seed
        self.rng = random.Random(seed)

    # -- supply ----------------------------------------------------------------

    def set_supply(self, mv: int) -> None:
        if self.status is CpuStatus.BRICKED:
            return
        self.supply_mv = mv
        if mv >= self.model.v_abs_max_mv:
            self.damage_events += 1
            if self.damage_events >= self.model.brick_events_needed:
                self.status = CpuStatus.BRICKED
        elif mv <= self.model.v_crash_mv:
            self.status = CpuStatus.CRASHED

    def reboot(self) -> None:
        """Power-button cycle: clears a crash or stall, never a brick."""
        if self.status is CpuStatus.BRICKED:
            return
        self.status = CpuStatus.RUNNING
        self.supply_mv = self.nominal_mv

    # -- workloads ---------------------------------------------------------------

    def _require_running(self) -> None:
        if self.status is not CpuStatus.RUNNING:
            raise CpuUnavailable(f"CPU is {self.status.value}")

    @property
    def fault_free(self) -> bool:
        """Whether signing at the present supply cannot fault (and so draws nothing)."""
        return self.model.p_fault(self.supply_mv) == 0

    def _flip_bit(self, value: int, width: int) -> int:
        return value ^ (1 << self.rng.randrange(max(width, 1)))

    def sign_crt_rsa(self, key: CrtRsaKey, message: int) -> int | FaultySignature:
        self._require_running()
        if not 0 <= message < key.n:
            raise ValueError("message must be reduced modulo n")
        sp, sq, sig = crt_branches(key, message)
        p_fault = self.model.p_fault(self.supply_mv)
        if p_fault == 0:
            return sig
        flipped: set[str] = set()
        if self.rng.random() < p_fault:
            sp = self._flip_bit(sp, key.p.bit_length())
            flipped.add("p")
        if self.rng.random() < p_fault:
            sq = self._flip_bit(sq, key.q.bit_length())
            flipped.add("q")
        if flipped:
            sig = crt_combine(sp, sq, key.p, key.q, key.qinv)
        if self.rng.random() < p_fault * self.model.stray_fault_weight:
            sig = self._flip_bit(sig, key.n.bit_length()) % key.n
            flipped.add("s")
        if not flipped:
            return sig
        return FaultySignature(value=sig, flipped=frozenset(flipped))

    def run_multiply_check(
        self, iterations: int, operands: tuple[int, int] = (0xAE0000, 0x18)
    ) -> tuple[int, int] | None:
        """Repeat a fixed multiply; return (faulty product, iteration) or None."""
        self._require_running()
        a, b = operands
        truth = a * b
        p_fault = self.model.p_fault(self.supply_mv)
        for i in range(iterations):
            if p_fault > 0 and self.rng.random() < p_fault:
                return self._flip_bit(truth, truth.bit_length()), i
        return None

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "supply_mv": self.supply_mv,
            "damage_events": self.damage_events,
            "rng_seed": self.rng_seed,
            "nominal_mv": self.nominal_mv,
            "model": asdict(self.model),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Cpu":
        cpu = cls(
            model=FaultModel(**data["model"]),
            seed=data["rng_seed"],
            nominal_mv=data["nominal_mv"],
        )
        cpu.status = CpuStatus(data["status"])
        cpu.supply_mv = data["supply_mv"]
        cpu.damage_events = data["damage_events"]
        return cpu
