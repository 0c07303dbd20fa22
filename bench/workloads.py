"""The three benchmark workloads: seeded input generators, ops and output checks.

An op is one scenario, from profile name and seed to a checked result. Every
op builds its own platform, as each CLI command and test does, except the
signed-image refusal, whose X12 board is built once in setup because building
it generates an unseeded 2048-bit RSA key from OS entropy.

Only the generator (``Workload.op_input``) reads the workload seed; an op sees
the generated input alone. The input of op ``i`` depends on ``(seed, i)``
only, so every run with one seed replays the same op sequence, however many
ops fit in its time.

An op returns an ``Outcome``: the canonical text of every simulated output
it produced (campaign records, transcripts, attack outcomes, VRM
fingerprints), which the harness hashes into the run digest, and the lengths
of the transcripts and filter logs it left behind. A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from pathlib import Path

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import filterguard as fg
from pmbus_sim import firmware as fw
from pmbus_sim import protocol as pm
from pmbus_sim.bmc import Channel, ChannelKind
from pmbus_sim.crypto import CrtRsaKey
from pmbus_sim.errors import ChainUnavailable

# `pmbus_sim/__init__.py` rebinds the name `detect` to the function, so the
# module is fetched by its full name.
detect_mod = importlib.import_module("pmbus_sim.detect")

OVERVOLT_PEAK_MV = 2840
BRICK_PULSES = 2
FILTER_CAP_MV = 1520


class CheckFailed(Exception):
    """An op's simulated output disagrees with the expected result."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Outcome:
    text: str
    transcript_lines: int
    filter_log_entries: int = 0


def _platform_text(platform: Platform) -> str:
    return "\n".join(platform.fabric.transcript) + f"\n{platform.fabric.state_fingerprint()!r}"


class Workload:
    """One seeded, closed-loop op sequence."""

    name = ""
    # Ops whose outputs make up the run digest and the exact counts; a run
    # always completes at least this many, so both repeat exactly per seed.
    window = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._inputs: list[dict] = []
        self._rng = random.Random(f"{self.name}:{seed}")

    def op_input(self, index: int) -> dict:
        while len(self._inputs) <= index:
            self._inputs.append(self._generate(len(self._inputs)))
        return self._inputs[index]

    def _generate(self, index: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Untimed one-off work done before the first op."""

    def warmup(self) -> None:
        """Run every op kind once, untimed, so lazy imports and caches fill."""
        for index in range(self.window):
            self.run(self.op_input(index))

    def run(self, op: dict) -> Outcome:
        raise NotImplementedError


class Undervolt(Workload):
    """The paper's headline campaign: 100 runs on x11ssl-cf over IPMI I2C."""

    name = "undervolt"
    window = 1

    def _generate(self, index: int) -> dict:
        return {"seed": self._rng.getrandbits(32), "max_runs": 100}

    def warmup(self) -> None:
        # A full campaign takes seconds; two runs reach every code path.
        self.run({"seed": self.op_input(0)["seed"], "max_runs": 2})

    def run(self, op: dict) -> Outcome:
        seed = op["seed"]
        platform = Platform.from_profile("x11ssl-cf", seed=seed)
        cfg = camp.CampaignConfig(seed=seed, chain=camp.Chain.IPMI_I2C, max_runs=op["max_runs"])
        key = CrtRsaKey.generate(cfg.rsa_bits, random.Random(seed))
        result = camp.run_undervolt_campaign(platform, key, cfg)
        check(len(result.runs) == op["max_runs"], f"{len(result.runs)} campaign records")
        for record in result.runs:
            if record.recovered is not None:
                check(camp.factor_is_sound(result.n, record.recovered), f"run {record.index} factor")
        records = "\n".join(
            repr((r.index, r.outcome, r.glitch_mv, r.trace, r.faulty_sig, r.recovered))
            for r in result.runs
        )
        text = (
            f"{records}\n{result.recovered_factor} {result.n} {result.e} "
            f"{result.simulated_seconds!r} {platform.status}\n{_platform_text(platform)}"
        )
        return Outcome(text, len(platform.fabric.transcript))


GOLDEN_DETECT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "detect_x11_bus1.txt"

BUS_SCENARIOS = (
    "detect-x11-bus1",
    "detect-e3c-bus2",
    "overvolt",
    "ablate-0",
    "ablate-1",
    "ablate-2",
    "ablate-3",
    "overvolt-voltage-cap",
    "overvolt-blocklist",
    "power-down",
)

FILTER_POLICIES = {
    "overvolt-voltage-cap": fg.FilterPolicy(mode=fg.PolicyMode.VOLTAGE_CAP, cap_mv=FILTER_CAP_MV),
    "overvolt-blocklist": fg.FilterPolicy(
        mode=fg.PolicyMode.BLOCKLIST,
        blocked_commands=frozenset({pm.CMD_MFR_VR_CONFIG, pm.CMD_MFR_OCP_TOTAL_SET}),
    ),
}


class BusAttacks(Workload):
    """Short per-transaction scenarios on fresh boards: no signing, no firmware."""

    name = "bus_attacks"
    window = len(BUS_SCENARIOS)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rotation = list(BUS_SCENARIOS)
        self._rng.shuffle(self.rotation)

    def _generate(self, index: int) -> dict:
        scenario = self.rotation[index % len(self.rotation)]
        return {"scenario": scenario, "seed": self._rng.getrandbits(32)}

    def setup(self) -> None:
        self.golden = GOLDEN_DETECT.read_text()

    def run(self, op: dict) -> Outcome:
        scenario, seed = op["scenario"], op["seed"]
        if scenario.startswith("detect"):
            return self._detect(scenario, seed)
        if scenario == "power-down":
            return self._power_down(seed)
        return self._overvolt(scenario, seed)

    def _detect(self, scenario: str, seed: int) -> Outcome:
        profile, bus = ("x11ssl-cf", 1) if scenario == "detect-x11-bus1" else ("e3c246d4i-2t", 2)
        platform = Platform.from_profile(profile, seed=seed)
        report = detect_mod.detect(platform.fabric, bus)
        rendered = detect_mod.render_report(report)
        found = [(c.address, c.vendor, c.confirmed, c.plausible) for c in report.candidates]
        if profile == "x11ssl-cf":
            check(rendered == self.golden, "x11ssl-cf bus 1 detect differs from the golden file")
        else:
            check(found == [(0x60, "Intersil", True, True)], f"e3c246d4i-2t bus 2 detect {found}")
        text = f"{rendered}{report.candidates!r}\n{_platform_text(platform)}"
        return Outcome(text, len(platform.fabric.transcript))

    def _overvolt(self, scenario: str, seed: int) -> Outcome:
        platform = Platform.from_profile("x11ssl-cf", seed=seed)
        bus_filter = None
        if scenario in FILTER_POLICIES:
            bus_filter = fg.BusFilter(FILTER_POLICIES[scenario])
            platform.fabric.insert_interposer(next(iter(platform.vrms))[0], bus_filter)
        ablate = int(scenario.split("-")[1]) if scenario.startswith("ablate") else None
        outcome = camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=seed), ablate=ablate)
        if bus_filter is not None:
            check(outcome.filtered, f"{scenario}: no write was vetoed")
            check(outcome.peak_mv <= FILTER_CAP_MV, f"{scenario}: peak {outcome.peak_mv} mV")
            check(outcome.cpu_status == "running", f"{scenario}: board {outcome.cpu_status}")
        elif ablate is not None:
            check(outcome.cpu_status != "bricked", f"{scenario}: board bricked")
        else:
            check(outcome.peak_mv == OVERVOLT_PEAK_MV, f"overvolt peak {outcome.peak_mv} mV")
            check(
                (outcome.pulses, outcome.cpu_status) == (BRICK_PULSES, "bricked"),
                f"overvolt {outcome.pulses} pulses, board {outcome.cpu_status}",
            )
        log = bus_filter.log if bus_filter is not None else []
        log_text = "\n".join(f"{t.text()} {verdict.value}" for t, verdict in log)
        text = f"{outcome!r}\n{log_text}\n{_platform_text(platform)}"
        return Outcome(text, len(platform.fabric.transcript), len(log))

    def _power_down(self, seed: int) -> Outcome:
        platform = Platform.from_profile("e3c246d4i-2t", seed=seed)
        outcome = camp.run_power_down_attack(platform, channel="cpu")
        states = (
            outcome.status_after_attack,
            outcome.status_after_remote_powercycle,
            outcome.status_after_physical_cycle,
        )
        check(states == ("crashed", "bootloop", "running"), f"power-down went {states}")
        return Outcome(f"{outcome!r}\n{_platform_text(platform)}", len(platform.fabric.transcript))


CHAINS = (camp.Chain.LAN_FIRMWARE, camp.Chain.KCS_FIRMWARE)


class FirmwareChain(Workload):
    """Firmware build, patch and upgrade paths; the bus is almost idle."""

    name = "firmware_chain"
    # Kinds alternate chain, refusal, tamper; the chain alternates LAN, KCS.
    window = 6

    def _generate(self, index: int) -> dict:
        kind = ("chain", "signed-refusal", "tamper")[index % 3]
        op = {"kind": kind, "chain": CHAINS[(index // 3) % 2].value, "seed": self._rng.getrandbits(32)}
        if kind == "tamper":
            op["offset_fraction"] = self._rng.random()
            op["bit"] = self._rng.randrange(8)
        return op

    def setup(self) -> None:
        self.x12 = Platform.from_profile("x12dpi-nt6", seed=self.seed)
        self.x12.vendor_signing_key  # the unseeded RSA keygen, kept out of timed ops

    def run(self, op: dict) -> Outcome:
        if op["kind"] == "chain":
            return self._chain(camp.Chain(op["chain"]), op["seed"])
        if op["kind"] == "signed-refusal":
            return self._signed_refusal(camp.Chain(op["chain"]))
        return self._tamper(op)

    def _chain(self, chain: camp.Chain, seed: int) -> Outcome:
        platform = Platform.from_profile("x11ssl-cf", seed=seed)
        write = camp.establish_chain(platform, chain)
        check(platform.bmc.root_shell, f"{chain.value}: no root shell")
        vid = platform.main_vrm.svid_vid
        reply = write(pm.CMD_VOUT_COMMAND, vid)
        rail = platform.main_vrm.registers[platform.main_vrm.config.rail_page]
        check(reply.ok and rail[pm.CMD_VOUT_COMMAND] == vid, f"{chain.value}: VRM write {reply}")
        text = f"{platform.bmc.installed_digest} {reply!r}\n{_platform_text(platform)}"
        return Outcome(text, len(platform.fabric.transcript))

    def _signed_refusal(self, chain: camp.Chain) -> Outcome:
        # The X12 vendor key is random per process, so the refusal text is
        # the only output hashed here; image bytes are not.
        try:
            camp.establish_chain(self.x12, chain)
        except ChainUnavailable as exc:
            check("BadSignature" in str(exc), f"x12dpi-nt6 {chain.value}: {exc}")
            check(self.x12.bmc.installed_digest is None, "x12dpi-nt6 installed the refused image")
            return Outcome(f"{type(exc).__name__}: {exc}", len(self.x12.fabric.transcript))
        raise CheckFailed(f"x12dpi-nt6 accepted the {chain.value} chain")

    def _tamper(self, op: dict) -> Outcome:
        platform = Platform.from_profile("x11ssl-cf", seed=op["seed"])
        image = platform.build_stock_firmware()
        body_len = fw.parse_package(image, platform.firmware_key).footer.body_len
        offset = int(op["offset_fraction"] * body_len)
        tampered = bytearray(image)
        tampered[offset] ^= 1 << op["bit"]
        result = platform.bmc.upgrade_firmware(Channel(ChannelKind.KCS, host_root=True), bytes(tampered))
        check(
            (result.accepted, result.reason) == (False, "BadCrc"),
            f"bit {op['bit']} at offset {offset}: {result}",
        )
        check(platform.bmc.installed_digest is None, "tampered image left an installed digest")
        text = f"{offset} {op['bit']} {result!r}\n{_platform_text(platform)}"
        return Outcome(text, len(platform.fabric.transcript))


WORKLOADS = {w.name: w for w in (Undervolt, BusAttacks, FirmwareChain)}
