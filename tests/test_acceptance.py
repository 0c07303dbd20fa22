"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Quantitative tolerances are pinned here and nowhere else:
  - key-recovery rate over 100 seeded undervolt runs must land in [0.15, 0.40];
    the seed-42 campaign is also pinned exactly (counts, simulated minutes and
    a SHA-256 over its run records) and must finish within 5 s
  - peak overvolt output is exactly 2840 mV, destruction after exactly 2 pulses
  - filtered overvolt peaks must stay at or below the 1520 mV cap
Everything else is byte-exact or boolean.
"""

import hashlib
import random
import time
from pathlib import Path

import pytest

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import filterguard as fg
from pmbus_sim import firmware as fw
from pmbus_sim import protocol as pm
from pmbus_sim.bmc import Channel, ChannelKind
from pmbus_sim.crypto import CrtRsaKey, lenstra_recover
from pmbus_sim.detect import detect, render_report
from pmbus_sim.errors import ChainUnavailable
from pmbus_sim.protocol import Direction, Transaction, VidCodec, decode_frame, encode_frame

GOLDEN = Path(__file__).parent / "golden" / "detect_x11_bus1.txt"

RECOVERY_RATE_BAND = (0.15, 0.40)
# seed-42, 100-run campaign: any change to the fault stream moves these
CAMPAIGN_42_STATS = {"faulty": 100, "crashes": 0, "recovered": 28, "simulated_minutes": 870.03}
CAMPAIGN_42_RECORDS_SHA256 = "b1ffa1b6096bd36165df01b1e8d56128ef78da0b5b94f12cb16f5c8d0c63c781"
OVERVOLT_PEAK_MV = 2840
BRICK_PULSES = 2
FILTER_CAP_MV = 1520


def report(number: int, name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {name}")
    assert ok, f"criterion {number}: {name}"


def timed(budget_s: float, started: float, number: int) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"


def test_criterion_01_golden_detection_transcript():
    t0 = time.monotonic()
    platform = Platform.from_profile("x11ssl-cf")
    rendered = render_report(detect(platform.fabric, 1))
    ok = rendered == GOLDEN.read_text()
    candidates = detect(platform.fabric, 1).candidates
    c = candidates[0]
    ok &= (c.address, c.temperature_raw, c.vendor_data) == (0x20, 0x0019, 0x2555)
    ok &= c.vout_by_page == {0: 0x00D8, 1: 0x0001}
    timed(1.0, t0, 1)
    report(1, "golden detection transcript is byte-exact", ok)


def test_criterion_02_scan_parity():
    t0 = time.monotonic()
    platform = Platform.from_profile("x11ssl-cf")
    ok = platform.fabric.scan_bus("cpu", 0) == {0x37, 0x50, 0x58}
    ok &= platform.fabric.scan_bus("cpu", 1) == {
        0x08, 0x10, 0x19, 0x20, 0x30, 0x35, 0x36, 0x44, 0x51,
    }
    timed(1.0, t0, 2)
    report(2, "bus scans reproduce both board maps exactly", ok)


def test_criterion_03_key_recovery_rate():
    t0 = time.monotonic()
    platform = Platform.from_profile("x11ssl-cf", seed=42)
    cfg = camp.CampaignConfig(seed=42, max_runs=100, rsa_bits=512)
    key = CrtRsaKey.generate(cfg.rsa_bits, random.Random(cfg.seed))
    result = camp.run_undervolt_campaign(platform, key, cfg)
    rate = result.stats["recovery_rate"]
    ok = result.stats["runs"] == 100
    ok &= RECOVERY_RATE_BAND[0] <= rate <= RECOVERY_RATE_BAND[1]
    for run in result.runs:
        if run.recovered is not None:
            ok &= camp.factor_is_sound(result.n, run.recovered)
    stats = {k: result.stats[k] for k in CAMPAIGN_42_STATS}
    stats["simulated_minutes"] = round(stats["simulated_minutes"], 2)
    ok &= stats == CAMPAIGN_42_STATS
    records = "\n".join(
        repr((r.index, r.outcome, r.glitch_mv, r.trace, r.faulty_sig, r.recovered))
        for r in result.runs
    )
    ok &= hashlib.sha256(records.encode()).hexdigest() == CAMPAIGN_42_RECORDS_SHA256
    timed(5.0, t0, 3)
    report(3, f"undervolt recovery rate {rate:.0%} within [15%, 40%], factors sound, seed-42 records pinned", ok)


def test_criterion_04_gcd_recovery_oracle():
    t0 = time.monotonic()
    key = CrtRsaKey.from_primes(11, 19, e=7)
    m = 42
    truth = key.sign(m)
    ok = lenstra_recover(key.n, key.e, m, truth) is None
    for faulty in range(key.n):
        if faulty == truth:
            continue
        if faulty % key.p == truth % key.p:
            ok &= lenstra_recover(key.n, key.e, m, faulty) == key.p
        elif faulty % key.q == truth % key.q:
            ok &= lenstra_recover(key.n, key.e, m, faulty) == key.q
    timed(1.0, t0, 4)
    report(4, "gcd recovery matches exhaustive single-branch-fault oracle", ok)


def test_criterion_05_overvolt_brick():
    t0 = time.monotonic()
    platform = Platform.from_profile("x11ssl-cf", seed=3)
    outcome = camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=3))
    ok = outcome.peak_mv == OVERVOLT_PEAK_MV
    ok &= outcome.pulses == BRICK_PULSES and outcome.cpu_status == "bricked"

    one_pulse = Platform.from_profile("x11ssl-cf", seed=3)
    ok &= (
        camp.run_overvolt_attack(one_pulse, camp.CampaignConfig(seed=3), pulses=1).cpu_status
        != "bricked"
    )

    platform.reboot()
    ok &= platform.status == "bricked"
    ok &= platform.physical_power_cycle() == "bricked"

    for ablate in range(len(camp.OVERVOLT_SEQUENCE)):
        p = Platform.from_profile("x11ssl-cf", seed=3)
        ok &= camp.run_overvolt_attack(p, camp.CampaignConfig(seed=3), ablate=ablate).cpu_status != "bricked"
    timed(1.0, t0, 5)
    report(5, "overvolt peaks at 2840 mV, bricks in exactly 2 pulses, persists; ablations never brick", ok)


def test_criterion_06_firmware_roundtrip_and_tampering():
    t0 = time.monotonic()
    platform = Platform.from_profile("x11ssl-cf")
    key = platform.firmware_key
    image = platform.build_stock_firmware()
    pkg = fw.parse_package(image, key)
    ok = fw.repack(pkg, key) == image

    rng = random.Random(2024)
    for _ in range(1000):
        offset = rng.randrange(pkg.footer.body_len)
        corrupted = bytearray(image)
        corrupted[offset] ^= 1 << rng.randrange(8)
        verdict = fw.verify(fw.parse_package(bytes(corrupted), key))
        hit = next(s.name for s in pkg.sections if s.offset <= offset < s.offset + s.length)
        ok &= not verdict.ok and verdict.section_crc[hit] is False
        ok &= all(v for name, v in verdict.section_crc.items() if name != hit)

    patched = fw.enable_root_shell(pkg, key)
    ok &= platform.bmc.upgrade_firmware(Channel(ChannelKind.KCS, host_root=True), patched).accepted

    x12 = Platform.from_profile("x12dpi-nt6")
    pkg12 = fw.parse_package(x12.build_stock_firmware(), x12.firmware_key)
    patched12 = fw.enable_root_shell(pkg12, x12.firmware_key)
    result12 = x12.bmc.upgrade_firmware(Channel(ChannelKind.KCS, host_root=True), patched12)
    ok &= not result12.accepted and result12.reason == "BadSignature"
    timed(10.0, t0, 6)
    report(6, "firmware round-trips, 1000 corruptions flagged per section, X11 accepts / X12 rejects patch", ok)


def test_criterion_07_countermeasure_efficacy():
    t0 = time.monotonic()
    policies = {
        "blocklist": fg.FilterPolicy(
            mode=fg.PolicyMode.BLOCKLIST, blocked_commands=frozenset({0xE4, 0xEE})
        ),
        "voltage-cap": fg.FilterPolicy(mode=fg.PolicyMode.VOLTAGE_CAP, cap_mv=FILTER_CAP_MV),
    }
    ok = True
    for policy in policies.values():
        for seed in range(50):
            platform = Platform.from_profile("x11ssl-cf", seed=seed)
            platform.fabric.insert_interposer(1, fg.BusFilter(policy))
            outcome = camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=seed))
            ok &= outcome.filtered and outcome.peak_mv <= FILTER_CAP_MV
            ok &= outcome.cpu_status != "bricked"
            telemetry = platform.fabric.master_transfer(
                "cpu", 1, Transaction(0x20, Direction.READ, pm.CMD_READ_VOUT)
            )
            ok &= telemetry.ok

    bare = Platform.from_profile("x11ssl-cf", seed=0)
    transparent = Platform.from_profile("x11ssl-cf", seed=0)
    transparent.fabric.insert_interposer(1, fg.BusFilter(fg.FilterPolicy(mode=fg.PolicyMode.BLOCKLIST)))
    probes = [
        Transaction(0x20, Direction.READ, code)
        for code in (pm.CMD_PAGE, pm.CMD_READ_VOUT, pm.CMD_READ_TEMPERATURE, pm.CMD_SVID_VENDOR_PRODUCT_ID)
    ] + [
        Transaction(0x20, Direction.WRITE, pm.CMD_VOUT_COMMAND, b"\x6e\x00"),
        Transaction(0x20, Direction.READ, pm.CMD_VOUT_COMMAND),
    ]
    for t in probes:
        ok &= bare.fabric.master_transfer("cpu", 1, t) == transparent.fabric.master_transfer("cpu", 1, t)
    timed(10.0, t0, 7)
    report(7, "filters hold 100 overvolt attempts at or under 1520 mV; allow-all is bit-transparent", ok)


def test_criterion_08_chain_equivalence():
    t0 = time.monotonic()
    states = []
    for chain in camp.Chain:
        platform = Platform.from_profile("x11ssl-cf", seed=42)
        cfg = camp.CampaignConfig(seed=42, chain=chain, max_runs=10)
        key = CrtRsaKey.generate(cfg.rsa_bits, random.Random(cfg.seed))
        result = camp.run_undervolt_campaign(platform, key, cfg)
        states.append(
            (
                [(r.outcome, r.glitch_mv, tuple(r.trace)) for r in result.runs],
                platform.main_vrm.fingerprint(),
            )
        )
    ok = states[0] == states[1] == states[2]

    blocked = 0
    for chain in camp.Chain:
        x12 = Platform.from_profile("x12dpi-nt6", seed=42)
        try:
            camp.establish_chain(x12, chain)
        except ChainUnavailable:
            blocked += 1
    ok &= blocked == len(camp.Chain)
    timed(5.0, t0, 8)
    report(8, "all three chains match on X11 and are unavailable on X12", ok)


def test_criterion_09_protocol_codec_properties():
    t0 = time.monotonic()
    rng = random.Random(909)
    registry = {code: desc for code in range(0x100) if (desc := pm.command_info(code)) is not None}
    codes = sorted(registry)
    ok = True
    for _ in range(10_000):
        address = rng.randrange(pm.ADDR_MIN, pm.ADDR_MAX + 1)
        if rng.random() < 0.5:
            code = rng.choice(codes)
            if rng.random() < 0.5:
                payload = bytes(rng.randrange(256) for _ in range(registry[code].data_len))
                t = Transaction(address, Direction.WRITE, code, payload)
            else:
                t = Transaction(address, Direction.READ, code)
        else:
            code = rng.randrange(0x100)
            while code in registry:
                code = rng.randrange(0x100)
            t = Transaction(address, Direction.WRITE, code, bytes(rng.randrange(256) for _ in range(rng.randrange(5))))
        frame = encode_frame(t)
        ok &= decode_frame(frame) == t
        ok &= frame[0] == (address << 1) | (0 if t.is_write else 1)

    for _ in range(10_000):
        codec = VidCodec(step_mv=rng.choice([5, 10]))
        vid = rng.randrange(0x100)
        ok &= codec.vid_for(codec.voltage(vid)) == vid

    ok &= encode_frame(Transaction(0x20, Direction.WRITE, 0x21, b"\x6e\x00"))[0] == 0x40
    timed(5.0, t0, 9)
    report(9, "10,000-case frame and VID round-trips plus the address-byte law", ok)


def test_criterion_10_power_down_scenario():
    t0 = time.monotonic()
    platform = Platform.from_profile("e3c246d4i-2t", seed=0)
    outcome = camp.run_power_down_attack(platform, channel="cpu")
    ok = outcome.status_after_attack == "crashed"
    ok &= outcome.status_after_remote_powercycle == "bootloop"
    ok &= outcome.status_after_physical_cycle == "running"

    fresh = Platform.from_profile("e3c246d4i-2t", seed=0)
    refused = False
    try:
        camp.run_power_down_attack(fresh, channel="bmc")
    except Exception:
        refused = True
    ok &= refused and fresh.status == "running"
    timed(1.0, t0, 10)
    report(10, "power-down crashes, boot-loops, recovers on physical cycle; BMC channel refused", ok)
