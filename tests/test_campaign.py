"""Attack orchestration: control chains, undervolting, overvolting, power-down."""

import hashlib
import importlib.resources
import random

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import filterguard as fg
from pmbus_sim import protocol as pm
from pmbus_sim.cpu import CpuStatus
from pmbus_sim.crypto import CrtRsaKey
from pmbus_sim.errors import BrickedPlatform, ChainUnavailable, ChannelBlocked, WrongProfile
from pmbus_sim.fabric import JAMMED_REPLY


def short_cfg(seed, chain=camp.Chain.IPMI_I2C, runs=8):
    return camp.CampaignConfig(seed=seed, chain=chain, max_runs=runs)


def run_short(platform, seed, chain):
    key = CrtRsaKey.generate(512, random.Random(seed))
    return camp.run_undervolt_campaign(platform, key, short_cfg(seed, chain))


def test_config_validation():
    with pytest.raises(ValueError):
        camp.CampaignConfig(seed=0, floor_mv=950)
    with pytest.raises(ValueError):
        camp.CampaignConfig(seed=0, step_mv=0)
    with pytest.raises(ValueError):
        camp.CampaignConfig(seed=0, rsa_bits=7)
    # levels the VID table cannot encode (its top is 1570 mV)
    for overrides in ({"start_mv": 1575}, {"start_mv": 2000}, {"floor_mv": -5}):
        with pytest.raises(ValueError):
            camp.CampaignConfig(seed=0, **overrides)


@settings(max_examples=40, deadline=None)
@given(
    start_mv=st.integers(-20, 2000), floor_mv=st.integers(-20, 2000), step_mv=st.integers(1, 400)
)
def test_every_accepted_config_ends_out_of_override(start_mv, floor_mv, step_mv, small_key):
    """A config either fails up front or runs to its restore writes."""
    try:
        cfg = camp.CampaignConfig(
            seed=0, start_mv=start_mv, floor_mv=floor_mv, step_mv=step_mv, max_runs=1
        )
    except ValueError:
        return
    platform = Platform.from_profile("x11ssl-cf")
    camp.run_undervolt_campaign(platform, small_key, cfg)
    assert not platform.main_vrm.override_active


@pytest.mark.parametrize("chain", list(camp.Chain))
def test_every_chain_reaches_the_x11_vrm(chain):
    platform = Platform.from_profile("x11ssl-cf", seed=1)
    write = camp.establish_chain(platform, chain)
    assert write(pm.CMD_VOUT_COMMAND, 0x006E).ok
    assert platform.main_vrm.registers[0][pm.CMD_VOUT_COMMAND] == 0x6E


@pytest.mark.parametrize("chain", list(camp.Chain))
def test_every_chain_blocked_on_x12(chain):
    platform = Platform.from_profile("x12dpi-nt6", seed=1)
    with pytest.raises(ChainUnavailable):
        camp.establish_chain(platform, chain)


@pytest.mark.parametrize("chain", [camp.Chain.LAN_FIRMWARE, camp.Chain.KCS_FIRMWARE])
def test_firmware_chain_refused_before_the_upgrade_when_the_bmc_cannot_write_the_vrm(
    asrock, small_key, chain
):
    """The Intersil VRM takes writes from the CPU only, so a root shell on the BMC could not reach it.

    The campaign used to install the root shell and then make runs whose every VRM write was NACKed."""
    with pytest.raises(ChainUnavailable, match="cannot write the VRM"):
        camp.run_undervolt_campaign(asrock, small_key, camp.CampaignConfig(seed=1, chain=chain, max_runs=3))
    assert asrock.bmc.installed_digest is None and asrock.bmc.root_shell is False
    assert asrock.fabric.transcript == []


class JamLadderVout:
    """Interposer that jams every VOUT_COMMAND write except the override set-up's nominal VID."""

    def __init__(self, nominal_vid):
        self.keep = pm.encode_value(pm.CMD_VOUT_COMMAND, nominal_vid)

    def submit(self, t):
        if t.is_write and t.command == pm.CMD_VOUT_COMMAND and t.payload != self.keep:
            return JAMMED_REPLY
        return None


@pytest.mark.parametrize("where", ["override", "ladder"])
def test_a_refused_campaign_write_ends_the_campaign(small_key, where):
    """A jammed VOUT_COMMAND used to leave the override running the rail on VID 0 (off),
    reported as a crash at 900 mV on every run."""
    platform = Platform.from_profile("x11ssl-cf", seed=1)
    bus, _ = next(iter(platform.vrms))
    if where == "override":
        blocked = frozenset({pm.CMD_VOUT_COMMAND})
        interposer = fg.BusFilter(fg.FilterPolicy(mode=fg.PolicyMode.BLOCKLIST, blocked_commands=blocked))
    else:
        interposer = JamLadderVout(platform.main_vrm.svid_vid)
    platform.fabric.insert_interposer(bus, interposer)
    with pytest.raises(ChainUnavailable, match=r"VOUT_COMMAND \(0x21\): jammed"):
        camp.run_undervolt_campaign(platform, small_key, short_cfg(1, runs=2))
    assert not platform.main_vrm.override_active
    assert platform.status == "running"
    ladder_vids = {pm.CODEC_5MV.vid_for(mv) for mv in range(900, 789, -5)}
    ladder_lines = {f"W 0x20 0x21 [{vid:02X} 00] ack" for vid in ladder_vids}
    assert not ladder_lines & set(platform.fabric.transcript)


class JamZeroRestores:
    """Interposer that jams the campaign's restore writes: MFR_VR_CONFIG and OPERATION set to zero."""

    def submit(self, t):
        restore = t.command in (pm.CMD_MFR_VR_CONFIG, pm.CMD_OPERATION) and not any(t.payload)
        return JAMMED_REPLY if t.is_write and restore else None


def test_a_refused_restore_write_ends_the_campaign():
    """The campaign used to report two faulty runs at 840 mV and leave the rail in override.

    A firmware chain, because the IPMI chain's probe writes OPERATION=0 and would be jammed first."""
    platform = Platform.from_profile("x11ssl-cf", seed=5)
    bus, _ = next(iter(platform.vrms))
    platform.fabric.insert_interposer(bus, JamZeroRestores())
    key = CrtRsaKey.generate(512, random.Random(5))
    with pytest.raises(ChainUnavailable, match=r"MFR_VR_CONFIG \(0xE4\): jammed"):
        camp.run_undervolt_campaign(platform, key, short_cfg(5, camp.Chain.KCS_FIRMWARE, runs=2))
    # the first run's restore ends the campaign: one override set-up reached the VRM
    assert platform.fabric.transcript.count("W 0x20 0x01 [02] ack") == 1
    assert platform.main_vrm.override_active  # the jam holds the rail there; the raise says so


@pytest.mark.parametrize("chain", list(camp.Chain))
def test_a_chain_to_a_disconnected_vrm_is_refused_before_it_acts(edited_board, chain):
    """With the VRM's jumpers open no master reaches it. A firmware chain used to say the BMC
    cannot write the VRM, and the IPMI chain that its passthrough cannot reach it."""
    platform = edited_board("x11ssl-cf", lambda doc: doc["jumpers"].update(SMBDAT_VRM="disconnected"))
    with pytest.raises(ChainUnavailable, match="^BMC has no route to the VRM segment$"):
        camp.establish_chain(platform, chain)
    assert platform.bmc.installed_digest is None and platform.bmc.root_shell is False
    assert platform.fabric.transcript == []


def test_power_down_of_a_disconnected_vrm_is_refused_before_it_acts(edited_board):
    """It used to send the PAGE write and report that the CPU cannot write to the VRM."""
    platform = edited_board("x11ssl-cf", lambda doc: doc["jumpers"].update(SMBDAT_VRM="disconnected"))
    with pytest.raises(ChannelBlocked, match="^cpu has no route to the VRM bus$"):
        camp.run_power_down_attack(platform, channel="cpu")
    assert platform.bmc.installed_digest is None and platform.bmc.root_shell is False
    assert platform.fabric.transcript == [] and platform.status == "running"


def test_chains_are_interchangeable():
    outcomes = {}
    for chain in camp.Chain:
        platform = Platform.from_profile("x11ssl-cf", seed=42)
        result = run_short(platform, 42, chain)
        outcomes[chain] = (
            [(r.outcome, r.glitch_mv, r.trace, r.faulty_sig, r.recovered) for r in result.runs],
            platform.main_vrm.fingerprint(),
        )
    values = list(outcomes.values())
    assert values[0] == values[1] == values[2]


def test_undervolt_restores_nominal_between_runs():
    platform = Platform.from_profile("x11ssl-cf", seed=5)
    run_short(platform, 5, camp.Chain.IPMI_I2C)
    assert platform.main_vrm.output_mv == 1375
    assert not platform.main_vrm.override_active
    assert platform.cpu.status is CpuStatus.RUNNING


def test_undervolt_traces_descend_within_config_window():
    platform = Platform.from_profile("x11ssl-cf", seed=5)
    cfg = camp.CampaignConfig(seed=5, start_mv=880, floor_mv=820, step_mv=10, max_runs=5)
    key = CrtRsaKey.generate(512, random.Random(5))
    result = camp.run_undervolt_campaign(platform, key, cfg)
    for run in result.runs:
        assert run.trace[0] == 880
        assert all(a - b == 10 for a, b in zip(run.trace, run.trace[1:]))
        assert run.trace[-1] >= 820


# Configs around the default that move where a run faults, crashes or stops:
# coarser and finer steps, fewer and more signings per level, a start below
# the fault onset (every level can fault), a floor at the crash point and one
# above the onset (no level can fault).
PINNED_CONFIGS = (
    {},
    {"step_mv": 3},
    {"step_mv": 10},
    {"signings_per_level": 1},
    {"signings_per_level": 7},
    {"signings_per_level": 50},
    {"start_mv": 840},
    {"floor_mv": 800},
    {"floor_mv": 850},
)
# SHA-256 over every run record, repr(simulated_seconds) and the final CPU RNG
# state of each (seed, config) campaign below, recorded while every signing of
# every level was still simulated: skipping fault-free levels must not move it.
PINNED_CAMPAIGNS_SHA256 = "b90c2e040ed97885af12ac610d78d8642f5726bdec07dba07a1427ad3adeb35c"


def pinned_campaigns_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(20):
        key = CrtRsaKey.generate(256, random.Random(seed))
        for overrides in PINNED_CONFIGS:
            cfg = camp.CampaignConfig(seed=seed, max_runs=5, rsa_bits=256, **overrides)
            platform = Platform.from_profile("x11ssl-cf", seed=seed)
            result = camp.run_undervolt_campaign(platform, key, cfg)
            for r in result.runs:
                record = (r.index, r.outcome, r.glitch_mv, r.trace, r.faulty_sig, r.recovered)
                digest.update(repr(record).encode())
            digest.update(repr(result.simulated_seconds).encode())
            digest.update(repr(platform.cpu.rng.getstate()).encode())
    return digest.hexdigest()


def test_campaign_outputs_pinned_across_seeds_and_configs():
    assert pinned_campaigns_digest() == PINNED_CAMPAIGNS_SHA256


def test_recovered_factor_divides_n():
    platform = Platform.from_profile("x11ssl-cf", seed=42)
    result = run_short(platform, 42, camp.Chain.IPMI_I2C)
    hits = [r for r in result.runs if r.recovered is not None]
    assert hits, "expected at least one recovery in 8 seeded runs"
    for run in hits:
        assert camp.factor_is_sound(result.n, run.recovered)


def test_bricked_platform_refuses_campaigns():
    platform = Platform.from_profile("x11ssl-cf", seed=3)
    camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=3))
    assert platform.status == "bricked"
    with pytest.raises(BrickedPlatform):
        run_short(platform, 3, camp.Chain.IPMI_I2C)


# -- overvolting ---------------------------------------------------------------------


def test_overvolt_destroys_in_two_pulses():
    platform = Platform.from_profile("x11ssl-cf", seed=3)
    outcome = camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=3))
    assert outcome.peak_mv == 2840
    assert outcome.pulses == 2
    assert outcome.cpu_status == "bricked"


def test_single_pulse_damages_without_bricking():
    platform = Platform.from_profile("x11ssl-cf", seed=3)
    outcome = camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=3), pulses=1)
    assert outcome.cpu_status == "running"
    assert platform.cpu.damage_events == 1


@pytest.mark.parametrize("ablate", range(len(camp.OVERVOLT_SEQUENCE)))
def test_every_write_in_the_sequence_is_load_bearing(ablate):
    platform = Platform.from_profile("x11ssl-cf", seed=3)
    outcome = camp.run_overvolt_attack(platform, camp.CampaignConfig(seed=3), ablate=ablate)
    assert outcome.cpu_status != "bricked"
    assert outcome.peak_mv < 1600


# -- power-down ------------------------------------------------------------------------


def test_power_down_full_story():
    platform = Platform.from_profile("e3c246d4i-2t", seed=0)
    outcome = camp.run_power_down_attack(platform, channel="cpu")
    assert outcome.status_after_attack == "crashed"
    assert outcome.status_after_remote_powercycle == "bootloop"
    assert outcome.status_after_physical_cycle == "running"
    assert platform.main_vrm.powered


def test_power_down_bmc_channel_refused():
    platform = Platform.from_profile("e3c246d4i-2t", seed=0)
    with pytest.raises(ChannelBlocked):
        camp.run_power_down_attack(platform, channel="bmc")


def test_power_down_bmc_channel_obeys_the_x12_filter(x12):
    """The BMC channel writes through the IPMI I2C passthrough, so X12 refuses it before any write."""
    before = x12.fabric.state_fingerprint()
    with pytest.raises(ChainUnavailable):
        camp.run_power_down_attack(x12, channel="bmc")
    assert x12.fabric.transcript == []
    assert x12.fabric.state_fingerprint() == before


def test_power_down_bmc_channel_cannot_crash_an_x12_board(tmp_path):
    """An Intersil VRM the BMC may write to stays up when the board's generation is X12."""
    builtin = importlib.resources.files("pmbus_sim").joinpath("profiles/e3c246d4i-2t.yaml")
    doc = yaml.safe_load(builtin.read_text())
    del doc["devices"][1]["write_masters"]
    doc["bmc"]["generation"] = "X12"
    path = tmp_path / "x12-intersil.yaml"
    path.write_text(yaml.safe_dump(doc))
    platform = Platform.from_profile(str(path))
    with pytest.raises(ChainUnavailable):
        camp.run_power_down_attack(platform, channel="bmc")
    assert platform.status == "running" and platform.main_vrm.powered
    doc["bmc"]["generation"] = "X11"  # the same board with an X11 BMC goes down
    path.write_text(yaml.safe_dump(doc))
    outcome = camp.run_power_down_attack(Platform.from_profile(str(path)), channel="bmc")
    assert outcome.status_after_attack == "crashed"


def test_power_down_wrong_vendor():
    platform = Platform.from_profile("x11ssl-cf", seed=0)
    with pytest.raises(WrongProfile):
        camp.run_power_down_attack(platform, channel="cpu")


def test_refused_power_down_restores_the_page():
    """The MPS VRM ACKs PAGE 1, then NACKs ON_OFF_CONFIG; the refusal leaves it on its rail page,
    so a later overvolt lands on the rail as it does on a fresh board."""
    platform = Platform.from_profile("x11ssl-cf", seed=0)
    with pytest.raises(WrongProfile):
        camp.run_power_down_attack(platform, channel="cpu")
    assert platform.main_vrm.page == platform.main_vrm.config.rail_page
    fresh = Platform.from_profile("x11ssl-cf", seed=0)
    assert camp.run_overvolt_attack(platform) == camp.run_overvolt_attack(fresh)
