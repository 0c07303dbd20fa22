"""Attack orchestration: control chains, undervolting, overvolting, power-down."""

import hashlib
import random

import pytest

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import protocol as pm
from pmbus_sim.cpu import CpuStatus
from pmbus_sim.crypto import CrtRsaKey
from pmbus_sim.errors import BrickedPlatform, ChainUnavailable, ChannelBlocked, WrongProfile


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


def test_power_down_wrong_vendor():
    platform = Platform.from_profile("x11ssl-cf", seed=0)
    with pytest.raises(WrongProfile):
        camp.run_power_down_attack(platform, channel="cpu")
