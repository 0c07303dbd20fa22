"""Interposer filter policies: verdicts, the voltage cap and transparency."""

import pytest
import yaml

from pmbus_sim import protocol as pm
from pmbus_sim.fabric import ReplyStatus
from pmbus_sim.filterguard import (
    BusFilter,
    FilterPolicy,
    PolicyMode,
    Verdict,
    policy_from_dict,
)
from pmbus_sim.protocol import Direction, Transaction


def wr(command, value, address=0x20):
    data_len = pm.command_info(command).data_len
    return Transaction(address, Direction.WRITE, command, value.to_bytes(data_len, "little"))


def rd(command, address=0x20):
    return Transaction(address, Direction.READ, command)


BLOCK_MFR = FilterPolicy(
    mode=PolicyMode.BLOCKLIST, blocked_commands=frozenset({0xE4, 0xEE})
)
CAP_1520 = FilterPolicy(mode=PolicyMode.VOLTAGE_CAP, cap_mv=1520)


def test_blocklist_verdicts():
    f = BusFilter(BLOCK_MFR)
    assert f.evaluate(wr(pm.CMD_MFR_VR_CONFIG, 0x0108)) is Verdict.JAM
    assert f.evaluate(wr(pm.CMD_MFR_OCP_TOTAL_SET, 0)) is Verdict.JAM
    assert f.evaluate(wr(pm.CMD_VOUT_COMMAND, 0x00FF)) is Verdict.ALLOW
    assert f.evaluate(rd(pm.CMD_MFR_VR_CONFIG)) is Verdict.ALLOW  # reads always pass


def test_allowlist_verdicts():
    policy = FilterPolicy(
        mode=PolicyMode.ALLOWLIST, allowed_commands=frozenset({pm.CMD_PAGE})
    )
    f = BusFilter(policy)
    assert f.evaluate(wr(pm.CMD_PAGE, 0)) is Verdict.ALLOW
    assert f.evaluate(wr(pm.CMD_OPERATION, 2)) is Verdict.JAM
    assert f.evaluate(rd(pm.CMD_READ_VOUT)) is Verdict.ALLOW


def test_block_verdict_maps_to_nack():
    policy = FilterPolicy(
        mode=PolicyMode.BLOCKLIST,
        blocked_commands=frozenset({pm.CMD_OPERATION}),
        violation_verdict=Verdict.BLOCK,
    )
    f = BusFilter(policy)
    assert f.submit(wr(pm.CMD_OPERATION, 2)).status is ReplyStatus.NACK
    assert f.submit(wr(pm.CMD_PAGE, 0)) is None


def test_jam_verdict_maps_to_jammed():
    f = BusFilter(BLOCK_MFR)
    assert f.submit(wr(pm.CMD_MFR_VR_CONFIG, 8)).status is ReplyStatus.JAMMED


def test_voltage_cap_on_5mv_table():
    f = BusFilter(CAP_1520)
    assert f.evaluate(wr(pm.CMD_VOUT_COMMAND, 0xF5)) is Verdict.ALLOW  # 1520 mV
    assert f.evaluate(wr(pm.CMD_VOUT_COMMAND, 0xF6)) is Verdict.JAM  # 1525 mV


def test_voltage_cap_tracks_step_selector():
    f = BusFilter(CAP_1520)
    # switching in the 10 mV table would let VID 0xF5 mean 2740 mV, so the
    # cap must refuse the selector write itself
    assert f.submit(wr(pm.CMD_MFR_VR_CONFIG, 0x0100)).status is ReplyStatus.JAMMED
    assert f.evaluate(wr(pm.CMD_VOUT_COMMAND, 0xF5)) is Verdict.ALLOW


def test_blocklist_misses_what_it_does_not_name():
    """A blocklist without MFR_OCP_TOTAL_SET still lets protection be stripped."""
    narrow = FilterPolicy(mode=PolicyMode.BLOCKLIST, blocked_commands=frozenset({0xE4}))
    f = BusFilter(narrow)
    assert f.evaluate(wr(pm.CMD_MFR_OCP_TOTAL_SET, 0)) is Verdict.ALLOW


def test_allow_all_is_transparent():
    f = BusFilter(FilterPolicy(mode=PolicyMode.BLOCKLIST))  # blocks no command
    for t in (wr(pm.CMD_MFR_VR_CONFIG, 0x0108), wr(pm.CMD_VOUT_COMMAND, 0x00FF), rd(0x8B)):
        assert f.submit(t) is None


def test_filter_log_records_every_verdict():
    f = BusFilter(BLOCK_MFR)
    f.submit(wr(pm.CMD_VOUT_COMMAND, 0x006E))
    f.submit(wr(pm.CMD_MFR_VR_CONFIG, 8))
    assert [v for _, v in f.log] == [Verdict.ALLOW, Verdict.JAM]


def test_policy_from_yaml_dict():
    policy = policy_from_dict(
        {
            "mode": "blocklist",
            "blocked_commands": ["0xE4", 238],
            "violation_verdict": "block",
        }
    )
    assert policy == FilterPolicy(
        mode=PolicyMode.BLOCKLIST,
        blocked_commands=frozenset({0xE4, 0xEE}),
        allowed_commands=frozenset(),
        cap_mv=1520,
        violation_verdict=Verdict.BLOCK,
    )
    cap = policy_from_dict({"mode": "voltage-cap", "cap_mv": 1400})
    assert cap == FilterPolicy(
        mode=PolicyMode.VOLTAGE_CAP,
        blocked_commands=frozenset(),
        allowed_commands=frozenset(),
        cap_mv=1400,
        violation_verdict=Verdict.JAM,
    )
    # the two documents the CI console step writes; absent keys take the defaults
    ci_cap = policy_from_dict(yaml.safe_load("mode: voltage-cap\ncap_mv: 1520\n"))
    assert ci_cap == FilterPolicy(
        mode=PolicyMode.VOLTAGE_CAP,
        blocked_commands=frozenset(),
        allowed_commands=frozenset(),
        cap_mv=1520,
        violation_verdict=Verdict.JAM,
    )
    ci_blocklist = policy_from_dict(yaml.safe_load("mode: blocklist\nblocked_commands: [0xE4]\n"))
    assert ci_blocklist == FilterPolicy(
        mode=PolicyMode.BLOCKLIST,
        blocked_commands=frozenset({0xE4}),
        allowed_commands=frozenset(),
        cap_mv=1520,
        violation_verdict=Verdict.JAM,
    )


def test_a_violation_verdict_must_veto():
    with pytest.raises(ValueError, match="must veto"):
        FilterPolicy(mode=PolicyMode.VOLTAGE_CAP, violation_verdict=Verdict.ALLOW)
