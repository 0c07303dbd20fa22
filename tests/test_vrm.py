"""Voltage regulator register semantics for both vendor profiles."""

import pytest
from hypothesis import given, strategies as st

from pmbus_sim import protocol as pm
from pmbus_sim.protocol import Direction, Transaction
from pmbus_sim.vrm import VrmConfig, VrmDevice, VrmVendor


def mps(address=0x20, **kwargs):
    return VrmDevice(VrmConfig(vendor=VrmVendor.MPS, **kwargs), address)


def intersil(**kwargs):
    return VrmDevice(VrmConfig(vendor=VrmVendor.INTERSIL, rail_page=1, initial_vid=0x8C, **kwargs), 0x60)


def write(vrm, command, value):
    data_len = pm.command_info(command).data_len
    t = Transaction(vrm.address, Direction.WRITE, command, value.to_bytes(data_len, "little"))
    return vrm.handle(t)


def read(vrm, command):
    reply = vrm.handle(Transaction(vrm.address, Direction.READ, command))
    return int.from_bytes(reply.data, "little") if reply.ok else None


def test_initial_output():
    assert mps().output_mv == 1375  # VID 0xD8 on the 5 mV table
    assert intersil().output_mv == 995  # VID 0x8C


def test_vendor_command_sets():
    m, i = mps(), intersil()
    assert read(m, pm.CMD_SVID_VENDOR_PRODUCT_ID) == 0x2555
    assert read(m, pm.CMD_ISL_DEVICE_ID) is None
    assert not write(m, pm.CMD_ON_OFF_CONFIG, 0x08).ok
    assert read(i, pm.CMD_ISL_DEVICE_ID) is not None
    assert read(i, pm.CMD_SVID_VENDOR_PRODUCT_ID) is None
    assert read(i, pm.CMD_MFR_ADDR_PMBUS) is None
    assert not write(i, pm.CMD_VOUT_COMMAND, 0x00FF).ok
    assert not write(i, pm.CMD_MFR_VR_CONFIG, 0x0008).ok


def test_mfr_addr_echoes_bus_address():
    vrm = mps(address=0x35)
    assert read(vrm, pm.CMD_MFR_ADDR_PMBUS) == 0x35


@pytest.mark.parametrize(
    "operation,config,active",
    [
        (0x00, 0x0000, False),
        (0x02, 0x0000, False),
        (0x00, 0x0008, False),
        (0x02, 0x0008, True),
    ],
)
def test_override_needs_both_bits(operation, config, active):
    vrm = mps()
    write(vrm, pm.CMD_VOUT_COMMAND, 0x006E)
    write(vrm, pm.CMD_OPERATION, operation)
    write(vrm, pm.CMD_MFR_VR_CONFIG, config)
    assert vrm.override_active is active
    assert vrm.output_mv == (845 if active else 1375)


def test_step_selector_rescales_override_only():
    vrm = mps()
    write(vrm, pm.CMD_VOUT_COMMAND, 0x00FF)
    write(vrm, pm.CMD_MFR_VR_CONFIG, 0x0108)  # 10 mV table + override arm
    assert vrm.output_mv == 1375  # SVID target unaffected by the PMBus table
    write(vrm, pm.CMD_OPERATION, 0x02)
    assert vrm.output_mv == 2840


def test_read_vout_follows_override():
    vrm = mps()
    assert read(vrm, pm.CMD_READ_VOUT) == 0xD8
    write(vrm, pm.CMD_VOUT_COMMAND, 0x006E)
    write(vrm, pm.CMD_OPERATION, 0x02)
    write(vrm, pm.CMD_MFR_VR_CONFIG, 0x0008)
    assert read(vrm, pm.CMD_READ_VOUT) == 0x6E


def test_page_isolation():
    vrm = mps()
    write(vrm, pm.CMD_PAGE, 0x01)
    assert read(vrm, pm.CMD_PAGE) == 0x01
    assert read(vrm, pm.CMD_READ_VOUT) == 0x0001  # static secondary rail
    write(vrm, pm.CMD_VOUT_COMMAND, 0x00FF)
    write(vrm, pm.CMD_OPERATION, 0x02)
    write(vrm, pm.CMD_MFR_VR_CONFIG, 0x0008)
    assert not vrm.override_active  # page-1 registers do not drive the rail
    assert vrm.output_mv == 1375
    write(vrm, pm.CMD_PAGE, 0x00)
    assert read(vrm, pm.CMD_OPERATION) == 0x00
    assert not write(vrm, pm.CMD_PAGE, 0x05).ok


@given(st.integers(0, 300))
def test_ocp_trips_only_above_limit(load):
    vrm = mps(ocp_limit_a=100)
    vrm.tick(load)
    assert vrm.powered is (load <= 100)


def test_ocp_disable_and_retune():
    vrm = mps(ocp_limit_a=100)
    write(vrm, pm.CMD_MFR_OCP_TOTAL_SET, 0x0000)
    vrm.tick(500)
    assert vrm.powered  # protection disabled
    write(vrm, pm.CMD_MFR_OCP_TOTAL_SET, 50)
    vrm.tick(60)
    assert not vrm.powered
    assert vrm.output_mv == 0
    assert read(vrm, pm.CMD_READ_VOUT) == 0


def test_reset_restores_configured_state():
    vrm = mps()
    write(vrm, pm.CMD_VOUT_COMMAND, 0x00FF)
    write(vrm, pm.CMD_OPERATION, 0x02)
    write(vrm, pm.CMD_MFR_VR_CONFIG, 0x0108)
    vrm.tick(500)
    fingerprint = VrmDevice(vrm.config, vrm.address).fingerprint()
    vrm.reset()
    assert vrm.fingerprint() == fingerprint
    assert vrm.powered and vrm.output_mv == 1375


def test_passcode_gates_manufacturer_writes():
    vrm = mps()
    assert write(vrm, pm.CMD_MFR_PWD_USER, 0xBEEF).ok  # set a passcode
    assert not write(vrm, pm.CMD_MFR_VR_CONFIG, 0x0008).ok
    assert write(vrm, pm.CMD_OPERATION, 0x02).ok  # standard commands unaffected
    assert not vrm.override_active
    # a 16-bit passcode falls to brute force in at most 65536 attempts
    attempts = 0
    for guess in range(0x10000):
        attempts += 1
        if write(vrm, pm.CMD_MFR_PWD_USER, guess).ok:
            break
    assert attempts == 0xBEEF + 1
    assert write(vrm, pm.CMD_MFR_VR_CONFIG, 0x0008).ok
    assert vrm.override_active


def test_intersil_immediate_off_sequence():
    vrm = intersil()
    write(vrm, pm.CMD_PAGE, 0x01)
    assert write(vrm, pm.CMD_ON_OFF_CONFIG, 0x08).ok
    assert not vrm.powered  # OPERATION on-bit is already clear
    assert vrm.output_mv == 0
    vrm.reset()
    write(vrm, pm.CMD_PAGE, 0x01)
    write(vrm, pm.CMD_OPERATION, 0x80)
    write(vrm, pm.CMD_ON_OFF_CONFIG, 0x08)
    assert vrm.powered
    write(vrm, pm.CMD_OPERATION, 0x00)
    assert not vrm.powered


def test_intersil_off_needs_rail_page():
    vrm = intersil()
    write(vrm, pm.CMD_PAGE, 0x00)
    write(vrm, pm.CMD_ON_OFF_CONFIG, 0x08)
    write(vrm, pm.CMD_OPERATION, 0x00)
    assert vrm.powered  # page 0 registers are not the rail
