"""Bus routing, jumper gating, write permissions and scan behavior."""

import pytest
import yaml

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import filterguard as fg
from pmbus_sim import protocol as pm
from pmbus_sim.bmc import Channel, ChannelKind
from pmbus_sim.cpu import CpuStatus
from pmbus_sim.errors import (
    AddressInUse,
    ChannelBlocked,
    CpuUnavailable,
    InterposerPresent,
)
from pmbus_sim.fabric import BusReply, DeviceSpec, DummyDevice, Fabric, MasterPort, ReplyStatus
from pmbus_sim.protocol import Direction, Transaction
from pmbus_sim.vrm import VrmConfig, VrmDevice

X11_BUS0 = {0x37, 0x50, 0x58}
X11_BUS1 = {0x08, 0x10, 0x19, 0x20, 0x30, 0x35, 0x36, 0x44, 0x51}


def read(fabric, master, bus, address, command):
    return fabric.master_transfer(master, bus, Transaction(address, Direction.READ, command))


def test_scan_matches_board_maps(x11):
    assert x11.fabric.scan_bus("cpu", 0) == X11_BUS0
    assert x11.fabric.scan_bus("cpu", 1) == X11_BUS1


def test_scan_is_read_only(x11):
    before = x11.fabric.state_fingerprint()
    x11.fabric.scan_bus("cpu", 0)
    x11.fabric.scan_bus("cpu", 1)
    assert x11.fabric.state_fingerprint() == before


def test_master_local_bus_numbering(x11):
    """CPU reaches the VRM as bus 1; the BMC reaches the same part as bus 2."""
    via_cpu = read(x11.fabric, "cpu", 1, 0x20, pm.CMD_READ_TEMPERATURE)
    via_bmc = read(x11.fabric, "bmc", 2, 0x20, pm.CMD_READ_TEMPERATURE)
    assert via_cpu.ok and via_cpu == via_bmc
    assert not read(x11.fabric, "bmc", 1, 0x20, pm.CMD_READ_TEMPERATURE).ok


def test_dummy_devices_ack_probe_but_nack_commands(x11):
    assert 0x37 in x11.fabric.scan_bus("cpu", 0)
    assert not read(x11.fabric, "cpu", 0, 0x37, pm.CMD_READ_TEMPERATURE).ok


def test_device_jumpers_gate_the_vrm(x11, edited_board):
    assert read(x11.fabric, "cpu", 1, 0x20, pm.CMD_READ_TEMPERATURE).ok
    fabric = edited_board("x11ssl-cf", lambda doc: doc["jumpers"].update(SMBDAT_VRM="disconnected")).fabric
    for master, bus in (("cpu", 1), ("bmc", 2)):
        assert read(fabric, master, bus, 0x20, pm.CMD_READ_TEMPERATURE).status is ReplyStatus.NACK
    assert fabric.scan_bus("cpu", 1) == X11_BUS1 - {0x20}


def test_master_jumper_gates_whole_port(x11, edited_board):
    assert x11.fabric.scan_bus("pcie", 1) == set()  # JI2C ships disconnected
    bridged = edited_board("x11ssl-cf", lambda doc: doc["jumpers"].update(JI2C="connected"))
    assert bridged.fabric.scan_bus("pcie", 1) == X11_BUS1


def test_write_master_acl(asrock):
    t = Transaction(0x60, Direction.WRITE, pm.CMD_PAGE, b"\x01")
    assert asrock.fabric.master_transfer("cpu", 2, t).ok
    assert not asrock.fabric.master_transfer("bmc", 2, t).ok
    # reads are not restricted by the write ACL
    assert read(asrock.fabric, "bmc", 2, 0x60, pm.CMD_READ_TEMPERATURE).ok


def test_empty_write_master_list_refuses_every_write(edited_board):
    fabric = edited_board("e3c246d4i-2t", lambda doc: doc["devices"][-1].update(write_masters=[])).fabric
    t = Transaction(0x60, Direction.WRITE, pm.CMD_PAGE, b"\x01")
    assert not fabric.master_transfer("cpu", 2, t).ok
    assert not fabric.master_transfer("bmc", 2, t).ok
    assert read(fabric, "bmc", 2, 0x60, pm.CMD_READ_TEMPERATURE).ok


def test_address_collision_rejected():
    cpu = MasterPort("cpu", {0: 0})
    slot = DeviceSpec(bus=0, address=0x20)
    Fabric({}, [cpu], [(slot, DummyDevice()), (DeviceSpec(bus=1, address=0x20), DummyDevice())])
    with pytest.raises(AddressInUse):
        Fabric({}, [cpu], [(slot, DummyDevice()), (slot, DummyDevice())])


def test_one_interposer_per_bus(x11):
    class PassThrough:
        def submit(self, t):
            return None

    x11.fabric.insert_interposer(1, PassThrough())
    with pytest.raises(InterposerPresent):
        x11.fabric.insert_interposer(1, PassThrough())


def test_interposer_veto_styles(x11):
    class Veto:
        def __init__(self, reply):
            self.reply = reply

        def submit(self, t):
            return self.reply if t.is_write else None

    x11.fabric.insert_interposer(1, Veto(BusReply(ReplyStatus.JAMMED)))
    before = x11.main_vrm.fingerprint()
    t = Transaction(0x20, Direction.WRITE, pm.CMD_PAGE, b"\x01")
    assert x11.fabric.master_transfer("cpu", 1, t).status is ReplyStatus.JAMMED
    assert x11.main_vrm.fingerprint() == before  # vetoed writes never land
    assert read(x11.fabric, "cpu", 1, 0x20, pm.CMD_READ_VOUT).ok


def test_unknown_master_raises(x11):
    for _ in range(2):  # an unknown master leaves no route behind
        with pytest.raises(ChannelBlocked):
            x11.fabric.master_transfer("dma", 0, Transaction(0x20, Direction.READ, 0x00))


VOUT_WRITE = Transaction(0x20, Direction.WRITE, pm.CMD_VOUT_COMMAND, b"\xd8\x00")


def test_an_interposer_inserted_after_a_write_sees_the_next_one(x11):
    """A filter that goes in once the chain has written to the VRM still judges every later write."""
    fabric = x11.fabric
    assert fabric.master_transfer("bmc", 2, VOUT_WRITE).ok
    policy = fg.FilterPolicy(mode=fg.PolicyMode.BLOCKLIST, blocked_commands=frozenset({pm.CMD_VOUT_COMMAND}))
    fabric.insert_interposer(1, fg.BusFilter(policy))
    assert fabric.master_transfer("bmc", 2, VOUT_WRITE).status is ReplyStatus.JAMMED


def test_missing_device_nacks():
    vrm = (DeviceSpec(bus=0, address=0x20), VrmDevice(VrmConfig(), 0x20))
    fabric = Fabric({}, [MasterPort("cpu", {0: 0})], [vrm])
    assert fabric.master_transfer("cpu", 0, Transaction(0x20, Direction.READ, pm.CMD_READ_VOUT)).ok
    reply = fabric.master_transfer("cpu", 0, Transaction(0x21, Direction.READ, pm.CMD_READ_VOUT))
    assert reply.status is ReplyStatus.NACK


def test_route_helpers_invert_each_other(x11):
    """``vrm_bus`` names the local bus on which ``route`` reaches the VRM, and only that one."""
    fabric, vrm = x11.fabric, x11.main_vrm
    assert fabric.route("bmc", 2, vrm.address)[0] is vrm and x11.vrm_bus("bmc") == 2
    assert fabric.route("bmc", 1, vrm.address)[0] is None  # the BMC has no bus 1
    assert fabric.route("bmc", 2, 0x50)[0] is None  # nor any way to the CPU's bus 0
    assert fabric.route("pcie", 1, vrm.address)[0] is None  # JI2C ships disconnected
    assert x11.vrm_bus("pcie") is None  # so pcie has no VRM bus, though its map has one


@pytest.mark.parametrize(
    "name, jumpers",
    [
        ("x11ssl-cf", {}),
        ("x12dpi-nt6", {}),
        ("e3c246d4i-2t", {}),
        ("x11ssl-cf", {"SMBDAT_VRM": "disconnected"}),
        ("x11ssl-cf", {"JI2C": "connected"}),
    ],
    ids=["x11ssl-cf", "x12dpi-nt6", "e3c246d4i-2t", "x11-vrm-jumper-open", "x11-ji2c-bridged"],
)
def test_vrm_bus_agrees_with_scan_bus(edited_board, name, jumpers):
    """``vrm_bus`` used to ignore jumpers: on x11ssl-cf it named pcie's bus 1, where a scan finds nothing."""
    platform = edited_board(name, lambda doc: doc["jumpers"].update(jumpers)) if jumpers else Platform.from_profile(name)
    address = platform.main_vrm.address
    for port in platform.config.masters:
        reaching = [bus for bus in port.bus_map if address in platform.fabric.scan_bus(port.name, bus)]
        assert platform.vrm_bus(port.name) in (reaching or [None]), port.name


CAMPAIGN_ORDER = (pm.CMD_VOUT_COMMAND, pm.CMD_OPERATION, pm.CMD_MFR_VR_CONFIG)
OPERATION_LAST = (pm.CMD_VOUT_COMMAND, pm.CMD_MFR_VR_CONFIG, pm.CMD_OPERATION)


def override_writes(platform, order=CAMPAIGN_ORDER):
    """A switch into fix mode at the present VID, as VRM writes to 0x20; by default in the
    undervolt campaign's order."""
    values = {
        pm.CMD_VOUT_COMMAND: platform.main_vrm.svid_vid,
        pm.CMD_OPERATION: pm.OPERATION_PMBUS_OVERRIDE,
        pm.CMD_MFR_VR_CONFIG: pm.VR_CONFIG_FIX_MODE,
    }
    return [
        Transaction(0x20, Direction.WRITE, command, pm.encode_value(command, values[command]))
        for command in order
    ]


@pytest.mark.parametrize(
    "bus, order",
    [
        pytest.param(0, CAMPAIGN_ORDER, id="0"),
        pytest.param(1, CAMPAIGN_ORDER, id="1"),
        pytest.param(1, OPERATION_LAST, id="1-operation-last"),
    ],
)
def test_cpu_override_write_stalls_on_any_bus(tmp_path, bus, order):
    """A CPU-issued override sequence stalls the CPU wherever its VRM sits, bus 0 included,
    and whichever write completes the override."""
    doc = {
        "name": f"one-vrm-bus{bus}",
        "masters": {"cpu": {"buses": {bus: bus}}, "bmc": {"buses": {2: bus}}},
        "devices": [{"bus": bus, "address": 0x20, "kind": "vrm"}],
        "bmc": {"generation": "X11", "credentials": {}},
    }
    path = tmp_path / "board.yaml"
    path.write_text(yaml.safe_dump(doc))
    platform = Platform.from_profile(str(path))
    for t in override_writes(platform, order):
        assert platform.transfer("cpu", bus, t).ok
    assert platform.cpu.status is CpuStatus.STALLED


def test_bmc_clearing_the_override_ends_the_stall(x11):
    """The stalled CPU cannot undo its own override; a BMC write clearing fix mode resumes it."""
    for t in override_writes(x11):
        x11.transfer("cpu", 1, t)
    assert x11.cpu.status is CpuStatus.STALLED
    clear = bytes([pm.CMD_MFR_VR_CONFIG, 0x00, 0x00])
    with pytest.raises(CpuUnavailable):
        x11.transfer("cpu", 1, Transaction(0x20, Direction.WRITE, clear[0], clear[1:]))
    assert x11.bmc.ipmi_i2c(Channel(ChannelKind.KCS, host_root=True), 2, 0x20 << 1, clear).ok
    assert not x11.main_vrm.override_active
    assert x11.cpu.status is CpuStatus.RUNNING


def ocp_below_the_load(platform):
    limit = int(platform.config.nominal_load_a) - 1
    payload = pm.encode_value(pm.CMD_MFR_OCP_TOTAL_SET, limit)
    return Transaction(0x20, Direction.WRITE, pm.CMD_MFR_OCP_TOTAL_SET, payload)


def test_ocp_limit_below_the_load_trips_the_rail_on_settle(x11):
    """Settle feeds the rail's load current to the OCP check and the collapse to the CPU."""
    t = ocp_below_the_load(x11)
    assert x11.fabric.master_transfer("bmc", 2, t).ok  # the bare fabric does not settle
    assert x11.main_vrm.powered and x11.cpu.status is CpuStatus.RUNNING
    x11.settle()
    assert not x11.main_vrm.powered
    assert x11.main_vrm.output_mv == 0
    assert x11.cpu.supply_mv == 0
    assert x11.cpu.status is CpuStatus.CRASHED


def ipmi_i2c_write(platform, t):
    payload = bytes([t.command]) + t.payload
    return platform.bmc.ipmi_i2c(Channel(ChannelKind.KCS, host_root=True), 2, t.address << 1, payload)


def raw_master_write(platform, t):
    camp.establish_chain(platform, camp.Chain.KCS_FIRMWARE)  # installs the root shell
    return platform.bmc.raw_master(2, t)


@pytest.mark.parametrize(
    "write",
    [ipmi_i2c_write, raw_master_write, lambda platform, t: platform.transfer("cpu", 1, t)],
    ids=["bmc-ipmi-i2c", "bmc-raw-master", "cpu"],
)
def test_every_master_write_settles_the_rail(x11, write):
    """A write through the platform trips the OCP at once, with no explicit settle()."""
    t = ocp_below_the_load(x11)
    assert write(x11, t).ok
    assert not x11.main_vrm.powered
    assert x11.cpu.supply_mv == 0
    assert x11.cpu.status is CpuStatus.CRASHED
    with pytest.raises(CpuUnavailable):
        x11.transfer("cpu", 1, t)
