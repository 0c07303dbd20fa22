"""BMC channel authorization, firmware upgrade policy and I2C surfaces."""

import dataclasses
import gc
import lzma
import struct
import weakref

import pytest
from cryptography.hazmat.primitives.asymmetric import rsa

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import firmware as fw
from pmbus_sim import protocol as pm
from pmbus_sim.bmc import Channel, ChannelKind
from pmbus_sim.errors import (
    AuthFailure,
    ChainUnavailable,
    FilteredByPolicy,
    InvalidFrame,
    NoRootShell,
    PmbusSimError,
    TruncatedFrame,
    Unauthorized,
)
from pmbus_sim.protocol import Direction, Transaction


def lan(platform):
    channel = Channel(ChannelKind.LAN)
    user, password = next(iter(platform.bmc.credentials.items()))
    return platform.bmc.authenticate(channel, user, password)


def kcs():
    return Channel(ChannelKind.KCS, host_root=True)


def patched_image(platform):
    key = platform.firmware_key
    pkg = fw.parse_package(platform.build_stock_firmware(), key)
    return fw.enable_root_shell(pkg, key)


def test_lan_requires_valid_credentials(x11):
    with pytest.raises(AuthFailure):
        x11.bmc.authenticate(Channel(ChannelKind.LAN), "ADMIN", "wrong")
    with pytest.raises(AuthFailure):
        x11.bmc.authenticate(Channel(ChannelKind.LAN), "root", "JPDKXF3BQZ")
    assert lan(x11).authenticated


def test_kcs_never_authenticates_with_credentials(x11):
    with pytest.raises(ValueError):
        x11.bmc.authenticate(kcs(), "ADMIN", "JPDKXF3BQZ")


@pytest.mark.parametrize("make_channel", [lambda p: lan(p), lambda p: kcs()])
def test_upgrade_over_either_channel(x11, make_channel):
    result = x11.bmc.upgrade_firmware(make_channel(x11), patched_image(x11))
    assert result.accepted and x11.bmc.root_shell


def test_unauthorized_channels_refused(x11):
    img = x11.build_stock_firmware()
    assert x11.bmc.upgrade_firmware(Channel(ChannelKind.LAN), img).reason == "Unauthorized"
    assert x11.bmc.upgrade_firmware(Channel(ChannelKind.KCS), img).reason == "Unauthorized"
    with pytest.raises(Unauthorized):
        x11.bmc.ipmi_i2c(Channel(ChannelKind.KCS), 2, 0x40, b"\x8b")


def test_upgrade_rejects_garbage_and_bitrot(x11):
    assert x11.bmc.upgrade_firmware(kcs(), b"not a firmware image").reason == "TruncatedImage"
    img = bytearray(x11.build_stock_firmware())
    img[10] ^= 0xFF
    assert x11.bmc.upgrade_firmware(kcs(), bytes(img)).reason == "BadCrc"
    assert not x11.bmc.root_shell


def image_with_rootfs_archive(platform, raw_archive):
    """A CRC-valid image whose rootfs holds `raw_archive`, compressed and header-encrypted."""
    key = platform.firmware_key
    pkg = fw.parse_package(platform.build_stock_firmware(), key)
    sections = {s.name: s.data for s in pkg.sections}
    sections["rootfs"] = fw._crypt_header(key, lzma.compress(raw_archive), encrypt=True)
    return fw._assemble(sections, key, pkg.footer.version)


@pytest.mark.parametrize(
    "raw_archive",
    [
        struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<I", 0),  # non-UTF-8 record name
        struct.pack("<H", 9) + b"SMASH/msh" + b"\x01\x00",  # record cut inside its length field
        struct.pack("<H", 9) + b"SMASH/msh" + struct.pack("<I", 64) + b"#!",  # data cut short
    ],
    ids=["non-utf8-name", "cut-length", "cut-data"],
)
def test_upgrade_refuses_bad_rootfs_archive_without_committing(x11, raw_archive):
    image = image_with_rootfs_archive(x11, raw_archive)
    with pytest.raises(PmbusSimError):
        fw.rootfs_entries(fw.parse_package(image, x11.firmware_key), x11.firmware_key)
    result = x11.bmc.upgrade_firmware(kcs(), image)
    assert (result.accepted, result.reason) == (False, "BadArchive")
    assert x11.bmc.installed_digest is None and not x11.bmc.root_shell


def test_upgrade_refuses_a_table_without_webfs(x11):
    key = x11.firmware_key
    img = x11.build_stock_firmware()
    footer = fw.FwFooter.unpack(img[-fw.FOOTER_SIZE :])
    plain = fw._decrypt_padded(key, img[footer.table_off : footer.table_off + footer.table_len])
    table = fw._encrypt_padded(key, plain[: 3 * fw._RECORD_STRUCT.size])  # nvram, rootfs, kernel
    image = img[: footer.table_off] + table + dataclasses.replace(footer, table_len=len(table)).pack()
    result = x11.bmc.upgrade_firmware(kcs(), image)
    assert (result.accepted, result.reason) == (False, "BadArchive")
    assert x11.bmc.installed_digest is None


def test_upgrade_reports_the_real_parse_failure(x11):
    wrong_key = fw.KeyMaterial(bytes(16), bytes(16))
    pkg = fw.parse_package(x11.build_stock_firmware(), x11.firmware_key)
    foreign = fw.repack(pkg, wrong_key)
    assert x11.bmc.upgrade_firmware(kcs(), foreign).reason == "DecryptFailed"
    assert x11.bmc.installed_digest is None


def test_stock_firmware_grants_no_shell(x11):
    assert x11.bmc.upgrade_firmware(kcs(), x11.build_stock_firmware()).accepted
    assert not x11.bmc.root_shell


def test_x12_demands_vendor_signature(x12):
    assert x12.bmc.upgrade_firmware(kcs(), patched_image(x12)).reason == "BadSignature"
    assert x12.bmc.upgrade_firmware(kcs(), x12.build_stock_firmware()).accepted


def test_x12_boards_trust_one_vendor_key(x12):
    other = Platform.from_profile("x12dpi-nt6", seed=7)
    assert other.vendor_signing_key is x12.vendor_signing_key
    image = x12.build_stock_firmware()
    assert other.build_stock_firmware() == image  # signing is deterministic, so is the image
    for verifier in (x12, other):
        pkg = fw.parse_package(image, verifier.firmware_key)
        assert fw.verify(pkg, verifier.bmc.signing_pubkey).signature == "pass"
    assert other.bmc.upgrade_firmware(kcs(), image).accepted


@pytest.fixture
def package_builds(monkeypatch):
    """Counts every ``fw.build_package`` call."""
    calls = []
    build = fw.build_package

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(fw, "build_package", counting)
    return calls


def test_a_board_builds_its_stock_image_once(x12, package_builds):
    image = x12.build_stock_firmware()
    assert x12.build_stock_firmware() is image
    for chain in (camp.Chain.LAN_FIRMWARE, camp.Chain.KCS_FIRMWARE):
        with pytest.raises(ChainUnavailable, match="BadSignature"):
            camp.establish_chain(x12, chain)
    assert len(package_builds) == 1
    assert x12.build_stock_firmware() is image


@pytest.mark.parametrize("profile", ["x11ssl-cf", "x12dpi-nt6"])
def test_each_board_builds_its_own_equal_stock_image(package_builds, profile):
    first = Platform.from_profile(profile, seed=0)
    second = Platform.from_profile(profile, seed=1)
    assert package_builds == []  # building a board builds no image
    assert first.build_stock_firmware() == second.build_stock_firmware()
    assert len(package_builds) == 2


def test_a_tampered_copy_leaves_the_stock_image_unchanged(x11):
    tampered = bytearray(x11.build_stock_firmware())
    tampered[len(tampered) // 2] ^= 0x01
    assert x11.bmc.upgrade_firmware(kcs(), bytes(tampered)).reason == "BadCrc"
    image = x11.build_stock_firmware()
    assert image == Platform.from_profile("x11ssl-cf", seed=0).build_stock_firmware()
    assert x11.bmc.upgrade_firmware(kcs(), image).accepted


def test_x12_refuses_an_image_signed_by_another_key(x12):
    foreign = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    pkg = fw.parse_package(x12.build_stock_firmware(), x12.firmware_key)
    image = fw.repack(pkg, x12.firmware_key, foreign)
    assert fw.verify(fw.parse_package(image, x12.firmware_key), foreign.public_key()).ok
    assert x12.bmc.upgrade_firmware(kcs(), image).reason == "BadSignature"
    assert x12.bmc.installed_digest is None


def test_x12_rejects_corrupted_signature(x12):
    img = bytearray(x12.build_stock_firmware())
    img[-20] ^= 0x01  # inside the signature trailer
    assert x12.bmc.upgrade_firmware(kcs(), bytes(img)).reason == "BadSignature"


def test_ipmi_i2c_addressing(x11):
    reply = x11.bmc.ipmi_i2c(kcs(), 2, (0x20 << 1) | 1, bytes([pm.CMD_READ_VOUT]))
    assert reply.ok and reply.data == b"\xd8\x00"
    with pytest.raises(TruncatedFrame):
        x11.bmc.ipmi_i2c(kcs(), 2, 0x40, b"")


@pytest.mark.parametrize(
    "payload",
    [
        bytes([pm.CMD_VOUT_COMMAND, 0x6E, 0x00, 0x00, 0x00]),  # 4 data bytes for a 2-byte command
        bytes([pm.CMD_VOUT_COMMAND, 0x6E]),
        bytes([0x99, 1, 2, 3, 4, 5]),  # more than 4 data bytes
    ],
    ids=["vout-4-bytes", "vout-1-byte", "5-data-bytes"],
)
def test_ipmi_i2c_refuses_a_frame_the_command_cannot_take(x11, payload):
    before = x11.fabric.state_fingerprint()
    with pytest.raises(InvalidFrame):
        x11.bmc.ipmi_i2c(kcs(), 2, 0x20 << 1, payload)
    assert x11.fabric.state_fingerprint() == before and x11.fabric.transcript == []


@pytest.mark.parametrize(
    "payload",
    [
        [-1],
        [pm.CMD_VOUT_COMMAND, 0x100, 0],
        [pm.CMD_OPERATION, "2"],
        "ab",
        # each of these used to be coerced by bytes() into a frame nobody sent
        2,  # a PAGE write of 00
        range(0x21, 0x24),
        {0x00: 1},
        {0x21},
        bytearray(b"\x21\x6e\x00"),
        [0x21, 0x6E, 0x00],
    ],
)
def test_ipmi_i2c_refuses_a_payload_of_non_bytes(x11, payload):
    before = x11.fabric.state_fingerprint()
    with pytest.raises(InvalidFrame):
        x11.bmc.ipmi_i2c(kcs(), 2, 0x20 << 1, payload)
    assert x11.fabric.transcript == [] and x11.fabric.state_fingerprint() == before


@pytest.mark.parametrize("addr_byte", [64.0, "@", True])
def test_ipmi_i2c_refuses_an_address_byte_of_non_int(x11, addr_byte):
    before = x11.fabric.state_fingerprint()
    with pytest.raises(InvalidFrame):
        x11.bmc.ipmi_i2c(kcs(), 2, addr_byte, bytes([pm.CMD_VOUT_COMMAND, 0x6E, 0x00]))
    assert x11.fabric.transcript == [] and x11.fabric.state_fingerprint() == before


def test_ipmi_i2c_write_reaches_vrm(x11):
    assert x11.bmc.ipmi_i2c(kcs(), 2, 0x20 << 1, bytes([pm.CMD_VOUT_COMMAND, 0x6E, 0x00])).ok
    assert x11.main_vrm.registers[0][pm.CMD_VOUT_COMMAND] == 0x6E


def test_x12_filters_vrm_writes_but_not_reads(x12):
    with pytest.raises(FilteredByPolicy):
        x12.bmc.ipmi_i2c(kcs(), 2, 0x30 << 1, bytes([pm.CMD_VOUT_COMMAND, 0x6E, 0x00]))
    assert x12.bmc.ipmi_i2c(kcs(), 2, (0x30 << 1) | 1, bytes([pm.CMD_READ_VOUT])).ok


def test_raw_master_needs_root_shell(x11):
    t = Transaction(0x20, Direction.WRITE, pm.CMD_OPERATION, b"\x02")
    with pytest.raises(NoRootShell):
        x11.bmc.raw_master(2, t)
    x11.bmc.upgrade_firmware(kcs(), patched_image(x11))
    assert x11.bmc.raw_master(2, t).ok


def test_root_shell_bypasses_x12_ipmi_filter(x12):
    """The IPMI-level filter stops passthrough, not code running on the BMC."""
    x12.bmc.root_shell = True  # as if installed via a signed-but-patched image
    t = Transaction(0x30, Direction.WRITE, pm.CMD_VOUT_COMMAND, b"\x6e\x00")
    assert x12.bmc.raw_master(2, t).ok


def test_a_dropped_platform_is_freed_without_the_cycle_collector():
    """The BMC's write path holds the platform weakly, so no reference cycle keeps a board alive."""
    gc.disable()
    try:
        platform = Platform.from_profile("x11ssl-cf")
        freed = weakref.ref(platform)
        del platform
        assert freed() is None
    finally:
        gc.enable()
