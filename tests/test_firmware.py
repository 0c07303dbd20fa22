"""Firmware package format: build/parse/repack identity, tampering, patching."""

import dataclasses
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from pmbus_sim import firmware as fw
from pmbus_sim.cli import main
from pmbus_sim.errors import (
    BadArchive,
    BadFooter,
    BadMagic,
    DecryptFailed,
    NoSuchEntry,
    TruncatedImage,
)

KEY = fw.KeyMaterial(bytes(range(16)), bytes(range(16, 32)))


def build(signer=None, shell=b"\x7fELF-msh"):
    contents = {
        "nvram": b"\x00" * 64,
        "rootfs": [("SMASH/msh", shell), ("bin/sh", b"\x7fELF-sh"), ("etc/issue", b"hi\n")],
        "kernel": hashlib.sha256(b"kernel").digest() * 4,
        "webfs": [("index.html", b"<html></html>")],
    }
    return fw.build_package(contents, KEY, signer=signer)


def test_parse_repack_identity():
    img = build()
    pkg = fw.parse_package(img, KEY)
    assert fw.repack(pkg, KEY) == img
    assert [s.name for s in pkg.sections] == list(fw.SECTION_ORDER)
    assert pkg.footer.body_len == sum(s.length for s in pkg.sections)


def test_footer_fields_checked():
    img = build()
    with pytest.raises(BadMagic):
        fw.parse_package(img[:-fw.FOOTER_SIZE] + b"NOTAFOOT" + img[-fw.FOOTER_SIZE + 8 :], KEY)
    with pytest.raises(TruncatedImage):
        fw.parse_package(img[:32], KEY)
    # corrupt the table length so the extent runs past the image
    footer = bytearray(img[-fw.FOOTER_SIZE:])
    struct.pack_into("<I", footer, 20, 1 << 20)
    with pytest.raises(BadFooter):
        fw.parse_package(img[:-fw.FOOTER_SIZE] + bytes(footer), KEY)


def test_wrong_key_fails_cleanly():
    img = build()
    other = fw.KeyMaterial(bytes(16), bytes(16))
    with pytest.raises(DecryptFailed):
        fw.parse_package(img, other)


def test_non_utf8_table_name_fails_cleanly():
    img = build()
    footer = fw.FwFooter.unpack(img[-fw.FOOTER_SIZE :])
    table_blob = img[footer.table_off : footer.table_off + footer.table_len]
    table = bytearray(fw._decrypt_padded(KEY, table_blob))
    table[len(fw.TABLE_TAG)] = 0xFF  # first byte of the first record's name
    bad = img[: footer.table_off] + fw._encrypt_padded(KEY, bytes(table)) + img[-fw.FOOTER_SIZE :]
    with pytest.raises(BadArchive):
        fw.parse_package(bad, KEY)


def retabled(img, edit_records):
    """``img`` with its table records replaced by ``edit_records(records)``, re-encrypted."""
    footer = fw.FwFooter.unpack(img[-fw.FOOTER_SIZE :])
    plain = fw._decrypt_padded(KEY, img[footer.table_off : footer.table_off + footer.table_len])
    size = fw._RECORD_STRUCT.size
    records = [plain[i : i + size] for i in range(0, len(plain), size)]
    table = fw._encrypt_padded(KEY, b"".join(edit_records(records)))
    return img[: footer.table_off] + table + dataclasses.replace(footer, table_len=len(table)).pack()


@pytest.mark.parametrize(
    "edit_records",
    [
        lambda r: r[:3],  # no webfs
        lambda r: r + r[:1],  # nvram twice
        lambda r: [r[1], r[0], *r[2:]],  # out of order
        lambda r: [*r[:3], r[3].replace(b"webfs", b"webfz")],  # unknown section
    ],
    ids=["missing", "duplicate", "reordered", "renamed"],
)
def test_table_must_name_exactly_the_four_sections(tmp_path, capsys, edit_records):
    bad = retabled(build(), edit_records)
    with pytest.raises(BadArchive):
        fw.parse_package(bad, KEY)
    image, keyfile = tmp_path / "bad.img", tmp_path / "key.json"
    image.write_bytes(bad)
    KEY.save(keyfile)
    for command in ("repack", "patch-shell"):
        assert main(["fw", command, str(image), "--key-file", str(keyfile)]) == 1
        assert "error: BadArchive" in capsys.readouterr().err
    assert image.read_bytes() == bad


def test_parse_without_key_keeps_table_opaque():
    pkg = fw.parse_package(build(), None)
    assert pkg.table_encrypted and pkg.sections == []
    with pytest.raises(DecryptFailed):
        fw.repack(pkg, KEY)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.text(min_size=1, max_size=20), st.binary(max_size=200)), max_size=8))
def test_archive_roundtrip(entries):
    assert fw.unpack_archive(fw.pack_archive(entries, KEY), KEY) == entries


def test_archive_header_is_actually_encrypted():
    blob = fw.pack_archive([("a", b"x" * 4096)], KEY)
    with pytest.raises(DecryptFailed):
        fw.unpack_archive(blob, fw.KeyMaterial(bytes(16), bytes(16)))


def test_single_byte_corruption_flags_right_section():
    img = build()
    pkg = fw.parse_package(img, KEY)
    rng = random.Random(0)
    for _ in range(300):
        offset = rng.randrange(pkg.footer.body_len)
        corrupted = bytearray(img)
        corrupted[offset] ^= 1 << rng.randrange(8)
        report = fw.verify(fw.parse_package(bytes(corrupted), KEY))
        assert not report.ok
        hit = next(s.name for s in pkg.sections if s.offset <= offset < s.offset + s.length)
        assert report.section_crc[hit] is False
        for other in pkg.sections:
            if other.name != hit:
                assert report.section_crc[other.name] is True


def test_half_crc_covers_first_half_only():
    img = build()
    pkg = fw.parse_package(img, KEY)
    last = pkg.footer.body_len - 1
    corrupted = bytearray(img)
    corrupted[last] ^= 0x80
    report = fw.verify(fw.parse_package(bytes(corrupted), KEY))
    assert report.half_crc_ok and not report.ok


def test_signature_lifecycle():
    signer = fw.generate_signing_key()
    img = build(signer=signer)
    pkg = fw.parse_package(img, KEY)
    assert pkg.signature is not None
    pub = signer.public_key()
    assert fw.verify(pkg, pub).signature == "pass"
    assert fw.verify(fw.parse_package(build(), KEY), pub).signature == "absent"
    # any body change invalidates the signature
    patched = fw.enable_root_shell(pkg, KEY)
    tampered = patched + pkg.signature + struct.pack("<I", len(pkg.signature)) + fw.SIG_MAGIC
    assert fw.verify(fw.parse_package(tampered, KEY), pub).signature == "fail"


def test_enable_root_shell_is_idempotent():
    pkg = fw.parse_package(build(), KEY)
    assert not fw.has_root_shell(pkg, KEY)
    once = fw.parse_package(fw.enable_root_shell(pkg, KEY), KEY)
    assert fw.has_root_shell(once, KEY)
    assert fw.enable_root_shell(once, KEY) == once.image
    # only the shell entry changed
    before = dict(fw.rootfs_entries(pkg, KEY))
    after = dict(fw.rootfs_entries(once, KEY))
    assert after.pop(fw.SHELL_ENTRY) == fw.ROOT_SHELL_SCRIPT
    before.pop(fw.SHELL_ENTRY)
    assert before == after


def test_patching_requires_shell_entry():
    contents = {
        "nvram": b"",
        "rootfs": [("etc/issue", b"x")],
        "kernel": b"k",
        "webfs": [],
    }
    pkg = fw.parse_package(fw.build_package(contents, KEY), KEY)
    with pytest.raises(NoSuchEntry):
        fw.enable_root_shell(pkg, KEY)


def test_key_material_file_roundtrip(tmp_path):
    path = tmp_path / "key.json"
    KEY.save(path)
    assert fw.KeyMaterial.load(path) == KEY
