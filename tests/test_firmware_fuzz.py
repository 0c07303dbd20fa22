"""Malformed firmware images fail only with the simulator's own errors.

Two kinds of input go through every firmware entry point: arbitrary bytes,
and a board's stock image with one field changed. The changed field is a
footer field, a table record's tag, offset, length or CRC, or an archive
record header; a CRC that covers the changed bytes is re-made, so the image
gets past that check to the parsing behind it. ``parse_package`` (with and
without the key), ``verify``, ``has_root_shell``, ``enable_root_shell`` and
``Bmc.upgrade_firmware`` may raise ``PmbusSimError`` and nothing else, and a
refused upgrade leaves the installed image and the root shell as they were.
"""

import functools
import lzma
import struct
import zlib

from hypothesis import given, settings, strategies as st

from pmbus_sim import Platform
from pmbus_sim import firmware as fw
from pmbus_sim.bmc import Channel, ChannelKind
from pmbus_sim.errors import PmbusSimError

BOARDS = ("x11ssl-cf", "x12dpi-nt6")  # unsigned and signed firmware
U32 = st.integers(0, 0xFFFFFFFF)


@functools.cache
def board(name: str) -> tuple[Platform, bytes]:
    """One platform and its stock image per board, shared by the whole module."""
    platform = Platform.from_profile(name)
    return platform, platform.build_stock_firmware()


def exercise(platform: Platform, data: bytes) -> None:
    key = platform.firmware_key
    pubkey = board("x12dpi-nt6")[0].bmc.signing_pubkey
    for parse_key in (None, key):
        try:
            pkg = fw.parse_package(data, parse_key)
        except PmbusSimError:
            continue
        fw.verify(pkg)
        fw.verify(pkg, pubkey)
        for patch_step in (fw.has_root_shell, fw.enable_root_shell):
            try:
                patch_step(pkg, key)
            except PmbusSimError:
                pass

    bmc = platform.bmc
    # a state no image yields, so that any partial commit shows
    bmc.installed_digest, bmc.root_shell = "before", True
    try:
        accepted = bmc.upgrade_firmware(Channel(ChannelKind.KCS, host_root=True), data).accepted
    except PmbusSimError:
        accepted = False
    if not accepted:
        assert (bmc.installed_digest, bmc.root_shell) == ("before", True)


# -- single-field mutations of a valid image -----------------------------------


def mutate_footer(image: bytes, key: fw.KeyMaterial, field: int, value) -> bytes:
    """Footer field ``field`` (0 is the magic) set to ``value``; no CRC covers the footer."""
    parts = list(fw._FOOTER_STRUCT.unpack_from(image, len(image) - fw.FOOTER_SIZE))
    parts[field] = value
    return image[: -fw.FOOTER_SIZE] + fw._FOOTER_STRUCT.pack(*parts).ljust(fw.FOOTER_SIZE, b"\x00")


def mutate_table_record(image: bytes, key: fw.KeyMaterial, at: tuple[int, int], value) -> bytes:
    """Field ``at[1]`` of table record ``at[0]`` set to ``value``, the table re-encrypted.

    Record fields: 0 tag, 2 offset, 3 length, 4 CRC. A new extent gets the CRC of
    the bytes it now covers.
    """
    record, field = at
    footer = fw.FwFooter.unpack(image[-fw.FOOTER_SIZE :])
    table_end = footer.table_off + footer.table_len
    table = bytearray(fw._decrypt_padded(key, image[footer.table_off : table_end]))
    start = record * fw._RECORD_STRUCT.size
    parts = list(fw._RECORD_STRUCT.unpack_from(table, start))
    parts[field] = value
    if field in (2, 3):
        parts[4] = zlib.crc32(image[parts[2] : parts[2] + parts[3]])
    fw._RECORD_STRUCT.pack_into(table, start, *parts)
    return image[: footer.table_off] + fw._encrypt_padded(key, bytes(table)) + image[table_end:]


def mutate_archive_header(image: bytes, key: fw.KeyMaterial, at: tuple[str, int, str], value) -> bytes:
    """Record ``at[1]`` of archive section ``at[0]`` with its name length (``"<H"``) or data
    length (``"<I"``) set to ``value``; the image is reassembled, so its CRCs are re-made."""
    section, record, fmt = at
    pkg = fw.parse_package(image, key)
    raw = bytearray(lzma.decompress(fw._crypt_header(key, pkg.section(section).data, encrypt=False)))
    headers, pos = [], 0
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        (data_len,) = struct.unpack_from("<I", raw, pos + 2 + name_len)
        headers.append((pos, pos + 2 + name_len))
        pos += 2 + name_len + 4 + data_len
    name_len_at, data_len_at = headers[record % len(headers)]
    struct.pack_into(fmt, raw, name_len_at if fmt == "<H" else data_len_at, value)
    sections = {s.name: s.data for s in pkg.sections}
    sections[section] = fw._crypt_header(key, lzma.compress(bytes(raw)), encrypt=True)
    return fw._assemble(sections, key, pkg.footer.version)


def _mutation(mutate, at, value):
    return st.tuples(st.just(mutate), at, value)


MUTATIONS = st.one_of(
    _mutation(mutate_footer, st.just(0), st.binary(min_size=8, max_size=8)),
    _mutation(mutate_footer, st.integers(1, 5), U32),
    _mutation(mutate_table_record, st.tuples(st.integers(0, 3), st.just(0)), st.binary(min_size=5, max_size=5)),
    _mutation(mutate_table_record, st.tuples(st.integers(0, 3), st.sampled_from((2, 3, 4))), U32),
    _mutation(
        mutate_archive_header,
        st.tuples(st.sampled_from(fw.ARCHIVE_SECTIONS), st.integers(0, 3), st.just("<H")),
        st.integers(0, 0xFFFF),
    ),
    _mutation(
        mutate_archive_header,
        st.tuples(st.sampled_from(fw.ARCHIVE_SECTIONS), st.integers(0, 3), st.just("<I")),
        U32,
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BOARDS), MUTATIONS)
def test_single_field_mutation_fails_only_with_simulator_errors(name, mutation):
    platform, stock = board(name)
    image, _ = fw._split_signature(stock)
    mutate, at, value = mutation
    # a signed image keeps its signature trailer, which no longer matches
    exercise(platform, mutate(image, platform.firmware_key, at, value) + stock[len(image) :])


# -- arbitrary bytes ---------------------------------------------------------------


def _footer_bytes(fields: tuple[int, ...]) -> bytes:
    return fw._FOOTER_STRUCT.pack(fw.FOOTER_MAGIC, *fields).ljust(fw.FOOTER_SIZE, b"\x00")


def _signature_trailer(length: int, signature: bytes) -> bytes:
    return signature + struct.pack("<I", length) + fw.SIG_MAGIC


ARBITRARY = st.one_of(
    st.binary(max_size=512),
    # arbitrary bytes behind the real magic reach the footer and table checks
    st.builds(
        lambda body, footer, trailer: body + footer + trailer,
        st.binary(max_size=512),
        st.builds(_footer_bytes, st.tuples(U32, U32, U32, U32, U32)),
        st.one_of(st.just(b""), st.builds(_signature_trailer, U32, st.binary(max_size=64))),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BOARDS), ARBITRARY)
def test_arbitrary_bytes_fail_only_with_simulator_errors(name, data):
    exercise(board(name)[0], data)
